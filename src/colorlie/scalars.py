"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

A scalar is a residue in Q[x]/(Phi_m(x)), stored as an integer numerator
vector ``num`` of length phi(m) = deg Phi_m over one integer denominator
``den``: the value is sum(num[k] * zeta_m^k) / den. The pair is kept in
lowest terms, with den > 0 and gcd(num..., den) == 1, so zero is
((0,) * phi(m), 1). Every value has exactly one such form, and equality is
structural. For m in {1, 2} the field is the rationals and ``num`` has one
entry; rationals given as input are plain ``fractions.Fraction`` values.

Every field operation runs on integers. Phi_m is monic with integer
coefficients, so an integer polynomial reduced mod Phi_m by long division
over the nonzero terms of Phi_m stays integral. A product is one integer
polynomial product, one such reduction and one gcd; a sum brings both
numerators to one common denominator and divides by one gcd. An inverse
runs a primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1;
Collins, J. ACM 14, 1967): the half-extended Euclidean algorithm on integer
polynomials, each step one pseudo-division followed by division by the
content. The read-only ``coeffs`` property gives the value back as phi(m)
``Fraction`` coefficients; no module of the package reads it. A sum of products
that is only tested for zero skips the class: ``_add_product`` adds
x^t * a * b into one integer polynomial, so a twist by zeta^t is a shift by
t, and ``_nonzero_sum`` decides the whole sum with one ``_reduce_int``; at
m <= 2 it adds plain ints, with zeta_2^t = (-1)^t.

Where phi(m) = 1 (m in {1, 2}) the operators take a one-numerator branch:
an operand of the same class and conductor skips coercion, and a product or
sum is lowest-terms rational arithmetic on ``num[0]`` and ``den`` with one
gcd (Knuth, TAOCP vol. 2, 4.5.1). The entry update b - c * v of elimination
and row assembly is one private fused operation, ``_sub_product``, which on
three scalars of one field Q builds one scalar with one gcd and otherwise is
the operators.

Text format (used in algebra files and CLI output): rationals as ``p/q``
or ``p``; field elements as polynomials in the symbol ``z`` with rational
coefficients, e.g. ``1/2*z^2 - 3``, interpreted against a given conductor
and reduced on parse. Serialization emits the reduced form with terms in
decreasing degree.

No floating point is used anywhere.

Arithmetic results are built by the private ``_trusted`` (through
``_normalized`` where a common factor may remain), which stores the
integer form as it is. Outside input goes through ``CycloScalar(m,
coeffs)``, which reads ``Fraction``s, or ``parse_scalar``, which reads
each term's p/q as two ints; both clear the denominators with one lcm
and reduce on integers. ``format_scalar`` reads each coefficient with
one gcd, so the text format makes no ``Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from .errors import ConductorMismatch, NotDivisible, ParseError


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    # Integer pseudo-division, coeffs ascending, len(a) >= len(b), b[-1] != 0:
    # (q, r, f) with f * a == q * b + r, len(r) == len(b) - 1, and f > 0 a
    # product of divisors of b[-1], so f == 1 when b is monic
    db = len(b) - 1
    lead = b[-1]
    terms = [(i, c) for i, c in enumerate(b[:db]) if c]
    r, q, f = list(a), [0] * (len(a) - db), 1
    for k in range(len(a) - 1, db - 1, -1):
        c = r.pop()
        if c:
            g = gcd(c, lead) if lead > 0 else -gcd(c, lead)
            scale, c = lead // g, c // g
            if scale != 1:
                r = [scale * x for x in r]
                q = [scale * x for x in q]
                f *= scale
            base = k - db
            q[base] = c
            for i, p in terms:
                r[base + i] -= c * p
    return q, r, f


def _substitute_power(poly: list[int], stride: int) -> list[int]:
    # coefficients of poly(x^stride), ascending
    out = [0] * ((len(poly) - 1) * stride + 1)
    out[::stride] = poly
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending degree (integer, monic).

    Built on the squarefree kernel rad(m), one prime at a time, using
    Phi_np(x) = Phi_n(x^p) / Phi_n(x) for a prime p not dividing n; then
    Phi_m(x) = Phi_rad(m)(x^(m / rad(m))). The cost is polynomial in phi(m),
    with one exact division per prime factor.
    """
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    poly, rad, rest, p = [-1, 1], 1, m, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # no factor up to its square root: rest is prime
        if rest % p == 0:
            poly, remainder, _ = _pseudo_divmod(_substitute_power(poly, p), poly)
            assert not any(remainder), "division was not exact"
            rad *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return tuple(_substitute_power(poly, m // rad))


def totient(m: int) -> int:
    """Euler phi(m), read off as the degree of Phi_m."""
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _phi_terms(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # deg Phi_m and the nonzero terms (i, c) of Phi_m below its leading 1
    poly = cyclotomic_polynomial(m)
    deg = len(poly) - 1
    return deg, tuple((i, c) for i, c in enumerate(poly[:deg]) if c)


def _reduce_int(work: list[int], m: int) -> tuple[int, ...]:
    # Remainder of an integer polynomial mod Phi_m, length phi(m); consumes work.
    deg, terms = _phi_terms(m)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            base = k - deg
            for i, p in terms:
                work[base + i] -= c * p
    del work[deg:]
    work.extend([0] * (deg - len(work)))
    return tuple(work)


def _add_product(acc: list, shift: int, a: tuple, b: tuple) -> None:
    # acc += x^shift * a * b on integer coefficients, ascending; acc is long enough
    for i, ai in enumerate(a, shift):
        if ai:
            for j, bj in enumerate(b, i):
                acc[j] += ai * bj


def _nonzero_sum(terms, m: int) -> bool:
    # whether some k of the sum of x^t * u * v over (t, us, rows) in terms, (l, u) in us and (k, v)
    # in rows[l] is nonzero mod Phi_m; u, v are integer numerators, t < m; each k is reduced once
    if m <= 2:  # one numerator each, and zeta_2^t = (-1)^t: plain int sums
        acc = {}
        for t, us, rows in terms:
            for l, (u,) in us:
                u = -u if t % 2 else u
                for k, (v,) in rows[l]:
                    acc[k] = acc.get(k, 0) + u * v
        return any(acc.values())
    size = m + 2 * _phi_terms(m)[0] - 2  # x^t times a product of two numerators
    acc = {}
    for t, us, rows in terms:
        for l, u in us:
            for k, v in rows[l]:
                _add_product(acc.get(k) or acc.setdefault(k, [0] * size), t, u, v)
    return any(any(_reduce_int(w, m)) for w in acc.values() if any(w))


class CycloScalar:
    """An element of Q(zeta_m) in reduced residue form.

    Immutable; arithmetic requires both operands to share the conductor
    (ints and Fractions coerce to constants). Use :meth:`lift` to move to
    a larger conductor first.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs):
        # any number of coefficients of 1, zeta_m, zeta_m^2, ...: clear the
        # denominators with one lcm, then reduce mod Phi_m on integers
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        s = _normalized(conductor, _reduce_int(num, conductor), den)
        _set_conductor(self, conductor)
        _set_num(self, s.num)
        _set_den(self, s.den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloScalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(m) rational coefficients of 1, zeta_m, zeta_m^2, ..."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @staticmethod
    def from_rational(q, conductor: int = 1) -> "CycloScalar":
        q = Fraction(q)
        zeros = (0,) * (totient(conductor) - 1)
        return _trusted(conductor, (q.numerator,) + zeros, q.denominator)

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(conductor: int = 1) -> "CycloScalar":
        return CycloScalar.from_rational(0, conductor)

    @staticmethod
    @lru_cache(maxsize=None)
    def one(conductor: int = 1) -> "CycloScalar":
        return CycloScalar.from_rational(1, conductor)

    @staticmethod
    @lru_cache(maxsize=None)
    def root(conductor: int, k: int = 1) -> "CycloScalar":
        """zeta_m^k in reduced form; k is taken mod m."""
        k %= conductor
        return _trusted(conductor, _reduce_int([0] * k + [1], conductor), 1)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloScalar):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductors differ: {self.conductor} vs {other.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloScalar.from_rational(other, self.conductor)
        return None

    def __add__(self, other):
        if type(other) is not CycloScalar or other.conductor != self.conductor:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _combine(self, other, add)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not CycloScalar or other.conductor != self.conductor:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _combine(self, other, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _trusted(self.conductor, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if type(other) is not CycloScalar or other.conductor != self.conductor:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        if len(a) == 1:  # a rational field: one product, one gcd
            n, d = a[0] * b[0], self.den * other.den
            g = gcd(n, d)
            return _trusted(self.conductor, (n // g,), d // g)
        prod = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
        return _normalized(
            self.conductor, _reduce_int(prod, self.conductor), self.den * other.den
        )

    __rmul__ = __mul__

    def inv(self) -> "CycloScalar":
        """Multiplicative inverse, by a primitive pseudo-remainder sequence mod Phi_m.

        The half-extended Euclidean algorithm on integer polynomials keeps
        r == s * num (mod Phi_m). Each step is one pseudo-division, and the
        new (r, s) pair is divided by the gcd of all its coefficients. It
        stops at a constant r == c, nonzero because Phi_m is irreducible;
        then (num / den)^-1 == den * s / c.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        m, den = self.conductor, self.den
        if len(self.num) == 1:  # a rational field: den / num is in lowest terms
            n = self.num[0]
            return _trusted(m, (den,), n) if n > 0 else _trusted(m, (-den,), -n)
        r0, s0, r1, s1 = list(cyclotomic_polynomial(m)), [0], list(self.num), [1]
        while not r1[-1]:
            r1.pop()
        while len(r1) > 1:
            q, r, f = _pseudo_divmod(r0, r1)
            while r and not r[-1]:
                r.pop()
            assert r, "gcd with Phi_m is not constant"
            s = [f * c for c in s0] + [0] * (len(q) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1, i):
                        s[j] -= qi * sj
            g = gcd(*r, *s)
            if g != 1:
                r = [c // g for c in r]
                s = [c // g for c in s]
            r0, s0, r1, s1 = r1, s1, r, s
        c = r1[0]
        if c < 0:
            c, den = -c, -den
        return _normalized(m, _reduce_int([den * x for x in s1], m), c)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inv()
        result = CycloScalar.one(self.conductor)
        for _ in range(abs(k)):
            result = result * base
        return result

    def lift(self, conductor: int) -> "CycloScalar":
        """The same field element with the larger conductor (zeta_m = zeta_m'^(m'/m))."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise NotDivisible(
                f"cannot lift conductor {self.conductor} to {conductor}"
            )
        spread = _substitute_power(list(self.num), conductor // self.conductor)
        return _normalized(conductor, _reduce_int(spread, conductor), self.den)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (
                self.is_rational()
                and self.num[0] == other.numerator
                and self.den == other.denominator
            )
        if not isinstance(other, CycloScalar):
            return NotImplemented
        a, b = self, other
        if a.conductor != b.conductor:
            m = lcm(a.conductor, b.conductor)
            a, b = a.lift(m), b.lift(m)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # cross-conductor equality has no cheap canonical hash

    def __bool__(self):
        # zero is stored over den 1, so any other den means nonzero
        return self.den != 1 or any(self.num)

    def __repr__(self):
        return f"CycloScalar(m={self.conductor}, {format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


_set_conductor = CycloScalar.conductor.__set__
_set_num = CycloScalar.num.__set__
_set_den = CycloScalar.den.__set__


def _trusted(conductor: int, num: tuple, den: int) -> CycloScalar:
    # num must already be a reduced tuple of exactly phi(conductor) ints, and
    # (num, den) in lowest terms, as the arithmetic produces; nothing is
    # checked or copied
    s = object.__new__(CycloScalar)
    _set_conductor(s, conductor)
    _set_num(s, num)
    _set_den(s, den)
    return s


def _normalized(conductor: int, num: tuple, den: int) -> CycloScalar:
    # num / den with den > 0, divided by its one common factor
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
    return _trusted(conductor, num, den)


def _combine(a: CycloScalar, b: CycloScalar, op) -> CycloScalar:
    # op(a, b) for op in (add, sub), over one common denominator
    da, db = a.den, b.den
    if len(a.num) == 1:  # a rational field: cross-multiply, then one gcd
        n, d = op(a.num[0] * db, b.num[0] * da), da * db
        g = gcd(n, d)
        return _trusted(a.conductor, (n // g,), d // g)
    if da == db:
        return _normalized(a.conductor, tuple(map(op, a.num, b.num)), da)
    g = gcd(da, db)
    sa, sb = db // g, da // g
    return _normalized(
        a.conductor, tuple(op(x * sa, y * sb) for x, y in zip(a.num, b.num)), da * sa
    )


def _sub_product(b, c, v: CycloScalar) -> CycloScalar:
    # b - c * v, with b None read as zero: the entry update of elimination and
    # row assembly. b and c may be ints or Fractions of an outside row. Where
    # all three are scalars of one field Q it builds one scalar with one gcd
    # from (b.num c.den v.den - c.num v.num b.den) / (b.den c.den v.den)
    m = v.conductor
    if len(v.num) > 1 or type(c) is not CycloScalar or c.conductor != m or (
        b is not None and (type(b) is not CycloScalar or b.conductor != m)
    ):
        return -(c * v) if b is None else b - c * v
    n, d = c.num[0] * v.num[0], c.den * v.den
    if b is None:
        n = -n
    else:
        n, d = b.num[0] * d - n * b.den, d * b.den
    g = gcd(n, d)
    return _trusted(m, (n // g,), d // g)


# -- text format ----------------------------------------------------------

_TERM_RE = re.compile(
    r"""^\s*
        (?:(?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*(?P<zc>z(?:\^(?P<kc>\d+))?))?
          |(?P<z>z(?:\^(?P<k>\d+))?)
        )\s*$""",
    re.VERBOSE,
)


def parse_scalar(text: str, conductor: int = 1) -> CycloScalar:
    """Parse the scalar text format against a conductor; reduces mod Phi_m."""
    s = text.strip()
    if not s:
        raise ParseError("empty scalar string")
    # split into signed terms; signs after *, ^, / belong to the term body
    terms = []
    sign, buf = 1, []
    for ch in s:
        if ch in "+-" and not buf:
            if ch == "-":
                sign = -sign
        elif ch in "+-" and buf[-1] not in "*^/":
            terms.append((sign, "".join(buf)))
            sign, buf = (1 if ch == "+" else -1), []
        else:
            buf.append(ch)
    if not buf:
        raise ParseError(f"malformed scalar: {text!r}")
    terms.append((sign, "".join(buf)))

    parsed, den = [], 1
    for sgn, term in terms:
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"malformed scalar term: {term!r} in {text!r}")
        has_z = m.group("zc") is not None or m.group("z") is not None
        try:
            p, _, q = (m.group("coeff") or "1").partition("/")
            p, q = int(p), int(q or 1)
            if not q:
                raise ZeroDivisionError(f"Fraction({p}, 0)")  # fractions.Fraction's text
            k = int(m.group("kc") or m.group("k") or 1) if has_z else 0
        except (ValueError, ZeroDivisionError) as exc:  # 1/0, or too many digits
            raise ParseError(f"bad scalar term {term!r}: {exc}") from exc
        k %= conductor  # zeta_m^m = 1, so the vector below stays shorter than m
        parsed.append((k, sgn * p, q))
        den = lcm(den, q)
    num = [0] * (max(k for k, _, _ in parsed) + 1)
    for k, p, q in parsed:
        num[k] += p * (den // q)
    return _normalized(conductor, _reduce_int(num, conductor), den)


def format_scalar(s: CycloScalar) -> str:
    """Emit the canonical reduced form, terms in decreasing degree of z."""
    num, den = s.num, s.den
    parts = []
    for k in range(len(num) - 1, -1, -1):
        c = num[k]
        if not c:
            continue
        g = gcd(c, den)
        mag = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
        if k == 0:
            body = mag
        elif mag == "1":
            body = "z" if k == 1 else f"z^{k}"
        else:
            body = f"{mag}*z" if k == 1 else f"{mag}*z^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
