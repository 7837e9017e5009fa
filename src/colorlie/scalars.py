"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

A scalar is a residue in Q[x]/(Phi_m(x)) stored as a dense coefficient
vector of length phi(m) = deg Phi_m, so equality is coefficient-wise and
every value has exactly one representation. For m in {1, 2} the field
degenerates to the rationals. Rationals themselves are plain
``fractions.Fraction`` values, whose normal form (reduced, positive
denominator) is the invariant we need.

Text format (used in algebra files and CLI output): rationals as ``p/q``
or ``p``; field elements as polynomials in the symbol ``z`` with rational
coefficients, e.g. ``1/2*z^2 - 3``, interpreted against a given conductor
and reduced on parse. Serialization emits the reduced form with terms in
decreasing degree.

No floating point is used anywhere.

Arithmetic results are built by the private ``_trusted``, which stores an
already reduced tuple of phi(m) ``Fraction`` coefficients as it is; outside
input goes through ``CycloScalar(m, coeffs)``, which coerces and reduces.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import ConductorMismatch, NotDivisible, ParseError

Rational = Fraction


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, monic divisor; coeffs ascending.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        out[k - dd] = c
        if c:
            for i, b in enumerate(den):
                num[k - dd + i] -= c * b
    assert all(c == 0 for c in num[:dd]), "division was not exact"
    return out


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
            poly = _int_poly_div_exact(_substitute_power(poly, p), poly)
            rad *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return tuple(_substitute_power(poly, m // rad))


def totient(m: int) -> int:
    """Euler phi(m), read off as the degree of Phi_m."""
    return len(cyclotomic_polynomial(m)) - 1


def _reduce_mod_phi(coeffs: list[Fraction], m: int) -> tuple[Fraction, ...]:
    # Remainder of the polynomial mod Phi_m, padded to length phi(m).
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    work = list(coeffs)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            for i in range(deg):
                work[k - deg + i] -= c * phi[i]
        work.pop()
    while len(work) < deg:
        work.append(Fraction(0))
    return tuple(work)


class CycloScalar:
    """An element of Q(zeta_m) in reduced residue form.

    Immutable; arithmetic requires both operands to share the conductor
    (ints and Fractions coerce to constants). Use :meth:`lift` to move to
    a larger conductor first.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        phi = totient(conductor)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            coeffs = _reduce_mod_phi(list(coeffs), conductor)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloScalar is immutable")

    @staticmethod
    def from_rational(q, conductor: int = 1) -> "CycloScalar":
        q = Fraction(q)
        phi = totient(conductor)
        return CycloScalar(conductor, (q,) + (Fraction(0),) * (phi - 1))

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
        coeffs = [Fraction(0)] * k + [Fraction(1)]
        return CycloScalar(conductor, _reduce_mod_phi(coeffs, conductor))

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _trusted(
            self.conductor, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _trusted(
            self.conductor, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _trusted(self.conductor, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) == 1:
            return _trusted(self.conductor, (a[0] * b[0],))
        prod = [Fraction(0)] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return _trusted(self.conductor, _reduce_mod_phi(prod, self.conductor))

    __rmul__ = __mul__

    def inv(self) -> "CycloScalar":
        """Multiplicative inverse, by the extended Euclidean algorithm mod Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        if len(self.coeffs) == 1:
            return _trusted(self.conductor, (1 / self.coeffs[0],))
        # Invert a mod Phi_m in Q[x]: maintain r = s*a + t*Phi, track s only.
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is a nonzero constant gcd (Phi_m is irreducible over Q)
        g = next(c for c in reversed(r0) if c)
        assert all(c == 0 for c in r0[1:]), "gcd with Phi_m is not constant"
        s0 = [c / g for c in s0]
        return _trusted(self.conductor, _reduce_mod_phi(s0, self.conductor))

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
        stride = conductor // self.conductor
        spread = [Fraction(0)] * ((len(self.coeffs) - 1) * stride + 1)
        for i, c in enumerate(self.coeffs):
            spread[i * stride] = c
        return CycloScalar(conductor, _reduce_mod_phi(spread, conductor))

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloScalar):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        m = lcm(self.conductor, other.conductor)
        return self.lift(m).coeffs == other.lift(m).coeffs

    __hash__ = None  # cross-conductor equality has no cheap canonical hash

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"CycloScalar(m={self.conductor}, {format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


_set_conductor = CycloScalar.conductor.__set__
_set_coeffs = CycloScalar.coeffs.__set__


def _trusted(conductor: int, coeffs: tuple) -> CycloScalar:
    # coeffs must already be a reduced tuple of exactly phi(conductor)
    # Fractions, as the arithmetic produces; nothing is checked or copied
    s = object.__new__(CycloScalar)
    _set_conductor(s, conductor)
    _set_coeffs(s, coeffs)
    return s


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    # Polynomial division over Q; coeffs ascending; den nonzero.
    num = list(num)
    while den and not den[-1]:
        den = den[:-1]
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return [Fraction(0)], num
    out = [Fraction(0)] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / lead
        out[k - dd] = c
        if c:
            for i, b in enumerate(den):
                num[k - dd + i] -= c * b
    return out, num[:dd] if dd else [Fraction(0)]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


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

    coeffs: dict[int, Fraction] = {}
    for sgn, term in terms:
        m = _TERM_RE.match(term)
        if m is None:
            raise ParseError(f"malformed scalar term: {term!r} in {text!r}")
        has_z = m.group("zc") is not None or m.group("z") is not None
        try:
            c = Fraction(m.group("coeff") or 1)
            k = int(m.group("kc") or m.group("k") or 1) if has_z else 0
        except (ValueError, ZeroDivisionError) as exc:  # 1/0, or too many digits
            raise ParseError(f"bad scalar term {term!r}: {exc}") from exc
        k %= conductor  # zeta_m^m = 1, so the vector below stays shorter than m
        coeffs[k] = coeffs.get(k, Fraction(0)) + sgn * c
    top = max(coeffs) if coeffs else 0
    vec = [coeffs.get(i, Fraction(0)) for i in range(top + 1)]
    return CycloScalar(conductor, _reduce_mod_phi(vec, conductor))


def format_scalar(s: CycloScalar) -> str:
    """Emit the canonical reduced form, terms in decreasing degree of z."""
    parts = []
    for k in range(len(s.coeffs) - 1, -1, -1):
        c = s.coeffs[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = "z" if k == 1 else f"z^{k}"
        else:
            body = f"{mag}*z" if k == 1 else f"{mag}*z^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
