import operator
import random
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, strategies as st

import colorlie.scalars
from colorlie.errors import ConductorMismatch, NotDivisible, ParseError
from colorlie.scalars import (
    CycloScalar,
    _nonzero_sum,
    _sub_product,
    cyclotomic_polynomial,
    format_scalar,
    parse_scalar,
    totient,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert [totient(m) for m in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def _divide_exactly(num, den):
    # long division of integer polynomials by a monic divisor; coeffs ascending
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = out[k - dd] = num[k]
        for i, b in enumerate(den):
            num[k - dd + i] -= c * b
    assert not any(num), "division was not exact"
    return out


@lru_cache(maxsize=None)
def _cyclotomic_by_divisors(m):
    # reference: Phi_m = (x^m - 1) / prod(Phi_d : d | m, d < m)
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divide_exactly(poly, _cyclotomic_by_divisors(d))
    return tuple(poly)


def _reduce_mod_phi(coeffs, m):
    # reference: the remainder of a rational polynomial mod Phi_m, by long
    # division over Fractions, padded to length phi(m)
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    work = [Fraction(c) for c in coeffs]
    for k in range(len(work) - 1, deg - 1, -1):
        c = work.pop()
        for i in range(deg):
            work[k - deg + i] -= c * phi[i]
    return tuple(work + [Fraction(0)] * (deg - len(work)))


def test_cyclotomic_matches_divisor_quotient():
    for m in range(1, 301):
        assert cyclotomic_polynomial(m) == _cyclotomic_by_divisors(m), m


def test_root_examples():
    assert CycloScalar.root(1, 0) == 1
    assert CycloScalar.root(2, 1) == -1
    # x^2 reduced mod Phi_4 = x^2 + 1 gives -1
    assert CycloScalar.root(4, 2) == -1
    # k is taken mod m
    assert CycloScalar.root(4, 5) == CycloScalar.root(4, 1)


def test_mul_of_conjugates():
    # (1 + zeta_4)(1 - zeta_4) = 1 - zeta_4^2 = 2, by hand expansion
    one = CycloScalar.one(4)
    z = CycloScalar.root(4, 1)
    assert (one + z) * (one - z) == 2


def test_root_inverse_is_conjugate_power():
    for m in (3, 4, 6, 12):
        for k in range(m):
            zk = CycloScalar.root(m, k)
            assert zk.inv() == CycloScalar.root(m, m - k)


def test_additive_inverse():
    a = CycloScalar(12, [Fraction(1, 2), 3, 0, Fraction(-7, 3)])
    assert a + (-a) == 0


def test_lift_examples():
    minus1 = CycloScalar.root(2, 1)
    assert minus1.lift(4) == CycloScalar.root(4, 2)
    q = CycloScalar.from_rational(Fraction(5, 7), 1)
    lifted = q.lift(6)
    assert lifted.conductor == 6 and lifted.as_rational() == Fraction(5, 7)
    # zeta_3 = zeta_6^2; reducing x^2 mod Phi_6 = x^2 - x + 1 gives x - 1
    z3 = CycloScalar.root(3, 1)
    assert z3.lift(6).coeffs == (Fraction(-1), Fraction(1))
    assert z3.lift(6) == CycloScalar.root(6, 2)


def test_lift_not_divisible():
    with pytest.raises(NotDivisible):
        CycloScalar.root(4, 1).lift(6)


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        CycloScalar.root(4, 1) + CycloScalar.root(3, 1)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
@pytest.mark.parametrize("m1, m2", [(1, 2), (2, 1), (3, 4), (4, 3)])
def test_conductor_mismatch_on_every_operator(op, m1, m2):
    # conductors 1 and 2 both have phi = 1, so only the conductor tells them apart
    with pytest.raises(ConductorMismatch):
        op(CycloScalar.one(m1), CycloScalar.one(m2))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ints_and_fractions_still_coerce(m):
    a = CycloScalar.root(m, 1) + Fraction(1, 2)
    assert 2 - a == CycloScalar.from_rational(2, m) - a
    assert a * Fraction(1, 3) == a * CycloScalar.from_rational(Fraction(1, 3), m)
    assert 3 * a == CycloScalar.from_rational(3, m) * a
    for s in (2 - a, a * Fraction(1, 3), 3 * a):
        assert s.conductor == m


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        CycloScalar.zero(4).inv()


def test_root_has_exact_order():
    for m in (1, 2, 3, 4, 6, 12):
        z = CycloScalar.root(m, 1)
        assert z ** m == 1
        for k in range(1, m):
            assert z ** k != 1


def _random_scalar(rng, m):
    return CycloScalar(
        m,
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(totient(m))],
    )


def test_field_axioms_random_samples():
    rng = random.Random(20240501)
    for _ in range(500):
        m = rng.choice((1, 2, 3, 4, 6, 12))
        a, b, c = (_random_scalar(rng, m) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        if a != 0:
            assert a * a.inv() == 1


def test_canonical_form_is_path_independent():
    rng = random.Random(7)
    for _ in range(100):
        m = rng.choice((3, 4, 6, 12))
        parts = [_random_scalar(rng, m) for _ in range(4)]
        shuffled = parts[:]
        rng.shuffle(shuffled)
        prod1 = parts[0]
        for p in parts[1:]:
            prod1 = prod1 * p
        prod2 = shuffled[0]
        for p in shuffled[1:]:
            prod2 = prod2 * p
        assert prod1.coeffs == prod2.coeffs


@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)
def test_rational_embedding_respects_arithmetic(p1, q1, p2, q2):
    a, b = Fraction(p1, q1), Fraction(p2, q2)
    fa = CycloScalar.from_rational(a, 12)
    fb = CycloScalar.from_rational(b, 12)
    assert (fa * fb).as_rational() == a * b
    assert (fa + fb).as_rational() == a + b


def test_format_examples():
    s = CycloScalar(12, [Fraction(-3), 0, Fraction(1, 2), 0])
    assert format_scalar(s) == "1/2*z^2 - 3"
    assert format_scalar(CycloScalar.zero(12)) == "0"
    assert format_scalar(CycloScalar.root(4, 1)) == "z"
    assert format_scalar(-CycloScalar.root(4, 1)) == "-z"
    assert format_scalar(CycloScalar.from_rational(Fraction(-2, 3), 3)) == "-2/3"


def test_parse_examples():
    assert parse_scalar("1/2*z^2 - 3", 12).coeffs == (
        Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(0),
    )
    assert parse_scalar("2", 1) == 2
    assert parse_scalar("-7/3", 1) == Fraction(-7, 3)
    assert parse_scalar("z", 2) == -1  # reduced mod Phi_2
    assert parse_scalar("z^2 + z + 1", 3) == 0  # Phi_3 itself
    assert parse_scalar("-z + 2*z", 4) == CycloScalar.root(4, 1)


def test_parse_rejects_garbage():
    for bad in ("", "z^", "1//2", "q", "1 + + 2", "*z", "1/0", "2*z^3 + 1/0*z"):
        with pytest.raises(ParseError):
            parse_scalar(bad, 4)


def test_parse_rejects_integers_the_interpreter_will_not_convert():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer strings of any length")
    for bad in ("z^" + "9" * (limit + 1), "9" * (limit + 1)):
        with pytest.raises(ParseError):
            parse_scalar(bad, 4)


def test_parse_reduces_exponents_mod_conductor():
    k = 10**9 + 7
    for m in (1, 2, 3, 4, 12, 60):
        started = time.perf_counter()
        value = parse_scalar(f"z^{k}", m)
        assert time.perf_counter() - started < 0.5, m
        assert value == CycloScalar.root(m, k % m), m
        assert parse_scalar(f"3*z^{k} - z^{k + m}", m) == 2 * CycloScalar.root(m, k % m), m


def test_format_parse_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        m = rng.choice((1, 2, 3, 4, 6, 12))
        a = _random_scalar(rng, m)
        assert parse_scalar(format_scalar(a), m) == a


def _assert_canonical(s, m):
    # integer numerator over a positive denominator in lowest terms, which is
    # the representation the public constructor builds from the same value
    phi = totient(m)
    assert s.conductor == m
    assert type(s.num) is tuple and len(s.num) == phi
    assert all(type(c) is int for c in s.num) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.num) == 1
    if not any(s.num):
        assert (s.num, s.den) == ((0,) * phi, 1)
    assert len(s.coeffs) == phi
    assert all(type(c) is Fraction for c in s.coeffs)
    rebuilt = CycloScalar(m, s.coeffs)
    assert (rebuilt.num, rebuilt.den) == (s.num, s.den)
    assert rebuilt.coeffs == s.coeffs


_fractions = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=5)
)


# 30 and 60 are the conductors of the benchmark's wide-grading workload
CANONICAL_CONDUCTORS = (1, 2, 3, 4, 5, 12, 15, 30, 60)


@st.composite
def _scalars(draw, m):
    # dense and sparse residues, monomials c * zeta^k with any k < m, and
    # rationals, which are constants of degree 0 inside every field
    phi = totient(m)
    kind = draw(st.sampled_from(("dense", "sparse", "monomial", "rational")))
    if kind == "dense":
        return CycloScalar(m, draw(st.lists(_fractions, min_size=phi, max_size=phi)))
    if kind == "sparse":
        terms = draw(st.dictionaries(st.integers(0, phi - 1), _fractions, max_size=3))
        return CycloScalar(m, [terms.get(k, 0) for k in range(phi)])
    if kind == "monomial":
        return CycloScalar(m, [0] * draw(st.integers(0, m - 1)) + [draw(_fractions)])
    return CycloScalar(m, [draw(_fractions)])


@st.composite
def _scalar_pairs(draw):
    m = draw(st.sampled_from(CANONICAL_CONDUCTORS))
    a, b = draw(_scalars(m)), draw(_scalars(m))
    return m, a, b, draw(st.integers(min_value=-3, max_value=3))


@given(_scalar_pairs())
def test_every_operation_returns_the_canonical_representation(case):
    m, a, b, k = case
    results = [a + b, a - b, a - a, -a, a * b, a + 2, 2 - a, 3 * a, a ** abs(k)]
    if b:
        results += [b.inv(), a / b, 1 / b, b ** k]
    results += [
        CycloScalar.from_rational(Fraction(k, 7), m),
        parse_scalar(format_scalar(a), m),
        parse_scalar("1/2*z^7 - z + 3", m),
    ]
    for s in results:
        _assert_canonical(s, m)
    for wider in (m, 2 * m, 3 * m):
        _assert_canonical(a.lift(wider), wider)


@given(_scalar_pairs(), st.data())
def test_sub_product_equals_the_operators(case, data):
    # the fused entry update of elimination and row assembly, with None read as zero
    m, b, c, _ = case
    v = data.draw(_scalars(m))
    for fused, plain in ((_sub_product(b, c, v), b - c * v), (_sub_product(None, c, v), -(c * v))):
        assert fused == plain
        _assert_canonical(fused, m)


_drawn_terms = st.lists(
    st.tuples(st.integers(0, 1), st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 2)), max_size=3)),
    max_size=4,
)
_drawn_rows = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)), max_size=4), min_size=3, max_size=3
)


@given(st.sampled_from((1, 2)), _drawn_terms, _drawn_rows, st.booleans())
def test_rational_nonzero_sum_equals_a_fraction_sum(m, drawn, rows, cancel):
    # at m <= 2 the field is Q, with zeta_1 = 1 and zeta_2 = -1; cancel appends the
    # negated terms, at m = 2 as the same terms times zeta_2, so that zero sums are drawn too
    drawn = [(t % m, us) for t, us in drawn]
    if cancel:
        drawn += [((t + 1) % 2, us) if m == 2 else (t, [(l, -u) for l, u in us]) for t, us in drawn]
    zeta = Fraction(-1 if m == 2 else 1)
    reference = {}
    for t, us in drawn:
        for l, u in us:
            for k, v in rows[l]:
                reference[k] = reference.get(k, 0) + zeta**t * u * v
    terms = [(t, [(l, (u,)) for l, u in us], [[(k, (v,)) for k, v in row] for row in rows]) for t, us in drawn]
    assert _nonzero_sum(terms, m) == any(reference.values())


@given(_scalar_pairs())
def test_product_equals_the_reduced_fraction_product(case):
    # reference: the Fraction polynomial product, reduced by the constructor's reducer
    m, a, b, _ = case
    x, y = a.coeffs, b.coeffs
    prod = [Fraction(0)] * (2 * len(x) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            prod[i + j] += xi * yj
    assert (a * b).coeffs == _reduce_mod_phi(prod, m)


@given(_scalar_pairs())
def test_inverse_and_coefficient_round_trip(case):
    m, a, _, _ = case
    if a:
        assert a * a.inv() == 1
    else:
        assert (a.num, a.den) == ((0,) * totient(m), 1)
    assert CycloScalar(m, a.coeffs) == a


@given(_scalar_pairs())
def test_inverse_is_an_involution(case):
    _, a, _, _ = case
    if a:
        assert a.inv().inv() == a


@given(
    st.sampled_from(CANONICAL_CONDUCTORS).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(_fractions, max_size=3 * m))
    )
)
def test_constructor_reduces_unreduced_input_like_the_reference(case):
    m, raw = case
    s = CycloScalar(m, raw)
    assert s.coeffs == _reduce_mod_phi(raw, m)
    _assert_canonical(s, m)


def test_inverse_makes_no_fraction(monkeypatch):
    # a dense scalar at m = 60: every coefficient nonzero, mixed denominators
    a = CycloScalar(60, [Fraction((-1) ** k * (k + 1), 2 + k % 3) for k in range(16)])
    calls = []

    def counting_fraction(*args):
        calls.append(args)
        return Fraction(*args)

    monkeypatch.setattr(colorlie.scalars, "Fraction", counting_fraction)
    b = a.inv()
    monkeypatch.undo()
    assert calls == []
    assert a * b == 1


def _reference_parse_scalar(text, conductor=1):
    # parse_scalar as it read each term's p/q with Fraction: the same term
    # split and pattern, a Fraction per degree, then the public constructor
    s = text.strip()
    if not s:
        raise ParseError("empty scalar string")
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
    coeffs = {}
    for sgn, term in terms:
        m = colorlie.scalars._TERM_RE.match(term)
        if m is None:
            raise ParseError(f"malformed scalar term: {term!r} in {text!r}")
        has_z = m.group("zc") is not None or m.group("z") is not None
        try:
            c = Fraction(m.group("coeff") or 1)
            k = int(m.group("kc") or m.group("k") or 1) if has_z else 0
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar term {term!r}: {exc}") from exc
        k %= conductor
        coeffs[k] = coeffs.get(k, Fraction(0)) + sgn * c
    top = max(coeffs) if coeffs else 0
    return CycloScalar(conductor, [coeffs.get(i, Fraction(0)) for i in range(top + 1)])


def _reference_format_scalar(s):
    # format_scalar as it read the coeffs view of phi(m) Fractions
    coeffs = s.coeffs
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
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


def _outcome(parse, text, m):
    try:
        s = parse(text, m)
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    return s.num, s.den


# texts over the grammar's alphabet, and texts that are terms of the grammar
_TEXT_CONDUCTORS = (1, 2, 3, 4, 12, 30, 60)
_grammar_texts = st.text(alphabet="0123456789/+-*^z ", max_size=24)
_term_texts = st.lists(
    st.tuples(
        st.sampled_from(("", "-", "+", "--", " - ")),
        st.sampled_from(("", "0", "1", "2", "7", "12", "1/2", "3/4", "0/5", "1/0", "06/4", "120/36")),
        st.sampled_from(("", "z", "z^0", "z^2", "z^5", "z^29", "z^61", "z^1000000007")),
    ),
    min_size=1,
    max_size=5,
).map(lambda terms: " ".join(s + c + ("*" if c and z else "") + z for s, c, z in terms))


@given(st.one_of(_grammar_texts, _term_texts), st.sampled_from(_TEXT_CONDUCTORS))
def test_parse_scalar_equals_the_fraction_reference(text, m):
    assert _outcome(parse_scalar, text, m) == _outcome(_reference_parse_scalar, text, m)


def test_parse_scalar_errors_equal_the_fraction_reference():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    long = "9" * (limit + 1) if limit else "9"
    for text in ("1/0", "007/0", "0/0", "2*z - 1/0*z^3", "1/0*z^" + long, long, "1/" + long, "z^" + long, "1//2"):
        for m in (1, 3, 30):
            assert _outcome(parse_scalar, text, m) == _outcome(_reference_parse_scalar, text, m), text[:20]
    with pytest.raises(ParseError, match=r"^bad scalar term '1/0': Fraction\(1, 0\)$"):
        parse_scalar("z+1/0", 3)


@given(st.sampled_from(CANONICAL_CONDUCTORS).flatmap(_scalars))
def test_format_scalar_equals_the_coeffs_reference(s):
    assert format_scalar(s) == _reference_format_scalar(s)


def test_parse_and_format_make_no_fraction(monkeypatch):
    texts = [
        ("-3/2*z^7 + 2*z^3 - 1/3*z + 5", 30),
        ("--1", 3),
        ("z^2 + z + 2", 3),
        ("120/36*z^61 - 0/5", 60),
        ("-7/3", 1),
    ]
    calls = []

    def counting_fraction(*args):
        calls.append(args)
        return Fraction(*args)

    monkeypatch.setattr(colorlie.scalars, "Fraction", counting_fraction)
    scalars = [parse_scalar(text, m) for text, m in texts]
    formatted = [format_scalar(s) for s in scalars]
    monkeypatch.undo()
    assert calls == []
    assert formatted == [_reference_format_scalar(s) for s in scalars]
    references = [_reference_parse_scalar(text, m) for text, m in texts]
    assert [(s.num, s.den) for s in scalars] == [(r.num, r.den) for r in references]
