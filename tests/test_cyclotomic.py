"""Exact cyclotomic arithmetic, characters and Gauss sums."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ffverify import (AdditiveCharacter, CycError, CycNumber, build_tower,
                      conductor, gauss_sum, nu_sign, o_minus_table)
from ffverify.cyclotomic import cyclotomic_coeffs


KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
    15: (1, -1, 0, 1, -1, 1, 0, -1, 1),
}


@pytest.mark.parametrize("m,coeffs", sorted(KNOWN_CYCLOTOMICS.items()))
def test_cyclotomic_polynomials(m, coeffs):
    assert cyclotomic_coeffs(m) == coeffs


def test_root_of_unity_has_exact_order():
    for m in (4, 6, 12, 15, 18):
        z = CycNumber.root_of_unity(m, 1)
        one = CycNumber.from_rational(m, 1)
        assert z ** m == one
        for d in range(1, m):
            if m % d == 0 and d < m:
                assert z ** d != one


def test_a_negative_power_is_rejected():
    """power loops forever on n < 0, so ** rejects it; an inverse is
    inverse()."""
    z = CycNumber.root_of_unity(12, 1)
    with pytest.raises(CycError):
        z ** -1
    assert z.inverse() == CycNumber.root_of_unity(12, 11)


coeff_strategy = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(coeff_strategy, coeff_strategy, coeff_strategy)
def test_ring_axioms(ca, cb, cc):
    m = 12
    a, b, c = (CycNumber(m, x) for x in (ca, cb, cc))
    assert (a + b) - b == a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == CycNumber.from_rational(m, 0)


@settings(max_examples=60, deadline=None)
@given(coeff_strategy)
def test_conjugation_is_an_involution(ca):
    a = CycNumber(12, ca)
    assert a.conjugate().conjugate() == a


@settings(max_examples=60, deadline=None)
@given(coeff_strategy, coeff_strategy)
def test_conjugation_is_multiplicative(ca, cb):
    a, b = CycNumber(12, ca), CycNumber(12, cb)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@pytest.mark.parametrize("m", [9, 12, 14, 42])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inverse(m, data):
    deg = len(cyclotomic_coeffs(m)) - 1
    a = CycNumber(m, data.draw(st.lists(
        st.integers(min_value=-5, max_value=5)
        | st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=1, max_size=deg)))
    if not a:
        with pytest.raises(CycError):
            a.inverse()
    else:
        inv = a.inverse()
        assert not any(isinstance(c, float) for c in inv.coeffs)
        assert a * inv == CycNumber.from_rational(m, 1)


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/2", True, False, None])
def test_inexact_coefficients_are_rejected(bad):
    with pytest.raises(CycError):
        CycNumber(12, [1, bad])
    with pytest.raises(CycError):
        CycNumber.from_rational(12, bad)


def _ref_reduce(m, poly):
    """poly mod Phi_m with Fraction coefficients, top down: the route of
    the Fraction-coefficient representation, kept as the reference."""
    phi = cyclotomic_coeffs(m)
    deg = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, deg - len(poly))
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for i in range(deg + 1):
                poly[k - deg + i] -= c * phi[i]
    return poly[:deg]


def _ref_mul(m, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _ref_reduce(m, prod)


def _ref_conj(m, a):
    poly = [Fraction(0)] * m
    for i, x in enumerate(a):
        poly[-i % m] += x
    return _ref_reduce(m, poly)


def _assert_is(m, value, ref):
    """value is the number with the Fraction coefficients ref, held in
    lowest terms, with the coeffs and to_json that ref gives."""
    deg = len(cyclotomic_coeffs(m)) - 1
    assert value.m == m and len(value.num) == deg == len(ref)
    assert all(type(n) is int for n in value.num) and type(value.den) is int
    assert value.den > 0 and gcd(value.den, *value.num) == 1
    assert value.coeffs == tuple(ref)
    integral = all(c.denominator == 1 for c in ref)
    assert {type(c) for c in value.coeffs} == ({int} if integral else {Fraction})
    assert value.to_json() == {"conductor": m, "coeffs": [str(c) for c in ref]}
    assert value == CycNumber(m, ref)
    if not any(ref[1:]):
        assert value == ref[0]


def _sparse(m):
    """Up to six nonzero coefficients, ints and Fractions, at any
    positions below the degree."""
    deg = len(cyclotomic_coeffs(m)) - 1
    entry = (st.integers(min_value=-6, max_value=6)
             | st.fractions(min_value=-5, max_value=5, max_denominator=6))
    return st.dictionaries(st.integers(min_value=0, max_value=deg - 1), entry,
                           max_size=6).map(
        lambda d: [d.get(i, 0) for i in range(max(d, default=-1) + 1)])


@pytest.mark.parametrize("m", [9, 12, 14, 42, 182])
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_arithmetic_matches_the_fraction_reference(m, data):
    deg = len(cyclotomic_coeffs(m)) - 1
    ca, cb = data.draw(_sparse(m)), data.draw(_sparse(m))
    r = data.draw(st.integers(min_value=-4, max_value=4)
                  | st.fractions(min_value=-3, max_value=3, max_denominator=5))
    ra, rb = (_ref_reduce(m, c) for c in (ca, cb))
    a, b = CycNumber(m, ca), CycNumber(m, cb)
    _assert_is(m, a, ra)
    _assert_is(m, a + b, [x + y for x, y in zip(ra, rb)])
    _assert_is(m, a - b, [x - y for x, y in zip(ra, rb)])
    _assert_is(m, a * b, _ref_mul(m, ra, rb))
    _assert_is(m, a * r, [x * r for x in ra])
    _assert_is(m, r * a, [x * r for x in ra])
    _assert_is(m, a + r, [ra[0] + r] + ra[1:])
    _assert_is(m, a.conjugate(), _ref_conj(m, ra))
    assert (a == b) == (ra == rb)
    # inverse is a dense solve in deg unknowns, seconds at degree 72
    # unless the number is a binomial
    if any(ra) and (deg <= 12 or sum(map(bool, ra)) <= 2):
        inv = a.inverse()
        ri = [Fraction(c) for c in inv.coeffs]
        _assert_is(m, inv, ri)
        assert _ref_mul(m, ra, ri) == [1] + [0] * (deg - 1)


def test_a_number_equals_its_rational_value_and_is_not_hashable():
    assert CycNumber.from_rational(12, 12) * Fraction(1, 4) == 3
    for value in (3, Fraction(3, 4), -2, 0):
        a = CycNumber.from_rational(12, value)
        assert a == value and not a != value
    z = CycNumber.root_of_unity(12, 1) * Fraction(1, 3)
    assert z == CycNumber(12, [0, Fraction(1, 3)])
    assert z != Fraction(1, 3) and z != "zeta / 3"
    with pytest.raises(TypeError):
        hash(z)


def test_sums_and_products_build_no_fraction(monkeypatch):
    m = 12
    ca = [Fraction(1, 2), Fraction(2, 3), 0, Fraction(-5, 4)]
    cb = [Fraction(3, 7), 1, Fraction(1, 6)]
    a, b = CycNumber(m, ca), CycNumber(m, cb)
    calls = 0
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal calls
        calls += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    total, prod = a + b, a * b
    assert calls == 0
    monkeypatch.undo()
    ra, rb = _ref_reduce(m, ca), _ref_reduce(m, cb)
    _assert_is(m, total, [x + y for x, y in zip(ra, rb)])
    _assert_is(m, prod, _ref_mul(m, ra, rb))


@pytest.mark.parametrize("q", [3, 5, 13])
def test_sums_of_roots_of_unity_keep_int_coefficients(q):
    ctx = build_tower(q, 1)
    numbers = [v for row in o_minus_table(q).values for v in row]
    numbers += [gauss_sum(ctx, AdditiveCharacter(ctx, a)) for a in range(1, q)]
    assert {type(c) for v in numbers for c in v.coeffs} == {int}


@settings(max_examples=60, deadline=None)
@given(coeff_strategy)
def test_truth_value_is_nonzero(ca):
    a = CycNumber(12, ca)
    assert bool(a) == any(c != 0 for c in ca)
    assert (not a) == (a == CycNumber.from_rational(12, 0))


def test_rationality_predicates():
    a = CycNumber.from_rational(12, Fraction(3, 4))
    assert a.is_rational() and not a.is_integer()
    assert a.as_rational() == Fraction(3, 4)
    b = CycNumber.from_rational(12, 7)
    assert b.is_integer()
    z = CycNumber.root_of_unity(12, 1)
    assert not z.is_rational()
    with pytest.raises(CycError):
        z.as_rational()


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_additive_character_orthogonality(p, e):
    ctx = build_tower(p, e)
    m = conductor(ctx)
    assert m == ctx.p * (ctx.q + 1)
    for a in range(ctx.q):
        psi = AdditiveCharacter(ctx, a)
        total = CycNumber.from_rational(m, 0)
        for x in range(ctx.q):
            total = total + psi(x)
        want = ctx.q if a == 0 else 0
        assert total == CycNumber.from_rational(m, want)
        assert psi.is_trivial() == (a == 0)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1), (3, 2)])
def test_additive_character_at_minus_x_is_the_conjugate(p, e):
    # psi^{-1}(x) = psi(-x), which the sheaf traces read
    ctx = build_tower(p, e)
    neg = ctx.levels[1].neg_enc
    for a in range(ctx.q):
        psi = AdditiveCharacter(ctx, a)
        for x in range(ctx.q):
            assert psi(neg(x)) == psi(x).conjugate()
            assert psi(neg(x)) * psi(x) == CycNumber.from_rational(psi.m, 1)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1),
                                 (13, 1)])
def test_nu_is_the_quadratic_character_of_mu(p, e):
    """At every odd q <= 13, nu is multiplicative, and nu(zeta) = 1
    exactly when zeta is the square of an element of mu_{q+1}."""
    ctx = build_tower(p, e)
    q, mul = ctx.q, ctx.levels[2].mul_enc
    mu = ctx.enumerate_mu()
    squares = {mul(w, w) for w in mu}
    values = []
    for z in mu:
        v = nu_sign(ctx, z)
        assert v == (1 if z in squares else -1)
        values.append(v)
        for w in mu:
            assert nu_sign(ctx, mul(z, w)) == v * nu_sign(ctx, w)
    assert sum(values) == 0
    assert nu_sign(ctx, 1) == 1


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_gauss_sum_square_identity(p, e):
    ctx = build_tower(p, e)
    q = ctx.q
    m = conductor(ctx)
    sign = ctx.legendre(ctx.p - 1)  # -1 has encoding p - 1
    expected = CycNumber.from_rational(m, sign * q)
    g1 = None
    for a in range(1, q):
        g = gauss_sum(ctx, AdditiveCharacter(ctx, a))
        assert g * g == expected
        assert g
        if a == 1:
            g1 = g
    # twisting by a scales the sum by the Legendre symbol of a
    for a in range(1, q):
        g = gauss_sum(ctx, AdditiveCharacter(ctx, a))
        assert g == ctx.legendre(a) * g1


def test_gauss_sum_known_values():
    # q = 3: G^2 = -3; q = 5: G^2 = +5
    ctx3 = build_tower(3, 1)
    g3 = gauss_sum(ctx3, AdditiveCharacter(ctx3, 1))
    assert g3 * g3 == CycNumber.from_rational(conductor(ctx3), -3)
    ctx5 = build_tower(5, 1)
    g5 = gauss_sum(ctx5, AdditiveCharacter(ctx5, 1))
    assert g5 * g5 == CycNumber.from_rational(conductor(ctx5), 5)


def test_gauss_sum_rejections():
    ctx = build_tower(2, 1)
    with pytest.raises(ValueError):
        gauss_sum(ctx, AdditiveCharacter(ctx, 1))
    ctx3 = build_tower(3, 1)
    with pytest.raises(ValueError):
        gauss_sum(ctx3, AdditiveCharacter(ctx3, 0))


def test_to_json_schema():
    z = CycNumber.root_of_unity(12, 1) * Fraction(1, 3)
    blob = z.to_json()
    assert set(blob) == {"conductor", "coeffs"}
    assert blob["conductor"] == 12
    assert all(isinstance(c, str) for c in blob["coeffs"])
