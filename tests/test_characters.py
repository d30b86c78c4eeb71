"""Dimension formulas and dihedral character tables, ordinary and modular."""

import time

import pytest

from ffverify import (CharacterError, IsotypicLabel, brauer_decompose,
                      brauer_decompositions, brauer_irreps, characters,
                      conjugacy_classes, dim_mod_ell_unitary, dim_v_isotypic,
                      dim_w_isotypic, ell_parts, ell_regular_classes,
                      o_minus_table, ordinary_irreps)
from ffverify.characters import DihedralIrrep, irrep_value
from ffverify.fields import is_prime


QS = (2, 3, 4, 5, 7, 8, 9)


def char_of(q):
    p = 2
    while q % p:
        p += 1
    return p


def test_specific_dimensions():
    # the three isotypic dimensions at (n, q) = (2, 3)
    assert dim_w_isotypic(2, 3, IsotypicLabel(0, "+")) == 15
    assert dim_w_isotypic(2, 3, IsotypicLabel(0, "-")) == 6
    assert dim_w_isotypic(2, 3, IsotypicLabel(2, "+")) == 10
    assert dim_w_isotypic(2, 3, IsotypicLabel(2, "-")) == 10
    assert dim_w_isotypic(2, 3, IsotypicLabel(1)) == 20
    # and the pair at (n, q) = (2, 2)
    assert dim_w_isotypic(2, 2, IsotypicLabel(0, "+")) == 5
    assert dim_w_isotypic(2, 2, IsotypicLabel(0, "-")) == 1
    # unitary side at (2, 3)
    assert dim_v_isotypic(2, 3, trivial=True) == 3
    assert dim_v_isotypic(2, 3, trivial=False) == 2


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_dimension_integrality_and_total(n, q):
    m = q + 1
    total = 0
    for k in range(m):
        if (2 * k) % m == 0:
            for kappa in ("+", "-"):
                d = dim_w_isotypic(n, q, IsotypicLabel(k, kappa))
                assert d >= 0
                total += d
        else:
            d = dim_w_isotypic(n, q, IsotypicLabel(k))
            assert d > 0
            total += d
    assert total == q ** (2 * n)
    for trivial in (True, False):
        assert dim_v_isotypic(n, q, trivial) >= 0


def test_dimension_guard_rails():
    with pytest.raises(CharacterError):
        dim_v_isotypic(1, 3, True)
    with pytest.raises(CharacterError):
        dim_w_isotypic(2, 3, IsotypicLabel(0))        # missing kappa
    with pytest.raises(CharacterError):
        dim_w_isotypic(2, 3, IsotypicLabel(1, "+"))   # spurious kappa
    with pytest.raises(CharacterError):
        dim_w_isotypic(2, 2, IsotypicLabel(0))


def test_ell_parts():
    assert ell_parts(5, 3) == (3, 2)
    assert ell_parts(2, 3) == (3, 1)
    assert ell_parts(4, 5) == (5, 1)
    assert ell_parts(3, 5) == (1, 4)


@pytest.mark.parametrize("ell", [-1, 0, 1, 4, 9, 2, 5, 2 ** 32 + 15])
def test_ell_parts_rejects_a_non_prime(ell):
    """ell_parts is the one check of ell: an odd prime that does not
    divide q, below 2^32 (2^32 + 15 is prime).  ell = 1 and -1 used to
    divide q + 1 forever."""
    with pytest.raises(CharacterError, match=f"^ell = {ell} must be"):
        ell_parts(5, ell)


def test_char_of_bounds_q_before_factoring_it():
    assert characters.char_of(2 ** 31 - 1) == 2 ** 31 - 1
    start = time.perf_counter()
    with pytest.raises(CharacterError, match="below 2"):
        characters.char_of(2 ** 61 - 1)  # a prime
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("ell", [3, 5, 7, 11])
@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", [2, 3])
def test_mod_ell_dimension_two_cases(n, q, ell):
    p = char_of(q)
    if ell == p:
        with pytest.raises(CharacterError):
            dim_mod_ell_unitary(n, q, 0, ell)
        return
    la, r = ell_parts(q, ell)
    s = (-1) ** n
    for k in range(q + 1):
        d = dim_mod_ell_unitary(n, q, k, ell)
        if la == 1:
            assert d == dim_v_isotypic(n, q, trivial=(k % (q + 1) == 0))
        else:
            base = (q ** n - s) // (q + 1)
            assert d == base + ((1 + s) // 2 if k % r == 0 else 0)


def test_mod_ell_rejects_two_and_p():
    with pytest.raises(CharacterError):
        dim_mod_ell_unitary(2, 3, 0, 2)
    with pytest.raises(CharacterError):
        dim_mod_ell_unitary(2, 3, 0, 3)


@pytest.mark.parametrize("q", QS)
def test_class_and_irrep_bookkeeping(q):
    classes = conjugacy_classes(q)
    irreps = ordinary_irreps(q)
    assert len(classes) == len(irreps)
    assert sum(c.size for c in classes) == 2 * (q + 1)
    assert sum(r.dim ** 2 for r in irreps) == 2 * (q + 1)


@pytest.mark.parametrize("q", QS)
def test_ordinary_orthogonality(q):
    tab = o_minus_table(q, "ordinary")
    assert tab.row_orthogonality_ok()
    assert tab.column_orthogonality_ok()


@pytest.mark.parametrize("q", [3, 4, 5, 13])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_orthogonality_fails_on_one_changed_value(q, where):
    """Adding 1 to one value breaks both relations: every entry of both
    Gram matrices is checked."""
    tab = o_minus_table(q, "ordinary")
    n, c = len(tab.values), len(tab.classes)
    i, j = {"first": (0, 0), "middle": (n // 2, c // 2),
            "last": (n - 1, c - 1)}[where]
    values = [list(row) for row in tab.values]
    values[i][j] = values[i][j] + 1
    bad = tab._replace(values=values)
    assert not bad.row_orthogonality_ok()
    assert not bad.column_orthogonality_ok()


@pytest.mark.parametrize("q,ell", [(2, 3), (3, 5), (4, 5), (5, 3), (8, 3),
                                   (9, 5), (7, 3)])
def test_brauer_table_is_square(q, ell):
    assert len(brauer_irreps(q, ell)) == len(ell_regular_classes(q, ell))
    tab = o_minus_table(q, "mod-ell", ell)
    assert len(tab.classes) == len(tab.irreps)


def _brauer_irreps_reference(q, ell):
    """The mod-ell irreducibles enumerated directly: the characters of
    O_2^-(F_q) that are trivial on the ell-part of mu_{q+1}."""
    m = q + 1
    la, r = ell_parts(q, ell)
    out = [DihedralIrrep("one", 0, "+"), DihedralIrrep("one", 0, "-")]
    if r % 2 == 0:
        out.append(DihedralIrrep("one", m // 2, "+"))
        out.append(DihedralIrrep("one", m // 2, "-"))
    for j in range(1, (r + 1) // 2):
        if 2 * j != r:
            out.append(DihedralIrrep("two", j * la, None))
    return out


PRIME_POWERS_TO_32 = [q for q in range(2, 33)
                      if len({d for d in range(2, q + 1)
                              if q % d == 0 and is_prime(d)}) == 1]


def test_brauer_irreps_match_the_explicit_enumeration():
    assert len(PRIME_POWERS_TO_32) == 18
    assert [ell_parts(q, ell)[1] for q, ell in
            [(2, 3), (8, 3), (5, 3), (13, 7)]] == [1, 1, 2, 2]
    cases = 0
    for q in PRIME_POWERS_TO_32:
        for ell in range(3, 38, 2):
            if is_prime(ell) and q % ell:
                assert brauer_irreps(q, ell) == _brauer_irreps_reference(q, ell)
                cases += 1
    assert cases == 185


def test_brauer_irreps_reject_bad_ell():
    with pytest.raises(CharacterError):
        brauer_irreps(3, 2)
    with pytest.raises(CharacterError):
        brauer_irreps(3, 3)
    with pytest.raises(CharacterError):
        brauer_irreps(3, 9)


def _decomp_labels(q, ell, irrep):
    return sorted((tau.label(), mult)
                  for tau, mult in brauer_decompose(q, ell, irrep))


def test_golden_decomposition_q2_ell3():
    assert _decomp_labels(2, 3, DihedralIrrep("two", 1, None)) == [
        ("(0,+)", 1), ("(0,-)", 1)]
    assert _decomp_labels(2, 3, DihedralIrrep("one", 0, "+")) == [("(0,+)", 1)]
    assert _decomp_labels(2, 3, DihedralIrrep("one", 0, "-")) == [("(0,-)", 1)]


def test_golden_decomposition_q4_ell5():
    for xi in (1, 2):
        assert _decomp_labels(4, 5, DihedralIrrep("two", xi, None)) == [
            ("(0,+)", 1), ("(0,-)", 1)]


def test_golden_decomposition_q5_ell3():
    assert _decomp_labels(5, 3, DihedralIrrep("two", 1, None)) == [
        ("(3,+)", 1), ("(3,-)", 1)]
    assert _decomp_labels(5, 3, DihedralIrrep("two", 2, None)) == [
        ("(0,+)", 1), ("(0,-)", 1)]
    for xi, kappa in ((0, "+"), (0, "-"), (3, "+"), (3, "-")):
        assert _decomp_labels(5, 3, DihedralIrrep("one", xi, kappa)) == [
            (f"({xi},{kappa})", 1)]


@pytest.mark.parametrize("q,ell", [(2, 3), (4, 5), (5, 3), (8, 3), (9, 5)])
def test_decompositions_preserve_dimension(q, ell):
    for pi in ordinary_irreps(q):
        decomp = brauer_decompose(q, ell, pi)
        assert all(mult > 0 for _, mult in decomp)
        assert sum(mult * tau.dim for tau, mult in decomp) == pi.dim


def test_brauer_decompose_rejects_an_irrep_outside_the_group():
    # q + 1 = 4: sigma1 is the only two-dimensional irreducible, and
    # xi = 5 would repeat it under another label
    with pytest.raises(CharacterError):
        brauer_decompose(3, 5, DihedralIrrep("two", 5, None))
    reductions = brauer_decompositions(3, 5)
    assert set(reductions) == set(ordinary_irreps(3))
    with pytest.raises(TypeError):
        reductions[DihedralIrrep("two", 1, None)] = ()


def test_irrep_values_are_algebraic_integers_on_rotations():
    # two-dimensional characters take the value 2 cos(2 pi xi k / m)
    q = 5
    tab = o_minus_table(q, "ordinary")
    for i, r in enumerate(tab.irreps):
        for j, c in enumerate(tab.classes):
            v = tab.values[i][j]
            if r.kind == "one":
                assert v.is_integer()
            elif c.kind == "refl":
                assert not v


@pytest.mark.parametrize("q", QS)
def test_tables_live_in_q_zeta_q_plus_1(q):
    ell = 3 if q % 3 else 5
    for table in (o_minus_table(q, "ordinary"), o_minus_table(q, "mod-ell", ell)):
        assert table.conductor == q + 1
        assert {v.m for row in table.values for v in row} == {q + 1}


def test_mode_validation():
    with pytest.raises(CharacterError):
        o_minus_table(3, "weird")
    with pytest.raises(CharacterError):
        o_minus_table(3, "mod-ell")
