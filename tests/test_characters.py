"""Dimension formulas and dihedral character tables, ordinary and modular."""

import time

import pytest

from ffverify import (CharacterError, IsotypicLabel, brauer_decompose,
                      brauer_decompositions, brauer_irreps, characters,
                      conjugacy_classes, dim_mod_ell_unitary, dim_v_isotypic,
                      dim_w_isotypic, ell_parts, ell_regular_classes,
                      o_minus_table, ordinary_irreps)
from ffverify.characters import DihedralIrrep, irrep_value
from reference import is_prime


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


def _dihedral_classes_by_brute_force(m):
    """{class: order of its elements} of the dihedral group of order 2m,
    each class a frozenset of its elements (f, k) = s^f r^k, with
    s r s = r^-1, found by conjugating every element by every other."""
    group = [(f, k) for f in (0, 1) for k in range(m)]

    def mul(a, b):  # s^f r^k s^g r^l = s^(f+g) r^((-1)^g k + l)
        return (a[0] + b[0]) % 2, ((-1) ** b[0] * a[1] + b[1]) % m

    def inverse(a):
        return next(b for b in group if mul(a, b) == (0, 0))

    def order(a):
        n, x = 1, a
        while x != (0, 0):
            x, n = mul(x, a), n + 1
        return n

    classes = {frozenset(mul(mul(g, x), inverse(g)) for g in group)
               for x in group}
    return {cls: order(min(cls)) for cls in classes}


def test_conjugacy_classes_match_the_dihedral_group_by_brute_force():
    """Every class of every prime power q <= 32: its representative, its
    size and the order of its elements, against the group itself; and
    the ell-regular classes of each odd prime ell dividing q + 1, some
    with r = (q + 1) / ell-part >= 3, eight in all (ell = 3 at q = 11,
    23, 29 and 32, ell = 5 at 19 and 29, ell = 7 at 27, ell = 11 at 32)."""
    cases = 0
    for q in PRIME_POWERS_TO_32:
        brute = _dihedral_classes_by_brute_force(q + 1)
        classes = conjugacy_classes(q)
        found = []
        for c in classes:
            rep = (0 if c.kind == "rot" else 1, c.rep)
            cls = next(k for k in brute if rep in k)
            assert (c.size, c.element_order) == (len(cls), brute[cls]), (q, c)
            found.append(cls)
        assert len(found) == len(set(found)) == len(brute), q
        for ell in range(3, q + 2, 2):
            if is_prime(ell) and (q + 1) % ell == 0:
                regular = {k for k, order in brute.items() if order % ell}
                got = [next(k for k in brute
                            if (0 if c.kind == "rot" else 1, c.rep) in k)
                       for c in ell_regular_classes(q, ell)]
                assert sorted(map(sorted, got)) == sorted(map(sorted, regular))
                cases += ell_parts(q, ell)[1] >= 3
    assert cases == 8


@pytest.mark.parametrize("q,ell", [(5, 3), (13, 7), (4, 3)])
def test_a_table_records_its_ell(q, ell):
    """A mod-ell table keeps the ell it was built for, and an ordinary
    table none."""
    assert o_minus_table(q, "mod-ell", ell).ell == ell
    assert o_minus_table(q, "ordinary").ell is None


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
