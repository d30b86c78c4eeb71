"""Dimension formulas and the character theory of mu_{q+1} x| Z/2.

The semidirect product of mu_{q+1} by the inversion involution is the
rank-2 orthogonal group of minus type over F_q; its ordinary and mod-l
representation theory is small enough to build exactly.  Dimension
formulas for the isotypic pieces of the two cohomology families are
collected here as pure integer arithmetic with divisibility asserts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import NamedTuple

from .cyclotomic import CycNumber, _dot
from .fields import prime_factors, row_reduce


class CharacterError(ValueError):
    pass


def char_of(q: int) -> int:
    """The prime p with q = p^e; q is bounded below 2^32 before the trial
    division of prime_factors."""
    fs = prime_factors(q) if q < 2 ** 32 else []
    if len(fs) != 1:
        raise CharacterError(f"q = {q} is not a prime power below 2^32")
    return fs[0]


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise CharacterError(f"{num} is not divisible by {den}")
    return num // den


# ---------------------------------------------------------------------------
# Dimension formulas.

def check_theta_n(n: int) -> None:
    """The one check of n for the unitary-side dimensions and the theta
    tables: n >= 2."""
    if n < 2:
        raise CharacterError("n must be at least 2")


def dim_v_isotypic(n: int, q: int, trivial: bool) -> int:
    """Dimension of the chi-isotypic part of the middle cohomology of
    the degree-(q+1) hypersurface complement family, ordinary
    coefficients; n >= 2."""
    check_theta_n(n)
    s = (-1) ** n
    if trivial:
        return _exact_div(q ** n + s * q, q + 1)
    return _exact_div(q ** n - s, q + 1)


class IsotypicLabel(NamedTuple):
    """A character of mu_{q+1} by exponent k, with a Frobenius sign
    kappa ('+' or '-') when the character is inversion-stable."""
    k: int
    kappa: str | None = None


def dim_w_isotypic(n: int, q: int, label: IsotypicLabel) -> int:
    """Dimension of the isotypic piece of the symplectic-side family
    for Sp_{2n}; n >= 1."""
    if n < 1:
        raise CharacterError("n must be at least 1")
    m = q + 1
    k = label.k % m
    if (2 * k) % m == 0:
        if label.kappa not in ("+", "-"):
            raise CharacterError("an inversion-stable character needs kappa")
        if k == 0:
            s = 1 if label.kappa == "+" else -1
            return _exact_div((q ** n + s) * (q ** n + s * q), 2 * m)
        # the order-2 character; only exists for q odd, as 2k = 0 and
        # k != 0 mod q + 1 make q + 1 even
        return _exact_div(q ** (2 * n) - 1, 2 * m)
    if label.kappa is not None:
        raise CharacterError("kappa only applies to inversion-stable characters")
    return _exact_div(q ** (2 * n) - 1, m)


def ell_parts(q: int, ell: int) -> tuple[int, int]:
    """(l^a, r) with q + 1 = l^a r and l coprime to r.  The one check of
    ell: an odd prime that does not divide q.  ell matters only through
    ell | q + 1, so it is bounded below 2^32 before the trial division."""
    if not 2 < ell < 2 ** 32 or q % ell == 0 or prime_factors(ell) != [ell]:
        raise CharacterError(f"ell = {ell} must be an odd prime below 2^32 "
                             f"that does not divide q = {q}")
    m = q + 1
    la = 1
    while m % ell == 0:
        m //= ell
        la *= ell
    return la, m


def dim_mod_ell_unitary(n: int, q: int, k: int, ell: int) -> int:
    """Mod-l dimension of the k-isotypic part on the unitary side.

    The reduction of chi_k factors through the prime-to-l quotient
    mu_r of mu_{q+1}; only k mod r matters."""
    la, r = ell_parts(q, ell)
    check_theta_n(n)
    if la == 1:
        return dim_v_isotypic(n, q, trivial=(k % (q + 1) == 0))
    s = (-1) ** n
    base = _exact_div(q ** n - s, q + 1)
    if k % r == 0:
        return base + (1 + s) // 2
    return base


# ---------------------------------------------------------------------------
# The dihedral group of order 2(q+1).

class DihedralClass(NamedTuple):
    kind: str          # "rot" or "refl"
    rep: int           # rotation exponent, or reflection parity
    size: int
    element_order: int


class DihedralIrrep(NamedTuple):
    kind: str          # "one" or "two"
    xi: int            # character exponent mod q+1
    kappa: str | None  # sign for kind == "one"

    @property
    def dim(self) -> int:
        return 1 if self.kind == "one" else 2

    def label(self) -> str:
        if self.kind == "one":
            return f"({self.xi},{self.kappa})"
        return f"sigma{self.xi}"


def conjugacy_classes(q: int) -> list[DihedralClass]:
    m = q + 1
    out = []
    for k in range(m // 2 + 1):
        if k == 0:
            out.append(DihedralClass("rot", 0, 1, 1))
        elif 2 * k == m:
            out.append(DihedralClass("rot", k, 1, 2))
        else:
            out.append(DihedralClass("rot", k, 2, m // gcd(m, k)))
    if m % 2 == 1:
        out.append(DihedralClass("refl", 0, m, 2))
    else:
        out.append(DihedralClass("refl", 0, m // 2, 2))
        out.append(DihedralClass("refl", 1, m // 2, 2))
    assert sum(c.size for c in out) == 2 * m
    return out


def ordinary_irreps(q: int) -> list[DihedralIrrep]:
    m = q + 1
    out = [DihedralIrrep("one", 0, "+"), DihedralIrrep("one", 0, "-")]
    if m % 2 == 0:
        out.append(DihedralIrrep("one", m // 2, "+"))
        out.append(DihedralIrrep("one", m // 2, "-"))
    return out + [DihedralIrrep("two", xi, None)
                  for xi in range(1, (m + 1) // 2)]


def brauer_irreps(q: int, ell: int) -> list[DihedralIrrep]:
    """Mod-l irreducibles: characters through the prime-to-l quotient."""
    la, r = ell_parts(q, ell)
    # the irreducibles of the dihedral quotient of order 2r, pulled back
    # along mu_{q+1} -> mu_r, zeta -> zeta^la: xi on mu_r becomes xi la
    return [tau._replace(xi=tau.xi * la) for tau in ordinary_irreps(r - 1)]


def ell_regular_classes(q: int, ell: int) -> list[DihedralClass]:
    return [c for c in conjugacy_classes(q) if c.element_order % ell != 0]


def irrep_value(q: int, irrep: DihedralIrrep, cls: DihedralClass) -> CycNumber:
    """Exact character value, in Q(zeta_{q+1})."""
    m = q + 1
    if irrep.kind == "one":
        sign = (-1) ** cls.rep if irrep.xi else 1  # xi != 0: the order-2 character
        if cls.kind == "refl":
            sign *= 1 if irrep.kappa == "+" else -1
        return CycNumber.from_rational(m, sign)
    if cls.kind == "refl":
        return CycNumber.from_rational(m, 0)
    e = (irrep.xi * cls.rep) % m
    return CycNumber.root_of_unity(m, e) + CycNumber.root_of_unity(m, -e % m)


def _gram_ok(m: int, xs, ys, diagonal) -> bool:
    """Whether sum_k xs[i][k] ys[j][k] is diagonal[i] for i = j and 0
    otherwise, each entry one _dot; ys holds the conjugates, each
    computed once."""
    return all(_dot(m, x, y) == (diagonal[i] if i == j else 0)
               for i, x in enumerate(xs) for j, y in enumerate(ys))


class CharacterTable(NamedTuple):
    q: int
    mode: str                      # "ordinary" or "mod-ell"
    ell: int | None
    conductor: int
    classes: list
    irreps: list
    values: list                   # values[i][j] = irreps[i] at classes[j]

    def group_order(self) -> int:
        return 2 * (self.q + 1)

    def row_orthogonality_ok(self) -> bool:
        """Ordinary tables only: <chi_i, chi_j> = delta_ij."""
        conj = [[cls.size * v.conjugate() for cls, v in zip(self.classes, row)]
                for row in self.values]
        return _gram_ok(self.conductor, self.values, conj,
                        [self.group_order()] * len(conj))

    def column_orthogonality_ok(self) -> bool:
        cols = list(zip(*self.values))
        return _gram_ok(self.conductor, cols,
                        [[v.conjugate() for v in col] for col in cols],
                        [Fraction(self.group_order(), c.size) for c in self.classes])


def o_minus_table(q: int, mode: str = "ordinary",
                  ell: int | None = None) -> CharacterTable:
    """Character table of the dihedral group of order 2(q+1).

    mode "ordinary": full table over Q(zeta_{q+1}); mode "mod-ell":
    Brauer character table on l-regular classes."""
    if mode == "ordinary":
        classes = conjugacy_classes(q)
        irreps = ordinary_irreps(q)
    elif mode == "mod-ell":
        if ell is None:
            raise CharacterError("mod-ell mode needs ell")
        classes = ell_regular_classes(q, ell)
        irreps = brauer_irreps(q, ell)
        if len(classes) != len(irreps):
            raise CharacterError("Brauer table is not square")
    else:
        raise CharacterError(f"unknown mode {mode!r}")
    values = [[irrep_value(q, r, c) for c in classes] for r in irreps]
    return CharacterTable(q, mode, ell if mode == "mod-ell" else None,
                          q + 1, classes, irreps, values)


@lru_cache(maxsize=None)
def brauer_decompositions(q: int, ell: int) -> MappingProxyType:
    """{pi: ((tau, multiplicity), ...)}, the reduction mod l of every
    ordinary irreducible pi, each multiplicity > 0, by one exact solve on
    the l-regular classes (Serre, Linear Representations of Finite
    Groups, section 18).  Where the restriction of pi is not in the span
    of the Brauer characters, a multiplicity is not a non-negative
    integer or the dimensions do not add up, pi maps to that reason.

    The Brauer characters are the matrix and each restricted pi is one
    right-hand side, so a single row_reduce over Q(zeta_{q+1}) solves
    them all.  The result is immutable and fixed by (q, ell), and this
    module has no tower to hold it, so it is cached for the process.
    """
    brauer = brauer_irreps(q, ell)
    ordinary = ordinary_irreps(q)
    aug = [[irrep_value(q, irr, cls) for irr in brauer + ordinary]
           for cls in ell_regular_classes(q, ell)]
    pivots = row_reduce(aug, len(brauer), CycNumber.inverse, lambda a: a)
    return MappingProxyType({
        pi: _reduction(pi, brauer, pivots, [row[k] for row in aug])
        for k, pi in enumerate(ordinary, len(brauer))})


def _reduction(pi: DihedralIrrep, brauer: list, pivots: list, column: list):
    """The constituents of pi read off its reduced right-hand side."""
    if any(column[len(pivots):]):
        return "restriction is not in the Brauer span"
    if not all(v.is_integer() for v in column):
        return "non-integral Brauer multiplicity"
    mult = [int(v.as_rational()) for v in column]
    if min(mult) < 0:
        return "negative Brauer multiplicity"
    out = tuple((brauer[j], n) for j, n in zip(pivots, mult) if n)
    if sum(n * tau.dim for tau, n in out) != pi.dim:
        return "Brauer constituents do not fill the dimension"
    return out


def brauer_decompose(q: int, ell: int, irrep: DihedralIrrep) -> list:
    """[(DihedralIrrep, multiplicity), ...], the reduction mod l of the
    ordinary irreducible irrep, from brauer_decompositions(q, ell);
    raises CharacterError where that solve failed for irrep."""
    reduction = brauer_decompositions(q, ell).get(
        irrep, f"{irrep} is not an ordinary irreducible for q = {q}")
    if isinstance(reduction, str):
        raise CharacterError(reduction)
    return list(reduction)
