"""Theta-correspondence bookkeeping tables and the global verifier.

For each irreducible of the dihedral group (ordinary or mod-l) the
table records the dimension of the corresponding symplectic-side
representation, its reducibility status, and its constituents.  Status
flags are transcriptions of proved statements (provenance
"asserted-by-paper" in the report schema); dimensions and the
semisimplification comparison are computed.
"""

from __future__ import annotations

from typing import NamedTuple

from .characters import (CharacterError, DihedralIrrep, IsotypicLabel,
                         brauer_decompositions, brauer_irreps, char_of,
                         check_theta_n, dim_mod_ell_unitary, dim_v_isotypic,
                         dim_w_isotypic, ell_parts, ell_regular_classes,
                         o_minus_table, ordinary_irreps)
from .cyclotomic import (AdditiveCharacter, CycNumber, conductor,
                         gauss_square, gauss_sum)
from .fields import build_tower
# only verify_all reads these, at call time, so a theta table runs none
from . import fixed_points, traces, varieties

# The largest q for the theta tables.  They have a row per irreducible of
# the dihedral group of order 2(q + 1), so time, memory and output grow
# with q: on a 2-core VM q = 4096 takes 0.2 s and prints 0.76 MB, q = 2^16
# takes 1.4 s and 143 MB and prints 12 MB.
HOWE_MAX_Q = 4096


class HoweEntry(NamedTuple):
    tau: DihedralIrrep
    dim: int
    status: str                      # "irreducible" or "nontrivial-extension"
    constituents: list               # [(dim, label)] when reducible
    lusztig_note: str
    provenance: dict

    def to_json(self) -> dict:
        tau = self.tau
        return {**self._asdict(),
                "tau": {**tau._asdict(), "label": tau.label(), "dim": tau.dim},
                "constituents": [{"dim": d, "label": lab}
                                 for d, lab in self.constituents]}


class HoweTable(NamedTuple):
    n: int
    q: int
    mode: str                        # "ordinary" or "mod-ell"
    ell: int | None
    entries: list
    checks: list

    def to_json(self) -> dict:
        return {
            "params": {"n": self.n, "q": self.q, "mode": self.mode,
                       "ell": self.ell},
            "entries": [e.to_json() for e in self.entries],
            "checks": self.checks,
        }


def _check(name, expected, actual) -> dict:
    """The record of one check: its name, the raw values and whether
    they are equal."""
    return {"name": name, "expected": expected, "actual": actual,
            "pass": expected == actual}


def _entry(n: int, q: int, tau: DihedralIrrep, extension: bool) -> HoweEntry:
    """The row of tau in a theta table.  With extension, Theta(tau) is a
    nontrivial extension of the trivial representation by the kernel of
    the invariant functional."""
    dim = dim_w_isotypic(n, q, IsotypicLabel(tau.xi, tau.kappa))
    if tau.kind == "one":
        series = "unipotent" if tau.xi == 0 else "quadratic"
        note = f"series:{series}|fr:{tau.kappa}"
    else:
        note = f"series:orbit{tau.xi}"
    constituents = ([(dim - 1, "kernel of the invariant functional"),
                     (1, "trivial")] if extension else [])
    return HoweEntry(tau, dim,
                     "nontrivial-extension" if extension else "irreducible",
                     constituents, note,
                     {"dim": "computed", "status": "asserted-by-paper"})


def _check_theta(n: int, q: int) -> None:
    """The checks of a theta table, before any irreducible is listed:
    n >= 2 and q a prime power at most HOWE_MAX_Q."""
    check_theta_n(n)
    if q > HOWE_MAX_Q:
        raise CharacterError(f"q = {q} exceeds the bound {HOWE_MAX_Q}")
    char_of(q)  # rejects a q that is not a prime power


def theta_ordinary(n: int, q: int) -> HoweTable:
    """Ordinary-coefficient table; n >= 2."""
    _check_theta(n, q)
    entries = [_entry(n, q, tau, False) for tau in ordinary_irreps(q)]
    total = sum(e.dim * e.tau.dim for e in entries)
    return HoweTable(n, q, "ordinary", None, entries,
                     [_check("total-dimension", q ** (2 * n), total)])


def theta_mod_ell(n: int, q: int, ell: int) -> HoweTable:
    """Mod-l table over the Brauer parametrization; n >= 2."""
    _check_theta(n, q)
    la = ell_parts(q, ell)[0]
    irreps = brauer_irreps(q, ell)
    entries = [_entry(n, q, tau, la > 1 and tau == DihedralIrrep("one", 0, "+"))
               for tau in irreps]
    checks = [_check("brauer-parametrization-square", True,
                     len(irreps) == len(ell_regular_classes(q, ell)))]
    checks += [_check(f"constituent-sum:{e.tau.label()}", e.dim,
                      sum(d for d, _ in e.constituents))
               for e in entries if e.constituents]
    return HoweTable(n, q, "mod-ell", ell, entries, checks)


def compare_semisimplifications(n: int, q: int, ell: int) -> list[dict]:
    """For every ordinary dihedral irreducible pi, compare the mod-l
    table applied to the semisimplified reduction of pi with the
    ordinary table applied to pi.

    The dimension deficit is 1 exactly on the exceptional family
    (two-dimensional pi whose character is nontrivial with trivial
    prime-to-l part) and 0 elsewhere.  Where the Brauer solve failed for
    pi, its reduction, dim_theta_ss and deficit are None and its deficit
    does not match.
    """
    ordinary = theta_ordinary(n, q)
    modular = theta_mod_ell(n, q, ell)
    la, r = ell_parts(q, ell)
    mod_dim = {e.tau: e.dim for e in modular.entries}
    decomps = brauer_decompositions(q, ell)
    rows = []
    for e in ordinary.entries:
        pi = e.tau
        decomp = decomps[pi]
        if isinstance(decomp, str):  # the reason the solve failed
            reduction = ss_dim = deficit = None
        else:
            reduction = [(tau.label(), mult) for tau, mult in decomp]
            ss_dim = sum(mult * mod_dim[tau] for tau, mult in decomp)
            deficit = ss_dim - e.dim
        exceptional = (pi.kind == "two" and la > 1 and pi.xi % r == 0)
        rows.append({
            "pi": pi.label(),
            "dim_theta_pi": e.dim,
            "reduction": reduction,
            "dim_theta_ss": ss_dim,
            "deficit": deficit,
            "exceptional": exceptional,
            "deficit_matches": deficit == (1 if exceptional else 0),
        })
    return rows


# ---------------------------------------------------------------------------
# The global verifier.

def verify_all(n: int, p: int, e: int, ell: int) -> dict:
    """Run every desk-scale identity for the given parameters.

    Returns {"params": ..., "checks": [...], "all_passed": bool}.
    """
    ctx = build_tower(p, e)
    q = ctx.q
    la = ell_parts(q, ell)[0]
    ordinary = theta_ordinary(n, q)
    tab = o_minus_table(q, "ordinary")
    checks = [
        _check("ordinary-row-orthogonality", True, tab.row_orthogonality_ok()),
        _check("ordinary-column-orthogonality", True,
               tab.column_orthogonality_ok()),
        _check("ordinary-class-count", len(tab.classes), len(tab.irreps)),
        {**ordinary.checks[0], "name": "theta-total-dimension"},
        _check("brauer-table-square", len(ell_regular_classes(q, ell)),
               len(brauer_irreps(q, ell))),
        _check("brauer-decomposition-integrality", True, not any(
            isinstance(d, str) for d in brauer_decompositions(q, ell).values())),
    ]
    modular = theta_mod_ell(n, q, ell)
    rows = compare_semisimplifications(n, q, ell)
    checks += [
        _check("extension-flag-iff-ell-divides", la > 1, any(
            en.status == "nontrivial-extension" for en in modular.entries)),
        _check("semisimplification-deficit-pattern", True,
               all(r["deficit_matches"] for r in rows)),
    ]

    if la == 1:
        same = all(
            dim_mod_ell_unitary(n, q, k, ell)
            == dim_v_isotypic(n, q, trivial=(k % (q + 1) == 0))
            for k in range(q + 1))
        checks.append(_check("mod-ell-dims-reduce-ordinary", True, same))

    # torsor ratio over the quadratic level
    y2 = varieties.count_points(ctx, varieties.VarietySpec("Y", 2), 2)
    yt2 = varieties.count_points(ctx, varieties.VarietySpec("Ytilde", 2), 2)
    checks.append(_check("torsor-ratio-n2", (q + 1) * y2, yt2))

    # trace identities (odd characteristic: q = 3, 5, 7, 9, 11, 13)
    if p != 2:
        psi = AdditiveCharacter(ctx, 1)
        m = conductor(ctx)
        g = gauss_sum(ctx, psi)
        checks.append(_check("gauss-square", gauss_square(ctx), g * g))
        plain_ok = all(
            traces.sheaf_trace_A2(ctx, zeta, False, psi)
            == CycNumber.from_rational(m, q)
            for zeta in ctx.enumerate_mu())
        checks.append(_check("plain-trace-constant-q", True, plain_ok))
        diffs = {nn: traces.character_difference_at_unipotent(ctx, nn, psi)
                 for nn in (1, 2)}
        # The averaged twisted trace is the n = 1 difference (T^0 = 1).
        checks.append(_check("averaged-unipotent-trace-gauss", g, diffs[1]))
        for nn, diff in diffs.items():
            checks.append(_check(f"character-difference-n{nn}",
                                 traces.expected_character_difference(
                                     ctx, nn, psi),
                                 diff))
        grid_ok = all(cell.matches for with_u in (True, False)
                      for cell in fixed_points.fixed_point_grid(
                          ctx, with_u).values())
        checks.append(_check("fixed-point-grid-closed-form", True, grid_ok))
        checks.append(_check("endomorphism-differential-vanishes", True,
                             fixed_points.differential_vanishes(ctx)))

    return {
        "params": {"n": n, "p": p, "e": e, "q": q, "ell": ell},
        # a CycNumber has no JSON form: the report holds the str of each value
        "checks": [{**c, "expected": str(c["expected"]),
                    "actual": str(c["actual"])} for c in checks],
        "all_passed": all(c["pass"] for c in checks),
    }
