"""Theta-correspondence bookkeeping tables and the global verifier.

For each irreducible of the dihedral group (ordinary or mod-l) the
table records the dimension of the corresponding symplectic-side
representation, its reducibility status, and its constituents.  Status
flags are transcriptions of proved statements (provenance
"asserted-by-paper" in the report schema); dimensions and the
semisimplification comparison are computed.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .characters import (CharacterError, DihedralIrrep, IsotypicLabel,
                         brauer_decompositions, brauer_irreps, char_of,
                         dim_mod_ell_unitary, dim_v_isotypic,
                         dim_w_isotypic, ell_parts, ell_regular_classes,
                         o_minus_table, ordinary_irreps)
from .cyclotomic import AdditiveCharacter, CycNumber, conductor, gauss_sum
from .fields import build_tower
from .fixed_points import differential_vanishes, fixed_point_grid
from .traces import (character_difference_at_unipotent,
                     expected_character_difference, sheaf_trace_A2)
from .varieties import VarietySpec, count_points


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

    def to_markdown(self) -> str:
        title = f"Theta table: n={self.n}, q={self.q}, mode={self.mode}"
        if self.ell is not None:
            title += f", ell={self.ell}"
        lines = [f"# {title}", ""] + markdown_table(
            ("tau", "dim(tau)", "dim(Theta(tau))", "status", "constituents"),
            [(e.tau.label(), e.tau.dim, e.dim, e.status,
              "; ".join(f"{lab} ({d})" for d, lab in e.constituents) or "-")
             for e in self.entries])
        if self.checks:
            lines += [""] + _checks_markdown(self.checks)
        return "\n".join(lines + [""])


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


def theta_ordinary(n: int, q: int) -> HoweTable:
    """Ordinary-coefficient table; n >= 2."""
    if n < 2:
        raise CharacterError("n must be at least 2")
    char_of(q)  # rejects a q that is not a prime power
    entries = [_entry(n, q, tau, False) for tau in ordinary_irreps(q)]
    total = sum(e.dim * e.tau.dim for e in entries)
    return HoweTable(n, q, "ordinary", None, entries,
                     [_check("total-dimension", q ** (2 * n), total)])


def theta_mod_ell(n: int, q: int, ell: int) -> HoweTable:
    """Mod-l table over the Brauer parametrization; n >= 2."""
    if n < 2:
        raise CharacterError("n must be at least 2")
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
    if ell == 2 or ell == p:
        raise CharacterError(
            f"ell = {ell} is unsupported: ell must be an odd prime "
            f"different from the characteristic {p}")
    if n < 2:
        raise CharacterError("n must be at least 2")
    tab = o_minus_table(q, "ordinary")
    checks = [
        _check("ordinary-row-orthogonality", True, tab.row_orthogonality_ok()),
        _check("ordinary-column-orthogonality", True,
               tab.column_orthogonality_ok()),
        _check("ordinary-class-count", len(tab.classes), len(tab.irreps)),
        {**theta_ordinary(n, q).checks[0], "name": "theta-total-dimension"},
        _check("brauer-table-square", len(ell_regular_classes(q, ell)),
               len(brauer_irreps(q, ell))),
        _check("brauer-decomposition-integrality", True, not any(
            isinstance(d, str) for d in brauer_decompositions(q, ell).values())),
    ]
    modular = theta_mod_ell(n, q, ell)
    la = ell_parts(q, ell)[0]
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
    y2 = count_points(ctx, VarietySpec("Y", 2), 2)
    yt2 = count_points(ctx, VarietySpec("Ytilde", 2), 2)
    checks.append(_check("torsor-ratio-n2", (q + 1) * y2, yt2))

    # trace identities (odd characteristic: q = 3, 5, 7, 9, 11, 13)
    if p != 2:
        psi = AdditiveCharacter(ctx, 1)
        m = conductor(ctx)
        g = gauss_sum(ctx, psi)
        sign = ctx.legendre(p - 1)  # -1 has encoding p - 1
        checks.append(_check("gauss-square", CycNumber.from_rational(m, sign * q),
                             g * g))
        plain_ok = all(
            sheaf_trace_A2(ctx, zeta, False, psi)
            == CycNumber.from_rational(m, q)
            for zeta in ctx.enumerate_mu())
        checks.append(_check("plain-trace-constant-q", True, plain_ok))
        diffs = {nn: character_difference_at_unipotent(ctx, nn, psi)
                 for nn in (1, 2)}
        # The averaged twisted trace is the n = 1 difference (T^0 = 1).
        checks.append(_check("averaged-unipotent-trace-gauss", g, diffs[1]))
        for nn, diff in diffs.items():
            checks.append(_check(f"character-difference-n{nn}",
                                 expected_character_difference(ctx, nn, psi),
                                 diff))
        grid_ok = all(cell.matches for with_u in (True, False)
                      for cell in fixed_point_grid(ctx, with_u).values())
        checks.append(_check("fixed-point-grid-closed-form", True, grid_ok))
        checks.append(_check("endomorphism-differential-vanishes", True,
                             differential_vanishes(ctx)))

    return {
        "params": {"n": n, "p": p, "e": e, "q": q, "ell": ell},
        # a CycNumber has no JSON form: the report holds the str of each value
        "checks": [{**c, "expected": str(c["expected"]),
                    "actual": str(c["actual"])} for c in checks],
        "all_passed": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# Markdown.

def markdown_table(header, rows) -> list[str]:
    """The lines of a markdown table: the header, the rule and one line
    per row, each cell the str of its value.  The package's one writer
    of markdown table rows."""
    return (["| " + " | ".join(header) + " |",
             "| " + " | ".join(["---"] * len(header)) + " |"]
            + ["| " + " | ".join(map(str, row)) + " |" for row in rows])


def _checks_markdown(checks) -> list[str]:
    """The lines of the markdown table of checks."""
    return markdown_table(("check", "expected", "actual", "pass"), [
        (c["name"], c["expected"], c["actual"], "yes" if c["pass"] else "no")
        for c in checks])


def report_to_markdown(report: dict) -> str:
    lines = ["# Verification report", "",
             f"Parameters: {json.dumps(report['params'])}", ""]
    lines += _checks_markdown(report["checks"])
    lines += ["", f"All passed: {'yes' if report['all_passed'] else 'no'}", ""]
    return "\n".join(lines)
