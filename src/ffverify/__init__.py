"""Exact verification of finite-field point counts, fixed point
formulas, exact character arithmetic and theta correspondence tables.

A layer is imported when one of its names is first looked up here
(PEP 562 module __getattr__), so `import ffverify` imports no layer and
`ffverify.build_tower` imports `fields` alone.  The names are not kept
in this namespace: each lookup returns what the layer binds now, so a
function rebound on its layer (monkeypatched or traced) is seen here."""

from importlib import import_module

_EXPORTS = {
    "fields": ("ArtinSchreierExtension", "FieldError", "TowerContext",
               "build_tower"),
    "cyclotomic": ("AdditiveCharacter", "CycError", "CycNumber", "conductor",
                   "gauss_sum", "nu_sign"),
    "varieties": ("BudgetExceededError", "VarietySpec", "count_points",
                  "count_points_naive"),
    "fixed_points": ("FixedPointReport", "GridCell", "blind_fixed_point_count",
                     "closed_form_fixed_count", "differential_vanishes",
                     "fixed_point_grid", "fixed_points_surface"),
    "traces": ("character_difference_at_unipotent",
               "expected_character_difference", "sheaf_trace_A2"),
    "characters": ("CharacterError", "CharacterTable", "DihedralClass",
                   "DihedralIrrep", "IsotypicLabel", "brauer_decompose",
                   "brauer_decompositions", "brauer_irreps",
                   "conjugacy_classes", "dim_mod_ell_unitary",
                   "dim_v_isotypic", "dim_w_isotypic", "ell_parts",
                   "ell_regular_classes", "o_minus_table", "ordinary_irreps"),
    "howe": ("HoweEntry", "HoweTable", "compare_semisimplifications",
             "markdown_table", "report_to_markdown", "theta_mod_ell",
             "theta_ordinary", "verify_all"),
}
# Each public name, the layers' own names included, to its layer.
_HOME = {name: layer for layer, names in _EXPORTS.items()
         for name in (layer, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = import_module(f"{__name__}.{_HOME[name]}")
    return layer if name == _HOME[name] else getattr(layer, name)
