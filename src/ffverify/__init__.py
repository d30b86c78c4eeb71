"""Exact verification of finite-field point counts, fixed point
formulas, exact character arithmetic and theta correspondence tables.

`import ffverify` puts every layer in sys.modules, bound here under its
name, without running it: a layer's code is compiled and run on its
first attribute access (the LazyLoader recipe of the importlib docs).
So a caller compiles only the layers it reaches, and `ffverify.fields`
or `from . import fields` runs nothing.  The public names are not
kept in this namespace (PEP 562 module __getattr__): each lookup
returns what the layer binds now, so a function rebound on its layer
(monkeypatched or traced) is seen here."""

import importlib.util
import sys

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
# Each public name of a layer to its layer.
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def _register(layer: str):
    """The layer ffverify.<layer>, put in sys.modules unrun."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({layer: _register(layer) for layer in _EXPORTS})


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)
