"""The public surface of the package: the names `import ffverify` offers,
each the object its layer defines, looked up afresh on every access."""

import sys
import types

import pytest

import ffverify

PUBLIC = [
    "AdditiveCharacter", "ArtinSchreierExtension", "BudgetExceededError",
    "CharacterError", "CharacterTable", "CycError", "CycNumber",
    "DihedralClass", "DihedralIrrep", "FieldError", "FixedPointReport",
    "GridCell", "HoweEntry", "HoweTable", "IsotypicLabel", "TowerContext",
    "VarietySpec", "blind_fixed_point_count", "brauer_decompose",
    "brauer_decompositions", "brauer_irreps", "build_tower",
    "character_difference_at_unipotent", "characters",
    "closed_form_fixed_count", "compare_semisimplifications", "conductor",
    "conjugacy_classes", "count_points", "count_points_naive", "cyclotomic",
    "differential_vanishes", "dim_mod_ell_unitary", "dim_v_isotypic",
    "dim_w_isotypic", "ell_parts", "ell_regular_classes",
    "expected_character_difference", "fields", "fixed_point_grid",
    "fixed_points", "fixed_points_surface", "gauss_sum", "howe",
    "markdown_table", "nu_sign", "o_minus_table", "ordinary_irreps",
    "report_to_markdown", "sheaf_trace_A2", "theta_mod_ell",
    "theta_ordinary", "traces", "varieties", "verify_all",
]
LAYERS = ("characters", "cyclotomic", "fields", "fixed_points", "howe",
          "traces", "varieties")


def test_all_lists_the_public_names():
    assert ffverify.__all__ == PUBLIC


def test_each_public_name_is_the_object_of_its_layer():
    wrong = []
    for name in PUBLIC:
        obj = getattr(ffverify, name)
        if name in LAYERS:
            right = (isinstance(obj, types.ModuleType)
                     and obj is sys.modules[f"ffverify.{name}"])
        else:
            home = obj.__module__
            right = (home.startswith("ffverify.")
                     and getattr(sys.modules[home], name) is obj)
        if not right:
            wrong.append(name)
    assert wrong == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ffverify import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ffverify.no_such_name


def test_a_rebound_layer_function_is_seen_through_the_package(monkeypatch):
    """The package keeps no copy, so a monkeypatched or traced function
    is what every later lookup returns, and the undo restores it."""
    original = ffverify.fixed_points.fixed_point_grid

    def stub(ctx, with_unipotent):
        return {}

    monkeypatch.setattr(ffverify.fixed_points, "fixed_point_grid", stub)
    assert ffverify.fixed_point_grid is stub
    monkeypatch.undo()
    assert ffverify.fixed_point_grid is original
