"""Exact verification of finite-field point counts, fixed point
formulas, exact character arithmetic and theta correspondence tables."""

from .fields import (ArtinSchreierExtension, FieldError, TowerContext,
                     build_tower)
from .cyclotomic import (AdditiveCharacter, CycError, CycNumber, conductor,
                         gauss_sum, nu_sign)
from .varieties import (BudgetExceededError, VarietySpec, count_points,
                        count_points_naive)
from .fixed_points import (FixedPointReport, GridCell,
                           blind_fixed_point_count, closed_form_fixed_count,
                           differential_vanishes, fixed_point_grid,
                           fixed_points_surface)
from .traces import (character_difference_at_unipotent,
                     expected_character_difference, sheaf_trace_A2)
from .characters import (CharacterError, CharacterTable, DihedralClass,
                         DihedralIrrep, IsotypicLabel, brauer_decompose,
                         brauer_decompositions, brauer_irreps,
                         conjugacy_classes, dim_mod_ell_unitary,
                         dim_v_isotypic, dim_w_isotypic, ell_parts,
                         ell_regular_classes, o_minus_table, ordinary_irreps)
from .howe import (HoweEntry, HoweTable, compare_semisimplifications,
                   markdown_table, report_to_markdown, theta_mod_ell,
                   theta_ordinary, verify_all)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
