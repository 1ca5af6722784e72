"""Exact enumeration of minimal permutations, their bijection with
2-regular skew Young tableaux, and cross-verified counting formulas."""

# verify, the largest module, loads first: without cached bytecode each module
# is compiled as it loads, and compiling verify before the rest lowers peak RSS
from .verify import run_suite
from .bijection import perm_to_tableau, tableau_to_perm
from .counting import (catalan, compositions_min2, double_descent_count,
                       mansour_yan, minimal_count, minimal_count_band,
                       minimal_count_by_runs, one_ascent_count,
                       three_row_syt_count, two_ascent_count)
from .errors import CapExceededError
from .permutations import (ascent_set, check_permutation, contains_pattern,
                           decreasing_run_lengths, descent_count,
                           descent_set, duplicate_loss, enumerate_minimal,
                           format_permutation, is_minimal,
                           is_minimal_by_deletion, is_permutation,
                           max_brute_n, minimality_violation,
                           parse_permutation, standardize)
from .rsk import (KnuthMove, apply_knuth_move, double_descent_class,
                  even_odd_split, insertion_tableau, inverse_bump,
                  knuth_chain, legal_knuth_moves, minimal_to_syt, row_insert,
                  rsk, rsk_inverse, rsk_trace, syt_to_minimal)
from .tableaux import (SkewShape, SkewTableau, conjugate,
                       count_standard_fillings, format_shape, hook_count,
                       hook_length, is_standard, is_two_regular, parse_shape,
                       shape_from_runs, shape_is_two_regular,
                       skew_standard_tableaux, skew_syt_count,
                       tableau_from_json, tableau_to_json)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError", "KnuthMove", "SkewShape", "SkewTableau",
    "apply_knuth_move", "ascent_set", "catalan", "check_permutation",
    "compositions_min2", "conjugate", "contains_pattern",
    "count_standard_fillings", "decreasing_run_lengths", "descent_count",
    "descent_set", "double_descent_class", "double_descent_count",
    "duplicate_loss", "enumerate_minimal", "even_odd_split",
    "format_permutation", "format_shape", "hook_count", "hook_length",
    "insertion_tableau", "inverse_bump", "is_minimal",
    "is_minimal_by_deletion", "is_permutation", "is_standard",
    "is_two_regular", "knuth_chain", "legal_knuth_moves", "mansour_yan",
    "max_brute_n", "minimal_count", "minimal_count_band",
    "minimal_count_by_runs", "minimal_to_syt", "minimality_violation",
    "one_ascent_count",
    "parse_permutation", "parse_shape", "perm_to_tableau", "row_insert",
    "rsk", "rsk_inverse", "rsk_trace", "run_suite", "shape_from_runs",
    "shape_is_two_regular", "skew_standard_tableaux", "skew_syt_count",
    "standardize", "syt_to_minimal", "tableau_from_json", "tableau_to_json",
    "tableau_to_perm", "three_row_syt_count", "two_ascent_count",
]
