"""Exact enumeration of minimal permutations, their bijection with
2-regular skew Young tableaux, and cross-verified counting formulas.

`import minperm` loads no submodule: each exported name loads its module
on first use (PEP 562), so a program pays only for the modules it runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# each module and the names it exports from the package
_EXPORTS = {
    "bijection": ("perm_to_tableau", "tableau_to_perm"),
    "counting": ("catalan", "compositions_min2", "double_descent_count",
                 "mansour_yan", "minimal_count", "minimal_count_band",
                 "minimal_count_by_runs", "one_ascent_count",
                 "three_row_syt_count", "two_ascent_count"),
    "errors": ("CapExceededError",),
    "permutations": ("ascent_set", "check_permutation", "contains_pattern",
                     "decreasing_run_lengths", "descent_count", "descent_set",
                     "duplicate_loss", "enumerate_minimal",
                     "format_permutation", "is_minimal",
                     "is_minimal_by_deletion", "is_permutation",
                     "minimality_violation", "parse_permutation",
                     "standardize"),
    "rsk": ("KnuthMove", "apply_knuth_move", "double_descent_class",
            "even_odd_split", "insertion_tableau", "inverse_bump",
            "knuth_chain", "legal_knuth_moves", "minimal_to_syt",
            "row_insert", "rsk", "rsk_inverse", "rsk_trace",
            "syt_to_minimal"),
    "tableaux": ("SkewShape", "SkewTableau", "conjugate",
                 "count_standard_fillings", "format_shape", "hook_count",
                 "hook_length", "is_standard", "is_two_regular",
                 "parse_shape", "shape_from_runs", "shape_is_two_regular",
                 "skew_standard_tableaux", "skew_syt_count",
                 "tableau_from_json", "tableau_to_json"),
    "verify": ("run_suite",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return list(__all__)


class _Package(types.ModuleType):
    """The import system binds each submodule it loads onto its package;
    this package keeps the exported name rsk bound to the function."""

    def __setattr__(self, name: str, value) -> None:
        if not (name == "rsk" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
