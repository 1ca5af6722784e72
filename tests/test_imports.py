"""What `import minperm` and each command load, and the package's lazy
names: every exported name resolves on first use to the object its home
module defines, and only then loads that module.  The source imports only
the standard library and never reads the environment."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import minperm
import minperm.cli as cli
import minperm.verify as verify

SRC = Path(__file__).resolve().parent.parent / "src"
ALL = {"bijection", "cli", "counting", "errors", "permutations", "rsk", "tableaux", "verify"}
# (file name, node) for every AST node of every module in the package
SOURCE_NODES = [(path.name, node) for path in sorted((SRC / "minperm").rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))]


def fresh(code: str) -> str:
    """The stdout of code run in a new interpreter that imports minperm
    from the source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def loaded_by(*argv: str) -> set[str]:
    """The minperm submodules that the command argv loads, run through
    main in a new interpreter, after checking that it exits 0; plus
    "dataclasses" if the standard library's dataclasses is loaded, which
    imports inspect, ast, dis and tokenize and no command needs."""
    out = fresh(f"""
import contextlib, io, json, sys
from minperm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({list(argv)!r})
print(json.dumps([code, [m for m in sys.modules
                         if m.startswith("minperm.") or m == "dataclasses"]]))""")
    code, modules = json.loads(out)
    assert code == 0
    return {m.removeprefix("minperm.") for m in modules}


def test_import_loads_no_submodule():
    out = fresh("import sys, minperm; print([m for m in sys.modules if m.startswith('minperm.')])")
    assert out == "[]\n"


@pytest.mark.parametrize("argv, modules", [
    (("count", "--n", "9"), {"cli", "errors", "counting"}),
    (("count", "--n", "9", "--ascents", "3,3,3"), {"cli", "errors", "counting", "tableaux"}),
])
def test_count_loads_only_counting(argv, modules):
    assert loaded_by(*argv) == modules


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "8"), ("enumerate", "--n", "8", "--d", "5"),
    ("enumerate", "--n", "8", "--ascents", "3,2,3"),
    ("enumerate", "--n", "8", "--d", "5", "--double-descent-at", "3"),
])
def test_enumerate_loads_no_tableau_module(argv):
    # the search counts its own lines, so no constraint loads counting
    assert loaded_by(*argv) == {"cli", "errors", "permutations"}


@pytest.mark.parametrize("argv", [
    ("bijection", "--perm", "2,1,4,3"),
    ("bijection", "--tableau", '{"shape": "2,2", "rows": [[1, 3], [2, 4]]}'),
])
def test_bijection_loads_no_counting(argv):
    assert loaded_by(*argv) == {"cli", "errors", "permutations", "tableaux", "bijection"}


@pytest.mark.parametrize("argv", [("rsk", "--perm", "3,1,2"), ("knuth-chain", "--perm", "3,2,1")])
def test_rsk_commands_load_no_counting(argv):
    # tableaux and bijection serve only syt_to_minimal and knuth_chain,
    # which neither command calls
    modules = loaded_by(*argv)
    assert modules == {"cli", "errors", "permutations", "rsk"}


def test_verify_loads_every_module():
    assert loaded_by("verify", "--suite", "rsk", "--max-n", "4") == ALL


def test_knuth_chain_loads_no_tableau_module():
    # the chain's moves are built without the tableaux module
    out = fresh("""
import sys, minperm
minperm.knuth_chain((3, 2, 1))
print(sorted(m for m in sys.modules if m.startswith("minperm.") or m == "dataclasses"))""")
    assert out == "['minperm.errors', 'minperm.permutations', 'minperm.rsk']\n"


def test_names_resolve_to_their_home_objects():
    for module, names in minperm._EXPORTS.items():
        home = importlib.import_module(f"minperm.{module}")
        for name in names:
            assert getattr(minperm, name) is getattr(home, name), name


def test_star_import_and_dir_agree():
    out = fresh("""
import json, minperm
namespace = {}
exec("from minperm import *", namespace)
print(json.dumps([sorted(n for n in namespace if n != "__builtins__"), dir(minperm)]))""")
    star, listed = json.loads(out)
    assert star == listed == minperm.__all__


def test_missing_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        minperm.no_such_name
    assert not hasattr(minperm, "_no_such_name")


def test_rsk_stays_the_function():
    # the import system binds each submodule it loads onto the package,
    # which would make minperm.rsk the module once minperm.rsk is imported
    out = fresh("""
import minperm.verify, minperm.rsk, minperm
from minperm import rsk
print(callable(rsk), rsk is minperm.rsk, rsk.__module__)""")
    assert out == "True True minperm.rsk\n"
    assert isinstance(minperm.rsk, types.FunctionType)
    assert minperm.rsk((2, 1)) == (((1,), (2,)), ((1,), (2,)))


def test_standard_library_only():
    # lazy imports included; a relative import (level > 0) is the package's own
    imported = [(path, node.lineno, name) for path, node in SOURCE_NODES
                for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else
                             [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                             else [])]
    assert [i for i in imported if i[2].split(".")[0] not in sys.stdlib_module_names] == []


def test_no_environment_reads():
    # os.environ, os.getenv, or their names imported from os
    names = {"environ", "environb", "getenv", "getenvb"}
    assert [(path, node.lineno) for path, node in SOURCE_NODES
            if getattr(node, "attr", None) in names or getattr(node, "id", None) in names
            or isinstance(node, ast.alias) and node.name in names] == []


def test_argument_rules_live_in_errors():
    # a value type takes _make and __reduce__ from errors._Validated, and one
    # int's bounds message comes from errors._check_int; shape_from_runs'
    # rule for a whole tuple of run lengths is not one int's
    defined = [(path, node.lineno) for path, node in SOURCE_NODES if path != "errors.py"
               and {"_make", "__reduce__"} & (
                   {node.name} if isinstance(node, ast.FunctionDef) else
                   {getattr(t, "id", None) for t in node.targets}
                   if isinstance(node, ast.Assign) else set())]
    worded = [(path, node.lineno) for path, node in SOURCE_NODES
              if path != "errors.py" and isinstance(node, ast.Raise)
              for part in ast.walk(node)
              if isinstance(part, ast.Constant) and isinstance(part.value, str)
              and ("must be >= " in part.value or "must be in " in part.value)
              and part.value != "every run length must be >= 2, got "]
    assert (defined, worded) == ([], [])


def test_suite_names_match_verify():
    assert cli.SUITE_NAMES == tuple(verify.SUITES)
