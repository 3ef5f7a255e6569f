"""Static guards on the package: checks raise ValueError, so they survive
python -O, and every function, class and method but a dunder has a caller
in the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treesubst

SRC = Path(treesubst.__file__).parent

PROBE = """
from treesubst.algnum import ExactLength
from treesubst.realization import FreePoint
from treesubst.trees import ColoredTree, RulePattern, TreeIteration, TreeSubstitution

for call in (
    lambda: FreePoint.syllable(3, 7, ExactLength.one(3)),
    lambda: TreeIteration(3).descent(2, 1),
    lambda: ColoredTree(3, [(0, 1, 1)]).path_word(0, 2),
    lambda: TreeSubstitution(3, {1: RulePattern(1, (("X", "P1", 3),))}).trunk_word(1),
):
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("returned without raising ValueError")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_bad_arguments_raise_under_either_mode(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert vanishes under python -O: {found}"



def test_every_public_definition_has_a_caller():
    tops = [
        node
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
    ]
    # names each module-level statement refers to, by Name or Attribute
    refs = [
        {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
        | {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
        for top in tops
    ]
    # any module-level function or class, private ones too
    uncalled = [
        node.name
        for node in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in r for other, r in zip(tops, refs) if other is not node)
    ]
    # any method but a dunder must be read as an attribute somewhere in the
    # package; a read through `self` counts only for the class it is written in
    def reads(node, through_self):
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                and (isinstance(n.value, ast.Name) and n.value.id == "self") == through_self}

    attributes = set().union(*(reads(top, False) for top in tops))
    uncalled += [
        f"{node.name}.{method.name}"
        for node in tops
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef)
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and method.name not in attributes | reads(node, True)
    ]
    assert uncalled == [], f"definitions with no caller in the package: {uncalled}"


def test_audit_leaves_numpy_ma_unloaded():
    # np.unique and np.median import numpy.ma on their first call, tens of ms
    # of every audit and plot process
    probe = ("import sys\nfrom treesubst import verify\n"
             "verify.run_suite('all', 3)\nprint('numpy.ma' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.stdout == "False\n", proc.stderr + proc.stdout
