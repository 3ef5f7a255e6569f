"""Checks in the package raise ValueError, so they survive python -O."""

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
from treesubst.trees import TreeIteration

for call in (
    lambda: FreePoint.syllable(3, 7, ExactLength.one(3)),
    lambda: TreeIteration(3).ancestor_edge(1, 0, 2),
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
