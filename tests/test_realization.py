"""Isometric realization in the free product of d lines."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import treesubst
from treesubst import core, verify
from treesubst.algnum import ExactLength, stretch_root
from treesubst.realization import (
    FreePoint,
    Realization,
    common_prefix,
    distance,
    median,
    point_segment_distance,
)
from treesubst.trees import TreeIteration


def _t(num):
    x = ExactLength.zero(3)
    one = ExactLength.one(3)
    for _ in range(abs(num)):
        x = x + one
    return x if num >= 0 else -x


def test_free_point_group_laws():
    a = FreePoint.syllable(3, 0, _t(2))
    b = FreePoint.syllable(3, 1, _t(1))
    assert (a * b) * (a * b).inverse() == FreePoint.origin(3)
    assert a * FreePoint.origin(3) == a


def test_syllable_merge_and_cancel():
    a = FreePoint.syllable(3, 0, _t(2))
    b = FreePoint.syllable(3, 0, _t(3))
    assert len((a * b).syllables) == 1
    assert (a * b).norm() == _t(5)
    c = FreePoint.syllable(3, 0, -_t(2))
    assert a * c == FreePoint.origin(3)


def test_distance_is_a_tree_metric():
    a = FreePoint.syllable(3, 0, _t(1))
    b = FreePoint.syllable(3, 1, _t(1))
    c = FreePoint.syllable(3, 0, _t(1)) * FreePoint.syllable(3, 2, _t(1))
    assert distance(a, b) == _t(2)
    assert distance(a, c) == _t(1)
    # four-point condition holds with equality patterns in a tree
    d1 = (distance(a, b) + distance(c, FreePoint.origin(3))).value()
    d2 = (distance(a, c) + distance(b, FreePoint.origin(3))).value()
    d3 = (distance(a, FreePoint.origin(3)) + distance(b, c)).value()
    assert max(d1, d2, d3) <= sorted((d1, d2, d3))[1] + 1e-12


def test_common_prefix_and_median():
    o = FreePoint.origin(3)
    a = FreePoint.syllable(3, 0, _t(3))
    b = FreePoint.syllable(3, 0, _t(2)) * FreePoint.syllable(3, 1, _t(1))
    cp = common_prefix(a, b)
    assert cp == FreePoint.syllable(3, 0, _t(2))
    assert median(o, a, b) == cp
    # cp lies on the segment [o, a]; a does not lie on [o, b]
    assert distance(o, cp) + distance(cp, a) == distance(o, a)
    assert distance(o, a) + distance(a, b) != distance(o, b)


def test_point_segment_distance():
    o = FreePoint.origin(3)
    a = FreePoint.syllable(3, 0, _t(4))
    x = FreePoint.syllable(3, 0, _t(2)) * FreePoint.syllable(3, 1, _t(3))
    assert point_segment_distance(x, o, a) == _t(3)
    assert point_segment_distance(FreePoint.syllable(3, 0, _t(2)), o, a).is_zero()


def test_edge_lengths_all_stages():
    real = Realization(TreeIteration(3))
    real.extend_to(8)
    for n in range(9):
        real.edge_length_check(n)


def test_edge_lengths_d4():
    real = Realization(TreeIteration(4))
    real.extend_to(5)
    for n in range(6):
        real.edge_length_check(n)


# edge_length_law reads the process-wide scan, so the script swaps in one
# whose colour-1 base length is wrong
_BROKEN_LAW = """
from types import SimpleNamespace
from treesubst import core, verify
from treesubst.algnum import ExactLength
from treesubst.realization import Realization
from treesubst.trees import TreeIteration

real = Realization(TreeIteration(3))
real.base_lengths[1] = ExactLength.rho_power(3, 5)
core.shared_scan = lambda d: SimpleNamespace(real=real)
print(verify.edge_length_law(3, 3))
"""


def test_broken_edge_length_law_is_reported():
    real = Realization(TreeIteration(3))
    real.base_lengths[1] = ExactLength.rho_power(3, 5)
    with pytest.raises(ValueError, match="^\\(0, "):
        real.edge_length_check(0)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_edge_length_law_witness_survives_optimize(flags):
    env = dict(os.environ, PYTHONPATH=str(Path(treesubst.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", _BROKEN_LAW],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout
    assert out.startswith("['stage 0: (0, "), out


_BROKEN_EXTEND = """
from treesubst.algnum import ExactLength
from treesubst.realization import Realization
from treesubst.trees import TreeIteration

real = Realization(TreeIteration(3))
real.base_lengths[2] = ExactLength.rho_power(3, 5)
try:
    real.extend_to(3)
except ValueError as exc:
    print("rejected:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_extend_rejects_wrong_replaced_edge_under_optimize(flags):
    env = dict(os.environ, PYTHONPATH=str(Path(treesubst.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", _BROKEN_EXTEND],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout
    assert out == "rejected: replaced 2-edge has the wrong length\n", out


def test_hausdorff_gap_decays():
    real = Realization(TreeIteration(3))
    real.extend_to(8)
    eta = stretch_root(3)
    prev = None
    for n in range(1, 9):
        gap = real.hausdorff_gap(n).value()
        assert gap <= eta ** (-1 - n) + 1e-12
        if prev is not None:
            assert gap < prev
        prev = gap


def test_stage_convergence_decides_the_bound_exactly(monkeypatch):
    # the stage-5 gap exceeds rho^-6 by rho^-120, about 2e-15
    real = Realization(TreeIteration(3))
    over = ExactLength.rho_power(3, -6) + ExactLength.rho_power(3, -120)

    def gap(n):
        return over if n == 5 else real.hausdorff_gap(n)

    fake = SimpleNamespace(real=SimpleNamespace(hausdorff_gap=gap))
    monkeypatch.setattr(core, "shared_scan", lambda d: fake)
    bound = ExactLength.rho_power(3, -6).value()
    assert verify.stage_convergence(3, 6) == [f"stage 5: gap {over.value():.6f} > {bound:.6f}"]


def test_realized_points_are_distinct():
    real = Realization(TreeIteration(3))
    real.extend_to(4)
    tree = real.it.tree_at(4)
    pts = [real.point(v) for v in tree.vertices]
    assert len(set(pts)) == len(pts)
