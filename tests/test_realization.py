"""Isometric realization in the free product of d lines."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treesubst
from treesubst import algnum, cli, core, verify
from treesubst.algnum import ExactLength, stretch_root
from treesubst.realization import FreePoint, Realization, distance, quotient
from treesubst.trees import TreeIteration
from pair_oracles import AnchorMetric

# -- the general gap oracle: medians in the free product of lines -----------


def inverse(p: FreePoint) -> FreePoint:
    return FreePoint(p.d, tuple((c, -t) for c, t in reversed(p.syllables)))


def common_prefix(p: FreePoint, q: FreePoint) -> FreePoint:
    """Longest common initial segment of two reduced syllable words."""
    out = []
    for (c1, t1), (c2, t2) in zip(p.syllables, q.syllables):
        if c1 != c2:
            break
        if t1 == t2:
            out.append((c1, t1))
            continue
        if t1.sign() == t2.sign():
            out.append((c1, t1 if abs(t1) < abs(t2) else t2))
        break
    return FreePoint(p.d, tuple(out))


def median(a: FreePoint, b: FreePoint, c: FreePoint) -> FreePoint:
    """The unique point on all three pairwise segments."""
    return a * common_prefix(inverse(a) * b, inverse(a) * c)


def point_segment_distance(x: FreePoint, a: FreePoint, b: FreePoint) -> ExactLength:
    return distance(x, median(a, b, x))


def oracle_gap(real: Realization, n: int) -> ExactLength:
    """Largest distance from a stage-n new vertex to the edge its star replaced."""
    gap = ExactLength.zero(real.d)
    for c in real.it.centers[n]:
        a, b = real.points[c.dst], real.points[c.src]
        for v in (c.vertex, *c.leaves):
            dist = point_segment_distance(real.points[v], a, b)
            if gap < dist:
                gap = dist
    return gap


def _t(num):
    x = ExactLength.zero(3)
    one = ExactLength.one(3)
    for _ in range(abs(num)):
        x = x + one
    return x if num >= 0 else -x


def test_free_point_group_laws():
    a = FreePoint.syllable(3, 0, _t(2))
    b = FreePoint.syllable(3, 1, _t(1))
    assert (a * b) * inverse(a * b) == FreePoint.origin(3)
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
from treesubst import algnum, cli, core, verify
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


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_length_table_is_the_rescaled_base(d):
    real = Realization(TreeIteration(d))
    for n in range(31):
        table = real.length_table(n)
        assert table.shape == (2 * d - 1, d) and not table[0].any()
        for c, base in real.base_lengths.items():
            assert tuple(table[c].tolist()) == base.scaled(-n).coeffs


def test_length_table_past_the_int64_bound_is_a_value_error():
    real = Realization(TreeIteration(3))
    bases = real.base_lengths.values()
    first = next(n for n in range(1000)   # the first stage with a row at half the bound
                 if any(2 * abs(x) >= algnum.INT64_BOUND for b in bases for x in b.scaled(-n).coeffs))
    assert 250 < first < 300
    assert [tuple(r) for r in real.length_table(first - 1)[1:].tolist()] == [
        b.scaled(-(first - 1)).coeffs for b in bases]
    for n in (first, first + 1, 1000):
        with pytest.raises(ValueError, match="reaches the bound 2\\^60"):
            real.length_table(n)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_edge_law_and_path_audit_read_no_exact_arithmetic(d, monkeypatch):
    def refuse(*args):
        raise AssertionError("ExactLength arithmetic called")

    for name in ("scaled", "__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(ExactLength, name, refuse)
    scan = core.CoreScan(d)
    for n in range(11):
        scan.real.edge_length_check(n)
        assert scan.check_path_distances(n) == []


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


@pytest.mark.parametrize("d", [3, 4, 5])
def test_local_gap_matches_the_median_oracle(d):
    real = Realization(TreeIteration(d))
    real.extend_to(10)
    for n in range(1, 11):
        assert real.hausdorff_gap(n) == oracle_gap(real, n), n


def test_stage_convergence_reaches_stage_20():
    results = verify.realization_suite(3, 20)
    assert [(r.name, r.scope, r.status) for r in results] == [
        ("edge-length-law", "d=3, n<=20", "pass"),
        ("stage-convergence", "d=3, n<=20", "pass"),
    ]


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_rows_show_every_stage_edge(d):
    # the lemma at `_between`: the two rows of each edge are anchor and
    # child or siblings on one anchor and copy, so no check needs the points
    real = Realization(TreeIteration(d))
    for n in range(13):
        real.extend_to(n)
        tree = real.it.tree_at(n)
        a, k = real.anchor, real.copy
        s, t = tree.src, tree.dst
        sibling = (a[s] == a[t]) & (k[s] == k[t])
        assert ((a[t] == s) | (a[s] == t) | sibling).all(), n
        assert real._between(s, t)[2].all(), n


@pytest.mark.parametrize("check_stage", [5, 8])
def test_edge_check_catches_a_corrupted_point(check_stage):
    # rescale the last syllable of a stage-5 center by rho^-3
    real = Realization(TreeIteration(3))
    real.extend_to(check_stage)
    v = real.it.centers[5][0].vertex
    real.coef[v] = ExactLength(3, tuple(real.coef[v].tolist())).scaled(-3).coeffs
    with pytest.raises(ValueError) as info:
        real.edge_length_check(check_stage)
    n, (s, t_, _), *_ = info.value.args[0]
    assert n == check_stage and v in (s, t_)


def test_edge_check_catches_a_corrupted_anchor():
    # hang a stage-6 leaf off the center's color-1 neighbour instead of the center
    real = Realization(TreeIteration(3))
    real.extend_to(6)
    c = real.it.centers[6][0]
    real.anchor[c.leaves[0]] = c.dst
    with pytest.raises(ValueError) as info:
        real.edge_length_check(6)
    n, (s, t, _), what = info.value.args[0]
    assert (n, what) == (6, "not a single syllable") and c.leaves[0] in (s, t)


def test_gap_rejects_a_leaf_on_its_edge_copy(monkeypatch):
    real = Realization(TreeIteration(3))
    real.extend_to(6)
    c = real.it.centers[6][0]
    (copy, _), = quotient(real.points[c.dst], real.points[c.src])
    real.copy[c.leaves[0]] = copy
    assert real.points[c.leaves[0]] == real.points[c.vertex] * FreePoint.syllable(
        3, copy, ExactLength.rho_power(3, -7))
    with pytest.raises(ValueError, match="leaf not one syllable off its edge"):
        real.hausdorff_gap(6)
    # the audit reports the misplaced leaf as the stage's witness
    monkeypatch.setattr(core, "shared_scan", lambda d: SimpleNamespace(real=real))
    assert verify.stage_convergence(3, 6) == [
        f"stage 6: {(6, c.leaves[0], 'leaf not one syllable off its edge')}"
    ]


def test_gap_rejects_a_center_past_its_edge():
    # the center moves past the far end of the edge it replaced, by as much
    # as it fell short of that end: its last syllable grows by 2 (p - off)
    real = Realization(TreeIteration(3))
    real.extend_to(6)
    c = real.it.centers[6][0]
    (copy, p), = quotient(real.points[c.dst], real.points[c.src])
    (_, off), = quotient(real.points[c.dst], real.points[c.vertex])
    real.coef[c.vertex] += np.array((p - off).coeffs) * 2
    (_, past), = quotient(real.points[c.dst], real.points[c.vertex])
    assert past == p + p - off
    with pytest.raises(ValueError, match="center off its replaced edge"):
        real.hausdorff_gap(6)


def test_put_refuses_a_cancelling_merge():
    # vertex 1 is the syllable (0, base(1)); a syllable on copy 0 that
    # undoes it would put vertex 2 back at the origin, vertex 0's row
    real = Realization(TreeIteration(3))
    rows = real.anchor.copy(), real.copy.copy(), real.coef.copy()
    with pytest.raises(ValueError, match="vertex 2 cancels"):
        real._put(np.array([2]), np.array([1]), np.array([0]), -real.coef[[1]])
    assert all(map(np.array_equal, rows, (real.anchor, real.copy, real.coef)))


def test_points_view():
    real = Realization(TreeIteration(3))
    real.extend_to(5)
    assert len(real.points) == real.it.sizes[5] == len(list(real.points))
    assert real.points[0] == FreePoint.origin(3) and 3 in real.points
    assert real.it.sizes[5] not in real.points and -1 not in real.points
    with pytest.raises(TypeError):
        real.points[1] = FreePoint.origin(3)


# -- the oracle: stages placed by FreePoint products --------------------------


def oracle_points(it: TreeIteration, n: int) -> dict[int, FreePoint]:
    """Every point up to stage n, each center placed as its color-1
    neighbour's point times the syllable toward the replaced edge's far end,
    and each leaf as the center's point times its own syllable."""
    d = it.d
    pts = {0: FreePoint.origin(d), 1: FreePoint.syllable(d, 0, ExactLength.one(d))}
    for j in range(2, d + 1):
        pts[j] = FreePoint.syllable(d, j - 1, ExactLength.rho_power(d, d - j + 1))
    for m in range(1, n + 1):
        it.tree_at(m)
        step = ExactLength.rho_power(d, -m)
        for c in it.centers[m]:
            (copy, p), = quotient(pts[c.dst], pts[c.src])
            toward = FreePoint.syllable(d, copy, step if p.sign() > 0 else -step)
            center = pts[c.vertex] = pts[c.dst] * toward
            for h, z in enumerate(c.leaves, start=1):
                leg = ExactLength.rho_power(d, -(m + h))
                pts[z] = center * FreePoint.syllable(d, (copy + h) % d, leg)
    return pts


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_rows_give_the_oracle_points(d):
    real = Realization(TreeIteration(d))
    real.extend_to(12)
    want = oracle_points(real.it, 12)
    assert len(real.points) == len(want)
    assert all(real.points[v] == pt for v, pt in want.items())


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_distance_rows_match_the_points(d):
    # the oracle's rows on every pair of vertices placed up to stage 10, the
    # origin and leaves included
    real = Realization(TreeIteration(d))
    real.extend_to(10)
    pts = list(real.points.values())
    xs, ys = np.triu_indices(len(pts), 1)
    rows = AnchorMetric(real)(xs, ys).tolist()
    for x, y, row in zip(xs.tolist(), ys.tolist(), rows):
        assert tuple(row) == distance(pts[x], pts[y]).coeffs, (x, y)


@pytest.mark.parametrize("sign", [1, -1], ids=["same-sign", "opposite-sign"])
def test_distance_rows_part_only_on_one_sign(sign):
    # a center's leaf moved to hang from the center's anchor on the center's
    # copy, rho times shorter: with one sign the two words share the leaf's
    # syllable, with opposite signs they part at the anchor
    d, n = 3, 6
    real = Realization(TreeIteration(d))
    real.extend_to(n)
    v = real.it.centers[n][0].vertex
    t = ExactLength(d, tuple(real.coef[v].tolist())).scaled(-1)
    real.anchor[v + 1], real.copy[v + 1] = real.anchor[v], real.copy[v]
    real.coef[v + 1] = (t if sign > 0 else -t).coeffs
    pts = list(real.points.values())
    xs, ys = np.triu_indices(len(pts), 1)
    for x, y, row in zip(xs.tolist(), ys.tolist(), AnchorMetric(real)(xs, ys).tolist()):
        assert tuple(row) == distance(pts[x], pts[y]).coeffs, (x, y)


def test_coordinates_match_the_points():
    real = Realization(TreeIteration(4))
    real.extend_to(9)
    norms, texts = real.coordinates()
    for v, pt in real.points.items():
        text = ".".join(f"{c}^{t.value():.6g}" for c, t in pt.syllables) or "O"
        assert (norms[v], texts[v]) == (pt.norm().value(), text), v


def test_rows_refuse_int64_overflow(monkeypatch, tmp_path):
    # a bound that the stage-0 rows meet but the coefficients of rho^-6 do not
    monkeypatch.setattr(algnum, "INT64_BOUND", 6)
    real = Realization(TreeIteration(3))
    with pytest.raises(ValueError, match="int64 operand"):
        real.extend_to(6)
    monkeypatch.setattr(core, "shared_scan", lambda d: core.CoreScan(d))
    out = tmp_path / "t.csv"
    assert cli.main(["gen", "--n", "6", "--format", "csv", "--out", str(out)]) == 2
    assert not out.exists()


# -- the quotient and the metric on random reduced words --------------------


@st.composite
def _word(draw, d, after=None):
    """A reduced syllable word whose first copy differs from `after`."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        copy = draw(st.sampled_from([c for c in range(d) if c != after]))
        coeffs = draw(st.tuples(*[st.integers(-2, 2)] * d).filter(any))
        out.append((copy, ExactLength(d, coeffs)))
        after = copy
    return FreePoint(d, tuple(out))


@st.composite
def _points(draw):
    """Three points of one d that share random prefixes, some by identity
    and some as equal copies."""
    d = draw(st.sampled_from([3, 4, 5]))
    p = draw(_word(d))
    pts = [p]
    for _ in range(2):
        k = draw(st.integers(0, len(p.syllables)))
        head = p.syllables[:k]
        if draw(st.booleans()):
            head = tuple((c, ExactLength(d, t.coeffs)) for c, t in head)
        pts.append(FreePoint(d, head) * draw(_word(d)))
    return pts


@settings(max_examples=200, deadline=None)
@given(_points())
def test_quotient_and_distance_properties(pts):
    p, q, r = pts
    for a, b in ((p, q), (q, r), (p, r), (p, p)):
        assert quotient(a, b) == (inverse(a) * b).syllables
    assert distance(p, q) == distance(q, p)
    assert distance(p, q).is_zero() == (p == q)
    assert distance(p, p).is_zero()
    assert distance(p, r) <= distance(p, q) + distance(q, r)
