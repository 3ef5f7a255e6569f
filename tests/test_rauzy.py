"""Planar projection, orbit clouds, and the plot artifacts."""

import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treesubst import cli, core, rauzy
from treesubst.trees import TreeIteration
from treesubst.core import l_word
from treesubst.words import family_substitution, fixed_point_prefix, power_image, word_str
from treesubst.rauzy import (
    check_boundedness,
    check_contraction,
    check_partition_match,
    check_translate_congruence,
    contracting_basis,
    contraction_decay,
    export_csv,
    family_basis,
    boundedness_profile,
    fractal_cloud,
    orbit_stage,
    parse_coloring,
    render_svg,
    tag_palette,
    zeta_cloud,
    _cylinder_classes,
    _nearest_rms,
    _nearest_sq,
    _partition_witnesses,
    _projected_prefix_orbit,
)


def test_basis_rejects_other_dimensions():
    with pytest.raises(ValueError, match="requires d=3"):
        contracting_basis(np.eye(4))
    with pytest.raises(ValueError, match="requires d=3"):
        family_basis(4)


def test_basis_kills_expanding_direction():
    basis = family_basis(3)
    x, y = basis.project(basis.expanding)
    assert abs(x) < 1e-10 and abs(y) < 1e-10
    assert abs(basis.expanding_value - 1.4655712318767682) < 1e-12


def test_projection_is_linear():
    basis = family_basis(3)
    a, b = (1, -2, 3), (0, 4, -1)
    pa, pb = basis.project(a), basis.project(b)
    ps = basis.project(tuple(u + v for u, v in zip(a, b)))
    assert abs(ps[0] - pa[0] - pb[0]) < 1e-12
    assert abs(ps[1] - pa[1] - pb[1]) < 1e-12


def test_orbit_matches_per_point_projection():
    basis = family_basis(3)
    orbit = _projected_prefix_orbit(12)
    text = fixed_point_prefix(3, 12)
    counts = [0, 0, 0]
    assert tuple(orbit[0]) == (0.0, 0.0)
    for i, letter in enumerate(text, start=1):
        counts[letter - 1] += 1
        x, y = basis.project([-c for c in counts])
        assert abs(orbit[i, 0] - x) < 1e-12
        assert abs(orbit[i, 1] - y) < 1e-12


def test_substitution_matrix_generates_basis():
    # the family basis is just the contracting basis of the incidence matrix
    m = family_substitution(3).incidence_matrix()
    assert contracting_basis(m) == family_basis(3)


def test_contraction_decay():
    norms = contraction_decay(15)
    lam = 1.4655712318767682
    ratio = (norms[13] / norms[10]) ** (1 / 3)
    assert abs(ratio - lam**-0.5) < 0.05
    assert norms[12] < norms[4]
    assert check_contraction(15) == []


def test_boundedness():
    profile = boundedness_profile((1_000, 2_000))
    assert set(profile) == {1_000, 2_000}
    assert profile[2_000] >= profile[1_000] > 1.0
    assert check_boundedness() == []


def test_depth_zero_cloud():
    cloud = fractal_cloud(0)
    assert len(cloud) == 1
    assert cloud.points == [(0.0, 0.0, "-")]


def test_cylinder_tags():
    cloud = fractal_cloud(30, "cylinder:2")
    assert cloud.tags[:2] == ["-", "-"]
    assert cloud.tags[2] == word_str(fixed_point_prefix(3, 2))
    seen = set(cloud.tags) - {"-"}
    assert seen <= {"11", "12", "21", "23", "31"}
    assert len(cloud) == 31


def test_arc_coloring_class_counts():
    tags0 = set(fractal_cloud(400, "arc:0").tags) - {"-"}
    assert len(tags0) == 3
    tags4 = set(fractal_cloud(3000, "arc:4").tags) - {"-"}
    assert len(tags4) == 15


def test_zeta_cloud_stage_two():
    cloud = zeta_cloud(2, 3000)
    assert len(cloud) == 870
    assert len(set(cloud.tags) - {"-"}) == 7


def test_partition_match_small_depth():
    assert check_partition_match(6000, 7, 4) == []


def test_translate_congruence():
    assert check_translate_congruence(8000) == []


@pytest.mark.parametrize("depth", [5, 10, 20])
def test_translate_congruence_names_absent_cylinders(depth):
    # these depths raised KeyError once: some length-7 cylinder has no point
    failures = check_translate_congruence(depth)
    absent = [f for f in failures if f.endswith(f"has no point at depth {depth}")]
    assert absent
    assert all(f.startswith("cylinder ") for f in absent)


def test_translate_congruence_without_a_pair_fails():
    # below depth 7 no point has a length-7 tag, so no pair is compared
    failures = check_translate_congruence(5)
    assert len(failures) == 16
    assert failures[-1] == "no equal-measure cylinder pair to compare at depth 5"
    assert "no equal-measure" not in " ".join(check_translate_congruence(10))


# -- exact grid nearest-neighbour search ------------------------------------


def _brute_sq(a, b):
    """The quadratic search the grid replaces, kept as the oracle."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2).min(axis=1)


_coord = st.one_of(
    st.integers(-3, 3).map(float),        # small lattice: duplicates and ties
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)
_cloud = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=40).map(
    lambda pts: np.array(pts, dtype=float)
)


@settings(max_examples=200, deadline=None)
@given(
    a=_cloud, b=_cloud,
    shape=st.sampled_from(["plain", "collinear", "constant", "far"]),
    budget=st.sampled_from([1, 5, rauzy.PAIR_BUDGET]),
)
@example(a=np.zeros((1, 2)), b=np.zeros((1, 2)), shape="plain", budget=rauzy.PAIR_BUDGET)
@example(a=np.ones((3, 2)), b=np.ones((4, 2)), shape="plain", budget=1)
@example(   # h = 2: the block holds a point 2.49 away, outside it one is 2.01 away
    a=np.array([[1.99, 0.0]]), b=np.array([[0.0, 1.5], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]]),
    shape="plain", budget=rauzy.PAIR_BUDGET,
)
def test_grid_search_matches_brute_force(a, b, shape, budget):
    if shape == "collinear":        # zero span on one axis
        b[:, 1] = 0.25
        a[: len(a) // 2, 1] = 0.25
    elif shape == "constant":       # every point of b equal
        b[:] = b[0]
    elif shape == "far":            # a second cluster far away forces the fallback
        a[::2] += (1e4, -3e3)
    want = _brute_sq(a, b)
    with mock.patch.object(rauzy, "PAIR_BUDGET", budget):   # small budgets: many chunks
        got = _nearest_sq(a, b)
    assert np.array_equal(got, want)
    assert _nearest_rms(a, b) == float(np.sqrt(want.mean()))


def test_grid_search_with_a_subnormal_cell_side():
    # span 1e-322 gives a subnormal h, and (a - lo) / h used to overflow
    a, b = np.array([[1e10, 3.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1e-322, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _nearest_sq(a, b)
    assert np.array_equal(got, _brute_sq(a, b))


def test_grid_search_on_equal_measure_clouds():
    pts = _projected_prefix_orbit(8000)
    cls, names = _cylinder_classes(8000, 7)
    a, b = (pts[cls == names.index(u)] for u in ("1121231", "1231121"))
    a, b = a - a.mean(axis=0), b - b.mean(axis=0)
    assert np.array_equal(_nearest_sq(a, b), _brute_sq(a, b))
    assert np.array_equal(_nearest_sq(b, a), _brute_sq(b, a))


# -- cylinder tags and the partition match -----------------------------------


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(0, 400), m=st.one_of(st.integers(1, 12), st.sampled_from([31, 32, 40])))
@example(depth=2, m=3)        # shorter than every window
@example(depth=40, m=40)      # one window, past the int64 code
def test_cylinder_tags_match_word_loop(depth, m):
    text = fixed_point_prefix(3, depth)
    want = [word_str(text[i - m : i]) if i >= m else "-" for i in range(depth + 1)]
    assert fractal_cloud(depth, f"cylinder:{m}").tags == want


def _loop_witnesses(cyl, arc, start):
    """The per-prefix dictionary loop that `_partition_witnesses` replaces."""
    fwd, rev, failures = {}, {}, []
    for i, (a, b) in enumerate(zip(cyl, arc)):
        if fwd.setdefault(a, b) != b:
            failures.append(f"prefix {start + i}: cylinder {a} splits across arcs")
        if rev.setdefault(b, a) != a:
            failures.append(f"prefix {start + i}: arc {b} splits across cylinders")
        if failures:
            break
    return failures


def _stage4_tags():
    """Cylinder-7 and arc-4 tags at depth 3000 from the partition boundary on."""
    start = max(7, len(core.l_word(3, 4)) + 1)
    cyl = fractal_cloud(3000, "cylinder:7").tags[start:]
    return cyl, fractal_cloud(3000, "arc:4").tags[start:], start


@settings(max_examples=100, deadline=None)
@given(side=st.sampled_from(["cylinder", "arc"]), i=st.integers(0, 10**6), j=st.integers(0, 10**6))
def test_partition_witnesses_match_loop_after_one_swap(side, i, j):
    cyl, arc, start = _stage4_tags()
    tags = cyl if side == "cylinder" else arc
    i, j = i % len(tags), j % len(tags)
    tags[i], tags[j] = tags[j], tags[i]
    want = _loop_witnesses(cyl, arc, start)
    assert _partition_witnesses(np.array(cyl), np.array(arc), start) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from("abc")), max_size=30))
def test_partition_witnesses_match_loop_on_random_tags(pairs):
    cyl = [c for c, _ in pairs]
    arc = [a for _, a in pairs]
    got = _partition_witnesses(np.array(cyl, dtype=str), np.array(arc, dtype=str), 7)
    assert got == _loop_witnesses(cyl, arc, 7)


def test_partition_match_witnesses_pinned():
    cyl, arc, start = _stage4_tags()
    assert _partition_witnesses(np.array(cyl), np.array(arc), start) == []
    assert check_partition_match(3000, 7, 5) == ["prefix 26: cylinder 1231121 splits across arcs"]
    assert check_partition_match(3000, 7, 3) == ["prefix 18: arc a0 splits across cylinders"]
    assert check_partition_match(5, 7, 4) == ["saw 0 cylinder classes, want 15"]


def test_parse_coloring():
    assert parse_coloring("cylinder:7") == ("cylinder", 7)
    assert parse_coloring("arc 4") == ("arc", 4)
    for bad in ("blob:3", "cylinder", "arc:x", "cylinder:0", "cylinder:-2", "arc:-1"):
        with pytest.raises(ValueError):
            parse_coloring(bad)


def test_tag_palette_stable():
    tags = ["12", "-", "23", "12"]
    pal = tag_palette(tags)
    assert set(pal) == {"12", "-", "23"}
    assert all(c.startswith("#") and len(c) == 7 for c in pal.values())
    assert pal == tag_palette(list(reversed(tags)))


def test_artifacts_deterministic(tmp_path):
    cloud = fractal_cloud(500, "cylinder:3")
    paths = [tmp_path / f"out{i}.svg" for i in (0, 1)]
    for p in paths:
        render_svg(cloud, str(p))
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    assert a.startswith(b"<?xml")
    csvs = [tmp_path / f"out{i}.csv" for i in (0, 1)]
    for p in csvs:
        export_csv(cloud, str(p))
    ca, cb = (p.read_bytes() for p in csvs)
    assert ca == cb
    assert ca.splitlines()[0] == b"x,y,tag"
    assert len(ca.splitlines()) == 502
    assert b"-0.000000000" not in ca


def test_tiny_cloud_svg(tmp_path):
    cloud = zeta_cloud(0, 2)     # origin plus the first two trunk points
    p = tmp_path / "tiny.svg"
    render_svg(cloud, str(p))
    text = p.read_text()
    assert text.count("<circle") == len(cloud)
    assert "</svg>" in text


# SHA-256 of the arc:4 tags at depth 20000 (joined by newlines) and of the
# zeta_cloud(n, 3000) CSV for n = 0..4, as first produced by the orbit index
ARC4_TAGS_SHA256 = "1449b0c3c2d1bc8c6a4ef2153cd3a191d9c6eaf6c5fdbe34a2f3b7ad605ff24f"
ZETA_CSV_SHA256 = [
    "6445523bf1ee94aab06d55a97da872d9506b2dfe9cadfaafba683c3ae68f8e5f",
    "c02d9a7096040422df029120bc460cfdd66a15a33825ee4633a7600325ae18ab",
    "144daf6887fb89019405e344c0ef8d680715667f182533ea40fdca902e5e847e",
    "5de5c940f808dbf9ed739183581565b2238d7fc4b3184d50adc3b29614430ce5",
    "dfd3a508587295fc93dcda400ae5f4fae74d7dd506c324ea28f69919fee1c22f",
]


def test_arc_tags_pinned():
    tags = fractal_cloud(20000, "arc:4").tags
    assert hashlib.sha256("\n".join(tags).encode()).hexdigest() == ARC4_TAGS_SHA256


def test_zeta_csv_pinned(tmp_path):
    for n, want in enumerate(ZETA_CSV_SHA256):
        path = tmp_path / f"zeta{n}.csv"
        export_csv(zeta_cloud(n, 3000), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, n


def _orbit_index_oracle(base, depth):
    """The orbit index by a walk over the materialized `NewCenter`s: label
    lengths in a dict grown until the longest reaches depth, and arcs by the
    per-center descent loop with a dict of base edges."""
    it = core.shared_scan(3).it
    length = {0: 0}
    stage = longest = 0
    while stage < base or longest < depth:
        stage += 1
        it.tree_at(stage)
        step = len(power_image(3, stage - 1))
        for c in it.centers[stage]:
            length[c.vertex] = length[c.src] + step
            longest = max(longest, length[c.vertex])
    assert stage == orbit_stage(base, depth)
    size = len(it.tree_at(stage).vertices)
    base_tree = it.tree_at(base)
    old = len(base_tree.vertices)
    edge_of = {(s, t): i for i, (s, t, _) in enumerate(base_tree.edges)}
    arc, on = [-1] * size, [True] * old + [False] * (size - old)
    for n in range(base + 1, stage + 1):
        for c in it.centers[n]:
            e = max(arc[c.src], arc[c.dst])
            arc[c.vertex] = e if e >= 0 else edge_of[c.src, c.dst]
            for z in c.leaves:
                arc[z] = arc[c.vertex]
            on[c.vertex] = on[c.src] and on[c.dst]
    arc_of = np.full(depth + 1, -1, dtype=np.int64)
    on_tree = np.zeros(depth + 1, dtype=bool)
    on_tree[: len(l_word(3, base)) + 1] = True
    for v, lab_len in length.items():
        if arc[v] >= 0 and lab_len <= depth:
            arc_of[lab_len] = arc[v]
            on_tree[lab_len] = on[v]
    return arc_of, on_tree


@pytest.mark.parametrize("base, depth", [(4, 20000), (2, 5000), (0, 3000), (6, 30000), (9, 10)])
def test_orbit_index_matches_center_walk(base, depth):
    arc_of, on_tree = rauzy._orbit_index(base, depth)
    want_arc, want_on = _orbit_index_oracle(base, depth)
    assert np.array_equal(arc_of, want_arc)
    assert np.array_equal(on_tree, want_on)


def test_orbit_stage_counts_label_lengths():
    for base in range(8):
        for depth in (0, 1, 2, 5, 6, 7, 100, 3000, 20000):
            n = orbit_stage(base, depth)
            assert n >= base and len(l_word(3, n)) >= depth
            assert n == base or len(l_word(3, n - 1)) < depth


def test_clouds_and_gen_build_no_private_iteration(monkeypatch, tmp_path):
    core.shared_scan(3)
    rauzy._orbit_index.cache_clear()
    built = []
    init = TreeIteration.__init__

    def counting_init(self, d):
        built.append(d)
        init(self, d)

    monkeypatch.setattr(TreeIteration, "__init__", counting_init)
    fractal_cloud(3000, "arc:4")
    zeta_cloud(2, 3000)
    out = tmp_path / "t.csv"
    assert cli.main(["gen", "--n", "4", "--format", "csv", "--out", str(out)]) == 0
    assert built == []
