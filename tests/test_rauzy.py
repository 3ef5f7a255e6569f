"""Planar projection, orbit clouds, and the plot artifacts."""

import hashlib
import io
import re
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treesubst import cli, core, rauzy, verify
from treesubst.trees import TreeIteration, _Rows
from treesubst.core import l_word
from treesubst.words import (
    distinct, family_substitution, fixed_point_prefix, measure_spectrum, power_image, word_str,
)
from treesubst.rauzy import (
    check_boundedness,
    check_contraction,
    check_partition_match,
    check_translate_congruence,
    contracting_basis,
    export_csv,
    family_basis,
    fractal_cloud,
    orbit_stage,
    parse_coloring,
    pisot_failures,
    render_svg,
    tag_palette,
    zeta_cloud,
    _cylinder_classes,
    _partition_witnesses,
    _projected_prefix_orbit,
)


def test_tree_image_arcs_flag_a_merged_arc_class(monkeypatch):
    # the stage-1 cloud loses one of its 2m + 1 = 5 arc classes to another
    def merged(n, depth):
        cloud = zeta_cloud(n, depth)
        if n != 1:
            return cloud
        a, b = sorted({t for t in cloud.tags if t != "-"})[:2]
        cls = cloud.cls.copy()
        cls[cls == cloud.names.index(b)] = cloud.names.index(a)
        return rauzy.PointCloud(cloud.xs, cloud.ys, cls, cloud.names)

    monkeypatch.setattr(rauzy, "zeta_cloud", merged)
    assert verify.tree_image_arcs(2, 3000) == ["stage 1: 4 arc classes != 5"]
    assert verify.tree_image_arcs(0, 3000) == []


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
    # M acts on the plane as multiplication by lambda_2, |lambda_2| = lambda^-1/2:
    # the projected sigma^k(1) shrink by exactly that factor per step
    basis = family_basis(3)
    m = family_substitution(3).incidence_matrix()
    vec, rate = np.array([1, 0, 0]), basis.expanding_value**-0.5
    norm1 = np.hypot(*basis.project(vec))
    for k in range(19):
        assert np.hypot(*basis.project(vec)) == pytest.approx(norm1 * rate**k, rel=1e-9)
        assert vec.tolist() == [power_image(3, k).count(j) for j in (1, 2, 3)]
        vec = m @ vec
    assert check_contraction() == []


def test_boundedness():
    # the proved bound |pi(1)| / (1 - lambda^-1/2) holds past the drawn depth
    basis = family_basis(3)
    bound = np.hypot(*basis.project((1, 0, 0))) / (1 - basis.expanding_value**-0.5)
    pts = _projected_prefix_orbit(100_000)
    assert 1.3 < np.hypot(pts[:, 0], pts[:, 1]).max() < bound == pytest.approx(3.8698, abs=1e-4)
    assert check_boundedness() == []


@pytest.mark.parametrize("matrix", [
    family_substitution(3).incidence_matrix(),
    [[1, 1, 1], [1, 0, 0], [0, 1, 0]],   # tribonacci: x^3 - x^2 - x - 1
])
def test_spectrum_test_accepts_unit_pisot_matrices(matrix):
    assert pisot_failures(matrix) == []


@pytest.mark.parametrize("matrix, want", [
    # (x^2 - x - 1)(x - 1): three real roots, and their product is -1
    ([[1, 1, 0], [1, 0, 0], [0, 0, 1]], [
        "discriminant 5 >= 0: no complex pair of eigenvalues",
        "constant term 1 != -1: the eigenvalues multiply to -1, not 1",
    ]),
    # x^3 - 2: one real root 2^(1/3) and a pair of modulus 2^(1/3)
    ([[0, 0, 2], [1, 0, 0], [0, 1, 0]], [
        "constant term -2 != -1: the eigenvalues multiply to 2, not 1",
    ]),
    # x^3 + x^2 - 1: its one real root is 0.755
    ([[-1, 0, 1], [1, 0, 0], [0, 1, 0]], [
        "p(1) = 1 >= 0: the real eigenvalue is not past 1",
    ]),
])
def test_spectrum_test_rejects_the_rest(matrix, want):
    assert pisot_failures(matrix) == want
    with pytest.raises(ValueError) as exc:
        contracting_basis(matrix)
    assert str(exc.value) == "; ".join(want)


def test_a_non_pisot_matrix_fails_both_planar_checks(monkeypatch):
    bad = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]])
    want = pisot_failures(bad)
    family_basis(3)   # the drawn clouds keep the cached basis
    monkeypatch.setattr(rauzy, "family_substitution",
                        lambda d: SimpleNamespace(incidence_matrix=lambda: bad))
    got = {r.name: r for r in verify.run_suite("rauzy", 3)}
    for name in ("projection-bounded", "projection-contraction"):
        assert (got[name].status, got[name].witnesses) == ("fail", want)
    assert [n for n, r in got.items() if r.status == "fail"] == [
        "projection-bounded", "projection-contraction"]
    with pytest.raises(ValueError, match=re.escape("; ".join(want))):
        contracting_basis(bad)


def test_a_scaled_plane_fails_the_bound(monkeypatch):
    basis = family_basis(3)
    scaled = tuple(tuple(4 * x for x in row) for row in basis.to_plane)
    monkeypatch.setattr(rauzy, "family_basis", lambda d: replace(basis, to_plane=scaled))
    failures = check_boundedness()
    assert failures and all(" past the bound 3.869811" in f for f in failures)
    assert failures[0].startswith("prefix ")


def test_depth_zero_cloud():
    cloud = fractal_cloud(0)
    assert len(cloud) == 1
    assert (cloud.xs.tolist(), cloud.ys.tolist(), cloud.tags) == ([0.0], [0.0], ["-"])


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


# -- the shift certificate and the translates it stands for ----------------


def _measure_pairs():
    """Consecutive cylinders of each measure class, as the check pairs them."""
    groups = {}
    for u, j in measure_spectrum(3, rauzy.CONGRUENCE_M)[0].items():
        groups.setdefault(j, []).append(word_str(u))
    return [(j, a, b) for j, members in sorted(groups.items())
            for a, b in zip(members, members[1:])]


@pytest.mark.parametrize("last", ["3112123", "3123112", "3112311", "2123112"])
def test_translate_congruence_flags_a_moved_position(monkeypatch, last):
    # one position of the last cylinder of a measure class moves below m,
    # where no window ends: only the pair that compares it loses its shift
    real = rauzy._cylinder_classes

    def moved(depth, m):
        cls, names = real(depth, m)
        at = np.flatnonzero(cls == names.index(last))
        cls[at[len(at) // 2]], cls[0] = -1, names.index(last)
        return cls, names

    monkeypatch.setattr(rauzy, "_cylinder_classes", moved)
    (j, a, b), = [p for p in _measure_pairs() if p[2] == last]
    assert check_translate_congruence(8000) == [
        f"class lambda^-{j}: {a} vs {b}: no shift 0 < |k| <= 7 carries the prefix "
        f"lengths of {a} onto those of {b}"
    ]


def _brute_sq(a, b):
    """Squared distance from each point of a to the nearest point of b."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2).min(axis=1)


@pytest.mark.parametrize("depth, m", [(3000, 7), (3000, 1500), (3000, 2999)])
def test_cylinder_classes_name_only_the_windows_that_fit(depth, m):
    # one name per distinct length-m window of the prefix, in word order,
    # so the names stay within 2m + 1 words even at m = depth - 1
    cls, names = _cylinder_classes(depth, m)
    text = fixed_point_prefix(3, depth)
    windows = [text[i : i + m] for i in range(depth - m + 1)]
    assert names == [word_str(w) for w in sorted(set(windows))]
    assert [names[c] for c in cls[m:]] == [word_str(w) for w in windows]
    assert (cls[:m] == -1).all()


def test_certified_pairs_are_translates():
    # the sampled claim the certificate replaced, kept as its oracle: the
    # matched points differ by one vector, the projection of the k letters
    # between them, and the centred clouds lie within 2 % of the diameter
    depth, m = 8000, rauzy.CONGRUENCE_M
    pts = _projected_prefix_orbit(depth)
    diam = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    to_plane = np.asarray(family_basis(3).to_plane)
    cls, names = _cylinder_classes(depth, m)
    pairs = _measure_pairs()
    assert len(pairs) == 11
    shifts = set()
    for _, a, b in pairs:
        ca, cb = names.index(a), names.index(b)
        k = rauzy._shift(cls[m:] == ca, cls[m:] == cb, m)
        shifts.add(k)
        at_b = np.flatnonzero(cls == cb)
        at_b = at_b[(at_b >= m + abs(k)) & (at_b <= depth - abs(k))]
        assert (cls[at_b - k] == ca).all()
        word = b[m - k :] if k > 0 else a[m + k :]   # the letters from the a point to the b point
        step = to_plane @ np.bincount([int(c) for c in word], minlength=4)[1:]
        want = -step if k > 0 else step   # the cloud projects inverted prefixes
        assert np.abs(pts[at_b] - pts[at_b - k] - want).max() <= 1e-12 * diam
        pa, pb = pts[cls == ca], pts[cls == cb]
        pa, pb = pa - pa.mean(axis=0), pb - pb.mean(axis=0)
        rms = max(np.sqrt(_brute_sq(pa, pb).mean()), np.sqrt(_brute_sq(pb, pa).mean()))
        assert rms < 0.02 * diam, (a, b)
    assert shifts == {-3, -1, 1, 2}


def test_shift_leaves_out_the_ends():
    a, b = np.zeros(12, dtype=bool), np.zeros(12, dtype=bool)
    a[[2, 3, 7, 10]] = True
    b[[1, 4, 5, 9]] = True   # a shifted by 2, and one more point in the 2 left out
    assert rauzy._shift(a, b, 3) == 2
    assert rauzy._shift(b, a, 3) == -2
    assert rauzy._shift(a, b, 1) is None
    b[6] = True   # inside the compared range
    assert rauzy._shift(a, b, 3) is None
    assert rauzy._shift(a[:2], b[:2], 1) == -1   # nothing left to compare


# -- cylinder tags and the partition match -----------------------------------


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(0, 400), m=st.one_of(st.integers(1, 12), st.sampled_from([31, 32, 40])))
@example(depth=2, m=3)        # shorter than every window
@example(depth=40, m=40)      # one window, past the int64 code
@example(depth=400, m=1)
@example(depth=400, m=7)
@example(depth=400, m=31)     # the longest window packed into one int64
@example(depth=400, m=32)
@example(depth=400, m=40)
def test_cylinder_tags_match_word_loop(depth, m):
    text = fixed_point_prefix(3, depth)
    want = [word_str(text[i - m : i]) if i >= m else "-" for i in range(depth + 1)]
    cloud = fractal_cloud(depth, f"cylinder:{m}")
    assert cloud.tags == want
    # distinct names: two windows share a class iff they share their bytes
    assert len(set(cloud.names)) == len(cloud.names)


def test_orbit_index_refuses_a_garbled_source_length(monkeypatch):
    # a stage-5 center whose src is a leaf: a source without a label
    it = TreeIteration(3)
    it.tree_at(8)
    v, e, src, dst = it.centers[5].columns
    src = src.copy()
    src[0] = 1   # a leaf of the stage-0 star
    it.centers[5] = _Rows((v, e, src, dst), it._center)
    monkeypatch.setattr(rauzy, "shared_scan", lambda d: SimpleNamespace(it=it))
    with pytest.raises(ValueError, match="not a prefix inverse"):
        rauzy._orbit_index.__wrapped__(2, 50)


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


def _coded(cyl, arc, start):
    """`_partition_witnesses` on tag lists, each coded by its distinct tags."""
    (cyl_names, _, cyl_code), (arc_names, _, arc_code) = (
        distinct(np.array(tags, dtype=str)) for tags in (cyl, arc))
    return _partition_witnesses(cyl_code, arc_code, start, cyl_names.tolist(), arc_names.tolist())


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
    assert _coded(cyl, arc, start) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from("abc")), max_size=30))
def test_partition_witnesses_match_loop_on_random_tags(pairs):
    cyl = [c for c, _ in pairs]
    arc = [a for _, a in pairs]
    assert _coded(cyl, arc, 7) == _loop_witnesses(cyl, arc, 7)


def test_partition_match_witnesses_pinned():
    cyl, arc, start = _stage4_tags()
    assert _coded(cyl, arc, start) == []
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


@pytest.mark.parametrize("name, ext", [("render_svg", "svg"), ("export_csv", "csv")])
def test_artifact_determinism_names_a_changed_format(monkeypatch, name, ext):
    real, calls = getattr(rauzy, name), []

    def drifting(cloud, path):   # the second rendering gains one byte
        real(cloud, path)
        calls.append(path)
        if len(calls) == 2:
            with open(path, "ab") as fh:
                fh.write(b" ")

    monkeypatch.setattr(rauzy, name, drifting)
    assert verify.artifact_determinism(300) == [f"{ext} output differs between runs"]
    assert len(calls) == 2


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


# SHA-256 of writer outputs as first produced by formatting numpy scalars
# into one joined string: the cylinder:7 SVG at depth 70000 (70,001 points,
# past one write chunk), the one-point SVG at depth 0, and the CSV and SVG of
# a cloud holding -0.0 and a tiny negative coordinate
SVG_70K_SHA256 = "05732eb509aabebd6fd5fb74b685e6e539cb0568c64ee5960469816461098dc8"
SVG_ONE_POINT_SHA256 = "b2391f3cd6810b3cf71d4d498b3d0c4a0904f3dee86666e9e2f7f9125f8f925f"
SIGNED_ZERO_CSV_SHA256 = "4d604df2798da4f18c35464208f7812c75fb5e6ceaffb07b136b473aa8463e70"
SIGNED_ZERO_SVG_SHA256 = "6580c2199df216c15718b6e1505a963727649f88248c0875636bc01aeeeca441"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_svg_pinned_across_a_write_chunk(tmp_path):
    cloud = fractal_cloud(70_000, "cylinder:7")
    render_svg(cloud, str(tmp_path / "a.svg"))
    assert (tmp_path / "a.svg").stat().st_size > rauzy.WRITE_CHUNK   # more than one chunk
    assert _sha256(tmp_path / "a.svg") == SVG_70K_SHA256
    render_svg(fractal_cloud(0), str(tmp_path / "b.svg"))
    assert _sha256(tmp_path / "b.svg") == SVG_ONE_POINT_SHA256


def test_writers_pinned_on_signed_zeros(tmp_path):
    cloud = rauzy.PointCloud(np.array([-0.0, 1.5, -2.25e-10]), np.array([0.0, -0.0, 3.0]),
                             np.array([0, 1, -1]), ["a", "b"])
    export_csv(cloud, str(tmp_path / "z.csv"))
    assert (tmp_path / "z.csv").read_text().splitlines()[1:3] == [
        "0.000000000,0.000000000,a", "1.500000000,0.000000000,b"]
    assert _sha256(tmp_path / "z.csv") == SIGNED_ZERO_CSV_SHA256
    render_svg(cloud, str(tmp_path / "z.svg"))
    assert _sha256(tmp_path / "z.svg") == SIGNED_ZERO_SVG_SHA256


def _half_neighbours(n, k):
    """(n + 1/2) / 10^k and the doubles on either side of it."""
    v = (n + 0.5) / 10**k
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


_signed = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(1e-12, 1e12)).map(
    lambda t: t[0] * t[1])
_dyadic = st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 60)).map(
    lambda t: t[0] / 2 ** t[1])
_past_float_path = st.floats(4294.967295, 1e300)


@settings(max_examples=150, deadline=None)
@given(
    k=st.sampled_from([6, 9]),
    values=st.lists(st.one_of(_signed, _dyadic, _past_float_path, st.floats()), max_size=40),
    ties=st.lists(st.integers(0, 10**10), max_size=5),
    chunk=st.sampled_from([1, 40, rauzy.WRITE_CHUNK]),   # bytes: 1 row, 3 rows of 13, all
)
@example(k=6, values=[0.0, -0.0, -1e-300, 1 / 128, -1 / 128, 0.5e-6, np.inf, -np.inf, np.nan],
         ties=[0, 4294967294], chunk=rauzy.WRITE_CHUNK)
@example(k=9, values=[-0.0, -1e-300, 2.0**-10, 4.294967295, 4.2949672955, 1e300, np.nan],
         ties=[0, 123456789], chunk=40)
def test_float_column_matches_percent_format(k, values, ties, chunk):
    values = values + [v for n in ties for v in _half_neighbours(n, k)]
    values = values + [-v for v in values]
    buf = io.BytesIO()
    with mock.patch.object(rauzy, "WRITE_CHUNK", chunk):
        rauzy._write_rows(buf, len(values), [(np.array(values, dtype=float), k), b"\n"])
    assert buf.getvalue() == b"".join(b"%.*f\n" % (k, v) for v in values)


def test_long_tags_are_written_in_chunks_of_bytes(tmp_path, monkeypatch):
    # rows of about 1,500 bytes: a 100 kB chunk holds 64 of them
    cloud = fractal_cloud(3000, "cylinder:1500")
    monkeypatch.setattr(rauzy, "WRITE_CHUNK", 100_000)
    export_csv(cloud, str(tmp_path / "long.csv"))
    rows = zip(cloud.xs.tolist(), cloud.ys.tolist(), cloud.tags)
    want = "x,y,tag\n" + "".join(f"{x + 0.0:.9f},{y + 0.0:.9f},{t}\n" for x, y, t in rows)
    assert (tmp_path / "long.csv").read_text() == want


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
