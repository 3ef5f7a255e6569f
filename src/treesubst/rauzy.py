"""Planar shadow of the prefix orbit for the three-letter substitution.

The incidence matrix has one expanding real eigenvalue and a contracting
complex pair exactly when d = 3, so the abelianized prefix inverses can be
projected along the expanding direction onto a real plane.  This module
builds that projection, colors the resulting point cloud by cylinder class
or by the arcs of a chosen stage tree, restricts it to the points lying on
an embedded stage tree, and renders deterministic SVG/CSV artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import l_word, shared_scan
from .words import (
    factors,
    family_substitution,
    fixed_point_prefix,
    growth_root,
    measure_spectrum,
    power_image,
    word_str,
)

MODULUS_TOL = 1e-9
PAIR_BUDGET = 1 << 18   # candidate pairs the nearest-neighbour search holds at once


@dataclass(frozen=True)
class ContractingBasis:
    d: int
    expanding_value: float
    expanding: tuple[float, float, float]
    plane: tuple[tuple[float, float, float], tuple[float, float, float]]
    # rows map an integer vector to its plane coordinates, expanding part removed
    to_plane: tuple[tuple[float, float, float], tuple[float, float, float]]

    def project(self, vec) -> tuple[float, float]:
        m = np.asarray(self.to_plane)
        x, y = m @ np.asarray(vec, dtype=float)
        return float(x), float(y)


def contracting_basis(matrix: np.ndarray) -> ContractingBasis:
    """Expanding direction and contracting-plane coordinates of a 3x3 matrix.

    The planar picture only exists when the non-dominant spectrum is a
    single contracting complex pair, which the letter count forces to mean
    a 3-letter alphabet; larger alphabets are rejected up front.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(
            "planar projection requires d=3: the complement of the expanding "
            "direction must be a plane"
        )
    vals, vecs = np.linalg.eig(m)
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    top, small = vals[0], vals[1:]
    if not (abs(top.imag) < MODULUS_TOL and top.real > 1):
        raise ValueError("no simple expanding real eigenvalue")
    if not all(abs(v) < 1 - MODULUS_TOL for v in small):
        raise ValueError("spectrum is not Pisot: non-dominant eigenvalue not contracting")
    if not np.isclose(small[0].conjugate(), small[1], atol=1e-8):
        raise ValueError("contracting eigenvalues must form a complex pair")
    exp_vec = vecs[:, 0].real
    exp_vec = exp_vec / exp_vec.sum()
    pair = vecs[:, 1] if small[0].imag > 0 else vecs[:, 2]
    # pin the free complex scale so the basis is reproducible
    lead = pair[int(np.argmax(np.abs(pair)))]
    pair = pair / lead
    basis = np.column_stack([exp_vec, pair.real, pair.imag])
    to_plane = np.linalg.inv(basis)[1:, :]
    return ContractingBasis(
        3,
        float(top.real),
        tuple(exp_vec),
        (tuple(pair.real), tuple(pair.imag)),
        tuple(map(tuple, to_plane)),
    )


@lru_cache(maxsize=None)
def family_basis(d: int) -> ContractingBasis:
    if d != 3:
        raise ValueError(
            f"planar projection requires d=3, got d={d}: the contracting "
            "complement is a plane only for three letters"
        )
    return contracting_basis(family_substitution(d).incidence_matrix())


def _projected_prefix_orbit(depth: int) -> np.ndarray:
    """(depth+1) x 2 array: projections of the inverted prefixes of length 0..depth."""
    basis = family_basis(3)
    text = np.frombuffer(fixed_point_prefix(3, depth), dtype=np.uint8)
    counts = np.zeros((depth + 1, 3))
    for j in range(3):
        counts[1:, j] = np.cumsum(text == j + 1)
    return -(counts @ np.asarray(basis.to_plane).T)


@dataclass
class PointCloud:
    xs: np.ndarray
    ys: np.ndarray
    tags: list[str]

    def __len__(self) -> int:
        return len(self.tags)

    @property
    def points(self) -> list[tuple[float, float, str]]:
        return [
            (float(x), float(y), t) for x, y, t in zip(self.xs, self.ys, self.tags)
        ]


def parse_coloring(spec: str) -> tuple[str, int]:
    """Accepts "cylinder:7", "cylinder 7", "arc:4", "arc 4"."""
    parts = spec.replace(":", " ").split()
    if len(parts) != 2 or parts[0] not in ("cylinder", "arc"):
        raise ValueError(f"coloring must be 'cylinder:<m>' or 'arc:<n>', got {spec!r}")
    kind, k = parts[0], int(parts[1])
    least = 1 if kind == "cylinder" else 0
    if k < least:
        raise ValueError(f"{kind} coloring needs a value >= {least}, got {k}")
    return kind, k


def orbit_stage(base: int, depth: int) -> int:
    """First stage n >= base whose longest label, l_word(3, n), has at
    least `depth` letters.

    Counted by integer recursions, without building a word: |sigma^a(1)|
    = |sigma^(a-1)(1)| + |sigma^(a-3)(1)|, from the characteristic
    polynomial x^3 - x^2 - 1 of the incidence matrix, and
    l_word(3, n) = sigma^(n-1)(1) l_word(3, n-2).
    """
    image, label, n = [1, 2, 3], [0, 1], 0   # |sigma^a(1)|, |l_word(3, m)|
    while n < base or label[n] < depth:
        n += 1
        image.append(image[-1] + image[-3])
        label.append(label[-2] + image[n])
    return n


@lru_cache(maxsize=8)
def _orbit_index(base: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Arc of the stage-`base` tree, and whether it lies on that embedded
    tree, for each prefix length 0..depth; arc -1 where no arc applies.

    Reads the new-center columns of the shared d=3 iteration, one gather
    per stage.  A center born at stage n has the label of its replaced
    edge's source extended by sigma^(n-1)(1^-1), as in
    `CoreScan._scan_stage`, so only lengths are kept (-1 for the leaves,
    which have no label); the center of label length i realizes the prefix
    of length i.  Its arc and on-tree status are those of
    `TreeIteration.descent`.
    """
    it = shared_scan(3).it
    stage = orbit_stage(base, depth)
    it.tree_at(stage)
    length = np.full(it.sizes[stage], -1, dtype=np.int64)
    length[0] = 0
    for n in range(1, stage + 1):
        v, _, src, _ = it.centers[n].columns
        length[v] = length[src] + len(power_image(3, n - 1))
    arc, on = it.descent(base, stage)
    arc_of = np.full(depth + 1, -1, dtype=np.int64)
    on_tree = np.zeros(depth + 1, dtype=bool)
    on_tree[: len(l_word(3, base)) + 1] = True
    born = (arc >= 0) & (length >= 0) & (length <= depth)   # labelled, born after base
    arc_of[length[born]] = arc[born]
    on_tree[length[born]] = on[born]
    return arc_of, on_tree


def _cylinder_classes(depth: int, m: int) -> tuple[np.ndarray, list[str]]:
    """Class of the length-m window ending at each prefix length 0..depth
    (-1 below m), and the word of each class in lexicographic order.

    Each window is one base-4 integer (letters are 1..3), so `np.unique`
    groups integers and `word_str` runs only on the distinct windows, at
    most 2m+1 of them.  Past 31 letters the code would overflow int64, and
    the windows are grouped as raw bytes instead, in the same order.
    """
    cls = np.full(depth + 1, -1, dtype=np.int64)
    if depth < m:
        return cls, []
    text = np.frombuffer(fixed_point_prefix(3, depth), dtype=np.uint8)
    win = sliding_window_view(text, m)
    if m <= 31:
        keys = win @ (4 ** np.arange(m - 1, -1, -1, dtype=np.int64))
    else:
        keys = np.ascontiguousarray(win).view(f"V{m}").ravel()
    _, first, cls[m:] = np.unique(keys, return_index=True, return_inverse=True)
    return cls, [word_str(text[j : j + m].tobytes()) for j in first]


def _tags(cls: np.ndarray, names: list[str]) -> list[str]:
    """names[c] for each class index c, "-" for -1; equal tags share one str."""
    lookup = ["-"] + names
    return [lookup[c] for c in (cls + 1).tolist()]


def _arc_tags(arc_of: np.ndarray) -> list[str]:
    return _tags(arc_of, [f"a{a}" for a in range(int(arc_of.max(initial=-1)) + 1)])


def fractal_cloud(depth: int, coloring: str = "cylinder:1") -> PointCloud:
    """Projected inverted prefixes up to `depth`, tagged by the coloring.

    Cylinder tags are the trailing m letters of the prefix; arc tags name
    the base-stage edge the corresponding branch point descends from.
    Points too short to be tagged get "-".
    """
    kind, k = parse_coloring(coloring)
    pts = _projected_prefix_orbit(depth)
    if kind == "cylinder":
        tags = _tags(*_cylinder_classes(depth, k))
    else:
        tags = _arc_tags(_orbit_index(k, depth)[0])
    return PointCloud(pts[:, 0].copy(), pts[:, 1].copy(), tags)


def zeta_cloud(n: int, depth: int) -> PointCloud:
    """Projection of the orbit points that lie on the embedded stage-n tree."""
    pts = _projected_prefix_orbit(depth)
    arc_of, on_tree = _orbit_index(n, depth)
    keep = np.flatnonzero(on_tree)
    return PointCloud(pts[keep, 0].copy(), pts[keep, 1].copy(), _arc_tags(arc_of[keep]))


# -- audits -----------------------------------------------------------------


def boundedness_profile(checkpoints=(50_000, 100_000)) -> dict[int, float]:
    """Sup norm of the projected orbit at each checkpoint depth."""
    depth = max(checkpoints)
    pts = _projected_prefix_orbit(depth)
    norms = np.abs(pts).max(axis=1)
    running = np.maximum.accumulate(norms)
    return {c: float(running[c]) for c in checkpoints}


def check_boundedness(ratio_tol: float = 0.01) -> list[str]:
    """The orbit's sup norm moves less than 1% between 50k and 100k."""
    profile = boundedness_profile()
    lo, hi = profile[50_000], profile[100_000]
    if not hi < float("inf"):
        return ["projected orbit unbounded"]
    if (hi - lo) / hi > ratio_tol:
        return [f"sup norm still drifting: {lo:.6f} -> {hi:.6f}"]
    return []


def contraction_decay(kmax: int = 18) -> list[float]:
    """Plane norms of the projected images of sigma^k(1); they shrink geometrically."""
    basis = family_basis(3)
    out = []
    for k in range(kmax + 1):
        img = power_image(3, k)
        vec = [img.count(bytes([j + 1])) for j in range(3)]
        out.append(float(np.hypot(*basis.project(vec))))
    return out


def check_contraction(kmax: int = 18) -> list[str]:
    norms = contraction_decay(kmax)
    lam = growth_root(3)
    target = lam**-0.5
    # compare over 3 steps to smooth out the complex rotation
    ratios = [
        (norms[k + 3] / norms[k]) ** (1 / 3) for k in range(4, kmax - 2)
    ]
    bad = [r for r in ratios if not r < 0.95]
    if bad:
        return [f"projected powers not contracting: ratios {bad}"]
    if abs(np.median(ratios) - target) > 0.1:
        return [f"contraction ratio {np.median(ratios):.4f} far from {target:.4f}"]
    return []


def _first_split(key: np.ndarray, val: np.ndarray) -> int:
    """First position whose val differs from val at the first position of
    its key; len(key) if there is none."""
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    split = np.flatnonzero(val != val[first][inv])
    return int(split[0]) if len(split) else len(key)


def _partition_witnesses(cyl: np.ndarray, arc: np.ndarray, start: int) -> list[str]:
    """Witnesses at the first prefix where the tag arrays cut the points
    differently; cyl[i] and arc[i] tag prefix start + i.

    Each cylinder is paired with the arc of its first point and each arc
    with the cylinder of its first point; the first prefix that breaks
    either pairing is reported, the cylinder side first.
    """
    fwd, rev = _first_split(cyl, arc), _first_split(arc, cyl)
    i = min(fwd, rev)
    failures = []
    if fwd == i < len(cyl):
        failures.append(f"prefix {start + i}: cylinder {cyl[i]} splits across arcs")
    if rev == i < len(cyl):
        failures.append(f"prefix {start + i}: arc {arc[i]} splits across cylinders")
    return failures


def check_partition_match(depth: int = 20_000, m: int = 7, base: int = 4) -> list[str]:
    """Cylinder-m tags and arc-base tags cut the cloud identically."""
    boundary = max(m, len(l_word(3, base)) + 1)
    cls, names = _cylinder_classes(depth, m)
    cyl = np.array(_tags(cls[boundary:], names))
    arc = np.array(_arc_tags(_orbit_index(base, depth)[0][boundary:]))
    failures = _partition_witnesses(cyl, arc, boundary)
    seen, want = len(np.unique(cyl)), len(factors(3, m))
    if not failures and seen != want:
        failures.append(f"saw {seen} cylinder classes, want {want}")
    return failures


def _nearest_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance from each point of a to the nearest point of b.

    Exact grid search: b is sorted into square cells of side
    h = span / ceil(sqrt(|b|)), and each point of a looks in the 3x3 block
    of cells around its own.  A point of b outside that block is at least
    h away, so a best squared distance of at most h^2 found in the block is
    the true minimum.  The threshold sits a hair below h^2 (1e-9 relative),
    far more than rounding can move a point across a cell edge: about
    (cells + 3) ulps of h.  Points above it, with no point of b nearby,
    take the brute-force row.  Every distance is the same
    ((a - b) ** 2).sum(axis=1), so the minima are those of the brute force
    bit for bit.  Rows are taken in chunks of about PAIR_BUDGET pairs.
    """
    lo = b.min(axis=0)
    span = float((b.max(axis=0) - lo).max())
    h = span / (math.isqrt(len(b) - 1) + 1) if span > 0 else 1.0
    cell_b = np.floor((b - lo) / h).astype(np.int64)
    top = cell_b.max(axis=0)
    # a cell beyond the margin of 2 sees no point of b in its block either;
    # clipping the offset first keeps the quotient finite for a tiny h
    margin = np.clip(a - lo, -2 * h, (top + 3) * h)
    cell_a = np.clip(np.floor(margin / h), -2, top + 2).astype(np.int64)
    width = int(top[1]) + 7

    def key(cell):
        return (cell[:, 0] + 3) * width + cell[:, 1] + 3

    keys_b = key(cell_b)
    order = np.argsort(keys_b)
    sorted_keys = keys_b[order]
    step = np.array([-1, 0, 1])
    query = key(cell_a)[:, None] + (step[:, None] * width + step).ravel()
    first = np.searchsorted(sorted_keys, query, side="left")
    count = np.searchsorted(sorted_keys, query, side="right") - first
    best = np.full(len(a), np.inf)
    ends = np.cumsum(count.sum(axis=1))
    cuts = np.searchsorted(ends, np.arange(PAIR_BUDGET, ends[-1], PAIR_BUDGET), side="right")
    bounds = np.unique(np.concatenate([[0], cuts, [len(a)]]))
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        cnt, fst = count[r0:r1].ravel(), first[r0:r1].ravel()
        row = np.repeat(np.arange(r0, r1), count[r0:r1].sum(axis=1))
        pos = np.repeat(fst - (np.cumsum(cnt) - cnt), cnt) + np.arange(cnt.sum())
        d2 = ((a[row] - b[order[pos]]) ** 2).sum(axis=1)
        np.minimum.at(best, row, d2)
    far = np.flatnonzero(~(best <= h * h * (1 - 1e-9)))
    rows = max(1, PAIR_BUDGET // len(b))
    for i in range(0, len(far), rows):
        idx = far[i : i + rows]
        best[idx] = ((a[idx][:, None, :] - b[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    return best


def _nearest_rms(a: np.ndarray, b: np.ndarray) -> float:
    """Root mean square over a of the distance to the nearest point of b."""
    return float(np.sqrt(_nearest_sq(a, b).mean()))


def check_translate_congruence(
    depth: int = 20_000, m: int = 7, rel_tol: float = 0.02
) -> list[str]:
    """Equal-measure cylinder clouds agree up to translation, within tolerance.

    Centroids are aligned and the symmetric nearest-neighbor RMS is compared
    to the cloud diameter.  A cylinder with no point in the cloud is a
    witness, and a run that compares no pair fails.
    """
    pts = _projected_prefix_orbit(depth)
    diam = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    cls, names = _cylinder_classes(depth, m)
    order = np.argsort(cls, kind="stable")   # each class keeps its prefix order
    bounds = np.searchsorted(cls[order], np.arange(len(names) + 1))
    by_tag = {
        name: pts[order[bounds[k] : bounds[k + 1]]] for k, name in enumerate(names)
    }
    spectrum = measure_spectrum(3, m)
    groups: dict[int, list[str]] = {}
    for u, j in spectrum.snapped_exponents.items():
        groups.setdefault(j, []).append(word_str(u))
    failures = []
    compared = 0
    for j, members in sorted(groups.items()):
        present = [u for u in members if u in by_tag]
        failures += [
            f"cylinder {u} has no point at depth {depth}"
            for u in members
            if u not in by_tag
        ]
        for a, b in zip(present, present[1:]):
            pa = by_tag[a] - by_tag[a].mean(axis=0)
            pb = by_tag[b] - by_tag[b].mean(axis=0)
            rms = max(_nearest_rms(pa, pb), _nearest_rms(pb, pa))
            compared += 1
            if rms / diam > rel_tol:
                failures.append(
                    f"class lambda^-{j}: {a} vs {b} rms {rms / diam:.4f} of diameter"
                )
    if not compared:
        failures.append(f"no equal-measure cylinder pair to compare at depth {depth}")
    return failures


# -- artifacts --------------------------------------------------------------

PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94", "#f7b6d2", "#c7c7c7",
    "#dbdb8d", "#9edae5", "#393b79", "#637939", "#8c6d31", "#843c39",
]


def tag_palette(tags) -> dict[str, str]:
    ordered = sorted(set(tags))
    return {t: PALETTE[i % len(PALETTE)] for i, t in enumerate(ordered)}


def export_csv(cloud: PointCloud, path: str) -> None:
    lines = ["x,y,tag"]
    for x, y, t in zip(cloud.xs, cloud.ys, cloud.tags):
        lines.append(f"{x or 0.0:.9f},{y or 0.0:.9f},{t}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def render_svg(cloud: PointCloud, path: str, size: int = 800) -> None:
    """Fixed-viewBox scatter plot; byte-identical for identical clouds."""
    colors = tag_palette(cloud.tags)
    if len(cloud):
        x0, x1 = float(cloud.xs.min()), float(cloud.xs.max())
        y0, y1 = float(cloud.ys.min()), float(cloud.ys.max())
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-3)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    r = max(x1 - x0, y1 - y0) / 400
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{x0:.6f} {y0:.6f} {x1 - x0:.6f} {y1 - y0:.6f}">',
        f'<rect x="{x0:.6f}" y="{y0:.6f}" width="{x1 - x0:.6f}" '
        f'height="{y1 - y0:.6f}" fill="white"/>',
    ]
    for x, y, t in zip(cloud.xs, cloud.ys, cloud.tags):
        parts.append(
            f'<circle cx="{x:.6f}" cy="{y:.6f}" r="{r:.6f}" fill="{colors[t]}"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
