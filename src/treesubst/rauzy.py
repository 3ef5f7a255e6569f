"""Planar shadow of the prefix orbit for the three-letter substitution.

The incidence matrix has one expanding real eigenvalue and a contracting
complex pair exactly when d = 3, so the abelianized prefix inverses can be
projected along the expanding direction onto a real plane.  This module
builds that projection, colors the resulting point cloud by cylinder class
or by the arcs of a chosen stage tree, restricts it to the points lying on
an embedded stage tree, and renders deterministic SVG/CSV artifacts.
Whether the picture exists, and the contraction and boundedness it gives,
is decided in integers from the characteristic polynomial (`pisot_failures`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count

import numpy as np

from .core import determined_partition, shared_scan, stage_lengths
from .words import (
    MAX_PREFIX_LEN,
    _window_firsts,
    complexity,
    distinct,
    family_substitution,
    fixed_point_prefix,
    measure_spectrum,
    word_str,
)

PAIR_BUDGET = 1 << 18   # candidate pairs the nearest-neighbour search holds at once
WRITE_CHUNK = 1 << 16   # points the artifact writers format per write
SVG_SIZE = 800          # pixels on a side of the rendered SVG
CONGRUENCE_M = 7        # cylinder length whose equal-measure clouds are compared
CONGRUENCE_TOL = 0.02   # nearest-neighbour RMS allowed, as a share of the diameter


@dataclass(frozen=True)
class ContractingBasis:
    d: int
    expanding_value: float
    expanding: tuple[float, float, float]
    # rows map an integer vector to its plane coordinates, expanding part removed
    to_plane: tuple[tuple[float, float, float], tuple[float, float, float]]

    def project(self, vec) -> tuple[float, float]:
        m = np.asarray(self.to_plane)
        x, y = m @ np.asarray(vec, dtype=float)
        return float(x), float(y)


def pisot_failures(matrix) -> list[str]:
    """Why a 3x3 integer matrix has no planar picture, decided in integers.

    With x^3 + ax^2 + bx + c its characteristic polynomial, a negative
    discriminant gives one real root lambda and a pair lambda_2, conj(lambda_2);
    then p(1) < 0 puts lambda past 1, and c = -1 makes lambda |lambda_2|^2 = 1,
    so |lambda_2| = lambda^-1/2 < 1.
    """
    (p, q, r), (s, t, u), (v, w, x) = np.asarray(matrix).tolist()
    a = -(p + t + x)   # minus the trace
    b = p * t - q * s + p * x - r * v + t * x - u * w   # the principal 2-minors
    c = -(p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v))   # minus the determinant
    disc = 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c
    failures = []
    if disc >= 0:
        failures.append(f"discriminant {disc} >= 0: no complex pair of eigenvalues")
    elif 1 + a + b + c >= 0:
        failures.append(f"p(1) = {1 + a + b + c} >= 0: the real eigenvalue is not past 1")
    if c != -1:
        failures.append(f"constant term {c} != -1: the eigenvalues multiply to {-c}, not 1")
    return failures


def contracting_basis(matrix: np.ndarray) -> ContractingBasis:
    """Expanding direction and contracting-plane coordinates of a 3x3 matrix.

    The planar picture only exists when the non-dominant spectrum is a
    single contracting complex pair, which the letter count forces to mean
    a 3-letter alphabet; larger alphabets are rejected up front, and a 3x3
    matrix that `pisot_failures` rejects raises with its texts.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(
            "planar projection requires d=3: the complement of the expanding "
            "direction must be a plane"
        )
    if failures := pisot_failures(matrix):
        raise ValueError("; ".join(failures))
    vals, vecs = np.linalg.eig(m)
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    exp_vec = vecs[:, 0].real
    exp_vec = exp_vec / exp_vec.sum()
    pair = vecs[:, 1] if vals[1].imag > 0 else vecs[:, 2]
    # pin the free complex scale so the basis is reproducible
    lead = pair[int(np.argmax(np.abs(pair)))]
    pair = pair / lead
    basis = np.column_stack([exp_vec, pair.real, pair.imag])
    to_plane = np.linalg.inv(basis)[1:, :]
    return ContractingBasis(
        3,
        float(vals[0].real),
        tuple(exp_vec),
        tuple(map(tuple, to_plane)),
    )


@lru_cache(maxsize=None)
def family_basis(d: int) -> ContractingBasis:
    """The basis of the d-letter member; `contracting_basis` refuses d != 3."""
    return contracting_basis(family_substitution(d).incidence_matrix())


def _projected_prefix_orbit(depth: int) -> np.ndarray:
    """(depth+1) x 2 array: projections of the inverted prefixes of length 0..depth.

    A depth above MAX_PREFIX_LEN is refused before anything is allocated,
    as `--prefix-len` is: the counts alone take 24 bytes per letter.
    """
    if not 0 <= depth <= MAX_PREFIX_LEN:
        raise ValueError(f"depth must be in 0..{MAX_PREFIX_LEN:,} letters, got {depth:,}")
    basis = family_basis(3)
    text = np.frombuffer(fixed_point_prefix(3, depth), dtype=np.uint8)
    counts = np.zeros((depth + 1, 3))
    for j in range(3):
        counts[1:, j] = np.cumsum(text == j + 1)
    return -(counts @ np.asarray(basis.to_plane).T)


@dataclass
class PointCloud:
    """Points, the class code of each (-1: untagged) and the tag of each class."""

    xs: np.ndarray
    ys: np.ndarray
    cls: np.ndarray
    names: list[str]

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def tags(self) -> list[str]:
        return _tags(self.cls, self.names)


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
    least `depth` letters, counted without building a word."""
    return next(n for n in count(base) if determined_partition(3, n) > depth)


@lru_cache(maxsize=8)
def _orbit_index(base: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Arc of the stage-`base` tree, and whether it lies on that embedded
    tree, for each prefix length 0..depth; arc -1 where no arc applies.

    Reads the new-center columns of the shared d=3 iteration, one gather
    per stage: label lengths by `core.stage_lengths` into a column of its
    own, so each is a certified prefix inverse, and the center of label
    length i realizes the prefix of length i.  Its arc and on-tree status
    are those of `TreeIteration.descent`.
    """
    it = shared_scan(3).it
    it.tree_at(base)   # refused over the edge budget before the table of |sigma^a(1)| runs out
    stage = orbit_stage(base, depth)
    it.tree_at(stage)
    length = np.full(it.sizes[stage], -1, dtype=np.int64)
    length[0] = 0
    for n in range(1, stage + 1):
        v, k = stage_lengths(it, length, n)
        length[v] = k
    arc, on = it.descent(base, stage)
    arc_of = np.full(depth + 1, -1, dtype=np.int64)
    on_tree = np.zeros(depth + 1, dtype=bool)
    on_tree[: determined_partition(3, base)] = True
    born = (arc >= 0) & (length >= 0) & (length <= depth)   # labelled, born after base
    arc_of[length[born]] = arc[born]
    on_tree[length[born]] = on[born]
    return arc_of, on_tree


def _cylinder_classes(depth: int, m: int) -> tuple[np.ndarray, list[str]]:
    """Class of the length-m window ending at each prefix length 0..depth
    (-1 below m), and the word of each class.

    The classes are `words._window_firsts`' ranks of the windows, so
    `word_str` runs only on the distinct windows, at most 2m+1 of them.
    """
    cls = np.full(depth + 1, -1, dtype=np.int64)
    if depth < m:
        return cls, []
    text = np.frombuffer(fixed_point_prefix(3, depth), dtype=np.uint8)
    first, cls[m:] = _window_firsts(text, m)
    return cls, [word_str(text[j : j + m].tobytes()) for j in first]


def _tags(cls: np.ndarray, names: list[str]) -> list[str]:
    """names[c] for each class index c, "-" for -1; equal tags share one str."""
    lookup = ["-"] + names
    return [lookup[c] for c in (cls + 1).tolist()]


def _arc_names(arc_of: np.ndarray) -> list[str]:
    return [f"a{a}" for a in range(int(arc_of.max(initial=-1)) + 1)]


def fractal_cloud(depth: int, coloring: str = "cylinder:1") -> PointCloud:
    """Projected inverted prefixes up to `depth`, tagged by the coloring.

    Cylinder tags are the trailing m letters of the prefix; arc tags name
    the base-stage edge the corresponding branch point descends from.
    Points too short to be tagged get "-".
    """
    kind, k = parse_coloring(coloring)
    pts = _projected_prefix_orbit(depth)
    if kind == "cylinder":
        cls, names = _cylinder_classes(depth, k)
    else:
        cls = _orbit_index(k, depth)[0]
        names = _arc_names(cls)
    return PointCloud(pts[:, 0].copy(), pts[:, 1].copy(), cls, names)


def zeta_cloud(n: int, depth: int) -> PointCloud:
    """Projection of the orbit points that lie on the embedded stage-n tree."""
    pts = _projected_prefix_orbit(depth)
    arc_of, on_tree = _orbit_index(n, depth)
    keep = np.flatnonzero(on_tree)
    return PointCloud(pts[keep, 0].copy(), pts[keep, 1].copy(), arc_of[keep], _arc_names(arc_of))


# -- audits -----------------------------------------------------------------


def check_contraction() -> list[str]:
    """The projected sigma^k(1) shrink by exactly lambda^-1/2 per step: the
    projection is linear and M acts on the plane as multiplication by
    lambda_2, so that of sigma^k(1), M^k e_1, is lambda_2^k times that of
    the letter 1.  The failures are the incidence matrix's `pisot_failures`."""
    return pisot_failures(family_substitution(3).incidence_matrix())


def check_boundedness() -> list[str]:
    """Every projected prefix lies within B = |pi(1)| / (1 - lambda^-1/2):
    `prefix_suffix.length_writing` writes it as sigma^a(1) over distinct
    exponents a, so its projection sums distinct lambda_2^a pi(1)
    (`check_contraction`).  B comes from the incidence matrix's own basis;
    as a cross-check of the drawn coordinates (`family_basis`), every point
    of the depth-20000 orbit that the rauzy suite draws lies within B."""
    if failures := check_contraction():
        return failures
    basis = contracting_basis(family_substitution(3).incidence_matrix())
    bound = math.hypot(*basis.project((1, 0, 0))) / (1 - basis.expanding_value**-0.5)
    norms = np.hypot(*_projected_prefix_orbit(20_000).T)
    return [f"prefix {i}: norm {norms[i]:.6f} past the bound {bound:.6f}"
            for i in np.flatnonzero(~(norms <= bound)).tolist()]


def _first_split(key: np.ndarray, val: np.ndarray) -> int:
    """First position whose val differs from val at the first position of
    its key; len(key) if there is none."""
    _, first, inv = distinct(key)
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
    boundary = max(m, determined_partition(3, base))
    cls, names = _cylinder_classes(depth, m)
    cyl = np.array(_tags(cls[boundary:], names))
    arc_of = _orbit_index(base, depth)[0]
    arc = np.array(_tags(arc_of[boundary:], _arc_names(arc_of)))
    failures = _partition_witnesses(cyl, arc, boundary)
    seen, want = len(distinct(cyl)[0]), complexity(3, m)
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
    # a subnormal span may divide to 0; any h > 0 keeps the search exact
    h = (span / (math.isqrt(len(b) - 1) + 1) or span) if span > 0 else 1.0
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
    bounds = distinct(np.concatenate([[0], cuts, [len(a)]]))[0]
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


def check_translate_congruence(depth: int = 20_000) -> list[str]:
    """Equal-measure cylinder clouds agree up to translation, within tolerance.

    Centroids are aligned and the symmetric nearest-neighbor RMS is compared
    to the cloud diameter.  A cylinder with no point in the cloud is a
    witness, and a run that compares no pair fails.  Unlike the two planar
    claims above, this one stays a sampled claim under CONGRUENCE_TOL: it
    reads the clouds to `depth`, not a proof.
    """
    pts = _projected_prefix_orbit(depth)
    diam = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    cls, names = _cylinder_classes(depth, CONGRUENCE_M)
    order = np.argsort(cls, kind="stable")   # each class keeps its prefix order
    bounds = np.searchsorted(cls[order], np.arange(len(names) + 1))
    by_tag = {
        name: pts[order[bounds[k] : bounds[k + 1]]] for k, name in enumerate(names)
    }
    spectrum = measure_spectrum(3, CONGRUENCE_M)
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
            if rms / diam > CONGRUENCE_TOL:
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


def _float_text(x: np.ndarray, k: int) -> np.ndarray:
    """Rows of '%.kf' % v for v in x, right-aligned in a uint8 block, NUL-padded.

    The digits are those of q = rint(p), p = |v| 10^k, by divmod.  While
    p < 2^32 - 1 the float p is within p 2^-53 < 2^-21 < 1e-6 of the exact
    product, so where also |frac(p) - 1/2| > 1e-6 rint rounds as the
    correctly rounded '%.kf' does.  Every other value (a tie such as 1/128
    at k = 6, a larger p, inf, nan) is formatted by Python into its row.
    The "-" comes from signbit, as Python's does for -0.0 and -1e-300.
    """
    a = np.abs(x)
    p = np.where(a < 2.0**32, a, 0.0) * 10.0**k   # inf and nan leave the float path here
    ok = (p < 2.0**32 - 1) & (np.abs(p - np.floor(p) - 0.5) > 1e-6) & (a < 2.0**32)
    bad = np.flatnonzero(~ok)
    texts = [b"%.*f" % (k, v) for v in x[bad].tolist()]
    ints = max(1, 10 - k)   # q < 2^32 has at most 10 digits
    width = max([ints + k + 2, *map(len, texts)])
    block = np.zeros((width, len(x)), np.uint8)   # transposed: each store is contiguous
    block[-ints - k - 2] = np.signbit(x) * ord("-")
    q = np.where(ok, np.rint(p), 0.0).astype(np.uint32)
    for row in chain(range(-1, -k - 1, -1), range(-k - 2, -ints - k - 2, -1)):
        div = q // 10
        block[row] = q - div * 10 + ord("0")
        if row < -k - 2:   # a leading zero of the integer part stays NUL
            block[row] *= q > 0
        q = div
    block[-k - 1] = ord(".")
    for r, text in zip(bad, texts):
        block[:, r] = 0
        block[width - len(text) :, r] = np.frombuffer(text, np.uint8)
    return block.T


def _write_rows(fh, n: int, fields: list) -> None:
    """Write n rows, each the concatenation of `fields`, WRITE_CHUNK rows at a time.

    A field is constant bytes, a float column (values, k) as `_float_text`
    lays it out, or a label column (codes, labels).  A chunk is one uint8
    block of the fields side by side; no text holds a NUL, so the nonzero
    bytes are the rows.
    """
    for i in range(0, n, WRITE_CHUNK):
        rows = slice(i, min(n, i + WRITE_CHUNK))
        blocks = []
        for field in fields:
            if isinstance(field, bytes):
                const = np.frombuffer(field, np.uint8)
                blocks.append(np.broadcast_to(const, (rows.stop - i, len(const))))
            elif isinstance(field[1], int):
                blocks.append(_float_text(field[0][rows], field[1]))
            else:
                table = np.array(field[1], dtype=bytes)
                blocks.append(table.view(np.uint8).reshape(len(table), -1).take(field[0][rows], 0))
        out = np.hstack(blocks).ravel()
        fh.write(out[out != 0])


def export_csv(cloud: PointCloud, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(b"x,y,tag\n")
        # adding 0.0 turns -0.0 into 0.0, so an exact zero never reads "-0.000000000"
        labels = [t.encode() for t in ["-", *cloud.names]]
        _write_rows(fh, len(cloud), [(cloud.xs + 0.0, 9), b",", (cloud.ys + 0.0, 9), b",",
                                     (cloud.cls + 1, labels), b"\n"])


def render_svg(cloud: PointCloud, path: str) -> None:
    """Fixed-viewBox scatter plot; byte-identical for identical clouds."""
    lookup = ["-", *cloud.names]
    colors = tag_palette(lookup[c] for c in np.flatnonzero(np.bincount(cloud.cls + 1)))
    if len(cloud):
        x0, x1 = float(cloud.xs.min()), float(cloud.xs.max())
        y0, y1 = float(cloud.ys.min()), float(cloud.ys.max())
    else:
        x0 = y0 = 0.0
        x1 = y1 = 1.0
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-3)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    r = max(x1 - x0, y1 - y0) / 400
    with open(path, "wb") as fh:
        fh.write((
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
            f'viewBox="{x0:.6f} {y0:.6f} {x1 - x0:.6f} {y1 - y0:.6f}">\n'
            f'<rect x="{x0:.6f}" y="{y0:.6f}" width="{x1 - x0:.6f}" '
            f'height="{y1 - y0:.6f}" fill="white"/>\n'
        ).encode())
        labels = [colors.get(t, "").encode() for t in lookup]
        _write_rows(fh, len(cloud), [b'<circle cx="', (cloud.xs, 6), b'" cy="', (cloud.ys, 6),
                                     f'" r="{r:.6f}" fill="'.encode(), (cloud.cls + 1, labels),
                                     b'"/>\n'])
        fh.write(b"</svg>\n")
