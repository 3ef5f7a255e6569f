"""Planar shadow of the prefix orbit for the three-letter substitution.

The incidence matrix has one expanding real eigenvalue and a contracting
complex pair exactly when d = 3, so the abelianized prefix inverses can be
projected along the expanding direction onto a real plane.  This module
builds that projection, colors the resulting point cloud by cylinder class
or by the arcs of a chosen stage tree, restricts it to the points lying on
an embedded stage tree, and renders deterministic SVG/CSV artifacts.
Whether the picture exists, and the contraction and boundedness it gives,
is decided in integers from the characteristic polynomial (`pisot_failures`),
and that equal-measure cylinders draw translated clouds from the positions
they tag (`check_translate_congruence`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count

import numpy as np

from .core import determined_partition, shared_scan, stage_lengths
from .trees import check_budget
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

WRITE_CHUNK = 1 << 20   # bytes the artifact writers format per write: 2^14 rows of 64
SVG_SIZE = 800          # pixels on a side of the rendered SVG
CONGRUENCE_M = 7        # cylinder length whose equal-measure clouds are compared


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

    A depth above `words.MAX_PREFIX_LEN` is refused before anything is
    allocated: the counts alone take 24 bytes per letter.
    """
    if not 0 <= depth <= MAX_PREFIX_LEN:
        raise ValueError(f"depth must be in 0..{MAX_PREFIX_LEN:,} letters, got {depth:,}")
    basis = family_basis(3)
    text = np.frombuffer(fixed_point_prefix(3, depth), dtype=np.uint8)
    counts = np.zeros((depth + 1, 3))
    for j in range(3):
        counts[1:, j] = np.cumsum(text == j + 1)
    # a C-ordered (3, 2) operand: with the transposed view, an unpinned OpenBLAS
    # runs a threaded kernel that can spin for tens of ms waiting for a core
    return -(counts @ np.asarray(basis.to_plane).T.copy())


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
    check_budget(3, base)   # before `orbit_stage` counts up from a negative base, or too far
    stage = orbit_stage(base, depth)
    it = shared_scan(3).it
    it.extend_to(stage)
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
    if kind == "arc":   # over the edge budget, refused before the projection
        cls = _orbit_index(k, depth)[0]
        names = _arc_names(cls)
    pts = _projected_prefix_orbit(depth)
    if kind == "cylinder":
        cls, names = _cylinder_classes(depth, k)
    return PointCloud(pts[:, 0].copy(), pts[:, 1].copy(), cls, names)


def zeta_cloud(n: int, depth: int) -> PointCloud:
    """Projection of the orbit points that lie on the embedded stage-n tree."""
    arc_of, on_tree = _orbit_index(n, depth)   # refused over the edge budget first
    pts = _projected_prefix_orbit(depth)
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


def _partition_witnesses(cyl: np.ndarray, arc: np.ndarray, start: int,
                         cyl_names: list[str], arc_names: list[str]) -> list[str]:
    """Witnesses at the first prefix where the class codes cut the points
    differently; cyl[i] and arc[i] code prefix start + i, and a code is
    named as `_tags` names it.

    Each cylinder is paired with the arc of its first point and each arc
    with the cylinder of its first point; the first prefix that breaks
    either pairing is reported, the cylinder side first.
    """
    fwd, rev = _first_split(cyl, arc), _first_split(arc, cyl)
    i = min(fwd, rev)
    failures = []
    if fwd == i < len(cyl):
        failures.append(f"prefix {start + i}: cylinder {_tags(cyl[i:i + 1], cyl_names)[0]} "
                        "splits across arcs")
    if rev == i < len(cyl):
        failures.append(f"prefix {start + i}: arc {_tags(arc[i:i + 1], arc_names)[0]} "
                        "splits across cylinders")
    return failures


def check_partition_match(depth: int = 20_000, m: int = 7, base: int = 4) -> list[str]:
    """Cylinder-m classes and arc-base classes cut the cloud identically,
    compared as codes; only a witness is named."""
    boundary = max(m, determined_partition(3, base))
    cls, names = _cylinder_classes(depth, m)
    arc_of = _orbit_index(base, depth)[0]
    cyl = cls[boundary:]
    failures = _partition_witnesses(cyl, arc_of[boundary:], boundary, names, _arc_names(arc_of))
    seen, want = len(distinct(cyl)[0]), complexity(3, m)
    if not failures and seen != want:
        failures.append(f"saw {seen} cylinder classes, want {want}")
    return failures


def _shift(a: np.ndarray, b: np.ndarray, m: int) -> int | None:
    """The k, 0 < |k| <= m, least |k| first, with b[i] == a[i - k] at every i
    |k| or more from either end of the flag arrays a and b; None if none."""
    for k in (s * j for j in range(1, m + 1) for s in (-1, 1)):
        lo, hi = abs(k), len(a) - abs(k)
        if np.array_equal(b[lo:hi], a[lo - k : hi - k]):
            return k
    return None


def check_translate_congruence(depth: int = 20_000) -> list[str]:
    """Equal-measure cylinders draw translated clouds, exactly on the prefix.

    For consecutive cylinders u, v of one measure class, the prefix lengths
    in m..depth that v tags are those that u tags shifted by one k,
    0 < |k| <= m, leaving out the |k| lengths at either end.  The k letters
    between the two are then the last |k| letters of v (k > 0) or of u
    (k < 0), so the two clouds differ by that word's projection: on the
    prefix they are translates, with no tolerance.  A factor that is not
    right special, followed by one that is not left special, occurs at the
    same positions shifted by one (J. Cassaigne, Bull. Belg. Math. Soc. 4,
    1997), which is why such a k exists.  A pair with no such k is a
    witness, as is a cylinder with no point, and a run that compares no
    pair fails.  The classes are the exponents `words.measure_spectrum`
    certifies; if its certificate fails, its failures are the witnesses.
    Only positions are read, no coordinate.
    """
    exponents, failures = measure_spectrum(3, CONGRUENCE_M)
    if failures:
        return list(failures)
    groups: dict[int, list[str]] = {}
    for u, j in exponents.items():
        groups.setdefault(j, []).append(word_str(u))
    cls, names = _cylinder_classes(depth, CONGRUENCE_M)
    code = {name: c for c, name in enumerate(names)}
    tagged = cls[CONGRUENCE_M:]
    failures = []
    compared = 0
    for j, members in sorted(groups.items()):
        present = [u for u in members if u in code]
        failures += [
            f"cylinder {u} has no point at depth {depth}" for u in members if u not in code
        ]
        for a, b in zip(present, present[1:]):
            compared += 1
            if _shift(tagged == code[a], tagged == code[b], CONGRUENCE_M) is None:
                failures.append(
                    f"class lambda^-{j}: {a} vs {b}: no shift 0 < |k| <= {CONGRUENCE_M} "
                    f"carries the prefix lengths of {a} onto those of {b}"
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
    At k = 0 there is no ".", so an integer below 2^53 reads as '%d'.
    """
    a = np.abs(x)
    p = np.where(a < 2.0**32, a, 0.0) * 10.0**k   # inf and nan leave the float path here
    ok = (p < 2.0**32 - 1) & (np.abs(p - np.floor(p) - 0.5) > 1e-6) & (a < 2.0**32)
    bad = np.flatnonzero(~ok)
    texts = [b"%.*f" % (k, v) for v in x[bad].tolist()]
    q = np.where(ok, np.rint(p), 0.0).astype(np.uint32)
    # the integer part has at most as many digits as the largest q has past k
    ints, frac = max(1, len(str(q.max(initial=0))) - k), k + (k > 0)
    width = max([ints + frac + 1, *map(len, texts)])
    block = np.zeros((width, len(x)), np.uint8)   # transposed: each store is contiguous
    block[-ints - frac - 1] = np.signbit(x) * ord("-")
    for row in chain(range(-1, -k - 1, -1), range(-frac - 1, -ints - frac - 1, -1)):
        div = q // 10
        block[row] = q - div * 10 + ord("0")
        if row < -frac - 1:   # a leading zero of the integer part stays NUL
            block[row] *= q > 0
        q = div
    if k:
        block[-k - 1] = ord(".")
    for r, text in zip(bad, texts):
        block[:, r] = 0
        block[width - len(text) :, r] = np.frombuffer(text, np.uint8)
    return block.T


def _write_rows(fh, n: int, fields: list) -> None:
    """Write n rows, each the concatenation of `fields`, about WRITE_CHUNK bytes at a time.

    A field is constant bytes, a float column (values, k) as `_float_text`
    lays it out (at k = 0 an integer column, '%d'), or a label column
    (codes, ASCII labels) gathered from one byte table per call.  A chunk is
    one uint8 block of the fields side by side, as many rows as WRITE_CHUNK
    bytes hold at the width of the first (at least one); no text holds a
    NUL, so the nonzero bytes are the rows.
    """

    def column(field):
        if isinstance(field, bytes):
            const = np.frombuffer(field, np.uint8)
            return lambda rows: np.broadcast_to(const, (rows.stop - rows.start, len(const)))
        values, spec = field
        if isinstance(spec, int):
            return lambda rows: _float_text(values[rows], spec)
        table = np.asarray(spec, dtype=bytes)
        table = table.view(np.uint8).reshape(len(table), table.itemsize)
        return lambda rows: table.take(values[rows], 0)

    columns = [column(field) for field in fields]
    step = max(1, WRITE_CHUNK // sum(col(slice(0, 1)).shape[1] for col in columns))
    for i in range(0, n, step):
        rows = slice(i, min(n, i + step))
        out = np.hstack([col(rows) for col in columns]).ravel()
        fh.write(out[out != 0])


def export_csv(cloud: PointCloud, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(b"x,y,tag\n")
        # adding 0.0 turns -0.0 into 0.0, so an exact zero never reads "-0.000000000"
        labels = ["-", *cloud.names]
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
        labels = [colors.get(t, "") for t in lookup]
        _write_rows(fh, len(cloud), [b'<circle cx="', (cloud.xs, 6), b'" cy="', (cloud.ys, 6),
                                     f'" r="{r:.6f}" fill="'.encode(), (cloud.cls + 1, labels),
                                     b'"/>\n'])
        fh.write(b"</svg>\n")
