"""Branch labels, arcs, partial isometries, and the partition reports."""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from treesubst import algnum, core, verify, words
from treesubst.algnum import ExactLength, _int64, letter_length_exact
from treesubst.freegroup import family_auto, from_positive, invert, p_star
from treesubst.prefix_suffix import length_writing
from treesubst.realization import Realization, distance
from treesubst.trees import ColoredTree, TreeIteration
from treesubst.words import (
    _power_lengths, fixed_point_prefix, measure_spectrum, power_image, word_str,
)
from treesubst.core import (
    CoreScan,
    apparition_of_empty,
    determined_partition,
    l_word,
    legal_path_distance,
    shared_scan,
)
from test_freegroup import iterate
from test_prefix_suffix import automatic_writing   # the writing read off the letters
from test_trees import _hull, adjacency, center_rows, degree
from test_words import stable_factors
from pair_oracles import AnchorMetric, Lifting, pair_blocks


def test_l_word_fixtures():
    expected = ["", "1", "12", "1231", "123112", "1231121231"]
    for m, w in enumerate(expected):
        assert word_str(l_word(3, m)) == w
    lengths = [len(l_word(3, m)) for m in range(1, 9)]
    assert lengths == [1, 2, 4, 6, 10, 15, 23, 34]


def test_l_words_nest_as_suffixes():
    for d in (3, 4):
        for m in range(1, 10):
            a, b = l_word(d, m), l_word(d, m + 1)
            # l_word is the word a label inverts, so the older label being a
            # suffix of the newer means the older word is a prefix of the newer
            assert b[: len(a)] == a


def test_determined_partition_sequence():
    assert [determined_partition(3, n) for n in range(6)] == [1, 2, 3, 5, 7, 11]
    assert [determined_partition(4, n) for n in range(5)] == [1, 2, 3, 4, 6]


def test_apparition_of_empty():
    assert apparition_of_empty(3) == -1
    assert apparition_of_empty(4) == -2


def test_legal_path_distance():
    one = ExactLength.one(3)
    assert legal_path_distance(3, ()).is_zero()
    assert legal_path_distance(3, (1,)) == one
    assert legal_path_distance(3, (-1,)) == one
    # letter k contributes rho^(d-k+1)
    got = legal_path_distance(3, (1, -2))
    assert got == one + ExactLength.rho_power(3, 2)
    with pytest.raises(ValueError):
        legal_path_distance(3, (4,))


def test_inventory_counts():
    scan = shared_scan(3)
    assert [len(scan.inventory_lengths(m)) for m in range(1, 6)] == [2, 3, 5, 7, 11]
    for m in range(1, 6):
        assert scan.check_inventory(m) == []


def test_branch_inventory_is_suffix_set():
    inv = {fixed_point_prefix(3, k) for k in shared_scan(3).inventory_lengths(4)}
    l4 = l_word(3, 4)
    # labels are kept as the words they invert: suffixes of the label l_4
    # are the prefixes of its word
    assert inv == {l4[:i] for i in range(len(l4) + 1)}


def test_bispecial_chain():
    assert shared_scan(3).check_bispecial_match(6) == []


def _sweep(check, upto):
    """The failures of a one-stage check over the stages 0..upto, in stage order."""
    return [f for n in range(upto + 1) for f in check(n)]


def test_writings_and_chains():
    scan = shared_scan(3)
    for n in range(1, 9):
        assert scan.check_writing_exponents(n) == []
        assert scan.check_apparition_chain(n) == []
        assert scan.check_branching_neighbor(n) == []


def _label_check_oracles(scan, n):
    """The per-vertex loops of writing-exponents, apparition-chain and
    branching-neighbor over dicts keyed by vertex: birth stages from
    `birth_stage` (the empty label at `apparition_of_empty`), parents from
    the centers' sources, writings from `length_writing` and neighbours and
    degrees from the adjacency helper."""
    scan.extend_to(n)
    d, it = scan.d, scan.it
    apparition, parent = {0: apparition_of_empty(d)}, {}
    for stage in range(1, scan.scanned + 1):
        for v, _, src, _ in center_rows(it, stage):
            apparition[v], parent[v] = it.birth_stage(v), src
    length = {v: int(scan.length[v]) for v in apparition}
    writing, chain, neighbor, adj = [], [], [], {}
    for v, stage in apparition.items():
        if not 1 <= stage <= n:
            continue
        p = parent[v]
        prev = apparition_of_empty(d) if p == 0 else it.birth_stage(p)
        if not stage - (2 * d - 2) <= prev <= stage - (d - 1):
            chain.append(f"vertex {v}: parent step {prev} outside "
                         f"[{stage - (2 * d - 2)}, {stage - (d - 1)}]")
        top = max(length_writing(d, length[v]))
        if top not in (stage - 1, stage):
            writing.append(f"vertex {v}: max exponent {top} at step {stage}")
        if top != stage:
            continue
        if stage not in adj:
            adj[stage] = adjacency(it.tree_at(stage))
        y = {sc: w for w, sc, _ in adj[stage][v]}[1]
        if len(adj[stage][y]) != d:
            neighbor.append(f"vertex {v}: 1-neighbor {y} does not branch")
        elif length.get(y) != length[v] - len(power_image(d, stage)):
            neighbor.append(f"vertex {v}: 1-neighbor label mismatch")
    return writing, chain, neighbor


def _label_checks(scan, n):
    """The three label checks over the stages 0..n."""
    return (_sweep(scan.check_writing_exponents, n), _sweep(scan.check_apparition_chain, n),
            _sweep(scan.check_branching_neighbor, n))


def _top_at(scan, stage):
    """The least vertex born at `stage` whose top writing exponent is `stage`."""
    return next(v for v in scan.it.centers[stage][0].tolist()
                if max(length_writing(scan.d, scan.length[v])) == stage)


def _corrupt(scan, kind, stage=10):
    """Change one datum the label checks read at `stage`; return the one
    failure it gives (from the check named first) and the vertex."""
    d, c = scan.d, int(scan.it.centers[stage][0][0])
    if kind == "length":    # a length whose top exponent is one stage late
        scan.length[c] = _power_lengths(d)[stage + 1]
        return f"vertex {c}: max exponent {stage + 1} at step {stage}"
    if kind == "length+1":  # a length one past the neighbour's plus sigma^stage(1)
        v = _top_at(scan, stage)
        scan.length[v] += 1
        return f"vertex {v}: 1-neighbor label mismatch"
    if kind == "src":       # a parent born at the empty label's stage
        scan.it.centers[stage][2][0] = 0
        return (f"vertex {c}: parent step {apparition_of_empty(d)} outside "
                f"[{stage - (2 * d - 2)}, {stage - (d - 1)}]")
    # kind == "edge": the color-1 out-edge of v redirected to another center's leaf
    v = _top_at(scan, stage)
    tree = scan.it.tree_at(stage)
    i = next(i for i, (s, _, col) in enumerate(tree.edges) if s == v and col == 1)
    leaf = next(z for u, *_ in center_rows(scan.it, stage) if u != v
                for z in range(u + 1, u + d - 1))   # a fresh leaf of another center
    tree.dst[i] = leaf
    return f"vertex {v}: 1-neighbor {leaf} does not branch"


def test_apparition_chain_bounds_are_inclusive():
    # a parent born 2d-2 or d-1 stages back passes, one stage further out fails
    d, stage = 3, 10
    scan = CoreScan(d)
    scan.extend_to(12)
    v, _, src, _ = scan.it.centers[stage]
    for back, ok in [(2 * d - 1, False), (2 * d - 2, True), (d - 1, True), (d - 2, False)]:
        src[0] = scan.it.centers[stage - back][0][0]
        assert _sweep(scan.check_apparition_chain, 12) == (
            [] if ok else [f"vertex {v[0]}: parent step {stage - back} outside [6, 8]"])


def test_writing_exponents_flag_a_changed_length():
    scan = CoreScan(3)
    scan.extend_to(12)
    want = _corrupt(scan, "length")
    assert _sweep(scan.check_writing_exponents, 12) == [want]
    assert _sweep(scan.check_writing_exponents, 9) == []
    # each call reads its own stage: the stage-10 change shows at 10 alone
    assert scan.check_writing_exponents(10) == [want]
    assert scan.check_writing_exponents(12) == []


def test_apparition_chain_flags_a_changed_source():
    scan = CoreScan(3)
    scan.extend_to(12)
    want = _corrupt(scan, "src")
    assert want.endswith("parent step -1 outside [6, 8]")
    assert _sweep(scan.check_apparition_chain, 12) == [want]


@pytest.mark.parametrize("kind", ["edge", "length+1"])
def test_branching_neighbor_flags_a_changed_neighbor(kind):
    scan = CoreScan(3)
    scan.extend_to(12)
    want = _corrupt(scan, kind)
    assert want in _sweep(scan.check_branching_neighbor, 12)
    if kind == "edge":
        assert _sweep(scan.check_branching_neighbor, 12) == [want]
    assert _sweep(scan.check_branching_neighbor, 9) == []


def test_branching_neighbor_refuses_a_center_without_a_1_edge():
    scan = CoreScan(3)
    scan.extend_to(12)
    v, tree = _top_at(scan, 10), scan.it.tree_at(10)
    i = next(i for i, (s, _, col) in enumerate(tree.edges) if s == v and col == 1)
    tree.color[i] = 4
    with pytest.raises(ValueError, match="stage 10: a center has no color-1 out-edge"):
        _sweep(scan.check_branching_neighbor, 12)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", [None, "length", "length+1", "src", "edge"])
def test_label_checks_agree_with_vertex_oracles(d, kind):
    scan = CoreScan(d)
    scan.extend_to(14)
    if kind is not None:
        want = _corrupt(scan, kind)
    for n in range(1, 15):
        got = _label_checks(scan, n)
        assert got == _label_check_oracles(scan, n)
        assert (kind is None or n < 10) == (got == ([], [], []))
    if kind is not None:
        assert want in sum(_label_checks(scan, 14), [])


def test_address_map():
    assert _sweep(shared_scan(3).check_address_map, 4) == []


def _address_oracle(scan, n):
    """The address map with the direct route sigma^n(p*(root -> v)) run for
    every branch point at stage n, and the path codes of stages n and n + 1
    compared under sigma: the route a certificate replaces, over root
    paths and F_d words."""
    scan.extend_to(n)
    auto = family_auto(scan.d)
    tree, nxt = scan.it.tree_at(n), scan.it.tree_at(n + 1)
    failures = []
    for v in tree.branch_points():
        g_now = p_star(scan.d, tree.path_word(tree.root, v))
        if iterate(auto, g_now, n) != invert(from_positive(scan.labels[v])):
            failures.append(f"stage {n} vertex {v}: direct label differs")
        g_next = p_star(scan.d, nxt.path_word(nxt.root, v))
        if auto(g_next) != g_now:
            failures.append(f"stage {n} vertex {v}: path codes inconsistent")
    return failures


@pytest.mark.parametrize("d", [3, 4, 5])
def test_address_map_agrees_with_direct_oracle(d):
    upto = 14 if d == 3 else 10
    scan = CoreScan(d)
    oracle = _sweep(lambda n: _address_oracle(scan, n), upto)
    assert _sweep(scan.check_address_map, upto) == oracle == []


def test_address_map_flags_a_changed_label():
    scan = CoreScan(3)
    scan.extend_to(8)
    v = int(scan.it.centers[5][0][0])    # the least vertex born at stage 5
    k = int(scan.length[v])
    scan.length[v] += 1     # the label of another prefix
    # the centers with source v were stored from its true length, one less
    # than what the changed one gives them
    children = [f"stage {n} vertex {c}: label length {scan.length[c]}, "
                f"want {scan.length[c] + 1}"
                for n in range(6, 9) for c, _, src, _ in center_rows(scan.it, n) if src == v]
    assert children
    assert _sweep(scan.check_address_map, 8) == [
        f"stage 5 vertex {v}: label length {k + 1}, want {k}", *children,
    ]
    assert scan.check_address_map(5) == [f"stage 5 vertex {v}: label length {k + 1}, want {k}"]
    assert _sweep(lambda n: _address_oracle(scan, n), 8) == [
        f"stage {n} vertex {v}: direct label differs" for n in range(5, 9)
    ]


def _on_root_path(tree, v):
    """Index of the edge from v to its parent in the rooted index."""
    pair = {v, int(tree.rooted_index().parent[v])}
    return next(i for i, (s, t, _) in enumerate(tree.edges) if {s, t} == pair)


def test_address_map_flags_a_recolored_edge_on_a_root_path():
    scan = CoreScan(3)
    scan.extend_to(8)
    tree = scan.it.tree_at(7)
    v = int(scan.it.centers[5][0][0])
    i = _on_root_path(tree, v)
    s, t, c = tree.edges[i]
    tree.color[i] = new = c % 4 + 1
    tree._rooted = None     # the rooted index keeps the colors it was built with
    failures = _sweep(scan.check_address_map, 8)
    trunk = scan.it.subst.trunk_word(new)
    assert f"stage 7 edge ({s},{t},{new}): trunk is not {trunk} in stage 8" in failures
    assert any(f.startswith("stage 6 edge ") for f in failures)
    oracle = _sweep(lambda n: _address_oracle(scan, n), 8)
    assert f"stage 6 vertex {v}: path codes inconsistent" in oracle
    assert f"stage 7 vertex {v}: direct label differs" in oracle


def test_address_map_flags_a_changed_trunk_word(monkeypatch):
    scan = CoreScan(3)
    trunk_word = scan.it.subst.trunk_word
    monkeypatch.setattr(scan.it.subst, "trunk_word", lambda c: (1,) if c == 3 else trunk_word(c))
    failures = _sweep(scan.check_address_map, 6)
    assert failures[0] == "trunk of color 3: sigma of its code is 1.2, want 3"
    # every color-3 edge of the stages spells (2,), not (1,)
    assert failures[1:] == [
        f"stage {m} edge ({s},{t},3): trunk is not (1,) in stage {m + 1}"
        for m in range(7) for s, t, c in scan.it.tree_at(m).edges if c == 3
    ]


def test_address_map_reports_a_later_drift_as_an_edge_trunk():
    # a color-1 edge to a leaf recolored at stage 7, long after the vertices
    # around it were born: no branch point's root path crosses it, so the
    # sweep over root paths sees nothing, while the edge's trunks show it
    # on both sides (its stage-6 edge and its own stage-8 trunk)
    scan = CoreScan(3)
    scan.extend_to(8)
    tree = scan.it.tree_at(7)
    leaf = (tree.color == 1) & (tree.degrees()[tree.dst] == 1)
    i = int(np.flatnonzero(leaf)[0])
    s, t, _ = tree.edges[i]
    prev = scan.it.tree_at(6)
    c = prev.edge_colors([s], [t])[0]   # the stage-6 edge it recolors
    tree.color[i] = 2
    assert _sweep(scan.check_address_map, 8) == [
        f"stage 6 edge ({s},{t},{c}): trunk is not (1,) in stage 7",
        f"stage 7 edge ({s},{t},2): trunk is not (-3, 1) in stage 8",
    ]
    assert _sweep(lambda n: _address_oracle(scan, n), 8) == []


def test_injectivity_and_steps():
    scan = shared_scan(3)
    assert verify.label_injectivity(3, 8) == []
    assert scan.check_approx_steps([0, 3, 6, 9]) == []
    with pytest.raises(ValueError):
        scan.approx_points([0, 2])


def _arc_rows(scan, n):
    """The simple arcs of stage n as (edge, src, dst, color, k, center,
    length) rows, read from the columns of `CoreScan._arcs`."""
    return list(zip(*(c.tolist() for c in scan._arcs(n, n + 2 * scan.d - 2)[0])))


def test_initial_arcs():
    scan = shared_scan(3)
    assert scan.check_initial_arcs() == []
    arcs = {color: (k, length) for _, _, _, color, k, _, length in _arc_rows(scan, 0)}
    assert word_str(fixed_point_prefix(3, arcs[1][1])) == "123"
    assert word_str(fixed_point_prefix(3, arcs[2][1])) == "1"
    assert word_str(fixed_point_prefix(3, arcs[3][1])) == "12"
    assert {c: k for c, (k, _) in arcs.items()} == {1: 3, 2: 1, 3: 2}


def test_partition_sequence_flags_a_stage_missing_an_edge(monkeypatch):
    # the stage-3 tree loses the edge to its last vertex, a leaf: 10 edges
    # where m = 5 wants 11
    it = TreeIteration(3)
    it.tree_at(4)
    tree = it.tree_at(3)
    leaf = len(tree.vertices) - 1
    it.trees[3] = ColoredTree(3, [e for e in tree.edges if leaf not in e[:2]], root=0)
    monkeypatch.setattr(core, "shared_scan", lambda d: SimpleNamespace(it=it))
    assert verify.partition_sequence(3, 4) == ["stage 3: 10 edges != 11"]
    assert verify.partition_sequence(3, 2) == []


def test_partition_sequence_flags_a_wrong_partition_size(monkeypatch):
    # one more cylinder at every stage: the d = 3 sizes and every edge count disagree
    true_size = core.determined_partition
    monkeypatch.setattr(core, "determined_partition", lambda d, n: true_size(d, n) + 1)
    assert verify.partition_sequence(3, 1) == [
        "partition sizes [2, 3, 4, 6, 8, 12] != [1, 2, 3, 5, 7, 11]",
        "stage 0: 3 edges != 5",
        "stage 1: 5 edges != 7",
    ]


def test_arc_counts_match_edge_counts():
    scan = shared_scan(3)
    for n in range(5):
        arcs = _arc_rows(scan, n)
        assert len(arcs) == 2 * determined_partition(3, n) + 1
        assert all(1 <= k <= 4 for _, _, _, _, k, _, _ in arcs)


def test_arc_checks():
    scan = shared_scan(3)
    for n in range(5):
        assert scan.check_arc_overlaps(n) == []
        assert scan.check_arc_cylinders(n, 12) == []


def _arc_overlaps_oracle(scan, n):
    """The arc-overlap audit by intersecting the vertex sets of every pair
    of shadows (each arc's ends and the vertices born inside its edge)."""
    arcs = _arc_rows(scan, n)
    deep = n + 2 * scan.d - 2
    scan.extend_to(deep)
    tree = scan.it.tree_at(deep)
    owner, _ = scan.it.descent(n, deep)
    inner = {e: set() for e, *_ in arcs}
    for v, e in enumerate(owner.tolist()):
        if e >= 0:
            inner[e].add(v)
    sets = [{src, dst} | inner[e] for e, src, dst, *_ in arcs]
    failures = []
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            shared = sets[i] & sets[j]
            if len(shared) > 1:
                failures.append(f"arcs {i},{j} share {sorted(shared)}")
            for v in sorted(shared):
                if v not in scan.labels or degree(tree, v) != scan.d:
                    failures.append(f"arcs {i},{j}: shared {v} not a branch")
    return failures


@pytest.mark.parametrize("d", [3, 4, 5])
def test_arc_overlaps_agree_with_the_pairwise_oracle(d):
    scan = shared_scan(d)
    for n in range(11):
        assert scan.check_arc_overlaps(n) == _arc_overlaps_oracle(scan, n) == []


def test_arc_overlaps_flag_two_arcs_on_one_pair_of_ends(monkeypatch):
    # arc 1 given the ends of arc 0, as a stage with a double edge would
    # give them: the two shadows share both ends (`descent` gives no vertex
    # of T_n an owner, so only ends are shared)
    scan = CoreScan(3)
    n = 3
    arcs = scan._arcs

    def moved(n, upto):
        (edge, src, dst, *rest), owner = arcs(n, upto)
        src, dst = src.copy(), dst.copy()
        src[1], dst[1] = src[0], dst[0]
        return (edge, src, dst, *rest), owner

    monkeypatch.setattr(scan, "_arcs", moved)
    _, s, t, *_ = _arc_rows(scan, n)[0]
    failures = scan.check_arc_overlaps(n)
    assert failures == _arc_overlaps_oracle(scan, n)
    assert f"arcs 0,1 share {sorted({s, t})}" in failures
    scan.length[s] = -1   # and unlabeled: not a branch point either
    failures = scan.check_arc_overlaps(n)
    assert failures == _arc_overlaps_oracle(scan, n)
    assert f"arcs 0,1: shared {s} not a branch" in failures


def _arc_cylinders_oracle(scan, n, deep):
    """The arc-cylinder audit on words: the arcs' last m letters as bytes
    against the set-of-slices factors, and every center born after n up to
    deep sliced against its arc's word."""
    d = scan.d
    m = determined_partition(d, n)
    arcs = _arc_rows(scan, n)
    words = [fixed_point_prefix(d, length) for *_, length in arcs]
    failures = []
    if len(arcs) != (d - 1) * m + 1:
        failures.append(f"stage {n}: {len(arcs)} arcs, want {(d - 1) * m + 1}")
    tags = [w[-m:] for w in words]
    failures += [f"arc {e}: word shorter than {m}" for (e, *_), w in zip(arcs, words)
                 if len(w) < m]
    if len(set(tags)) != len(arcs):
        failures.append(f"stage {n}: arc suffixes of length {m} collide")
    if set(tags) != stable_factors(d, m):
        failures.append(f"stage {n}: suffixes miss some length-{m} factors")
    scan.extend_to(deep)
    born_in, _ = scan.it.descent(n, deep)
    text = fixed_point_prefix(d, int(scan.length.max()))
    for stage in range(n + 1, deep + 1):
        v = scan.it.centers[stage][0]
        for x, e, k in zip(v.tolist(), born_in[v].tolist(), scan.length[v].tolist()):
            if k < len(words[e]) or text[k - len(words[e]):k] != words[e]:
                failures.append(f"vertex {x}: label does not extend arc {e}")
    return failures


@pytest.mark.parametrize("d", [3, 4, 5])
def test_arc_cylinders_agree_with_the_slice_oracle(d):
    scan = shared_scan(d)
    for n in range(7):
        assert scan.check_arc_cylinders(n, 12) == _arc_cylinders_oracle(scan, n, 12) == []
        # the src chain alone certifies every center: none is compared directly
        born_in = scan.it.descent(n, max(12, n + 2 * d - 2))[0]
        center = scan._arcs(n, n + 2 * d - 2)[0][5]
        assert len(scan._off_chain(n, 12, born_in, center)) == 0


def test_arc_certificate_needs_each_src_link(monkeypatch):
    """A source reported born inside another edge breaks the links to it,
    though the address map holds: its children born inside its old edge are
    compared directly, and it fails against the other arc, as in the oracle."""
    d, n, deep = 3, 2, 10
    scan = CoreScan(d)
    scan.extend_to(deep)
    born_in = scan.it.descent(n, deep)[0]
    center = scan._arcs(n, n + 2 * d - 2)[0][5]
    # a center x whose source u is born inside x's edge past the stages the
    # arcs are read at, so moving u leaves the arcs as they are
    x, u = next((x, u) for stage in range(n + 2 * d - 1, deep + 1)
                for x, u in zip(*(c.tolist() for c in scan.it.centers[stage][::2]))
                if born_in[u] == born_in[x] and u >= scan.it.sizes[n + 2 * d - 2])
    other = (int(born_in[u]) + 1) % len(center)
    descent = scan.it.descent

    def moved(base, upto):
        owner, on = descent(base, upto)
        owner = owner.copy()
        if u < len(owner):
            owner[u] = other
        return owner, on

    monkeypatch.setattr(scan.it, "descent", moved)
    assert {x, u} <= set(scan._off_chain(n, deep, moved(n, deep)[0], center).tolist())
    assert all(scan.decided(scan.check_address_map, m) == [] for m in range(deep + 1))
    failures = scan.check_arc_cylinders(n, deep)
    assert failures == _arc_cylinders_oracle(scan, n, deep)
    assert f"vertex {u}: label does not extend arc {other}" in failures
    assert not any(f.startswith(f"vertex {x}:") for f in failures)


def test_simple_arcs_at_stage_24_in_linear_memory():
    # arcs keep their label lengths; with the label bytes of each arc the
    # same call peaked at about 1.35 GB
    code = f"from treesubst.core import CoreScan; CoreScan(3)._arcs(24, 28); {_PEAK}"
    (peak,) = _fresh_process_output(code)
    assert int(peak) < 100 * 1024


def _core_failures(monkeypatch, scan, max_stage):
    """The witnesses of each failing check of the core suite run on `scan`."""
    monkeypatch.setattr(core, "shared_scan", lambda d: scan)
    results = verify.run_suite("core", scan.d, max_stage=max_stage)
    return {r.name: r.witnesses for r in results if r.status == "fail"}


def test_core_suite_decides_the_address_map_once_per_stage(monkeypatch):
    # address-map-consistency, shift-isometries and arc-cylinders all read it
    check, calls = CoreScan.check_address_map, Counter()

    def counted(self, n):
        calls[n] += 1
        return check(self, n)

    monkeypatch.setattr(CoreScan, "check_address_map", counted)
    assert _core_failures(monkeypatch, CoreScan(3), 14) == {}
    assert calls == Counter(range(15))


@pytest.mark.parametrize("d, cap", [(3, 12), (4, 10), (5, 10), (8, 16)])
def test_core_suite_builds_no_stage_past_its_cap(monkeypatch, d, cap):
    # the arcs of stage n are read at n + 2d - 2 <= cap + 1, as the address
    # map and the shift isometry read cap + 1, which `run_suite` budgets
    scan = CoreScan(d)
    assert _core_failures(monkeypatch, scan, None) == {}
    assert max(scan.it.trees) == len(scan.it.sizes) - 1 == scan.scanned == cap + 1


def test_core_suite_flags_two_labels_at_one_point(monkeypatch):
    d, n = 3, 8
    scan = CoreScan(d)
    scan.extend_to(n + 1)
    scan.real.extend_to(n + 1)
    real = scan.real
    v, w = scan.it.centers[n][0][:2].tolist()
    real.anchor[w], real.copy[w], real.coef[w] = real.anchor[v], real.copy[v], real.coef[v]
    failed = _core_failures(monkeypatch, scan, n)
    assert failed["label-injectivity"] == failed["path-distances"]
    assert all(w in _pair(f) for f in failed["label-injectivity"] if f.startswith("pair"))


def test_core_suite_flags_a_label_missing_from_the_inventory(monkeypatch):
    # a stage-8 center relabeled with the root's empty label: its own
    # length no longer occurs at stage 8
    d, n = 3, 8
    scan = CoreScan(d)
    scan.extend_to(n + 1)
    scan.length[scan.it.centers[n][0][0]] = 0
    failed = _core_failures(monkeypatch, scan, n)
    want = len(l_word(d, n)) + 1   # 35 labels
    assert failed["label-inventory"] == [
        f"m={n}: inventory is not the suffix set", f"m={n}: expected {want} labels, got {want - 1}",
    ]


def test_core_suite_flags_a_label_chain_off_the_bispecials(monkeypatch):
    # the fixed point's last letter of sigma^9(1), the first factor of l_10,
    # changed: l_10 is no longer the bispecial factor the generation rule
    # grows (no label the approximation steps build reads that letter)
    d, n = 3, 10
    scan = CoreScan(d)
    scan.extend_to(n + 1)
    k = _power_lengths(d)[n - 1] - 1
    a, w = words._fixed_points[d]
    monkeypatch.setitem(words._fixed_points, d, (a, w[:k] + bytes([w[k] % d + 1]) + w[k + 1:]))
    monkeypatch.setattr(words, "_indexes", {})   # no factor index of the changed letters outlives the test
    failed = _core_failures(monkeypatch, scan, n)
    assert failed["bispecial-chain"][0] == "label chain disagrees with bispecial generation"


def test_core_suite_flags_a_changed_initial_arc(monkeypatch):
    # the center of the stage-0 arc of color 2, label 1^-1, given the
    # root's empty label
    d = 3
    scan = CoreScan(d)
    scan.extend_to(2 * d - 1)
    center = next(c for *_, color, _, c, _ in _arc_rows(scan, 0) if color == 2)
    scan.length[center] = 0
    failed = _core_failures(monkeypatch, scan, 2 * d - 2)
    assert failed["initial-arcs"] == ["color 2: arc label e, want 1⁻"]


def test_core_suite_flags_an_image_past_the_longest_label(monkeypatch):
    # a stage-8 center given the longest registered length: its shift
    # image would have a label one letter longer than any seen
    d, n = 3, 8
    scan = CoreScan(d)
    scan.extend_to(n + 1)
    v = int(scan.it.centers[n][0][0])
    scan.length[v] = len(scan.by_length) - 1
    failed = _core_failures(monkeypatch, scan, n)
    assert f"vertex {v}: image label unrealized" in failed["shift-isometries"]


class _LabelCorruptedAt12(CoreScan):
    """A scan that lengthens one stage-10 label by a letter once stage 12
    is scanned (its children are born from stage 12 on, so the scan must stop there)."""

    def _scan_stage(self, n):
        super()._scan_stage(n)
        if n == 12:
            v = self.it.centers[10][0][0]
            self.length[v] += 1


def test_arc_cylinders_read_the_deepest_stage():
    scan = CoreScan(3)
    scan.extend_to(8)
    v = int(scan.it.centers[8][0][-1])
    scan.length[v] += 1
    assert scan.check_arc_cylinders(2, 8) == [f"vertex {v}: label does not extend arc 4"]


def test_arc_cylinders_cover_the_requested_depth():
    fresh = _LabelCorruptedAt12(3)
    assert any("does not extend arc" in f for f in fresh.check_arc_cylinders(2, 12))
    extended = _LabelCorruptedAt12(3)
    extended.extend_to(12)
    assert any("does not extend arc" in f for f in extended.check_arc_cylinders(2, 12))
    assert extended.check_arc_cylinders(2, 6) == []


class _GarbledAt3(CoreScan):
    """A scan that feeds its label record one word that is not a
    fixed-point prefix: the longest source of stage 3 is one letter longer
    than it was registered, which sigma^2(1) does not extend to a prefix."""

    def _scan_stage(self, n):
        if n == 3:
            self.it.tree_at(3)
            src = max(self.it.centers[3][2].tolist(), key=self.length.__getitem__)
            self.length[src] += 1
        super()._scan_stage(n)


def test_register_rejects_a_non_prefix():
    with pytest.raises(ValueError, match="label is not a prefix inverse"):
        _GarbledAt3(3).extend_to(3)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_labels_match_the_bytes_recursion(d):
    # the scan's words as bytes, sigma^(n-1)(1) + label(src), and their
    # writings read off the letters, against the lengths the scan keeps
    scan = CoreScan(d)
    scan.extend_to(14)
    words = {0: b""}
    for n in range(1, 15):
        step = power_image(d, n - 1)
        for v, _, src, _ in center_rows(scan.it, n):
            words[v] = step + words[src]
    assert dict(scan.labels.items()) == words
    assert list(scan.labels) == list(words) and len(scan.labels) == len(words)
    assert list(reversed(scan.labels.values())) == list(reversed(words.values()))
    for v, w in words.items():
        assert w == fixed_point_prefix(d, len(w)) and scan.length[v] == len(w)
        assert length_writing(d, scan.length[v]) == length_writing(d, len(w)) == automatic_writing(d, w)
        assert v in scan.labels and scan.labels.get(v) == w
    assert -1 not in scan.labels and scan.labels.get(-1) is None


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_longest_source_reaches_the_overlap(d):
    # z_(n-1), the overlap of the fixed point with its tail from
    # |sigma^(n-1)(1)|, is the longest source length of stage n, so the
    # prefix test of the scan has no slack on either side
    scan = CoreScan(d)
    scan.extend_to(16)
    text = fixed_point_prefix(d, 4000)
    for n in range(1, 17):
        step = len(power_image(d, n - 1))
        z = next(i for i in range(len(text) - step) if text[step + i] != text[i])
        assert scan.length[scan.it.centers[n][2]].max() == z
        assert core.shift_overlap(d, step, z + 1) == z
        assert core.shift_overlap(d, step, z) == z


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 6, 12])
def test_register_rejects_an_overlap_one_short(monkeypatch, d, n):
    scan = CoreScan(d)
    scan.extend_to(n - 1)
    overlap = core.shift_overlap
    monkeypatch.setattr(core, "shift_overlap", lambda *a: overlap(*a) - 1)
    with pytest.raises(ValueError, match="label is not a prefix inverse"):
        scan.extend_to(n)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("delta, error", [
    (1, "label is not a prefix inverse"), (-1, "duplicate label length"),
], ids=["long", "short"])
def test_register_rejects_a_source_length_off_by_one(d, delta, error):
    # the longest source of stage n with its stored length one off: one
    # letter longer, sigma^(n-1)(1) no longer extends it to a prefix; one
    # letter shorter, it gives the label of its sibling source again
    for n in (d + 2, 12):
        scan = CoreScan(d)
        scan.extend_to(n - 1)
        scan.it.tree_at(n)
        src = max(scan.it.centers[n][2].tolist(), key=scan.length.__getitem__)
        scan.length[src] += delta
        with pytest.raises(ValueError, match=error):
            scan.extend_to(n)


def _fresh_process_output(code):
    """The output of `code` in a fresh interpreter that imports this package."""
    src = str(Path(core.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.split()


# The child's own peak RSS in KiB, VmHWM of Linux.  Not its ru_maxrss: that
# keeps across exec the high-water mark of the process that spawned it, here
# the test run itself.
_PEAK = "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"


@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("tail, error", [
    ("earlier", "duplicate label length"), ("none", "label is not a prefix inverse"),
])
def test_register_rejects_an_earlier_length_or_no_label(d, tail, error):
    # a source whose stored length makes its center's label the longest
    # label of stage n - 1 again, or a source without a label
    for n in (d + 2, 12):
        scan = CoreScan(d)
        scan.extend_to(n - 1)
        scan.it.tree_at(n)
        src = int(scan.it.centers[n][2][0])
        step = _power_lengths(d)[n - 1]
        scan.length[src] = int(scan.length.max()) - step if tail == "earlier" else -1
        with pytest.raises(ValueError, match=error):
            scan.extend_to(n)


def test_core_scan_to_stage_26_in_linear_memory():
    # the labels are kept as lengths; kept as bytes, N^2/2 letters, the
    # same scan peaks at about 620 MB
    code = f"from treesubst.core import CoreScan; CoreScan(3).extend_to(26); {_PEAK}"
    (peak,) = _fresh_process_output(code)
    assert int(peak) < 150 * 1024


def test_rooted_indexes_at_d_40_in_memory_independent_of_d():
    # a rooted index is two int32 columns; with a (V, 2d - 2) block of color
    # counts beside them the same loop peaked at about 260 MB
    code = ("from treesubst.trees import TreeIteration; it = TreeIteration(40); "
            "print(sum(int(it.tree_at(n).rooted_index().depth.max()) for n in range(81))); "
            + _PEAK)
    depth, peak = _fresh_process_output(code)
    assert depth == "246"
    assert int(peak) < 100 * 1024


def test_label_checks_at_stage_26_in_linear_memory():
    # the three label checks read the scan's columns; with per-vertex dicts
    # and a Python adjacency per stage tree they peaked at about 128 MB
    code = ("from treesubst.core import CoreScan; s = CoreScan(3); "
            "s.extend_to(26); print(sum(len(s.check_writing_exponents(n) + "
            "s.check_apparition_chain(n) + s.check_branching_neighbor(n)) for n in range(27))); "
            + _PEAK)
    failures, peak = _fresh_process_output(code)
    assert failures == "0"
    assert int(peak) < 80 * 1024


def test_vertex_of_label_compares_letters():
    scan = shared_scan(3)
    scan.extend_to(2)
    (v1,) = [v for v, lab in scan.labels.items() if lab == b"\x01"]
    assert scan.vertex_of_label(b"\x01") == v1
    # same length as the stored label, other letters
    with pytest.raises(ValueError, match="not seen"):
        scan.vertex_of_label(b"\x02")


@pytest.mark.parametrize("d, digest", [
    (3, "509b12051f976a9ef6d951a1a4baf8140a65800b6f164530cdba495c3cb8b510"),
    (4, "645e5c525eef9f932b0f6a64d976b4ed244a3ac307673a318812811635269229"),
    (5, "065f513ae582d678a34bfe0857edc5455aba1a88514f41276f2ec1bb7f42c5b3"),
], ids=["3", "4", "5"])
def test_stage12_labels_pinned(d, digest):
    scan = CoreScan(d)
    scan.extend_to(12)
    pairs = repr(sorted(scan.labels.items())).encode()
    assert hashlib.sha256(pairs).hexdigest() == digest


def _shift_image_label(scan, a, v):
    """The label of v times a^-1: the fixed-point prefix one letter longer,
    for v in the domain of the letter a."""
    w = scan.labels[v]
    if fixed_point_prefix(scan.d, len(w) + 1) != w + bytes([a]):
        raise ValueError(f"vertex {v} is not in the domain of letter {a}")
    return w + bytes([a])


def test_shift_image_fixture():
    scan = shared_scan(3)
    scan.extend_to(2)
    root = scan.vertex_of_label(b"")
    # the origin shifts into the orbit point addressed by the length-1 prefix
    assert _shift_image_label(scan, 1, root) == b"\x01"
    v1 = scan.vertex_of_label(b"\x01")
    assert _shift_image_label(scan, 2, v1) == b"\x01\x02"
    with pytest.raises(ValueError):
        _shift_image_label(scan, 1, v1)     # second fixed-point letter is 2
    # the scan's own domains, read from the lengths, agree
    letters = dict(zip(*(c.tolist() for c in scan.shift_domains(2))))
    assert letters[root] == 1 and letters[v1] == 2


def _domain(scan, a, n):
    """The stage-n branch points in the domain of letter a, read off the
    label words: those whose label a lengthens to a fixed-point prefix."""
    scan.extend_to(n)
    return [v for v in scan.it.tree_at(n).branch_points()
            if fixed_point_prefix(scan.d, len(scan.labels[v]) + 1)[-1] == a]


@pytest.mark.parametrize("d", [3, 4, 5])
def test_shift_domains_match_the_label_words(d):
    scan = CoreScan(d)
    for n in range(11):
        dom, letter = scan.shift_domains(n)
        assert {a: dom[letter == a].tolist() for a in range(1, d + 1)} == {
            a: _domain(scan, a, n) for a in range(1, d + 1)}


def test_shift_checks():
    scan = shared_scan(3)
    assert scan.check_shift_isometry(6) == []
    assert scan.check_domain_overlaps(6) == []


def test_shift_isometry_names_an_unrealized_image(monkeypatch):
    # a domain point whose image label is not seen: its own witness, where
    # the certificate raised ValueError for its letter
    scan = CoreScan(3)
    scan.extend_to(7)
    dom = _domain(scan, 1, 6)
    v = dom[len(dom) // 2]
    scan.by_length[scan.length[v] + 1] = -1    # v's image label is not seen
    assert scan.check_shift_isometry(6) == [f"vertex {v}: image label unrealized"]
    monkeypatch.setattr(core, "shared_scan", lambda d: scan)
    assert verify.shift_isometries(3, 6) == [f"vertex {v}: image label unrealized"]


def _isometry_oracle(scan, a, n):
    """The shift isometry pair by pair, with `distance` on both sides."""
    scan.extend_to(n + 1)
    scan.real.extend_to(n + 1)
    dom = _domain(scan, a, n)
    pts = {v: scan.real.point(v) for v in dom}
    imgs = {v: scan.real.point(scan.vertex_of_label(_shift_image_label(scan, a, v))) for v in dom}
    return [
        f"letter {a}: pair ({v},{w}) distorted"
        for i, v in enumerate(dom)
        for w in dom[i + 1:]
        if distance(pts[v], pts[w]) != distance(imgs[v], imgs[w])
    ]


def _blocked_shift_oracle(scan, a, n):
    """The shift isometry over all domain pairs in row order, in blocks: the
    realized distance rows of each pair against those of its images, from
    `AnchorMetric`; witnesses worded as `_isometry_oracle` words them."""
    scan.extend_to(n + 1)
    scan.real.extend_to(n + 1)
    dom = np.array(_domain(scan, a, n), dtype=np.int64)
    img = scan.by_length[scan.length[dom] + 1]
    metric = AnchorMetric(scan.real)
    failures = []
    for i, j in pair_blocks(len(dom)):
        moved = (metric(dom[i], dom[j]) != metric(img[i], img[j])).any(axis=1)
        failures += [f"letter {a}: pair ({x},{y}) distorted"
                     for x, y in zip(dom[i[moved]].tolist(), dom[j[moved]].tolist())]
    return failures


@pytest.mark.parametrize("d", [3, 4, 5])
def test_shift_isometry_agrees_with_pair_oracle(d):
    scan = CoreScan(d)
    for n in range({3: 16, 4: 12, 5: 10}[d] + 1):
        assert scan.check_shift_isometry(n) == []
        for a in range(1, d + 1):
            assert _blocked_shift_oracle(scan, a, n) == []
            if n <= 10:
                assert _isometry_oracle(scan, a, n) == []


def _below(real, v):
    """Vertices whose anchor chain passes through v, v included."""
    out = set()
    for u in range(len(real.anchor)):
        w = u
        while w >= 0 and w != v:
            w = int(real.anchor[w])
        if w == v:
            out.add(u)
    return out


def _displace(real, v, along):
    """Move v, and with it only what the rows anchor below it, by rho^-(n+3),
    n the placed stage: outward along its own syllable, or onto the next copy
    (its first fresh leaf takes v's old row, and v hangs off that leaf)."""
    d = real.d
    step = np.array(ExactLength.rho_power(d, -(real.stage_done + 3)).coeffs)
    if along:
        real.coef[v] += step * ExactLength(d, tuple(real.coef[v].tolist())).sign()
        return
    z = v + 1
    assert real.anchor[z] == v
    real.anchor[z], real.copy[z], real.coef[z] = real.anchor[v], real.copy[v], real.coef[v]
    real.anchor[v], real.copy[v], real.coef[v] = z, (real.copy[v] + 1) % d, step


@pytest.mark.parametrize("along", [False, True], ids=["new-copy", "same-copy"])
def test_shift_isometry_flags_a_displaced_image(along):
    """The image's move breaks path distances one stage up, premise (c):
    each failing pair holds the image."""
    d, n, a = 3, 8, 1
    scan = CoreScan(d)
    scan.extend_to(n + 1)
    scan.real.extend_to(n + 1)
    dom = _domain(scan, a, n)
    images = [scan.vertex_of_label(_shift_image_label(scan, a, v)) for v in dom]
    branch = set(scan.it.tree_at(n + 1).branch_points())
    # an image with no other branch point of T_(n+1) anchored below it
    w = next(w for w in images[len(images) // 2:] if _below(scan.real, w) & branch == {w})
    _displace(scan.real, w, along)
    failures = scan.check_shift_isometry(n)
    assert failures == scan.check_path_distances(n + 1) != []
    assert all(w in _pair(f) for f in failures)
    assert _isometry_oracle(scan, a, n) != [] and _blocked_shift_oracle(scan, a, n) != []


def test_shift_isometry_flags_a_redirected_image():
    """One domain point's image length pointed at the next point's image:
    premise (a) names it, and the oracles see two images at one point."""
    d, n, a = 3, 8, 1
    scan = CoreScan(d)
    scan.extend_to(n + 1)
    dom = _domain(scan, a, n)
    v, u = dom[len(dom) // 2], dom[len(dom) // 2 + 1]
    k, w = int(scan.length[v]) + 1, int(scan.by_length[scan.length[u] + 1])
    scan.by_length[k] = w
    assert scan.check_shift_isometry(n) == [
        f"letter {a}: image {w} of vertex {v} has label length {scan.length[w]}, want {k}"
    ]
    assert _isometry_oracle(scan, a, n) != [] and _blocked_shift_oracle(scan, a, n) != []


def test_shift_isometry_flags_a_changed_center_length(monkeypatch):
    """A stage-(n+1) center that is no image, its stored length changed:
    premise (b), the address map's fact (3) one stage up, is shared by
    every letter, and the certificate reports it once.  The oracles read only
    `by_length` and the points, which did not change, so they pass: the
    certificate also asks that the stored lengths be the labels', and is
    stricter by design."""
    d, n = 3, 8
    scan = CoreScan(d)
    scan.extend_to(n + 1)
    images = {int(scan.by_length[k + 1]) for a in range(1, d + 1)
              for k in scan.length[_domain(scan, a, n)].tolist()}
    c = next(v for v in scan.it.centers[n + 1][0].tolist() if v not in images)
    k = int(scan.length[c])
    scan.length[c] += 1
    want = f"stage {n + 1} vertex {c}: label length {k + 1}, want {k}"
    assert scan.check_shift_isometry(n) == [want]
    for a in range(1, d + 1):
        assert _isometry_oracle(scan, a, n) == _blocked_shift_oracle(scan, a, n) == []
    monkeypatch.setattr(core, "shared_scan", lambda d: scan)
    assert verify.shift_isometries(d, n) == [want]


def test_shift_isometry_reaches_stage_28():
    scan = CoreScan(3)
    for n in range(29):
        assert scan.check_shift_isometry(n) == []


def _overlaps_oracle(scan, n):
    """Domain overlaps from vertex sets: the hull of each domain as the
    union of root-index paths, compared as Python sets."""
    tree = scan.it.tree_at(n)
    dom, letter = scan.shift_domains(n)
    hulls = {a: _hull(tree, set(dom[letter == a].tolist())) for a in range(1, scan.d + 1)}
    return [f"letters {a},{b}: domains share edges"
            for a in range(1, scan.d + 1) for b in range(a + 1, scan.d + 1)
            if len(hulls[a] & hulls[b]) > 1]


@pytest.mark.parametrize("d", [3, 4, 5])
def test_domain_overlaps_agree_with_the_hull_oracle(d):
    scan = CoreScan(d)
    for n in range(11):
        assert scan.check_domain_overlaps(n) == _overlaps_oracle(scan, n) == []
    # every domain widened by the root: all of them then meet around it
    branch = scan.it.tree_at(6).branch_points()
    dom, letter = scan.shift_domains(6)
    extra = np.arange(1, scan.d + 1)   # the root and branch[a] join the domain of a
    scan.shift_domains = lambda n: (np.concatenate([dom, 0 * extra, np.array(branch)[extra]]),
                                    np.concatenate([letter, extra, extra]))
    assert scan.check_domain_overlaps(6) == _overlaps_oracle(scan, 6) != []


def test_domain_overlaps_allow_one_shared_vertex():
    scan = CoreScan(3)
    branch = sorted(scan.it.tree_at(4).branch_points())
    domains = {1: [0], 2: [0, branch[-1]], 3: []}
    scan.shift_domains = lambda n: (np.array([v for a in domains for v in domains[a]]),
                                    np.array([a for a in domains for _ in domains[a]]))
    assert scan.check_domain_overlaps(4) == []
    domains[3] = [branch[1], branch[-1]]
    assert scan.check_domain_overlaps(4) == ["letters 2,3: domains share edges"]


def test_path_distances():
    scan = shared_scan(3)
    for n in range(6):
        assert scan.check_path_distances(n) == []


def _pair_oracle(scan, n):
    """The audit pair by pair: tree path, p*, legal length, realized distance."""
    scan.extend_to(n)
    scan.real.extend_to(n)
    tree = scan.it.tree_at(n)
    branch = sorted(tree.branch_points())
    failures = []
    for i, x in enumerate(branch):
        for y in branch[i + 1:]:
            gamma = tree.path_word(x, y)
            if any(abs(c) > scan.d for c in gamma):
                failures.append(f"pair ({x},{y}): path leaves the core colors")
                continue
            want = legal_path_distance(scan.d, p_star(scan.d, gamma)).scaled(-n)
            got = distance(scan.real.point(x), scan.real.point(y))
            if got != want:
                failures.append(f"pair ({x},{y}): {got.value():.6f} != {want.value():.6f}")
    return failures


def _blocked_oracle(scan, n):
    """The audit over all branch pairs x < y in row order, in blocks: the
    coded distance from the rooted index's weighted depths (rho^-n times
    the letter length per edge of color <= d, one column more counting the
    edges of color > d) met by `Lifting.meet`, the realized one from
    `AnchorMetric`; witnesses worded as `_pair_oracle` words them."""
    scan.extend_to(n)
    scan.real.extend_to(n)
    d, tree = scan.d, scan.it.tree_at(n)
    index = tree.rooted_index()
    lift = Lifting(index.parent)
    lengths = [x.scaled(-n).coeffs for x in letter_length_exact(d).values()]
    weight = [[*x, 0] for x in lengths] + [[0] * d + [1]] * (d - 2)   # per color
    counts = lift.sums(np.eye(2 * d - 1, dtype=np.int64)[np.abs(index.up), 1:])   # one-hot steps
    weighted = counts @ _int64(weight, 4 * len(index.parent))
    branch = np.array(sorted(tree.branch_points()), dtype=np.int64)
    metric = AnchorMetric(scan.real)
    failures = []
    for i, j in pair_blocks(len(branch)):
        xs, ys = branch[i], branch[j]
        want = weighted[xs] + weighted[ys] - 2 * weighted[lift.meet(xs, ys)[0]]
        leaves = want[:, d] != 0
        bad = leaves | (metric(xs, ys) != want[:, :d]).any(axis=1)
        for x, y, out in zip(xs[bad].tolist(), ys[bad].tolist(), leaves[bad]):
            if out:
                failures.append(f"pair ({x},{y}): path leaves the core colors")
                continue
            want_xy = legal_path_distance(d, p_star(d, tree.path_word(x, y))).scaled(-n)
            got_xy = distance(scan.real.point(x), scan.real.point(y))
            failures.append(f"pair ({x},{y}): {got_xy.value():.6f} != {want_xy.value():.6f}")
    return failures


def _within(failures, oracle):
    """Whether `failures` is a non-empty sub-list of `oracle`, in its order."""
    rest = iter(oracle)
    return bool(failures) and all(f in rest for f in failures)


def _pair(failure):
    """The two vertices a pair witness names."""
    return tuple(map(int, failure[failure.index("(") + 1 : failure.index(")")].split(",")))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_path_audit_agrees_with_pair_oracle(d):
    scan = CoreScan(d)
    for n in range({3: 16, 4: 12, 5: 10}[d] + 1):
        assert scan.check_path_distances(n) == _blocked_oracle(scan, n) == []
        if n <= 10:
            assert _pair_oracle(scan, n) == []


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("along", [False, True], ids=["new-copy", "same-copy"])
def test_path_audit_flags_a_displaced_point(n, along):
    d = 3
    scan = CoreScan(d)
    scan.extend_to(n)
    scan.real.extend_to(n)
    branch = sorted(scan.it.tree_at(n).branch_points())
    # a center born at stage n: only its fresh leaves hang from it
    centers = scan.it.centers[n][0]
    v = int(centers[len(centers) // 2])
    assert _below(scan.real, v) & set(branch) == {v}
    _displace(scan.real, v, along)
    failures = scan.check_path_distances(n)
    assert _within(failures, _pair_oracle(scan, n))
    assert all(v in _pair(f) for f in failures)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_path_audit_flags_a_folded_ray(n):
    """The root's color-2 ray folded onto copy 0, the color-1 one: every
    edge keeps one syllable of its length and each center stays inside its
    replaced edge, so the edge law and the gap pass; the path audit sees
    two edges leave the root in one direction."""
    scan = CoreScan(3)
    scan.extend_to(n)
    real = scan.real
    real.extend_to(n)
    real.copy[(real.anchor == 0) & (real.copy == 1)] = 0
    real.edge_length_check(n)
    real.hausdorff_gap(n)
    assert _within(scan.check_path_distances(n), _pair_oracle(scan, n))


def test_path_audit_reads_a_syllable_only_where_the_rows_show_one():
    """Two sibling ends of a span edge, one re-anchored at the origin with
    its row kept: the rows still differ by the right syllable, but no longer
    show one (neither end is the other's anchor or sibling), so it fails."""
    d, n = 3, 8
    scan = CoreScan(d)
    scan.extend_to(n)
    real = scan.real
    real.extend_to(n)
    tree = scan.it.tree_at(n)
    branch = set(tree.branch_points())
    s, t = next((s, t) for s, t, _ in tree.edges
                if {s, t} <= branch and real.anchor[s] == real.anchor[t] > 0)
    real.anchor[t] = 0
    failures = scan.check_path_distances(n)
    assert _within(failures, _pair_oracle(scan, n))
    assert (min(s, t), max(s, t)) in map(_pair, failures)


def test_approx_steps_flag_a_displaced_point():
    d, exponents = 3, [0, 3, 6, 9]
    scan = CoreScan(d)
    vs = scan.approx_points(exponents)
    _displace(scan.real, vs[2], along=True)
    # the steps as the points give them, moved by rho^-a * V(1) = rho^-a
    pts = [scan.real.point(v) for v in vs]
    want = [
        f"step {a}: moved {distance(p, q).value():.6f}, "
        f"want {ExactLength.rho_power(d, -a).value():.6f}"
        for a, p, q in zip(exponents[1:], pts, pts[1:])
        if distance(p, q) != ExactLength.rho_power(d, -a)
    ]
    assert scan.check_approx_steps(exponents) == want != []


def test_path_audit_refuses_a_shared_row():
    d, n = 3, 8
    scan = CoreScan(d)
    scan.extend_to(n)
    scan.real.extend_to(n)
    real = scan.real
    # two centers born at stage n given one row, so both sit at one point
    v, w = scan.it.centers[n][0][:2].tolist()
    real.anchor[w], real.copy[w], real.coef[w] = real.anchor[v], real.copy[v], real.coef[v]
    failures = scan.check_path_distances(n)
    assert _within(failures, _pair_oracle(scan, n))
    assert all(w in _pair(f) for f in failures)
    with pytest.raises(ValueError, match="share a row"):
        AnchorMetric(real)([v], [w])


def test_path_audit_needs_a_discerned_tree(monkeypatch):
    scan = CoreScan(3)
    assert scan.check_path_distances(6) == []
    monkeypatch.setattr(ColoredTree, "is_discerned", lambda self: False)
    assert scan.check_path_distances(6) == [
        "stage 6: tree not discerned, so its path words may cancel"
    ]


def test_path_audit_reports_leaving_core_colors(monkeypatch):
    d, n = 3, 6
    scan = CoreScan(d)
    scan.extend_to(n)
    tree = scan.it.tree_at(n)
    s, leaf = next((s, t) for s, t, c in tree.edges if c == d + 1 and degree(tree, t) == 1)
    branch = tree.branch_points()
    monkeypatch.setattr(ColoredTree, "branch_points", lambda self: branch + [leaf])
    failures = scan.check_path_distances(n)
    # the leaf's own edge, the one span edge off the core colors
    assert failures == [f"pair ({min(s, leaf)},{max(s, leaf)}): path leaves the core colors"]
    assert _within(failures, _pair_oracle(scan, n))


def test_path_audit_reaches_stage_28():
    scan = CoreScan(3)
    for n in range(29):
        assert scan.check_path_distances(n) == []


def test_pair_route_at_depth():
    """Pair by pair at stage 18: realized distance = rho^-18 times the legal
    length of p* of the tree path, through the library's own calls."""
    it = TreeIteration(3)
    tree = it.tree_at(18)
    real = Realization(it)
    real.extend_to(18)
    branch = sorted(tree.branch_points())
    rng = random.Random(18)
    for x, y in (rng.sample(branch, 2) for _ in range(50)):
        want = legal_path_distance(3, p_star(3, tree.path_word(x, y))).scaled(-18)
        assert distance(real.point(x), real.point(y)) == want


def test_path_audit_refuses_int64_overflow(monkeypatch):
    with pytest.raises(ValueError, match="int64 operand"):
        _int64([[1 << 58, 0, 0]], 8)
    with pytest.raises(ValueError, match="beyond int64"):
        _int64([[1 << 70, 0, 0]], 1)
    assert _int64([[-(1 << 57), 3, 0]], 7).tolist() == [[-(1 << 57), 3, 0]]
    # the audit's own operand, its per-color length table, refused through the same routine
    scan = CoreScan(3)
    scan.real.extend_to(10)
    monkeypatch.setattr(algnum, "INT64_BOUND", 1 << 3)
    with pytest.raises(ValueError, match="int64 operand 4 times 2 "):
        scan.check_path_distances(10)


# The partition report of length m: its measure classes, and the stage
# (if any) whose tree determines the length-m partition.


def _determined_by(m):
    return [n for n in range(m + 1) if determined_partition(3, n) == m]


def _classes(m):
    """The distinct certified exponents of the length-m cylinders."""
    exponents, failures = measure_spectrum(3, m)
    assert failures == ()
    return sorted(set(exponents.values()))


def test_partition_report_small():
    assert _determined_by(2) == [1]
    # the five cylinders fall in four classes, lambda^-3 .. lambda^-6
    assert _classes(2) == [3, 4, 5, 6]


def test_partition_report_m4_undetermined():
    assert len(_classes(4)) == 5
    assert _determined_by(4) == []


def test_partition_report_m7():
    assert len(_classes(7)) == 4
    assert _determined_by(7) == [4]
    assert len(measure_spectrum(3, 7)[0]) == 15


def test_d4_scan_basics():
    scan = shared_scan(4)
    for m in range(1, 4):
        assert scan.check_inventory(m) == []
    for n in range(1, 6):
        assert scan.check_writing_exponents(n) == []
    assert scan.check_path_distances(4) == []
