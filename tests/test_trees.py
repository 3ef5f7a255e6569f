"""Colored trees, substitution rules, iteration, provenance."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from treesubst.freegroup import family_inverse, p_star
from treesubst import cli, core, rauzy, trees, verify
from treesubst.realization import Realization
from treesubst.trees import (
    ColoredTree,
    NewCenter,
    RulePattern,
    TreeIteration,
    TreeSubstitution,
    check_budget,
    family_tree_substitution,
    initial_tree,
)
from pair_oracles import Lifting


def degree(tree, v):
    """Edges at vertex v of the tree."""
    return int(np.count_nonzero(tree.src == v) + np.count_nonzero(tree.dst == v))


def test_tree_rejects_non_trees():
    with pytest.raises(ValueError):
        ColoredTree(3, [(0, 1, 1), (1, 0, 2)])        # cycle
    with pytest.raises(ValueError):
        ColoredTree(3, [(0, 1, 1), (2, 3, 2)])        # disconnected
    with pytest.raises(ValueError):
        ColoredTree(3, [(0, 1, 7)])                   # color out of range
    with pytest.raises(ValueError):
        ColoredTree(3, [(0, 0, 1)])                   # loop
    with pytest.raises(ValueError, match="not connected"):
        # |V| - 1 edges, so only the connectivity check can catch it
        ColoredTree(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1)])
    with pytest.raises(ValueError, match="not connected"):
        ColoredTree(3, [(0, 1, 1), (1, 0, 2), (2, 3, 1)])   # a double edge, |V| - 1 edges
    with pytest.raises(ValueError, match="5 is not a vertex"):
        ColoredTree(3, [(0, 1, 1), (0, 2, 2)], root=5)
    # the vertices of a tree are 0..|E|: an id past it is refused, and a gap
    # below it leaves a vertex the search cannot reach
    for edge, bad in (((0, 3, 2), 3), ((-1, 1, 2), -1), ((3, 1, 2), 3)):
        with pytest.raises(ValueError, match=f"^vertex {bad} outside 0..2$"):
            ColoredTree(3, [(0, 1, 1), edge])
    with pytest.raises(ValueError, match="not connected"):
        ColoredTree(3, [(0, 1, 1), (0, 3, 2), (3, 1, 3)])   # no vertex 2
    assert len(ColoredTree(3, []).edges) == 0   # the empty tree still builds


def test_path_word_signs():
    t = ColoredTree(3, [(0, 1, 1), (1, 2, 3)], root=0)
    assert t.path_word(0, 2) == (1, 3)
    assert t.path_word(2, 0) == (-3, -1)
    assert t.path_word(1, 1) == ()


def test_path_word_rejects_a_non_vertex():
    t = ColoredTree(3, [(0, 1, 1), (1, 2, 3)], root=0)
    with pytest.raises(ValueError, match="not a vertex"):
        t.path_word(0, 3)
    with pytest.raises(ValueError, match="not a vertex"):
        t.path_word(-1, -1)


def adjacency(tree) -> dict[int, list[tuple[int, int, int]]]:
    """v -> list of (neighbor, signed color, edge index) in edge order; sign
    -1 on incoming.  The oracles' search structure, which the package keeps
    none of."""
    adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in tree.vertices}
    for i, (s, t, c) in enumerate(tree.edges):
        adj[s].append((t, c, i))
        adj[t].append((s, -c, i))
    return adj


def _path_oracle(adj: dict, x, y) -> list[tuple[object, int]]:
    """(vertex, signed color) steps along the path x -> y by breadth-first
    search from x; excludes x and ends with y."""
    if x == y:
        return []
    parent = {x: (x, 0)}
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            for w, sc, _ in adj[v]:
                if w not in parent:
                    parent[w] = (v, sc)
                    if w == y:
                        steps = []
                        while w != x:
                            v, sc = parent[w]
                            steps.append((w, sc))
                            w = v
                        steps.reverse()
                        return steps
                    nxt.append(w)
        frontier = nxt
    raise ValueError(f"no path {x!r} -> {y!r}")


def path(tree, x, y) -> list[tuple[int, int]]:
    """(vertex, signed color) steps along the path x -> y, without x and
    ending with y: the deeper end climbs the rooted index until they meet."""
    index = tree.rooted_index()
    parent, up, depth = index.parent.tolist(), index.up.tolist(), index.depth.tolist()
    rise, fall = [], []
    while x != y:
        if depth[x] >= depth[y]:
            rise.append((parent[x], up[x]))
            x = parent[x]
        else:
            fall.append((y, -up[y]))
            y = parent[y]
    return rise + fall[::-1]


def _hull(tree, vertices: set) -> set:
    """Vertex set of the smallest subtree containing `vertices`: the union of
    the paths from one of them to the others."""
    first = min(vertices, default=None)
    keep = set(vertices)
    for v in vertices:
        keep.update(w for w, _ in path(tree, first, v))
    return keep


def _span_hull(tree, vertices: set) -> set:
    """`ColoredTree.spans` of one column read as a vertex set: the marked
    vertices and both ends of every spanning edge."""
    marks = np.zeros((len(tree.vertices), 1), dtype=bool)
    marks[list(vertices), 0] = True
    span = tree.spans(marks)[:, 0]
    parent = tree.rooted_index().parent
    return set(vertices) | set(np.flatnonzero(span).tolist()) | set(parent[span].tolist())


def _hull_oracle(tree, vertices):
    """Vertex set of the smallest subtree containing `vertices`, by peeling
    every other leaf."""
    if not vertices:
        return set()
    adj = adjacency(tree)
    keep = set(tree.vertices)
    deg = {v: len(adj[v]) for v in keep}
    leaves = [v for v in keep if deg[v] <= 1 and v not in vertices]
    while leaves:
        v = leaves.pop()
        if v not in keep:
            continue
        keep.discard(v)
        for w, _, _ in adj[v]:
            if w in keep:
                deg[w] -= 1
                if deg[w] <= 1 and w not in vertices:
                    leaves.append(w)
    return keep


@st.composite
def _random_tree(draw):
    """A tree of 2..60 vertices with random colors, arrows and root, its
    ids 0..size - 1 in a random order."""
    size = draw(st.integers(2, 60))
    ids = draw(st.permutations(range(size)))
    edges = []
    for k in range(1, size):
        other = ids[draw(st.integers(0, k - 1))]
        color = draw(st.integers(1, 4))
        edges.append((ids[k], other, color) if draw(st.booleans()) else (other, ids[k], color))
    root = draw(st.sampled_from([None, *ids]))
    return ColoredTree(3, edges, root=root)


@settings(max_examples=80, deadline=None)
@given(tree=_random_tree(), data=st.data())
def test_rooted_path_word_matches_search(tree, data):
    adj = adjacency(tree)
    for _ in range(5):
        x = data.draw(st.sampled_from(tree.vertices))
        y = data.draw(st.sampled_from(tree.vertices))
        steps = path(tree, x, y)
        assert steps == _path_oracle(adj, x, y)
        word = tree.path_word(x, y)
        assert word == tuple(sc for _, sc in steps)
        assert tree.path_word(y, x) == tuple(-c for c in reversed(word))


def _searched(tree):
    """The rooted index of a tree's columns by the breadth-first pass: the
    same tree built from its edge list."""
    return ColoredTree(tree.d, np.column_stack(tree.edges.columns), root=tree.root).rooted_index()


def _same_index(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("parent", "up", "depth"))


@pytest.mark.parametrize("d, top", [(3, 20), (4, 14), (5, 14), (6, 14)])
def test_induced_index_is_the_searched_index(d, top, monkeypatch):
    it, fresh = TreeIteration(d), TreeIteration(d)
    stages = [it.tree_at(n) for n in range(top + 1)]
    want = [_searched(t) for t in stages]
    fresh.tree_at(top)
    searched, search = [], ColoredTree._search
    monkeypatch.setattr(ColoredTree, "_search", lambda self: searched.append(self) or search(self))
    for tree, index in zip(stages, want):   # each from the stage before
        assert _same_index(tree.rooted_index(), index)
        assert np.array_equal(index.depth, Lifting(index.parent).depth)
    assert _same_index(fresh.tree_at(top).rooted_index(), want[-1])   # from stage 0
    assert sorted(fresh.trees) == [0, top]   # no stage between was built to carry it up
    # only stage 0, which has no stage before it, and the rules' patterns are searched
    grown = stages[1:] + [fresh.trees[top]]
    assert not [t for t in searched if any(t is s for s in grown)]


def test_a_recolored_stage_and_the_next_are_read_with_no_search(monkeypatch):
    it = TreeIteration(3)
    tree = it.tree_at(7)
    v = it.centers[5][0].vertex
    p = int(tree.rooted_index().parent[v])
    i = next(i for i, (s, t, _) in enumerate(tree.edges) if {s, t} == {v, p})
    s, t, c = tree.edges[i]
    tree.color[i] = new = c % 4 + 1
    tree._rooted = None     # the index keeps the colors it was built with
    searched, search = [], ColoredTree._search
    monkeypatch.setattr(ColoredTree, "_search", lambda self: searched.append(self) or search(self))
    index = tree.rooted_index()
    nxt = it.tree_at(8)     # carried up from the recolored stage
    nxt_index = nxt.rooted_index()
    assert not [t for t in searched if t is tree or t is nxt]
    assert _same_index(index, _searched(tree))
    assert tree.path_word(v, p) == ((new,) if s == v else (-new,))
    steps = _path_oracle(adjacency(tree), tree.root, v)
    assert tree.path_word(tree.root, v) == tuple(sc for _, sc in steps)
    assert _same_index(nxt_index, _searched(nxt))


def test_certificate_refuses_a_wrong_index():
    tree = TreeIteration(3).tree_at(6)
    good = tree.rooted_index()
    assert _same_index(tree._index_of(good.parent), good)
    v = int(np.flatnonzero(good.depth > 3)[-1])   # the cycles below leave the root out
    p = int(good.parent[v])
    g = int(good.parent[p])

    def changed(at: dict):
        parent = good.parent.copy()
        parent[list(at)] = list(at.values())
        return parent

    wrong = [
        changed({v: v}),                     # a second root
        changed({0: v}),                     # the root not its own parent
        # a 2-cycle on a real edge: v's parent p hangs from v, so every vertex
        # has an edge to its parent, and only the climb refuses it
        changed({p: v}),
        # a 4-cycle: g's parent hangs from v; a tree has no longer cycle along
        # its edges, so that step is none
        changed({int(good.parent[g]): v}),
        changed({v: 0}),                     # a parent that is not a neighbour
        good.parent[:-1],                    # a column one short
    ]
    assert [tree._index_of(parent) for parent in wrong] == [None] * len(wrong)


@settings(max_examples=40, deadline=None)
@given(tree=_random_tree())
def test_index_read_from_the_searched_parents_is_the_searched_index(tree):
    searched = tree.rooted_index()
    assert _same_index(tree._index_of(searched.parent), searched)


@settings(max_examples=40, deadline=None)
@given(tree=_random_tree())
def test_depth_is_the_lifted_depth(tree):
    index = tree.rooted_index()
    assert np.array_equal(index.depth, Lifting(index.parent).depth)


@pytest.mark.parametrize("cycle", [[1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5, 6, 7, 8]])
def test_ancestor_sums_end_off_the_root_on_a_cycle(cycle):
    # slot 0 is the root, slots 1.. the cycle, each cycle slot with a child
    # below it; doubling turns a 2^k-cycle into self-loops, which are no
    # root, and keeps any other cycle moving until the rounds run out
    parent = np.arange(2 * len(cycle) + 1)
    parent[cycle] = np.roll(cycle, -1)
    parent[len(cycle) + 1:] = cycle
    rows = np.ones(len(parent), dtype=np.int64)
    rows[0] = 0
    _, end = trees.ancestor_sums(parent, rows)
    assert end[0] == 0 and (end[1:] != 0).all()



@settings(max_examples=80, deadline=None)
@given(tree=_random_tree(), data=st.data())
def test_hull_matches_leaf_peeling(tree, data):
    vertices = data.draw(st.sets(st.sampled_from(tree.vertices)))
    assert _span_hull(tree, vertices) == _hull(tree, vertices) == _hull_oracle(tree, vertices)


def test_is_discerned_local_rule():
    good = ColoredTree(3, [(0, 1, 1), (0, 2, 1)])     # same color, both out: clash
    assert not good.is_discerned()
    ok = ColoredTree(3, [(0, 1, 1), (2, 0, 1)])       # in + out may share a color
    assert ok.is_discerned()


def _assert_numbered(tree):
    """The vertices are 0..|E|, each with an edge."""
    assert tree.vertices == range(len(tree.edges) + 1)
    assert len(tree.degrees()) == len(tree.vertices) and tree.degrees().all()


def test_initial_tree_is_star():
    for d in (3, 4, 5):
        t0 = initial_tree(d)
        _assert_numbered(t0)
        assert len(t0.edges) == d
        assert sorted(c for _, _, c in t0.edges) == list(range(1, d + 1))
        assert degree(t0, t0.root) == d
        # the color-j neighbor is vertex j
        for _, j, c in t0.edges:
            assert j == c


def test_family_rules_validate():
    for d in (3, 4, 5, 6):
        report = family_tree_substitution(d).validate()
        assert report.ok, report.failures


def test_validation_catches_missing_anchor():
    rules = dict(family_tree_substitution(3).rules)
    rules[2] = RulePattern(2, (("P1", "P2", 3),))
    report = TreeSubstitution(3, rules).validate()
    assert not report.ok
    assert any("condition 1" in f for f in report.failures)


def test_validation_names_rule_keys_outside_the_colors():
    family = family_tree_substitution(3).rules
    stray = RulePattern(0, (("X", "Y", 1),))

    def failures(keys):
        return TreeSubstitution(3, {**family, **{k: stray for k in keys}}).validate().failures

    assert failures([0]) == ["condition 1: pattern for color 0 outside 1..4"]
    assert failures([9, 0]) == ["condition 1: patterns for colors 0, 9 outside 1..4"]
    assert failures([*range(-3, 1), *range(5, 13)]) == [
        "condition 1: patterns for colors -3, -2, -1, 0, 5 and 7 more outside 1..4"]


def test_trunk_words_project_to_inverse_images():
    for d in (3, 4, 5, 6):
        ts = family_tree_substitution(d)
        inv = family_inverse(d)
        for i in range(1, d + 1):
            assert p_star(d, ts.trunk_word(i)) == inv.images[i]


def test_edge_growth():
    it = TreeIteration(3)
    counts = [len(it.tree_at(n).edges) for n in range(6)]
    assert counts == [3, 5, 7, 11, 15, 23]


def test_apply_preserves_root_and_discernment():
    it = TreeIteration(3)
    for n in range(8):
        t = it.tree_at(n)
        assert t.root == 0
        assert t.is_discerned()


def test_born_vertices_and_origins():
    it = TreeIteration(3)
    t0, t1 = it.tree_at(0), it.tree_at(1)
    arc, _ = it.descent(0, 1)
    born = [v for v in t1.vertices if it.birth_stage(v) == 1]
    assert born, "stage 1 must create vertices"
    for v in born:
        assert v not in t0.vertices
        assert 0 <= arc[v] < len(t0.edges)
    # every stage-1 edge descends from a stage-0 edge
    pairs = {(s, t) for s, t, _ in t0.edges}
    for s, t, _ in t1.edges:
        assert max(arc[s], arc[t]) >= 0 or (s, t) in pairs


@pytest.mark.parametrize("d", [3, 4, 5])
def test_new_center_record_matches_adjacency(d):
    it = TreeIteration(d)
    it.tree_at(8)
    for n in range(1, 9):
        tree = it.tree_at(n)
        born = [v for v in tree.vertices if it.birth_stage(v) == n]
        centers = [v for v in born if degree(tree, v) == d]
        leaves = {v for v in born if degree(tree, v) == 1}
        record = it.centers[n]
        assert [c.vertex for c in record] == sorted(centers)
        assert {z for c in record for z in c.leaves} == leaves
        for c in record:
            nbr = {sc: w for w, sc, _ in adjacency(tree)[c.vertex]}
            assert (c.src, c.dst) == (nbr[d], nbr[1])
            assert c.leaves == tuple(nbr[d + h] for h in range(1, d - 1))
            assert it.tree_at(n - 1).edges[c.edge] == (c.src, c.dst, 2)


def _base_edge(it, arc, base, edge):
    """Index of the T_base edge that `edge` of a later tree descends from."""
    s, t, _ = edge
    e = max(arc[s], arc[t])
    if e >= 0:
        return e
    return [(x, y) for x, y, _ in it.tree_at(base).edges].index((s, t))


def test_ancestor_edge_chains():
    # born inside a stage-2 edge = born inside that edge's stage-0 ancestor
    it = TreeIteration(3)
    arc40, _ = it.descent(0, 4)
    arc42, _ = it.descent(2, 4)
    arc20, _ = it.descent(0, 2)
    t2 = it.tree_at(2)
    for v in it.tree_at(4).vertices:
        if it.birth_stage(v) > 2:
            assert arc40[v] == _base_edge(it, arc20, 0, t2.edges[arc42[v]])
        else:
            assert arc40[v] == arc20[v]


def test_birth_stage_is_first_stage_holding_the_vertex():
    it = TreeIteration(4)
    seen = set()
    for n in range(7):
        fresh = set(it.tree_at(n).vertices) - seen
        assert {it.birth_stage(v) for v in fresh} == {n}
        assert (it.birth_stage(np.array(sorted(fresh))) == n).all()
        seen |= fresh
    for v in (-1, len(it.tree_at(6).vertices)):
        with pytest.raises(ValueError, match=f"^{v} is not a vertex"):
            it.birth_stage(v)
        with pytest.raises(ValueError, match=f"^{v} is not a vertex"):
            it.birth_stage(np.array([0, v, 1]))


def test_vertex_provenance():
    it = TreeIteration(3)
    arc, on = it.descent(1, 3)
    assert len(arc) == len(on) == len(it.tree_at(3).vertices)
    for v in it.tree_at(3).vertices:
        if it.birth_stage(v) <= 1:
            assert arc[v] == -1 and on[v]
        else:
            assert 0 <= arc[v] < len(it.tree_at(1).edges)
    with pytest.raises(ValueError, match="after stage"):
        it.descent(2, 1)
    with pytest.raises(ValueError, match=">= 0"):
        it.descent(-1, 3)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_descent_matches_path_oracle(d):
    it = TreeIteration(d)
    for base in range(4):
        upto = base + 2 * d - 2
        arc, on = it.descent(base, upto)
        deep = it.tree_at(upto)
        adj = adjacency(deep)
        # on the embedded edge (s, t) = strictly inside its path in the deep tree
        for e, (s, t, _) in enumerate(it.tree_at(base).edges):
            inside = {v for v, _ in _path_oracle(adj, s, t)[:-1]}
            assert {v for v in deep.vertices if on[v] and arc[v] == e} == inside
        # an edge touching a later vertex stays inside that vertex's base edge
        old = set(it.tree_at(base).vertices)
        base_edges = it.tree_at(base).edges
        for s, t, _ in deep.edges:
            if s in old and t in old:
                continue
            if s in old or t in old:
                b, v = (s, t) if s in old else (t, s)
                assert b in base_edges[arc[v]][:2]
            else:
                assert arc[s] == arc[t] >= 0


def test_trunk_matrix_spectrum():
    for d in (3, 4, 5):
        ts = family_tree_substitution(d)
        eigs = sorted(np.abs(np.linalg.eigvals(ts.trunk_matrix().astype(float))))
        # d-2 zeros, then the roots of x^d = x + 1
        assert np.allclose(eigs[: d - 2], 0, atol=1e-9)
        roots = sorted(np.abs(np.roots([1] + [0] * (d - 2) + [-1, -1])))
        assert np.allclose(eigs[d - 2 :], roots, atol=1e-9)


def test_edge_matrix_spectrum():
    for d in (3, 4, 5):
        ts = family_tree_substitution(d)
        eigs = np.linalg.eigvals(ts.incidence_matrix().astype(float))
        top = max(np.abs(eigs))
        sigma_top = max(np.abs(np.roots([1, -1] + [0] * (d - 2) + [-1])))
        assert abs(top - sigma_top) < 1e-9


def test_json_round_trip():
    t = initial_tree(3)
    data = json.loads(cli._tree_json(t, 0))
    assert ColoredTree(data["d"], data["edges"], root=data["root"]) == t
    assert data["vertices"] == list(t.vertices)


def test_dot_output_lists_every_edge():
    t = initial_tree(3)
    dot = t.to_dot()
    assert dot.count("->") == len(t.edges)


# -- the vectorized apply against the per-edge loop ---------------------------


def _apply_oracle(ts, tree):
    """Replace the edges one by one in sorted order, placeholders in
    increasing k order taking ids from a counter: (sorted new edges, fresh
    vertex -> index of the edge it replaced)."""
    next_id = max(tree.vertices) + 1 if tree.vertices else 0
    patterns = {c: (pat.placeholders(), pat.edges) for c, pat in ts.rules.items()}
    new_edges, born = [], {}
    for idx, (s, t, c) in enumerate(tree.edges):
        if c not in patterns:
            raise ValueError(f"no rule for color {c}")
        places, edges = patterns[c]
        assign = {"X": s, "Y": t}
        for p in places:
            assign[p] = next_id
            born[next_id] = idx
            next_id += 1
        for ps, pt, pc in edges:
            new_edges.append((assign[ps], assign[pt], pc))
    return sorted(new_edges), born


def _centers_oracle(d, prev_edges, born):
    """The births of one stage grouped d - 1 at a time into new centers."""
    fresh = list(born.items())
    out = []
    for i in range(0, len(fresh), d - 1):
        (v, e), *leaves = fresh[i : i + d - 1]
        src, dst, color = prev_edges[e]
        assert color == 2 and all(f == e for _, f in leaves)
        out.append(NewCenter(v, e, src, dst, tuple(w for w, _ in leaves)))
    return out


def _assert_apply_matches(ts, tree):
    """apply(tree) equals the per-edge loop, edge for edge, fresh ids included."""
    got = ts.apply(tree)
    edges, born = _apply_oracle(ts, tree)
    assert list(got.tree.edges) == edges
    assert got.tree.root == tree.root
    return got, born


@pytest.mark.parametrize("d", range(3, 9))
def test_apply_and_centers_match_per_edge_loop(d):
    # the edge log against repeated `apply`, itself checked against the per-edge loop
    ts = family_tree_substitution(d)
    it = TreeIteration(d)
    prev = initial_tree(d)
    assert it.tree_at(0) == prev and it.sizes == [d + 1]
    for n in range(1, 19 if d == 3 else 13):
        res, born = _assert_apply_matches(ts, prev)
        it.extend_to(n)
        assert list(it.centers[n]) == _centers_oracle(d, list(prev.edges), born)
        assert it.sizes[n] == len(res.tree.vertices)
        tree = it.tree_at(n)
        assert tree == res.tree
        _assert_numbered(tree)
        prev = res.tree


@pytest.mark.parametrize("d", [3, 5])
def test_stages_built_out_of_order_are_the_same_trees(d):
    ordered, shuffled = TreeIteration(d), TreeIteration(d)
    stages = [ordered.tree_at(n) for n in range(13)]
    for n in (9, 4, 12):
        tree = shuffled.tree_at(n)
        assert tree == stages[n]
        assert _same_index(tree.rooted_index(), _searched(stages[n]))
    assert sorted(shuffled.trees) == [0, 4, 9, 12]
    assert shuffled.sizes == ordered.sizes
    assert [list(c) for c in shuffled.centers] == [list(c) for c in ordered.centers]


def test_edge_log_refuses_rules_it_cannot_express():
    rules = family_tree_substitution(3).rules
    assert trees._edge_life(TreeSubstitution(3, rules))[2].tolist() == [3, 1, 4]
    for changed, match in [
        ({3: RulePattern(3, (("X", "P1", 2), ("P1", "Y", 1)))}, "every color but 2 recolored"),
        ({2: RulePattern(2, (("P1", "X", 3), ("P1", "Y", 1), ("Y", "P2", 4)))}, "star"),
        ({2: RulePattern(2, (("P1", "X", 3), ("P1", "Y", 1)))}, "star"),
        ({3: RulePattern(3, (("X", "Y", 4),)), 4: RulePattern(4, (("X", "Y", 3),))}, "never turns 2"),
    ]:
        with pytest.raises(ValueError, match=match):
            trees._edge_life(TreeSubstitution(3, {**rules, **changed}))


def test_growth_builds_only_the_stage_trees_it_reads(monkeypatch):
    built, proven = [], ColoredTree._proven
    monkeypatch.setattr(ColoredTree, "_proven", classmethod(
        lambda cls, d, columns, root: built.append(len(columns[0]) + 1)
        or proven.__func__(cls, d, columns, root)))
    it = TreeIteration(3)
    monkeypatch.setattr(rauzy, "shared_scan", lambda d: SimpleNamespace(it=it))
    rauzy._orbit_index.__wrapped__(4, 20000)   # reads the stage-4 tree and the centers
    assert sorted(it.trees) == [0, 4] and built == [it.sizes[4]]
    assert len(it.sizes) - 1 == rauzy.orbit_stage(4, 20000)
    assert it.tree_at(4) is it.tree_at(4) and built == [it.sizes[4]]
    real = Realization(TreeIteration(3))
    real.extend_to(20)
    scan = core.CoreScan(3)
    scan.extend_to(20)
    for grown in (real.it, scan.it):
        assert sorted(grown.trees) == [0] and len(grown.sizes) == 21
    assert built == [it.sizes[4]]


_SYMBOLS = ["X", "Y", "P1", "P2", "P3"]


@st.composite
def _rule_sets(draw):
    """Small rule sets: pattern trees over X, Y and up to three
    placeholders, and in half of the sets one rule broken (missing, an
    extra edge, an edge dropped, a bad symbol, a color out of range)."""
    d = draw(st.sampled_from([3, 4]))
    broken = draw(st.none() | st.integers(1, 2 * d - 2))
    flaw = draw(st.sampled_from(["missing", "extra", "drop", "symbol", "color"]))
    rules = {}
    for color in range(1, 2 * d - 1):
        syms = draw(st.permutations(_SYMBOLS[: 2 + draw(st.integers(0, 3))]))
        edges = []
        for k in range(1, len(syms)):
            a, b = syms[k], syms[draw(st.integers(0, k - 1))]
            c = draw(st.integers(1, 2 * d - 2))
            edges.append((a, b, c) if draw(st.booleans()) else (b, a, c))
        if color == broken and flaw == "missing":
            continue
        if color == broken and flaw == "extra":
            edges.append((draw(st.sampled_from(syms)), draw(st.sampled_from(syms)), 1))
        elif color == broken and flaw == "drop":
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        elif color == broken and flaw == "symbol":
            edges[-1] = ("Q1", *edges[-1][1:])
        elif color == broken and flaw == "color":
            edges[0] = (*edges[0][:2], draw(st.sampled_from([0, 2 * d - 1])))
        rules[color] = RulePattern(color, tuple(edges))
    return TreeSubstitution(d, rules)


@settings(max_examples=150, deadline=None)
@given(ts=_rule_sets())
def test_random_rule_sets_validate_then_apply_like_the_loop(ts):
    report = ts.validate()
    tree = ColoredTree(ts.d, [(0, 1, 2)])
    if report.ok:
        for _ in range(3):
            tree = _assert_apply_matches(ts, tree)[0].tree
            _assert_numbered(tree)
        return
    assert report.failures
    # a rejected set refuses a present rule that is not a tree holding both
    # anchors (here the 2-edge's), and else gives the loop's tree or refuses
    # like the loop
    if 2 in ts.rules and not trees._anchored_tree(ts.d, ts.rules[2]):
        with pytest.raises(ValueError, match="rule 2 is not a tree holding both anchors"):
            ts.apply(tree)
        return
    try:
        edges, _ = _apply_oracle(ts, tree)
        ColoredTree(ts.d, edges)
    except ValueError:
        with pytest.raises(ValueError):
            ts.apply(tree)
    else:
        _assert_apply_matches(ts, tree)


def test_union_find_rejects_an_edge_pointed_at_a_wrong_vertex():
    tree = TreeIteration(3).tree_at(6)
    adj = adjacency(tree)
    cols = np.column_stack(tree.edges.columns)
    ColoredTree(3, cols, root=0)   # the stage itself passes
    # an edge s -> t whose ends both have other edges: pointing it at
    # another neighbour w of s keeps every vertex, so |E| = |V| - 1 still
    # holds and only the search sees the cycle s - w - s
    i = next(i for i, (s, t, _) in enumerate(tree.edges) if len(adj[s]) > 1 and len(adj[t]) > 1)
    s, t, _ = tree.edges[i]
    cols[i, 1] = next(w for w, _, _ in adj[s] if w != t)
    with pytest.raises(ValueError, match="not connected"):
        ColoredTree(3, cols, root=0)


def test_tree_check_visits_a_vertex_once_per_search():
    # a chain of 40 squares, each square one edge over a tree on its vertices,
    # and 40 apart edges: |E| = |V| - 1, and a search that kept every way into
    # a vertex would hold 2^40 copies of the last corner
    edges, v = [], 0
    for _ in range(40):
        edges += [(v, v + 1, 1), (v, v + 2, 2), (v + 1, v + 3, 2), (v + 2, v + 3, 1)]
        v += 3
    edges += [(v + 1 + 2 * k, v + 2 + 2 * k, 1) for k in range(40)]
    with pytest.raises(ValueError, match="not connected"):
        ColoredTree(3, edges)


def test_tree_check_keeps_its_search_as_the_rooted_index():
    tree = ColoredTree(3, [(0, 1, 1), (2, 0, 2), (2, 3, 3)], root=2)
    assert tree._rooted is not None
    assert tree.path_word(1, 3) == (-1, -2, 3)


def test_initial_tree_builds_each_pattern_once():
    # 2d - 2 = 278 patterns: a cache of 256 rebuilt every pattern on each of
    # the d - 1 applications of the initial-star claim
    trees._pattern_tree.cache_clear()
    assert verify.initial_star(140) == []
    assert trees._pattern_tree.cache_info().misses <= 2 * 140 - 2


def test_initial_tree_applies_no_rule(monkeypatch):
    def refuse(self, tree):
        raise AssertionError("initial_tree applied a rule")

    monkeypatch.setattr(TreeSubstitution, "apply", refuse)
    t = initial_tree(600)
    assert t.root == 0 and list(t.edges) == [(0, c, c) for c in range(1, 601)]


# -- generated stages: trees by the lemma in `TreeSubstitution.apply` ----------


@pytest.mark.parametrize("d", [3, 4, 5])
def test_generated_stages_pass_the_union_find(d):
    it = TreeIteration(d)
    for n in range(13):
        it.tree_at(n)._check_tree()   # the constructor's tree check stays the oracle


def test_generated_stages_skip_the_union_find(monkeypatch):
    checked = []
    check = ColoredTree._check_tree

    def counting(self):
        checked.append(len(self.edges))
        check(self)

    monkeypatch.setattr(ColoredTree, "_check_tree", counting)
    it = TreeIteration(3)
    it.tree_at(12)
    # only rule patterns and the stage-0 star, at most 3 edges each; stage 1 has 5
    assert len(it.tree_at(1).edges) == 5 and max(checked, default=0) <= 3
    edges = list(it.tree_at(12).edges)
    ColoredTree(3, edges)
    assert checked[-1] == len(edges)   # an outside edge list still runs it


_RECOLOR = {c: RulePattern(c, (("X", "Y", 1),)) for c in (1, 3, 4)}


@pytest.mark.parametrize(
    "pattern",
    [
        (("X", "Y", 1), ("Y", "P1", 3), ("P1", "X", 4)),                  # a cycle
        (("X", "Y", 1), ("P1", "P2", 3)),                                 # two pieces
        (("X", "Y", 1), ("Y", "P1", 3), ("P1", "X", 4), ("P2", "P3", 1)),  # both, |E| = |V| - 1
    ],
    ids=["cyclic", "disconnected", "cyclic-and-disconnected"],
)
def test_apply_refuses_a_present_pattern_that_is_not_a_tree(pattern):
    ts = TreeSubstitution(3, {**_RECOLOR, 2: RulePattern(2, pattern)})
    assert not ts.validate().ok
    with pytest.raises(ValueError, match="rule 2 is not a tree holding both anchors"):
        ts.apply(ColoredTree(3, [(0, 1, 2)]))


def test_grown_stage_checks_edge_count_and_fresh_ids(monkeypatch):
    # apply's check on its own output, fed corrupted columns in place of the
    # substituted ones: every id 0..|E| has an edge, and |V| is the old |V|
    # plus the fresh count
    ts, prev = family_tree_substitution(3), TreeIteration(3).tree_at(5)
    res = ts.apply(prev)
    prior = len(prev.vertices)   # the fresh ids are prior, prior + 1, ...
    cols = np.column_stack(res.tree.edges.columns).astype(np.int64)
    real = trees._sorted

    def apply_to(bad):
        monkeypatch.setattr(trees, "_sorted", lambda _: real(bad))
        return ts.apply(prev).tree

    assert apply_to(cols) == res.tree
    # d = 3 numbers each center, then its leaf: giving the second center the
    # first one's leaf duplicates a fresh id and leaves another unused
    dup = cols.copy()
    leaf_edge = (dup[:, 0] == prior + 2) & (dup[:, 1] == prior + 3)
    assert leaf_edge.sum() == 1
    dup[leaf_edge, 1] = prior + 1
    # the last fresh id moved one past |E|: the counts hold, the ids do not
    gap = cols.copy()
    gap[:, :2][gap[:, :2] == len(cols)] = len(cols) + 1
    # an inner edge, both ends on other edges too: lost, every id keeps an
    # edge and |V| falls short; or one end renumbered |E| + 1, so every id
    # keeps an edge, |V| holds and an id lies past |E|
    deg = res.tree.degrees()
    i = int(np.flatnonzero((deg[cols[:, 0]] > 1) & (deg[cols[:, 1]] > 1))[0])
    torn = cols.copy()
    torn[i, 1] = len(cols) + 1
    for bad in (dup, gap, np.delete(cols, i, axis=0), torn):
        with pytest.raises(ValueError, match="fresh ids"):
            apply_to(bad)


def test_tree_rejects_ids_beyond_int32():
    with pytest.raises(ValueError, match="int32"):
        ColoredTree(3, [(0, 2**31, 1)])


def test_edges_view_reads_the_columns():
    t = initial_tree(3)
    assert len(t.edges) == 3
    assert t.edges[0] == (0, 1, 1) and t.edges[-1] == (0, 3, 3)
    assert list(t.edges) == [(0, 1, 1), (0, 2, 2), (0, 3, 3)]
    assert all(type(x) is int for e in t.edges for x in e)
    with pytest.raises(IndexError):
        t.edges[3]


# -- size guard ---------------------------------------------------------------


def test_budget_refuses_by_the_growth_estimate(monkeypatch):
    monkeypatch.setattr(trees, "EDGE_BUDGET", 100)
    check_budget(3, 9)   # 3 * lambda^9, about 94 edges
    with pytest.raises(ValueError, match=r"stage 10 would hold about 137 edges .* of 100$"):
        check_budget(3, 10)
    it = TreeIteration(3)
    it.tree_at(9)
    with pytest.raises(ValueError, match="budget"):
        it.tree_at(10)
    with pytest.raises(ValueError, match="budget"):
        it.extend_to(10)
    # nothing built or grown past the budget
    assert max(it.trees) == 9 and len(it.sizes) == len(it.centers) == len(it._batch) - 1 == 10


@pytest.mark.parametrize("edges, want", [
    # the leaf edge takes color 1, so two steps give colors 2, 3, 3
    ((("P1", "X", 3), ("P1", "Y", 1), ("P1", "P2", 1)), ["colors [2, 3, 3]"]),
    # the leaf hangs from Y: the colors hold, the star does not
    ((("P1", "X", 3), ("P1", "Y", 1), ("Y", "P2", 4)), ["root degree 2"]),
    # a cycle: apply refuses the rule, and the refusal is the witness
    ((("P1", "X", 3), ("P1", "Y", 1), ("X", "Y", 4)),
     ["step 1: rule 2 is not a tree holding both anchors"]),
])
def test_initial_star_flags_a_changed_star(monkeypatch, edges, want):
    # d = 3: the 2-rule is P1 -> X (3), P1 -> Y (1) and P1 -> P2 (4)
    assert verify.initial_star(3) == []
    rules = {**family_tree_substitution(3).rules, 2: RulePattern(2, edges)}
    monkeypatch.setattr(verify, "family_tree_substitution", lambda d: TreeSubstitution(d, rules))
    assert verify.initial_star(3) == want


def test_discerned_stages_flag_a_recolored_stage(monkeypatch):
    # two out-edges of one stage-2 vertex given one color: that stage alone fails
    it = TreeIteration(3)
    tree = it.tree_at(2)
    it.tree_at(4)
    i, j = next((i, j) for i in range(len(tree.src)) for j in range(i + 1, len(tree.src))
                if tree.src[i] == tree.src[j])
    tree.color[j] = tree.color[i]
    monkeypatch.setattr(core, "shared_scan", lambda d: SimpleNamespace(it=it))
    assert verify.discerned_stages(3, 4) == ["stage 2 not discerned"]
    assert verify.discerned_stages(3, 1) == []
