"""Colored trees, substitution rules, iteration, provenance."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesubst.freegroup import family_inverse, p_star
from treesubst import trees
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
from treesubst.core import _hull


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


def _hull_oracle(tree, vertices):
    """Vertex set of the smallest subtree containing `vertices`, by peeling
    every other leaf."""
    if not vertices:
        return set()
    adj = tree.adjacency()
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
    """A tree of 2..60 vertices with random colors, arrows, root and ids."""
    size = draw(st.integers(2, 60))
    if draw(st.booleans()):
        ids = list(range(size))
    else:
        ids = draw(st.lists(st.integers(-100, 10_000), min_size=size, max_size=size, unique=True))
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
    adj = tree.adjacency()
    for _ in range(5):
        x = data.draw(st.sampled_from(tree.vertices))
        y = data.draw(st.sampled_from(tree.vertices))
        steps = tree.path(x, y)
        assert steps == _path_oracle(adj, x, y)
        word = tree.path_word(x, y)
        assert word == tuple(sc for _, sc in steps)
        assert tree.path_word(y, x) == tuple(-c for c in reversed(word))


@settings(max_examples=80, deadline=None)
@given(tree=_random_tree(), data=st.data())
def test_hull_matches_leaf_peeling(tree, data):
    vertices = data.draw(st.sets(st.sampled_from(tree.vertices)))
    assert _hull(tree, vertices) == _hull_oracle(tree, vertices)


def test_is_discerned_local_rule():
    good = ColoredTree(3, [(0, 1, 1), (0, 2, 1)])     # same color, both out: clash
    assert not good.is_discerned()
    ok = ColoredTree(3, [(0, 1, 1), (2, 0, 1)])       # in + out may share a color
    assert ok.is_discerned()


def test_initial_tree_is_star():
    for d in (3, 4, 5):
        t0 = initial_tree(d)
        assert len(t0.edges) == d
        assert sorted(c for _, _, c in t0.edges) == list(range(1, d + 1))
        assert t0.degree(t0.root) == d
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
    # the record is built without adjacency, and none is left on the new trees
    assert all(t._adj is None for t in it.trees[1:])
    for n in range(1, 9):
        tree = it.tree_at(n)
        born = [v for v in tree.vertices if it.birth_stage(v) == n]
        centers = [v for v in born if tree.degree(v) == d]
        leaves = {v for v in born if tree.degree(v) == 1}
        record = it.centers[n]
        assert [c.vertex for c in record] == sorted(centers)
        assert {z for c in record for z in c.leaves} == leaves
        for c in record:
            nbr = {sc: w for w, sc, _ in tree.adjacency()[c.vertex]}
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
        seen |= fresh
    for v in (-1, len(it.tree_at(6).vertices)):
        with pytest.raises(ValueError, match="not a vertex"):
            it.birth_stage(v)


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
        adj = deep.adjacency()
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
    data = json.loads(json.dumps(t.to_json()))
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
    """apply(tree) equals the per-edge loop, edge for edge and birth for birth."""
    got = ts.apply(tree)
    edges, born = _apply_oracle(ts, tree)
    assert list(got.tree.edges) == edges
    assert got.tree.root == tree.root
    first = max(tree.vertices) + 1 if tree.vertices else 0
    assert {first + i: e for i, e in enumerate(got.born.tolist())} == born
    return got, born


@pytest.mark.parametrize("d", [3, 4, 5])
def test_apply_and_centers_match_per_edge_loop(d):
    ts = family_tree_substitution(d)
    it = TreeIteration(d)
    prev = it.tree_at(0)
    for n in range(1, 13):
        res, born = _assert_apply_matches(ts, prev)
        tree = it.tree_at(n)
        assert list(tree.edges) == list(res.tree.edges)
        assert len(tree.vertices) == it.sizes[n]
        assert list(it.centers[n]) == _centers_oracle(d, list(prev.edges), born)
        prev = tree


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
        return
    assert report.failures
    # a rejected set either gives the loop's tree or refuses like the loop
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
    adj = tree.adjacency()
    cols = np.column_stack(tree.edges.columns)
    ColoredTree(3, cols, root=0)   # the stage itself passes
    # an edge s -> t whose ends both have other edges: pointing it at
    # another neighbour w of s keeps every vertex, so |E| = |V| - 1 still
    # holds and only the union-find sees the cycle s - w - s
    i = next(i for i, (s, t, _) in enumerate(tree.edges) if len(adj[s]) > 1 and len(adj[t]) > 1)
    s, t, _ = tree.edges[i]
    cols[i, 1] = next(w for w, _, _ in adj[s] if w != t)
    with pytest.raises(ValueError, match="not connected"):
        ColoredTree(3, cols, root=0)


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
    assert len(it.trees) == 10 and len(it.centers) == 10   # nothing built past the budget
