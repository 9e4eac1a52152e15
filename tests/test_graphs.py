"""Graph core: construction, generators, components, subdivision, and the
enumeration machinery checked against an independent labeled sweep."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_bipartite, graphs_st
from domgame.graphs import (
    Graph,
    GraphError,
    automorphisms,
    bits,
    canonical_key,
    disjoint_union,
    enumerate_connected_graphs,
    enumerate_graphs,
    enumerate_isolate_free_graphs,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_petersen,
    graph_from_canonical,
    is_connected,
    nested_pair,
    relabel,
    subdivide3,
)


def test_from_edge_list_k2():
    g = Graph(2, [(0, 1)])
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_from_edge_list_c4():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.m == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(3, [(0, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, [(0, 3)])


def test_duplicate_edges_collapse():
    g = Graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def _closed_neighborhood(g, v):
    return set(bits(g.closed_mask[v]))


def test_closed_neighborhood_examples():
    assert _closed_neighborhood(gen_cycle(4), 0) == {3, 0, 1}
    assert _closed_neighborhood(gen_complete(4), 2) == {0, 1, 2, 3}
    assert _closed_neighborhood(gen_path(3), 0) == {0, 1}


def test_components_union():
    g = disjoint_union(gen_cycle(4), gen_cycle(8))
    comps = g.component_masks()
    assert sorted(m.bit_count() for m in comps) == [4, 8]
    assert comps[0] & 1  # ordered by smallest member


def test_components_connected():
    assert gen_complete(5).component_masks() == (0b11111,)
    assert is_connected(gen_complete(5))
    assert not is_connected(disjoint_union(gen_path(2), gen_path(2)))


@given(graphs_st(max_n=9))
def test_adjacency_symmetry_and_closed_membership(g):
    for v in range(g.n):
        for u in range(g.n):
            in_nv = u in _closed_neighborhood(g, v)
            in_nu = v in _closed_neighborhood(g, u)
            assert in_nv == in_nu


def test_generators():
    c8 = gen_cycle(8)
    assert c8.n == 8 and c8.m == 8 and all(c8.degree(v) == 2 for v in range(8))
    assert gen_path(2) == Graph(2, [(0, 1)])
    k4 = gen_complete(4)
    assert k4.m == 6
    with pytest.raises(GraphError):
        gen_cycle(2)
    with pytest.raises(GraphError):
        gen_path(1)
    with pytest.raises(GraphError):
        gen_complete(1)


def test_disjoint_union_relabels():
    g = disjoint_union(gen_cycle(4), gen_cycle(8))
    assert g.n == 12 and g.m == 12
    assert (4, 5) in g.edges()


def _nested_pair_by_sets(g):
    closed = [set(g.adj[v]) | {v} for v in range(g.n)]
    for v in range(g.n):
        if any(u != v and closed[u] <= closed[v] for u in range(g.n)):
            return v
    return None


@pytest.mark.parametrize("n", range(1, 8))
def test_nested_pair_matches_a_set_definition(n):
    # every graph, disconnected ones included
    for g in enumerate_graphs(n):
        assert nested_pair(g) == _nested_pair_by_sets(g)


def test_nested_pair_examples():
    assert nested_pair(gen_path(3)) == 1
    assert nested_pair(gen_complete(3)) == 0
    assert nested_pair(gen_cycle(5)) is None
    assert nested_pair(Graph(1)) is None


def test_petersen_shape():
    g = gen_petersen()
    assert g.n == 10 and g.m == 15 and all(g.degree(v) == 3 for v in range(10))


def test_subdivide_triangle_gives_nine_cycle():
    sub, smap = subdivide3(gen_cycle(3))
    assert sub.n == 9 and sub.m == 9
    assert is_connected(sub) and all(sub.degree(v) == 2 for v in range(9))
    assert len(smap.edge_points) == 3


def test_subdivide_k2_gives_p4():
    sub, _ = subdivide3(gen_path(2))
    assert sub.n == 4 and sub.m == 3
    assert sorted(sub.degree(v) for v in range(4)) == [1, 1, 2, 2]
    assert is_connected(sub)


def test_subdivide_k4_counts():
    sub, smap = subdivide3(gen_complete(4))
    assert sub.n == 4 + 2 * 6 == 16
    assert sub.m == 3 * 6 == 18
    # w-x-y-z really is a path for every base edge
    for (w, z), (x, y) in smap.edge_points.items():
        assert sub.has_edge(w, x) and sub.has_edge(x, y) and sub.has_edge(y, z)
        assert sub.degree(x) == 2 and sub.degree(y) == 2


@pytest.mark.parametrize("k", [3, 4, 5])
def test_subdivided_cycles_are_longer_cycles(k):
    sub, _ = subdivide3(gen_cycle(k))
    assert sub.n == 3 * k and is_connected(sub)
    assert all(sub.degree(v) == 2 for v in range(sub.n))


def test_subdivision_map_queries():
    sub, smap = subdivide3(gen_path(2))
    (x, y) = smap.edge_points[(0, 1)]
    assert smap.inner_partner(x) == y and smap.inner_partner(y) == x
    assert smap.is_sub_vertex(x) and not smap.is_sub_vertex(0)
    assert smap.paths_at(0) == [(x, y, 1)]


# --- enumeration against an independent labeled sweep ------------------------

def _sweep_connected_count(n):
    """Brute force: all 2^C(n,2) labeled graphs, deduplicated by the orbit
    of the adjacency bitstring under all vertex permutations."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    count = 0
    for sub in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if sub >> i & 1]
        g = Graph(n, edges)
        if not is_connected(g):
            continue
        canon = min(
            tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
            for p in itertools.permutations(range(n))
        )
        if canon not in seen:
            seen.add(canon)
            count += 1
    return count


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 6), (5, 21)])
def test_connected_counts_match_sweep(n, expected):
    assert _sweep_connected_count(n) == expected
    assert len(enumerate_connected_graphs(n)) == expected


def test_connected_count_n6_known_value():
    assert len(enumerate_connected_graphs(6)) == 112


def test_connected_count_n7_known_value():
    assert len(enumerate_connected_graphs(7)) == 853


def test_connected_count_n8_known_value():
    assert len(enumerate_connected_graphs(8)) == 11117


def test_all_graph_counts_known_values():
    # OEIS A000088
    assert [len(enumerate_graphs(n)) for n in range(1, 9)] == \
        [1, 2, 4, 11, 34, 156, 1044, 12346]


def test_isolate_free_counts():
    # graphs with an isolate on n vertices correspond to all graphs on n-1
    assert len(enumerate_isolate_free_graphs(6)) == 156 - 34


def test_enumeration_range_check():
    with pytest.raises(GraphError):
        enumerate_connected_graphs(9)


def test_enumeration_is_deduplicated():
    keys = [canonical_key(g) for g in enumerate_graphs(5)]
    assert len(keys) == len(set(keys))


def _unpruned_enumeration(n):
    """Reference: every attachment set of every (n-1)-vertex representative,
    deduplicated by canonical key, with no pruning at all."""
    if n == 1:
        return (Graph(1),)
    seen = set()
    for parent in _unpruned_enumeration(n - 1):
        for attach in range(1 << (n - 1)):
            edges = parent.edges() + [(u, n - 1) for u in range(n - 1) if attach >> u & 1]
            seen.add(canonical_key(Graph(n, edges)))
    return tuple(graph_from_canonical(k) for k in sorted(seen))


@pytest.mark.parametrize("n", range(1, 7))
def test_pruned_enumeration_equals_unpruned_reference(n):
    assert enumerate_graphs(n) == _unpruned_enumeration(n)


def test_enumeration_keys_exactly_the_pruned_candidates(monkeypatch):
    """Cold, the enumeration keys one candidate per Aut(P)-orbit of the
    attachment sets A of each parent P whose new vertex has minimum degree,
    namely the orbit's least set, in parent order and ascending A."""
    import domgame.graphs as graphs

    keyed = []

    def recording_key(g):
        keyed.append(g)
        return canonical_key(g)

    monkeypatch.setattr(graphs, "_all_graphs_cache", {})
    monkeypatch.setattr(graphs, "canonical_key", recording_key)
    graphs.enumerate_graphs(6)
    expected = []
    for n in range(2, 7):
        for parent in enumerate_graphs(n - 1):
            group = _brute_automorphisms(parent)
            for attach in range(1 << (n - 1)):
                members = [u for u in range(n - 1) if attach >> u & 1]
                if any(len(members) > parent.degree(u) + (u in members) for u in range(n - 1)):
                    continue
                if any(sum(1 << p[u] for u in members) < attach for p in group):
                    continue
                expected.append(Graph(n, parent.edges() + [(u, n - 1) for u in members]))
    assert keyed == expected


@settings(max_examples=60)
@given(graphs_st(max_n=7), st.randoms(use_true_random=False))
def test_canonical_key_is_isomorphism_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_key(g) == canonical_key(relabel(g, perm))


def test_canonical_key_separates_non_isomorphic():
    assert canonical_key(gen_path(4)) != canonical_key(Graph(4, [(0, 1), (1, 2), (1, 3)]))


# --- automorphisms ----------------------------------------------------------------

def _brute_automorphisms(g):
    edges = set(g.edges())
    return {p for p in itertools.permutations(range(g.n))
            if p != tuple(range(g.n))
            and all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)}


def test_automorphisms_match_brute_force():
    for n in range(2, 7):
        for g in enumerate_isolate_free_graphs(n):
            found = automorphisms(g, 10**6)
            assert len(found) == len(set(found)), g.edges()
            assert set(found) == _brute_automorphisms(g), g.edges()


@pytest.mark.parametrize("g, order", [
    (gen_cycle(5), 10),
    (gen_cycle(8), 16),
    (gen_cycle(13), 26),
    (gen_petersen(), 120),
    (complete_bipartite(3, 3), 72),
    (disjoint_union(gen_cycle(4), gen_cycle(8)), 128),
])
def test_automorphism_group_orders(g, order):
    found = automorphisms(g, 10**6)
    assert len(found) == len(set(found)) == order - 1
    assert tuple(range(g.n)) not in found
    assert all(relabel(g, img) == g for img in found)


def test_automorphisms_respect_the_limit():
    g = gen_petersen()
    whole = automorphisms(g, 10**6)
    for limit in (0, 1, 5, 119, 500):
        found = automorphisms(g, limit)
        assert len(found) == min(limit, 119)
        assert set(found) <= set(whole)
    assert automorphisms(gen_path(2), 0) == []


@settings(max_examples=60, deadline=None)
@given(graphs_st(max_n=7), st.randoms(use_true_random=False))
def test_automorphism_count_is_labelling_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert len(automorphisms(relabel(g, perm), 10**6)) == len(automorphisms(g, 10**6))
