"""Blossom matching against a brute-force oracle, and the star/triangle
classification with its structural error cases."""

import pytest
from hypothesis import given, settings

from conftest import graphs_st
from domgame.graphs import (
    Graph,
    enumerate_connected_graphs,
    enumerate_graphs,
    gen_cycle,
    gen_path,
    gen_petersen,
)
from domgame.matching import (
    MatchingError,
    classify_matching,
    matching_plan,
    maximum_matching,
)


def brute_matching_size(g):
    """Independent oracle: each vertex in turn stays unmatched or takes a
    free higher neighbor, pruned once the vertices left cannot beat the
    best matching found."""
    best = 0

    def rec(v, used, count):
        nonlocal best
        if v == g.n:
            best = max(best, count)
            return
        if count + (g.n - v) // 2 <= best:
            return
        rec(v + 1, used, count)
        if not used >> v & 1:
            for u in g.adj[v]:
                if u > v and not used >> u & 1:
                    rec(v + 1, used | 1 << v | 1 << u, count + 1)

    rec(0, 0, 0)
    return best


def test_c4_perfect():
    m = maximum_matching(gen_cycle(4))
    assert len(m.pairs) == 2 and not m.external


def test_p3_single_edge():
    m = maximum_matching(gen_path(3))
    assert len(m.pairs) == 1 and m.external == {2}


def test_petersen_is_five():
    assert len(maximum_matching(gen_petersen()).pairs) == 5
    assert brute_matching_size(gen_petersen()) == 5


def test_blossom_needs_contraction():
    # two triangles joined by a bridge defeats greedy augmentation without
    # blossom handling
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    assert len(maximum_matching(g).pairs) == brute_matching_size(g) == 3


@pytest.mark.parametrize("n", range(1, 9))
def test_blossom_equals_brute_force_small(n):
    for g in enumerate_graphs(n):
        assert len(maximum_matching(g).pairs) == brute_matching_size(g)


@settings(max_examples=80)
@given(graphs_st(max_n=11))
def test_blossom_equals_brute_force_random(g):
    assert len(maximum_matching(g).pairs) == brute_matching_size(g)


def test_deterministic_output():
    g = gen_cycle(6)
    assert maximum_matching(g).pairs == maximum_matching(g).pairs
    assert maximum_matching(g).pairs == ((0, 1), (2, 3), (4, 5))


def test_classify_star():
    s = classify_matching(gen_path(3), [(0, 1)])
    assert s.kinds[0].kind == "star" and s.kinds[0].center == 1
    assert s.external == {2}


def test_classify_triangle():
    s = classify_matching(gen_cycle(3), [(0, 1)])
    assert s.kinds[0].kind == "triangle"


def test_classify_bare():
    s = classify_matching(gen_cycle(4), [(0, 1), (2, 3)])
    assert all(k.kind == "bare" for k in s.kinds)


def test_classify_rejects_non_edges_and_overlaps():
    with pytest.raises(MatchingError):
        classify_matching(gen_path(3), [(0, 2)])
    with pytest.raises(MatchingError):
        classify_matching(gen_cycle(4), [(0, 1), (1, 2)])


def test_classify_rejects_non_maximum_adjacent_externals():
    # C4 with one matched edge leaves the other edge between externals
    with pytest.raises(MatchingError, match="adjacent"):
        classify_matching(gen_cycle(4), [(0, 1)])


def test_classify_rejects_augmenting_structure():
    # P4 matched in the middle: the two leaves attach to different endpoints
    with pytest.raises(MatchingError, match="distinct external"):
        classify_matching(gen_path(4), [(1, 2)])


def test_classify_triangle_with_extra_external_rejected():
    # paw graph: triangle 0-1-2 plus pendant 3 on vertex 0; matching {0,1}
    # leaves external 2 on both endpoints and external 3 on vertex 0
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    with pytest.raises(MatchingError):
        classify_matching(g, [(0, 1)])


@pytest.mark.parametrize("n", range(2, 8))
def test_structure_invariants_over_corpus(n):
    """External independence and well-defined star/triangle kinds on every
    connected graph up to 7 vertices."""
    for g in enumerate_connected_graphs(n):
        s = matching_plan(g)
        for x in s.external:
            assert not any(y in s.external for y in g.adj[x])
        for (u, v), kind in zip(s.pairs, s.kinds):
            ext_u = [x for x in g.adj[u] if x in s.external]
            ext_v = [x for x in g.adj[v] if x in s.external]
            if kind.kind == "bare":
                assert not ext_u and not ext_v
            elif kind.kind == "triangle":
                assert set(ext_u) == set(ext_v) and len(ext_u) == 1
            else:
                assert kind.center in (u, v)
                away = ext_v if kind.center == u else ext_u
                assert not away
