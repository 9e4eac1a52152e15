import random

from hypothesis import strategies as st

from domgame.engine import DOM, SEPY, GameConfig
from domgame.graphs import Graph

# pass rights and (2:1) reach the kernel's pass and mid-turn branches
RULE_CONFIGS = (
    GameConfig("ddg", DOM), GameConfig("ddg", SEPY), GameConfig("bdg", DOM),
    GameConfig("bdg", SEPY), GameConfig("ddg", SEPY, pass_rights="sepy"),
    GameConfig("ddg", DOM, pass_rights="dom"), GameConfig("ddg", DOM, d=2),
    GameConfig("ddg", SEPY, d=2),
)


@st.composite
def graphs_st(draw, min_n=1, max_n=10, isolate_free=False):
    """Random simple graphs; optionally resampled edges until isolate-free."""
    n = draw(st.integers(min_value=max(min_n, 2 if isolate_free else min_n), max_value=max_n))
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(all_edges), unique=True) if all_edges else st.just([]))
    g = Graph(n, picks)
    if isolate_free and g.has_isolates():
        extra = set(picks)
        for v in range(n):
            if not g.adj[v]:
                u = (v + 1) % n
                extra.add((min(u, v), max(u, v)))
        g = Graph(n, sorted(extra))
    return g


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with sides 0..a-1 and a..a+b-1."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_playout(state, rng: random.Random):
    """Play uniformly random legal moves to the end; returns the final state."""
    while state.winner is None:
        moves = state.legal_moves()
        state = state.apply(moves[rng.randrange(len(moves))])
    return state
