import random

from hypothesis import strategies as st

from domgame.engine import BLUE, DOM, PURPLE, SEPY, GameConfig
from domgame.graphs import Graph, bits

# pass rights and (2:1) reach the kernel's pass and mid-turn branches
RULE_CONFIGS = (
    GameConfig("ddg", DOM), GameConfig("ddg", SEPY), GameConfig("bdg", DOM),
    GameConfig("bdg", SEPY), GameConfig("ddg", SEPY, pass_rights="sepy"),
    GameConfig("ddg", DOM, pass_rights="dom"), GameConfig("ddg", DOM, d=2),
    GameConfig("ddg", SEPY, d=2),
)


def ddg(starter, **kw):
    return GameConfig(variant="ddg", starter=starter, **kw)


def bdg(starter, **kw):
    return GameConfig(variant="bdg", starter=starter, **kw)


def play(state, *moves):
    for mv in moves:
        state = state.apply(mv)
    return state


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


def assert_state_sound(state):
    """Rule-level invariants of one state: the dominated masks match a
    recount of the colored vertices, the two win conditions never coincide,
    a Sepy win shows a monochromatic neighborhood, and in the disjoint game
    a Dom win is well formed and an ongoing state has no monochromatic
    neighborhood and strands neither player: each can select."""
    g = state.graph
    mono = None
    for c in (PURPLE, BLUE):
        recount = 0
        for v in bits(state.vmask[c]):
            recount |= g.closed_mask[v]
            if g.closed_mask[v] & ~state.vmask[c] == 0:
                mono = (v, c)
        assert state.dom[c] == recount, \
            "dominated mask diverged from a recount of the colored vertices"
    both_dominating = state.dom[PURPLE] == state.dom[BLUE] == g.full_mask
    assert not (mono and both_dominating), \
        "a monochromatic neighborhood coexists with two dominating classes"
    if state.winner == SEPY:
        assert mono is not None, "Sepy win without a monochromatic neighborhood"
    if state.config.variant == "ddg":
        if state.winner == DOM:
            assert both_dominating and mono is None, "malformed Dom win"
        if state.winner is None:
            assert state.legal_moves(), "ongoing state with no moves"
            assert mono is None, "ongoing state already monochromatic"
            masks = (*state.vmask, *state.dom)
            assert all(state.rules.has_select(*masks, player) for player in (DOM, SEPY)), \
                "a player is stranded in an ongoing disjoint game"
