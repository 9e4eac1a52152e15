"""Strategy behaviors pinned move by move.  The acceptance battery certifies
the strategies on the paper's corpora, and ``test_solver.py`` checks every
certification on the n <= 6 corpus against the solver."""

import itertools
import random

import pytest
from conftest import RULE_CONFIGS, bdg, ddg, play

from domgame.cli import main
from domgame.engine import (
    BLUE,
    DOM,
    PASS,
    PURPLE,
    SEPY,
    ConfigError,
    GameConfig,
    Move,
    new_game,
)
from domgame.graphs import (
    Graph,
    corpus,
    disjoint_union,
    enumerate_isolate_free_graphs,
    gen_complete,
    gen_cycle,
    gen_path,
    nested_pair,
    relabel,
    subdivide3,
)
from domgame.solver import verify_strategy
from domgame.strategies import (
    BdgPlan,
    NotApplicable,
    StrategyViolation,
    _every_colored_has_opposite_neighbor,
    get_strategy,
    strategy_ids,
)


def move_of(sid, state, **prepare):
    """The move of strategy ``sid``, prepared for the state's game."""
    strat = get_strategy(sid)
    return strat.move(state, strat.prepare(state.config, state.graph, **prepare))


# --- opposite-neighbor play ---------------------------------------------------

def test_ons_answers_neighbor():
    st = play(new_game(ddg(SEPY), gen_cycle(4)), Move(0, PURPLE))
    assert move_of("ons", st) == Move(1, BLUE)


def test_ons_lowest_candidate_on_path():
    st = play(new_game(ddg(SEPY), gen_path(3)), Move(1, BLUE))
    assert move_of("ons", st) == Move(0, PURPLE)


def test_ons_frontier_case_when_direct_answer_blocked():
    # scripted C8 position (Dom deviates to set it up): blues at 2 and 5,
    # then Sepy takes 3 purple; vertex 4 cannot take blue (its whole closed
    # neighborhood is blue-dominated), so the frontier construction fires
    g = gen_cycle(8)
    st = play(
        new_game(ddg(SEPY), g),
        Move(2, BLUE), Move(5, BLUE), Move(3, PURPLE),
    )
    assert not st.select_legal(4, BLUE)
    mv = move_of("ons", st)
    assert mv == Move(1, PURPLE)
    assert st.select_legal(mv.vertex, mv.color)
    colors = {st.colors[u] for u in g.adj[mv.vertex]}
    assert (1 - mv.color) in colors  # opposite-colored neighbor, as required


def test_ons_single_color_case_when_nothing_undominated():
    # scripted P4 position: 1 purple, 2 blue, then Sepy takes 0 blue; only
    # vertex 3 is one-color dominated, so it receives the missing color
    st = play(
        new_game(ddg(SEPY), gen_path(4)),
        Move(1, PURPLE), Move(2, BLUE), Move(0, BLUE),
    )
    assert st.dom[PURPLE] | st.dom[BLUE] == st.graph.full_mask
    assert move_of("ons", st) == Move(3, PURPLE)


def test_ons_requires_sepy_anchor():
    st = new_game(ddg(SEPY), gen_cycle(4))
    with pytest.raises(StrategyViolation):
        move_of("ons", st)


def _opposite_neighbor_by_adjacency(state):
    """The opposite-neighbor invariant from its definition: every colored
    vertex has a neighbor of the other color."""
    vp, vb = state.vmask
    nbr = state.graph.nbr_mask
    return all(nbr[v] & (vb if vp >> v & 1 else vp)
               for v in range(state.graph.n) if (vp | vb) >> v & 1)


def test_opposite_neighbor_invariant_matches_adjacency():
    # every coloring reachable in the disjoint game, passes and long turns
    # included, on every isolate-free graph with n <= 5
    configs = [cfg for cfg in RULE_CONFIGS if cfg.variant == "ddg"]
    counts = {True: 0, False: 0}
    for n in range(2, 6):
        for g in enumerate_isolate_free_graphs(n):
            for cfg in configs:
                stack, seen = [new_game(cfg, g)], set()
                while stack:
                    state = stack.pop()
                    if state.vmask in seen:
                        continue
                    seen.add(state.vmask)
                    held = _opposite_neighbor_by_adjacency(state)
                    assert _every_colored_has_opposite_neighbor(state) == held, \
                        (cfg, g.edges(), state.vmask)
                    counts[held] += 1
                    stack.extend(child for _mv, child in state.children())
    assert counts[True] > 0 and counts[False] > 0


def test_onsp_after_pass_answers_own_vertex():
    cfg = ddg(SEPY, pass_rights="sepy")
    st = play(new_game(cfg, gen_cycle(6)), Move(0, PURPLE), Move(1, BLUE), PASS)
    mv = move_of("onsp", st)
    assert mv == Move(2, PURPLE)  # least uncolored neighbor of Dom's own vertex 1


def test_onsp_equals_ons_without_pass():
    cfg = ddg(SEPY, pass_rights="sepy")
    st = play(new_game(cfg, gen_cycle(6)), Move(3, BLUE))
    assert move_of("onsp", st) == Move(2, PURPLE)


# --- safe first move -------------------------------------------------------------

def test_safe_start_on_paths():
    for n in range(2, 8):
        st = new_game(ddg(DOM), gen_path(n))
        assert move_of("dom-start-safe", st) == Move(0 if n == 2 else 1, PURPLE)


def test_safe_start_on_complete():
    st = new_game(ddg(DOM), gen_complete(4))
    assert move_of("dom-start-safe", st) == Move(0, PURPLE)


def test_safe_start_not_applicable_on_c8():
    st = new_game(ddg(DOM), gen_cycle(8))
    with pytest.raises(NotApplicable):
        move_of("dom-start-safe", st)


def test_safe_start_opens_on_the_nested_pair_vertex():
    strat = get_strategy("dom-start-safe")
    opened = 0
    for g in corpus("connected:7"):
        v = nested_pair(g)
        if v is None:
            with pytest.raises(NotApplicable):
                strat.prepare(ddg(DOM), g)
        else:
            assert strat.prepare(ddg(DOM), g) == v
            opened += 1
    assert opened == 1 + 2 + 5 + 19 + 103 + 807


def test_safe_start_delegates_afterwards():
    st = play(new_game(ddg(DOM), gen_path(4)), Move(1, PURPLE), Move(3, BLUE))
    mv = move_of("dom-start-safe", st)
    assert mv == Move(2, PURPLE)  # answer next to Sepy's vertex


# --- pass-based component play -----------------------------------------------------

def test_dom_pass_follows_sepy_component():
    g = disjoint_union(gen_cycle(4), gen_cycle(8))
    cfg = ddg(SEPY, pass_rights="dom")
    st = play(new_game(cfg, g), Move(4, PURPLE))  # Sepy opens inside C8
    mv = move_of("dom-pass", st)
    assert mv.vertex in range(4, 12)


def test_dom_pass_passes_when_component_done():
    g = disjoint_union(gen_path(2), gen_cycle(8))
    cfg = ddg(SEPY, pass_rights="dom")
    # K2 component: two selections finish it; Sepy made the last move there
    st = play(new_game(cfg, g), Move(0, PURPLE), Move(2, PURPLE), Move(1, BLUE))
    assert st.actor == DOM
    assert move_of("dom-pass", st) == PASS


def test_dom_pass_opens_dom_win_component():
    g = disjoint_union(gen_cycle(4), gen_cycle(8))
    cfg = ddg(DOM, pass_rights="dom")
    st = new_game(cfg, g)
    mv = move_of("dom-pass", st)
    assert mv.vertex in range(4)  # the C4 side is the Dom-win component


def test_dom_pass_not_applicable_without_dom_win_component():
    cfg = ddg(DOM, pass_rights="dom")
    st = new_game(cfg, gen_cycle(8))
    with pytest.raises(NotApplicable):
        move_of("dom-pass", st)


# --- biased play ---------------------------------------------------------------------

def test_biased_opens_then_answers():
    cfg = ddg(DOM, d=2, s=1)
    g = disjoint_union(gen_cycle(4), gen_cycle(6))
    st = new_game(cfg, g)
    m1 = move_of("biased-dom", st)
    assert m1 == Move(0, PURPLE)
    st = st.apply(m1)
    assert move_of("biased-dom", st) == Move(1, BLUE)


def test_biased_pure_answering_on_connected():
    cfg = ddg(SEPY, d=2, s=1)
    st = play(new_game(cfg, gen_cycle(8)), Move(0, PURPLE))
    assert move_of("biased-dom", st) == Move(1, BLUE)


def test_biased_redirects_final_completion_to_fresh_component():
    cfg = ddg(DOM, d=2, s=1)
    g = disjoint_union(gen_path(2), gen_path(3))
    st = new_game(cfg, g)
    # turn 1: open K2 and answer it
    st = play(st, move_of("biased-dom", st))
    st = play(st, move_of("biased-dom", st))
    assert [m for _a, m in st.history] == [Move(0, PURPLE), Move(1, BLUE)]
    assert st.winner is None and st.actor == SEPY
    st = st.apply(PASS)
    # turn 2: opposite-neighbor play has no move (K2 done), so Dom must open
    # the fresh P3 and answer inside it rather than stranding a lone opener
    m3 = move_of("biased-dom", st)
    st = st.apply(m3)
    m4 = move_of("biased-dom", st)
    st = st.apply(m4)
    assert m3.vertex in (2, 3, 4) and m4.vertex in (2, 3, 4)
    assert m4.color == 1 - m3.color


def test_biased_skips_completion_when_two_left():
    # engineered position: K2 one move from completion, fresh P3 waiting,
    # exactly two selections in hand -> both go to the fresh component
    cfg = ddg(SEPY, d=2, s=1)
    g = disjoint_union(gen_path(2), gen_path(3))
    st = play(new_game(cfg, g), Move(0, PURPLE))  # Sepy opens K2
    assert st.actor == DOM and st.config.d - st.selections_done == 2
    m1 = move_of("biased-dom", st)
    assert m1.vertex in (2, 3, 4)  # completion (1, blue) deferred: K2 is safe
    st = st.apply(m1)
    m2 = move_of("biased-dom", st)
    assert m2.vertex in (2, 3, 4) and m2.color == 1 - m1.color


# --- bicolored strategies ---------------------------------------------------------------

def test_bdg_matching_partner_reply():
    g = gen_cycle(4)
    plan = BdgPlan.build(g)
    st = play(new_game(bdg(SEPY), g), Move(0, BLUE))
    assert get_strategy("bdg-matching").move(st, plan) == Move(1, PURPLE)


def test_bdg_matching_opens_untouched_pair():
    g = gen_cycle(4)
    plan = BdgPlan.build(g)
    st = new_game(bdg(DOM), g)
    assert get_strategy("bdg-matching").move(st, plan) == Move(0, PURPLE)


def test_bdg_matching_not_applicable_without_perfect_matching():
    strat = get_strategy("bdg-matching")
    with pytest.raises(NotApplicable):
        strat.prepare(bdg(DOM), gen_path(3))


def test_bdg_general_opens_star_center():
    g = gen_path(3)
    plan = BdgPlan.build(g)
    st = new_game(bdg(DOM), g)
    assert get_strategy("bdg-general").move(st, plan) == Move(1, PURPLE)


def test_bdg_general_partner_reply_on_bare_edge():
    g = gen_cycle(4)
    plan = BdgPlan.build(g)
    st = play(new_game(bdg(SEPY), g), Move(2, BLUE))
    assert get_strategy("bdg-general").move(st, plan) == Move(3, PURPLE)


def test_bdg_general_postpones_externals():
    # star K1,3: matching edge (0,1) with center 0, externals 2 and 3
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    plan = BdgPlan.build(g)
    assert plan.external_mask == 0b1100
    st = play(new_game(bdg(SEPY), g), Move(2, BLUE))
    mv = get_strategy("bdg-general").move(st, plan)
    assert mv == Move(0, PURPLE)  # the center, not an external vertex


# --- Sepy's constructions ------------------------------------------------------------------

def test_cycle_strategy_canonical_line_near():
    st = play(new_game(ddg(DOM), gen_cycle(8)), Move(0, PURPLE))
    assert move_of("sepy-cycle", st) == Move(1, PURPLE)
    st = play(st, Move(1, PURPLE), Move(3, BLUE))  # Dom's second at position 4
    mv = move_of("sepy-cycle", st)
    assert mv == Move(7, PURPLE)
    assert play(st, mv).winner == SEPY


def test_cycle_strategy_canonical_line_far():
    st = play(new_game(ddg(DOM), gen_cycle(8)),
              Move(0, PURPLE), Move(1, PURPLE), Move(5, PURPLE))
    mv = move_of("sepy-cycle", st)
    assert mv == Move(2, PURPLE)
    assert play(st, mv).winner == SEPY


def test_cycle_strategy_normalizes_any_opening():
    st = play(new_game(ddg(DOM), gen_cycle(8)), Move(2, BLUE))
    mv = move_of("sepy-cycle", st)
    assert mv == Move(1, BLUE)  # lesser neighbor of 2, echoing Dom's color
    st = play(st, mv, Move(4, PURPLE))
    mv2 = move_of("sepy-cycle", st)
    assert play(st, mv2).winner == SEPY


@pytest.mark.parametrize("n", range(8, 13))
def test_cycle_strategy_wins_on_relabelled_cycles(n):
    # the replies walk the cycle from Dom's opening through its lesser
    # neighbor, whatever the labels
    rng = random.Random(n)
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        rep = verify_strategy("sepy-cycle", SEPY, ddg(DOM), relabel(gen_cycle(n), perm))
        assert rep.verified and rep.max_plies <= 4, perm


def test_cycle_strategy_not_applicable_on_short_cycles():
    strat = get_strategy("sepy-cycle")
    with pytest.raises(NotApplicable):
        strat.prepare(ddg(DOM), gen_cycle(7))


def test_subdiv_strategy_double_threat():
    base = gen_complete(4)
    sub, smap = subdivide3(base)
    st = new_game(ddg(DOM), sub)
    x = smap.edge_points[(0, 1)][0]
    st = st.apply(Move(x, PURPLE))
    mv = move_of("sepy-subdiv", st, submap=smap)
    assert mv == Move(smap.inner_partner(x), PURPLE)


def test_subdiv_strategy_fans_out_from_base_vertex():
    base = gen_cycle(4)
    sub, smap = subdivide3(base)
    st = new_game(ddg(DOM), sub).apply(Move(0, PURPLE))
    mv = move_of("sepy-subdiv", st, submap=smap)
    nears = sorted(near for near, _f, _o in smap.paths_at(0))
    assert mv == Move(nears[0], PURPLE)


def test_subdiv_strategy_rejects_mismatched_map():
    _, smap = subdivide3(gen_cycle(3))
    strat = get_strategy("sepy-subdiv")
    # the subdivided triangle is a 9-cycle only up to relabeling, so the map
    # does not describe gen_cycle(9) itself
    with pytest.raises(NotApplicable):
        strat.prepare(ddg(DOM), gen_cycle(9), submap=smap)


def test_subdiv_strategy_takes_immediate_win():
    base = gen_cycle(4)
    sub, smap = subdivide3(base)
    x, y = smap.edge_points[(0, 1)]
    st = play(new_game(ddg(DOM), sub), Move(x, PURPLE), Move(y, PURPLE))
    # Dom wanders off; either end of the path now wins immediately
    far = smap.edge_points[(2, 3)][0]
    st = st.apply(Move(far, BLUE))
    mv = move_of("sepy-subdiv", st, submap=smap)
    assert play(st, mv).winner == SEPY


# --- baselines --------------------------------------------------------------------------------

def test_random_is_deterministic_per_seed():
    st = new_game(ddg(DOM), gen_cycle(6))
    assert move_of("random", st, seed=7) == move_of("random", st, seed=7)


def test_greedy_prefers_immediate_win():
    st = play(new_game(ddg(DOM), gen_cycle(8)),
              Move(0, PURPLE), Move(1, PURPLE), Move(3, BLUE))
    mv = move_of("greedy", st, seed=0)
    assert play(st, mv).winner == SEPY


def test_greedy_falls_back_to_random():
    st = new_game(ddg(DOM), gen_cycle(6))
    assert move_of("greedy", st, seed=5) == move_of("random", st, seed=5)


def test_registry_aliases():
    # strategies are known by their ids alone: no aliases, no "_" spelling
    for old in ("cycle", "subdiv", "greedy-win", "bdg_general", "nonesuch"):
        with pytest.raises(KeyError):
            get_strategy(old)
        assert main(["verify", "--strategy", old, "--role", "sepy",
                     "--graph", "cycle:8", "--start", "dom"]) == 1


# --- applicability ------------------------------------------------------------------------------

def _valid_configs():
    out = []
    for variant, starter, d, s, rights in itertools.product(
            ("ddg", "bdg"), (DOM, SEPY), (1, 2, 3), (1, 2), ("none", DOM, SEPY)):
        try:
            out.append(GameConfig(variant, starter, d=d, s=s, pass_rights=rights))
        except ConfigError:
            pass
    return out


VALID_CONFIGS = _valid_configs()
RIGHTS = ("none", DOM, SEPY)
BDG_CONFIGS = {bdg(start, pass_rights=r) for start in (DOM, SEPY) for r in RIGHTS}
C3_SUB, C3_SUBMAP = subdivide3(gen_cycle(3))

# strategy id -> (graph, prepare keywords, the configs prepare accepts there)
APPLICABILITY = {
    "ons": (gen_cycle(8), {}, {ddg(SEPY)}),
    "onsp": (gen_cycle(8), {}, {ddg(SEPY, pass_rights=r) for r in RIGHTS}),
    "dom-start-safe": (gen_path(4), {}, {ddg(DOM, pass_rights=r) for r in RIGHTS}),
    "dom-pass": (gen_cycle(4), {}, {ddg(start, pass_rights=DOM) for start in (DOM, SEPY)}),
    "biased-dom": (gen_cycle(8), {}, {ddg(start, d=d, pass_rights=r) for start in (DOM, SEPY)
                                      for d in (2, 3) for r in ("none", SEPY)}),
    "bdg-matching": (gen_cycle(8), {}, BDG_CONFIGS),
    "bdg-general": (gen_cycle(8), {}, BDG_CONFIGS),
    "sepy-cycle": (gen_cycle(8), {}, {ddg(DOM)}),
    "sepy-subdiv": (C3_SUB, {"submap": C3_SUBMAP}, {ddg(DOM)}),
    "random": (gen_cycle(8), {}, set(VALID_CONFIGS)),
    "greedy": (gen_cycle(8), {}, set(VALID_CONFIGS)),
}


@pytest.mark.parametrize("sid", strategy_ids())
def test_each_strategy_accepts_exactly_its_games(sid):
    assert len(VALID_CONFIGS) == 32
    graph, keywords, expected = APPLICABILITY[sid]
    strat = get_strategy(sid)
    accepted = set()
    for cfg in VALID_CONFIGS:
        try:
            strat.prepare(cfg, graph, **keywords)
        except NotApplicable:
            continue
        accepted.add(cfg)
    assert accepted == expected
