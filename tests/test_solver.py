"""Exact solver: winners, best moves, state keys, memo soundness, resource
bounds, and the verification walk (including its failure path)."""

import itertools
import random
import tracemalloc

import pytest

from conftest import RULE_CONFIGS, bdg, complete_bipartite, ddg
from domgame import solver
from domgame.engine import (
    BLUE,
    DOM,
    PURPLE,
    SEPY,
    ConfigError,
    GameConfig,
    Move,
    new_game,
    trace_lines,
)
from domgame.graphs import (
    automorphisms,
    corpus,
    disjoint_union,
    enumerate_isolate_free_graphs,
    gen_complete,
    gen_cycle,
    gen_path,
    relabel,
)
from domgame.solver import (
    ResourceLimitError,
    Solver,
    solve,
    verify_strategy,
)
from domgame.strategies import NotApplicable, StrategyViolation, get_strategy


# --- winners -------------------------------------------------------------------

def test_k2_dom_wins():
    assert solve(ddg(DOM), gen_path(2)).winner == DOM
    assert solve(ddg(SEPY), gen_path(2)).winner == DOM


def test_c8_winners_depend_on_starter():
    assert solve(ddg(DOM), gen_cycle(8)).winner == SEPY
    assert solve(ddg(SEPY), gen_cycle(8)).winner == DOM


def test_c4_always_dom():
    assert solve(ddg(DOM), gen_cycle(4)).winner == DOM
    assert solve(ddg(SEPY), gen_cycle(4)).winner == DOM


def test_small_cycles_dom_start_regression():
    # no general claim covers 3 <= n <= 7; solver output frozen as fixtures
    expected = {3: DOM, 4: DOM, 5: DOM, 6: DOM, 7: DOM}
    for n, winner in expected.items():
        assert solve(ddg(DOM), gen_cycle(n)).winner == winner


def test_c4c8_passing_flip():
    g = disjoint_union(gen_cycle(4), gen_cycle(8))
    assert solve(ddg(SEPY, pass_rights="sepy"), g).winner == SEPY
    assert solve(ddg(SEPY), g).winner == DOM


def test_bdg_small_graphs_dom():
    for g in (gen_path(3), gen_cycle(5), gen_complete(4)):
        assert solve(bdg(DOM), g).winner == DOM
        assert solve(bdg(SEPY), g).winner == DOM


def test_solve_from_midgame_state():
    g = gen_path(3)
    state = new_game(ddg(DOM), g).apply(Move(0, PURPLE))
    # 0 purple loses for Dom (Sepy answers 1 purple)
    assert solve(ddg(DOM), g, state).winner == SEPY


def test_state_of_another_game_is_a_config_error():
    state = new_game(ddg(DOM), gen_cycle(5))
    with pytest.raises(ConfigError, match="does not belong"):
        solve(ddg(DOM), gen_cycle(6), state)
    with pytest.raises(ConfigError, match="does not belong"):
        solve(ddg(SEPY), gen_cycle(5), state)
    with pytest.raises(ConfigError, match="does not belong"):
        Solver(ddg(DOM), gen_cycle(6)).result(state)


def test_winners_survive_relabelling():
    # 100 seeded relabellings each of C8 in both starts and of the
    # Sepy-start bicolored C6
    rng = random.Random(999)
    for g, cfg in ((gen_cycle(8), ddg(DOM)), (gen_cycle(8), ddg(SEPY)), (gen_cycle(6), bdg(SEPY))):
        winner = solve(cfg, g).winner
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert solve(cfg, relabel(g, perm)).winner == winner, (cfg, perm)


# --- best moves -------------------------------------------------------------------

def test_best_move_k2():
    res = solve(ddg(DOM), gen_path(2))
    assert res.best_move == Move(0, PURPLE) and res.winner == DOM


def test_best_move_p3_safe_vertex():
    res = solve(ddg(DOM), gen_path(3))
    assert res.best_move == Move(1, PURPLE) and res.winner == DOM


def test_best_move_lost_position_annotated():
    res = solve(ddg(DOM), gen_cycle(8))
    assert res.best_move == Move(0, PURPLE) and res.winner != DOM


def test_principal_variation_replays_to_the_winner():
    g = gen_cycle(5)
    res = solve(ddg(DOM), g)
    state = new_game(ddg(DOM), g)
    for mv in res.pv:
        state = state.apply(mv)
    assert state.winner == res.winner


@pytest.mark.parametrize("n, nodes", [(12, 532), (14, 2_162)])
def test_one_search_answers_every_state_of_a_game(n, nodes):
    # both sides play from one kept search: the line is the solve's PV, and
    # the search expands no node that one solve from the root does not
    cfg, g = ddg(SEPY), gen_cycle(n)
    search = Solver(cfg, g)
    state, moves = search.root, []
    while state.winner is None:
        moves.append(search.result(state).best_move)
        state = state.apply(moves[-1])
    res = solve(cfg, g)
    assert (tuple(moves), state.winner) == (res.pv, res.winner)
    assert search.nodes == res.nodes == nodes


def test_result_json_shape():
    res = solve(ddg(DOM), gen_path(2))
    blob = res.to_json(gen_path(2), ddg(DOM))
    # fixed key order so golden-file comparisons stay byte-stable
    assert list(blob) == ["graph", "config", "winner", "nodes", "pv"]
    assert list(blob["config"]) == ["variant", "start", "d", "s", "pass"]
    assert blob["graph"] == "A_"


# --- state keys ----------------------------------------------------------------------

def _key(state):
    """The solver's memo key of a state's position."""
    vp, vb, _dp, _db, actor, sel = state.position()
    return Solver(state.config, state.graph)._key(vp, vb, actor, sel)


def test_palette_twins_share_keys_in_ddg():
    g = gen_cycle(5)
    a = new_game(ddg(DOM), g).apply(Move(0, PURPLE)).apply(Move(2, BLUE))
    b = new_game(ddg(DOM), g).apply(Move(0, BLUE)).apply(Move(2, PURPLE))
    assert _key(a) == _key(b)
    # 100 seeded random walks and their palette-swapped twins per input:
    # equal keys, and equal winners found without the memo and its keys
    for g in (gen_cycle(7), gen_path(6), disjoint_union(gen_cycle(4), gen_path(3))):
        for starter in (DOM, SEPY):
            cfg = ddg(starter)
            rng = random.Random(4242)
            base = new_game(cfg, g)
            for _ in range(100):
                state, twin = base, base
                while state.winner is None and rng.random() < 0.7:
                    moves = state.legal_moves()
                    mv = moves[rng.randrange(len(moves))]
                    state = state.apply(mv)
                    twin = twin.apply(Move(mv.vertex, 1 - mv.color))
                assert _key(state) == _key(twin), (g.edges(), starter, state.history)
                if state.history:  # the root is its own twin
                    assert solve(cfg, g, state, use_memo=False).winner == \
                        solve(cfg, g, twin, use_memo=False).winner, \
                        (g.edges(), starter, state.history)


def test_palette_twins_differ_in_bdg():
    g = gen_cycle(4)
    a = new_game(bdg(DOM), g).apply(Move(0, PURPLE))
    b = new_game(bdg(SEPY), g).apply(Move(0, BLUE))
    assert _key(a) != _key(b)


def test_best_move_value_maps_under_palette_swap():
    g = gen_cycle(6)
    cfg = ddg(DOM)
    rng = random.Random(88)
    for _ in range(20):
        state, twin = new_game(cfg, g), new_game(cfg, g)
        while state.winner is None and rng.random() < 0.6:
            moves = state.legal_moves()
            mv = moves[rng.randrange(len(moves))]
            state = state.apply(mv)
            twin = twin.apply(Move(mv.vertex, 1 - mv.color))
        if state.winner is not None:
            continue
        res = solve(cfg, g, state)
        mv = res.best_move
        if res.winner == state.actor:
            # the swapped image of a winning move must win the twin game
            after = twin.apply(Move(mv.vertex, 1 - mv.color))
            if after.winner is None:
                assert solve(cfg, g, after).winner == state.actor
            else:
                assert after.winner == state.actor


def test_key_ignores_history_order():
    g = gen_cycle(6)
    a = new_game(ddg(DOM), g).apply(Move(0, PURPLE)).apply(Move(2, BLUE)) \
        .apply(Move(4, PURPLE)).apply(Move(1, BLUE))
    b = new_game(ddg(DOM), g).apply(Move(4, PURPLE)).apply(Move(2, BLUE)) \
        .apply(Move(0, PURPLE)).apply(Move(1, BLUE))
    assert _key(a) == _key(b)


def test_turn_bits_of_long_turns_stay_apart():
    # a (17:1) turn reaches sel = 16, one bit wider than a 4-bit field
    solver = Solver(ddg(DOM, d=17), gen_path(2))
    keys = {solver._key(0, 0, actor, sel) for actor in (DOM, SEPY) for sel in range(18)}
    assert len(keys) == 2 * 18


# --- memoization and limits --------------------------------------------------------------

def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


# symmetric graphs in scrambled labellings: the memo keys fold their
# positions under automorphisms, the unmemoized search does not
_SYMMETRIC = {
    "C6": _shuffled(gen_cycle(6), 1),
    "C7": _shuffled(gen_cycle(7), 2),
    "K33": _shuffled(complete_bipartite(3, 3), 3),
    "2K3": _shuffled(disjoint_union(gen_cycle(3), gen_cycle(3)), 4),
    "K24": _shuffled(complete_bipartite(2, 4), 5),
}


# RULE_CONFIGS and the two pass-right holders it lacks in the disjoint game
_MEMO_CONFIGS = (*RULE_CONFIGS, ddg(SEPY, pass_rights=DOM), ddg(DOM, pass_rights=SEPY))


@pytest.mark.parametrize("corpus", [2, 3, 4, 5, *_SYMMETRIC])
def test_memo_equivalence_small(corpus):
    graphs = (enumerate_isolate_free_graphs(corpus) if isinstance(corpus, int)
              else [_SYMMETRIC[corpus]])
    for g in graphs:
        for cfg in _MEMO_CONFIGS:
            memo, plain = solve(cfg, g), solve(cfg, g, use_memo=False)
            assert (memo.winner, memo.best_move, memo.pv) == \
                (plain.winner, plain.best_move, plain.pv), (cfg, g.edges())


def _decoded_entry(key, g):
    """The position (vp, vb, dp, db, actor, sel) that a memo key encodes;
    in DDG it is one of the two palette-swapped images, which share a
    value."""
    n = g.n
    vb, vp = key >> n & g.full_mask, key & g.full_mask
    dp = db = 0
    for v in range(n):
        if vp >> v & 1:
            dp |= g.closed_mask[v]
        if vb >> v & 1:
            db |= g.closed_mask[v]
    return vp, vb, dp, db, DOM if key >> 2 * n & 1 else SEPY, key >> (2 * n + 1)


@pytest.mark.parametrize("corpus", [2, 3, 4, 5, *_SYMMETRIC])
def test_every_memo_entry_holds_its_positions_value(corpus):
    # own encodings and folded keys alike: each must encode an image of a
    # position with the stored value.  (1:2) adds Sepy moves at sel 1, the
    # only ones here where positions differing in sel alone differ in value.
    graphs = (enumerate_isolate_free_graphs(corpus) if isinstance(corpus, int)
              else [_SYMMETRIC[corpus]])
    for g in graphs:
        for cfg in (*_MEMO_CONFIGS, ddg(DOM, s=2)):
            solver = Solver(cfg, g)
            solver.value(*solver.root.position())
            oracle = Solver(cfg, g, use_memo=False)
            for key, value in solver.memo.items():
                pos = _decoded_entry(key, g)
                assert oracle.value(*pos) == value, (cfg, g.edges(), pos)


def _reachable_positions(cfg, g, rng):
    positions = set()
    for _ in range(60):
        state = new_game(cfg, g)
        while state.winner is None:
            positions.add(state.position())
            moves = state.legal_moves()
            state = state.apply(moves[rng.randrange(len(moves))])
    return sorted(positions)


def _orbit_label(group, ddg_rules, pos):
    """Least image of pos under the whole group (x palette swap in DDG)."""
    vp, vb, _dp, _db, actor, sel = pos
    images = []
    for p in group:
        ip = sum(1 << p[v] for v in range(len(p)) if vp >> v & 1)
        ib = sum(1 << p[v] for v in range(len(p)) if vb >> v & 1)
        images.append((ip, ib))
        if ddg_rules:
            images.append((ib, ip))
    return min(images), actor, sel


def _keys_and_orbits(cfg, g, seed):
    edges = set(g.edges())
    group = [p for p in itertools.permutations(range(g.n))
             if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)]
    solver = Solver(cfg, g)
    positions = _reachable_positions(cfg, g, random.Random(seed))
    return [(solver._key(vp, vb, actor, sel),
             _orbit_label(group, cfg.variant == "ddg", (vp, vb, dp, db, actor, sel)))
            for vp, vb, dp, db, actor, sel in positions]


@pytest.mark.parametrize("name", ["C6", "C7"])
@pytest.mark.parametrize("cfg", [ddg(DOM), ddg(SEPY, d=2), bdg(DOM)],
                         ids=["ddg-dom", "ddg-sepy-2to1", "bdg-dom"])
def test_key_is_canonical_when_the_group_fits(name, cfg):
    # C_n has 2n automorphisms, so the solver holds the whole group
    pairs = _keys_and_orbits(cfg, _SYMMETRIC[name], seed=7)
    keys = {key for key, _ in pairs}
    orbits = {orbit for _, orbit in pairs}
    # equal keys exactly when the positions are images of each other
    assert len(keys) == len(orbits) == len(set(pairs))
    assert len(orbits) < len(pairs)


@pytest.mark.parametrize("cfg", [ddg(DOM), bdg(DOM)], ids=["ddg-dom", "bdg-dom"])
def test_key_is_sound_on_a_truncated_group(cfg):
    # K3,3 has 72 automorphisms, more than the 2n = 12 the solver keeps
    pairs = _keys_and_orbits(cfg, _SYMMETRIC["K33"], seed=9)
    keys = {key for key, _ in pairs}
    assert len(keys) == len(set(pairs))
    assert len(keys) < len(pairs)


def test_vertex_cap_enforced(monkeypatch):
    with pytest.raises(ResourceLimitError, match="vertices"):
        solve(ddg(DOM), gen_cycle(15))
    monkeypatch.setenv("DOMGAME_STATE_CAP", "15")
    assert solve(ddg(DOM), gen_cycle(15)).winner == SEPY


def test_state_cap_env(monkeypatch):
    monkeypatch.setenv("DOMGAME_STATE_CAP", "4")
    with pytest.raises(ResourceLimitError):
        solve(ddg(DOM), gen_cycle(5))
    monkeypatch.setenv("DOMGAME_STATE_CAP", "6")
    assert solve(ddg(DOM), gen_cycle(5)).winner == DOM


@pytest.mark.parametrize("n", [7, 16, 17, 24])
@pytest.mark.parametrize("variant", ["ddg", "bdg"])
def test_key_tables_match_the_images_they_stand_for(n, variant, monkeypatch):
    # two half-width tables up to n = 16, byte-wide chunks past it
    monkeypatch.setenv("DOMGAME_STATE_CAP", str(n))
    g = _shuffled(gen_cycle(n), n)
    solver = Solver(GameConfig(variant, DOM), g)
    assert {len(tables) for tables in solver.images} == {2 if n <= 16 else -(-n // 8)}
    group = [tuple(range(n)), *automorphisms(g, 2 * n)]
    rng = random.Random(n)
    for _ in range(50):
        vp = rng.getrandbits(n)
        vb = rng.getrandbits(n) & ~vp
        actor, sel = rng.choice((DOM, SEPY)), rng.randrange(3)
        pairs = [tuple(sum(1 << img[v] for v in range(n) if m >> v & 1) for m in (vp, vb))
                 for img in group]
        if variant == "ddg":
            least = min(min(a << n | b, b << n | a) for a, b in pairs)
        else:
            least = min(a | b << n for a, b in pairs)
        assert solver._key(vp, vb, actor, sel) == \
            least | (actor == DOM) << (2 * n) | sel << (2 * n + 1)


def test_wide_graphs_keep_small_key_tables(monkeypatch):
    # with two 12-bit tables for each of its 48 automorphisms, this solve
    # peaked at 14.5 MiB
    monkeypatch.setenv("DOMGAME_STATE_CAP", "24")
    tracemalloc.start()
    try:
        assert solve(ddg(DOM), gen_cycle(24)).winner == SEPY
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_entry_cap_fails_fast(monkeypatch):
    cfg, g = ddg(SEPY), gen_cycle(8)
    uncapped = Solver(cfg, g)
    uncapped.value(*uncapped.root.position())
    assert len(uncapped.memo) > 10
    monkeypatch.setattr(solver, "DEFAULT_ENTRY_CAP", 10)
    with pytest.raises(ResourceLimitError, match="entries"):
        solve(cfg, g)


def test_large_automorphism_groups_solve():
    # 14!, 13! and 2 (7!)^2 automorphisms: the solver keeps only 2n of them
    for g in (gen_complete(14), complete_bipartite(1, 13), complete_bipartite(7, 7)):
        assert solve(ddg(DOM), g).winner == DOM
        assert solve(ddg(SEPY), g).winner == DOM


# --- solver vs engine play ---------------------------------------------------------

def test_solver_agrees_with_playout_endings():
    """At every prefix of random playouts, the actor wins exactly when some
    engine child is won by the actor, on the spot or by solving it."""
    rng = random.Random(5)
    configs = (ddg(DOM), ddg(SEPY, pass_rights="sepy"), ddg(DOM, d=2), bdg(DOM))
    for g in (gen_cycle(4), gen_cycle(5), gen_path(4)):
        for cfg in configs:
            for _ in range(3):
                state = new_game(cfg, g)
                while state.winner is None:
                    actor = state.actor
                    children = [state.apply(mv) for mv in state.legal_moves()]
                    actor_wins = any(
                        (child.winner or solve(cfg, g, child).winner) == actor
                        for child in children
                    )
                    assert (solve(cfg, g, state).winner == actor) == actor_wins, \
                        (cfg, g.edges(), state.history)
                    state = children[rng.randrange(len(children))]


def _pv_text(pv):
    return " ".join("pass" if mv.is_pass else f"{mv.vertex}{'pb'[mv.color]}" for mv in pv)


@pytest.mark.parametrize("cfg, g, winner, pv", [
    (ddg(DOM), gen_cycle(8), SEPY, "0p 1p 2p"),
    (ddg(SEPY), gen_cycle(8), DOM, "0p 1b 2p 3b 4p 5p 6b"),
    (ddg(SEPY, pass_rights="sepy"), disjoint_union(gen_cycle(4), gen_cycle(8)), SEPY,
     "0p 1p 2b 3b pass 4p 5p 6p"),
])
def test_best_play_is_independent_of_search_order(cfg, g, winner, pv):
    # pinned answers: best play is the first child in canonical order with
    # the right value, whatever order the search tries children in
    res = solve(cfg, g)
    assert (res.winner, _pv_text(res.pv)) == (winner, pv)


# --- verification ------------------------------------------------------------------------------

def test_verify_ons_on_c5():
    rep = verify_strategy("ons", DOM, ddg(SEPY), gen_cycle(5))
    assert rep.verified and rep.counterexample is None
    assert rep.branches > 0


def test_verify_cycle_strategy_plies():
    rep = verify_strategy("sepy-cycle", SEPY, ddg(DOM), gen_cycle(8))
    assert rep.verified and rep.max_plies <= 4


def test_verify_rejects_wrong_role():
    with pytest.raises(NotApplicable):
        verify_strategy("ons", SEPY, ddg(SEPY), gen_cycle(5))


def test_verify_not_applicable_surfaces():
    with pytest.raises(NotApplicable):
        verify_strategy("dom-start-safe", DOM, ddg(DOM), gen_cycle(8))


def test_verify_failure_produces_counterexample():
    # greedy play is not a winning strategy for Dom on the Dom-start C8
    rep = verify_strategy("greedy", DOM, ddg(DOM), gen_cycle(8), seed=1)
    assert not rep.verified
    assert rep.counterexample is not None
    assert rep.counterexample[-1]["status"] == "sepy"
    # the counterexample is a replayable trace
    from domgame.engine import replay

    end = replay(ddg(DOM), gen_cycle(8), rep.counterexample)
    assert end.winner == SEPY


def test_verify_report_json():
    rep = verify_strategy("ons", DOM, ddg(SEPY), gen_path(3))
    blob = rep.to_json()
    assert blob["verified"] is True
    # P3 in graph6: 'B' is n=3, bits x01 x02 x12 = 101 padded -> 'g'
    assert blob["strategy"] == "ons" and blob["graph"] == "Bg"


# every rule set a strategy below may accept; prepare picks the ones it does
_RULE_SETS = (ddg(DOM), ddg(SEPY), bdg(DOM), bdg(SEPY),
              ddg(SEPY, pass_rights="sepy"), ddg(DOM, pass_rights="sepy"),
              ddg(SEPY, pass_rights="dom"), ddg(DOM, pass_rights="dom"),
              ddg(SEPY, d=2), ddg(DOM, d=2), ddg(SEPY, d=3), ddg(DOM, d=3))


def _verdict(strategy, cfg, g, memo):
    strat = get_strategy(strategy)
    if not memo:
        strat.history_independent = False
    try:
        rep = verify_strategy(strat, DOM, cfg, g, seed=3)
    except StrategyViolation as exc:
        return "violation", str(exc), trace_lines(exc.state)
    return rep.verified, rep.max_plies, rep.counterexample


@pytest.mark.parametrize("strategy, rule_sets, top", [
    ("ons", _RULE_SETS, 5), ("dom-pass", _RULE_SETS, 5), ("bdg-general", _RULE_SETS, 5),
    # passes and long turns let one position follow several last selections;
    # the 6-vertex graphs are the first where that changes a report
    ("onsp", _RULE_SETS, 6), ("biased-dom", _RULE_SETS, 6),
    # these lose as Dom when Dom starts, so their counterexamples are compared
    ("greedy", [c for c in _RULE_SETS if c.starter == DOM and c.variant == "ddg"], 5),
    ("random", [c for c in _RULE_SETS if c.starter == DOM and c.variant == "ddg"], 5),
], ids=lambda arg: arg if isinstance(arg, str) else None)
def test_verify_memo_matches_the_memo_free_walk(strategy, rule_sets, top):
    compared = failures = 0
    for n in range(2, top + 1):
        for g in enumerate_isolate_free_graphs(n):
            for cfg in rule_sets:
                try:
                    get_strategy(strategy).prepare(cfg, g, seed=3)
                except NotApplicable:
                    continue
                memo = _verdict(strategy, cfg, g, True)
                assert memo == _verdict(strategy, cfg, g, False), (cfg, g.edges())
                compared += 1
                failures += memo[0] is not True
    assert compared > 0
    if strategy in ("greedy", "random"):
        assert failures > 0


# every rule set with one selection a turn or Dom's two; a (2:1) game is
# disjoint, and Dom holds no pass right in it
_EVERY_RULE_SET = [
    GameConfig(variant, starter, d=d, pass_rights=rights)
    for variant, starter, d, rights in itertools.product(
        ("ddg", "bdg"), (DOM, SEPY), (1, 2), ("none", DOM, SEPY))
    if d == 1 or (variant == "ddg" and rights != DOM)
]


def test_every_certification_agrees_with_the_solver():
    # a certified strategy wins against every reply, so the solver must
    # name Dom the winner of the same game
    certified = 0
    for g in corpus("isolatefree:6"):
        for cfg in _EVERY_RULE_SET:
            winner = None
            for sid in ("ons", "onsp", "dom-start-safe", "dom-pass", "biased-dom",
                        "bdg-matching", "bdg-general"):
                try:
                    rep = verify_strategy(sid, DOM, cfg, g)
                except NotApplicable:
                    continue
                if rep.verified:
                    winner = winner or solve(cfg, g).winner
                    assert winner == DOM, (sid, cfg, g.edges())
                    certified += 1
    assert len(_EVERY_RULE_SET) == 16 and certified == 3424
