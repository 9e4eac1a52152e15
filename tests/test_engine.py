"""Rules engine: legality, turn structure, passing, bias, termination, the
dominated masks, and the trace format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RULE_CONFIGS, graphs_st, random_playout
from domgame.engine import (
    BLUE,
    DOM,
    PASS,
    PURPLE,
    SEPY,
    ConfigError,
    GameConfig,
    GameState,
    IllegalMoveError,
    Move,
    new_game,
    replay,
    trace_lines,
)
from domgame.graphs import (
    Graph,
    disjoint_union,
    enumerate_isolate_free_graphs,
    gen_cycle,
    gen_path,
)


def ddg(starter, **kw):
    return GameConfig(variant="ddg", starter=starter, **kw)


def bdg(starter, **kw):
    return GameConfig(variant="bdg", starter=starter, **kw)


def play(state, *moves):
    for mv in moves:
        state = state.apply(mv)
    return state


# --- configuration and setup --------------------------------------------------

def test_new_game_fresh():
    st_ = new_game(ddg(SEPY), gen_cycle(4))
    assert st_.actor == SEPY
    assert all(c == -1 for c in st_.colors)
    assert st_.status.ongoing


def test_bdg_requires_unit_selections():
    with pytest.raises(ConfigError):
        GameConfig(variant="bdg", starter=DOM, d=2)


def test_isolated_vertex_rejected():
    with pytest.raises(ConfigError, match="isolated"):
        new_game(ddg(DOM), Graph(3, [(0, 1)]))


def test_biased_dom_pass_rights_rejected():
    with pytest.raises(ConfigError):
        GameConfig(variant="ddg", starter=DOM, d=2, pass_rights="dom")


def test_biased_implies_sepy_pass():
    assert new_game(GameConfig(variant="ddg", starter=DOM, d=2), gen_path(2)).rules.may_pass[SEPY]
    assert not new_game(GameConfig(variant="ddg", starter=DOM), gen_path(2)).rules.may_pass[SEPY]


# --- legality -------------------------------------------------------------------

def test_select_legal_on_fresh_k2():
    st_ = new_game(ddg(DOM), gen_path(2))
    assert st_.select_legal(0, PURPLE)
    assert len(st_.legal_moves()) == 4


def test_double_domination_blocks_same_color():
    st_ = play(new_game(ddg(DOM), gen_path(2)), Move(0, PURPLE))
    assert not st_.select_legal(1, PURPLE)
    assert st_.legal_moves() == [Move(1, BLUE)]


def test_p3_center_blocks_purple():
    st_ = play(new_game(ddg(SEPY), gen_path(3)), Move(1, PURPLE))
    assert not st_.select_legal(0, PURPLE)
    assert st_.select_legal(0, BLUE)


def test_first_move_pass_banned():
    st_ = new_game(ddg(SEPY, pass_rights="sepy"), gen_cycle(4))
    assert PASS not in st_.legal_moves()
    st_ = st_.apply(Move(0, PURPLE))  # Sepy's forced selection
    st_ = st_.apply(Move(1, BLUE))  # Dom
    assert PASS in st_.legal_moves()


def test_pass_needs_rights():
    st_ = play(new_game(ddg(SEPY), gen_cycle(4)), Move(0, PURPLE))
    assert PASS not in st_.legal_moves()  # Dom holds no rights


def test_legal_moves_count_fresh_c4():
    assert len(new_game(ddg(DOM), gen_cycle(4)).legal_moves()) == 8


def test_legal_moves_ordering():
    moves = new_game(ddg(DOM), gen_path(2)).legal_moves()
    assert moves == [Move(0, PURPLE), Move(0, BLUE), Move(1, PURPLE), Move(1, BLUE)]


def _reachable(n):
    """(cfg, g, state, children) for every distinct ongoing state reachable on
    the isolate-free graphs of n vertices under every config of
    ``RULE_CONFIGS``."""
    for g in enumerate_isolate_free_graphs(n):
        for cfg in RULE_CONFIGS:
            seen = set()
            stack = [new_game(cfg, g)]
            while stack:
                state = stack.pop()
                if state.position() in seen:
                    continue
                seen.add(state.position())
                children = state.children()
                yield cfg, g, state, children
                stack.extend(child for _mv, child in children if child.winner is None)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_legal_moves_match_the_kernel_children(n):
    for cfg, g, state, children in _reachable(n):
        kernel = [PASS if v is None else Move(v, c)
                  for v, c, _child in state.rules.expand(*state.position())]
        assert state.legal_moves() == kernel, (cfg, g.edges(), state.history)
        for _mv, child in children:
            if child.winner is not None:
                assert child.legal_moves() == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_apply_matches_legal_moves_and_children(n):
    # apply plays a selection through the kernel restricted to it; the full
    # expansion is its oracle.  Besides the pass and every vertex with every
    # color, apply is offered a value that is not a color, and vertices out
    # of range or not an int.
    offered = [PASS] + [Move(v, c) for v in range(n) for c in (PURPLE, BLUE, 2)] + \
        [Move(v, c) for v in (-1, n, 1.0, True) for c in (PURPLE, BLUE)]
    slots = GameState.__slots__
    for cfg, g, state, children in _reachable(n):
        legal = set(state.legal_moves())
        siblings = dict(children)
        for mv in offered:
            is_legal = mv in legal and (mv.is_pass or type(mv.vertex) is int)
            try:
                child = state.apply(mv)
            except IllegalMoveError:
                assert not is_legal, (cfg, g.edges(), state.history, mv)
                continue
            assert is_legal, (cfg, g.edges(), state.history, mv)
            sibling = siblings[mv]
            assert [getattr(child, s) for s in slots] == [getattr(sibling, s) for s in slots], \
                (cfg, g.edges(), state.history, mv)


def test_bdg_binds_colors():
    st_ = new_game(bdg(DOM), gen_cycle(4))
    assert not st_.select_legal(0, BLUE)
    assert all(m.color == PURPLE for m in st_.legal_moves())


# --- apply, wins, and witnesses -------------------------------------------------

def test_k2_forced_line():
    st_ = play(new_game(ddg(DOM), gen_path(2)), Move(0, PURPLE), Move(1, BLUE))
    assert st_.status.winner == DOM


def test_c8_monochromatic_line():
    st_ = play(
        new_game(ddg(DOM), gen_cycle(8)),
        Move(0, PURPLE), Move(1, PURPLE), Move(3, BLUE), Move(7, PURPLE),
    )
    assert st_.status.winner == SEPY
    assert st_.status.witness == 0 and st_.status.witness_color == PURPLE


def test_p3_monochromatic():
    st_ = play(new_game(ddg(SEPY), gen_path(3)), Move(0, PURPLE), Move(1, PURPLE))
    assert st_.status.winner == SEPY and st_.status.witness == 0


def test_c4_midgame_ongoing():
    st_ = play(new_game(ddg(SEPY), gen_cycle(4)), Move(0, PURPLE), Move(2, BLUE))
    assert st_.status.ongoing


def test_illegal_apply_rejected():
    st_ = play(new_game(ddg(DOM), gen_path(2)), Move(0, PURPLE))
    with pytest.raises(IllegalMoveError):
        st_.apply(Move(1, PURPLE))
    with pytest.raises(IllegalMoveError):
        st_.apply(Move(0, BLUE))


@pytest.mark.parametrize("move", [Move(-1, PURPLE), Move(5, PURPLE), Move(0, 2), Move("a", BLUE),
                                  Move(1.0, PURPLE)])
def test_out_of_range_moves_are_illegal(move):
    st_ = new_game(ddg(DOM), gen_cycle(5))
    with pytest.raises(IllegalMoveError):
        st_.apply(move)
    assert not st_.select_legal(move.vertex, move.color)


def test_states_are_values():
    before = new_game(ddg(DOM), gen_cycle(4))
    after = before.apply(Move(0, PURPLE))
    assert all(c == -1 for c in before.colors)
    assert after.colors[0] == PURPLE


# --- biased turns ----------------------------------------------------------------

def test_biased_dom_takes_two_selections():
    cfg = ddg(DOM, d=2, s=1)
    g = disjoint_union(gen_cycle(4), gen_cycle(4))
    st_ = new_game(cfg, g).apply(Move(0, PURPLE))
    assert st_.actor == DOM and st_.selections_done == 1
    st_ = st_.apply(Move(1, BLUE))
    assert st_.actor == SEPY and st_.selections_done == 0


def test_biased_win_arrives_mid_turn():
    cfg = ddg(DOM, d=3, s=1)
    st_ = new_game(cfg, gen_path(2)).apply(Move(0, PURPLE))
    assert st_.actor == DOM and st_.selections_done == 1
    st_ = st_.apply(Move(1, BLUE))  # second of three selections already ends it
    assert st_.status.winner == DOM


def test_biased_sepy_whole_turn_pass():
    cfg = ddg(DOM, d=2, s=1)
    st_ = play(new_game(cfg, gen_cycle(6)), Move(0, PURPLE), Move(1, BLUE))
    assert st_.actor == SEPY
    st_ = st_.apply(PASS)
    assert st_.actor == DOM and st_.selections_done == 0


def test_sepy_midturn_stop_with_s2():
    cfg = ddg(SEPY, d=1, s=2)
    st_ = new_game(cfg, gen_cycle(6)).apply(Move(0, PURPLE))
    assert st_.actor == SEPY and st_.selections_done == 1
    st_ = st_.apply(PASS)  # stop after one of two allowed selections
    assert st_.actor == DOM


# --- bicolored auto-skip -----------------------------------------------------------

def test_bdg_skips_stuck_dom():
    st_ = new_game(bdg(DOM), gen_path(3)).apply(Move(1, PURPLE))
    # purple now dominates everything: Dom is stuck, Sepy plays twice
    assert st_.actor == SEPY
    st_ = st_.apply(Move(0, BLUE))
    assert st_.actor == SEPY
    st_ = st_.apply(Move(2, BLUE))
    assert st_.status.winner == DOM
    assert [a for a, _ in st_.history] == [DOM, SEPY, SEPY]


def test_bdg_end_needs_both_classes_dominating():
    st_ = new_game(bdg(DOM), gen_path(2)).apply(Move(0, PURPLE)).apply(Move(1, BLUE))
    assert st_.status.winner == DOM
    assert st_.dom[PURPLE] == st_.dom[BLUE] == 0b11


def test_bdg_with_pass_rights_cannot_stall():
    # once Dom is stuck his purple class dominates everything; Sepy's pass
    # would then repeat the position forever, so it stops being legal
    st_ = new_game(bdg(SEPY, pass_rights="sepy"), gen_path(3))
    st_ = play(st_, Move(0, BLUE), Move(1, PURPLE))
    assert st_.actor == SEPY  # Dom is stuck and skipped from here on
    assert PASS not in st_.legal_moves()
    st_ = st_.apply(Move(2, BLUE))
    assert st_.status.winner == DOM


# --- dominated masks and properties -------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(graphs_st(min_n=2, max_n=9, isolate_free=True), st.integers(0, 2**30))
def test_dominated_masks_match_recount_on_playouts(g, seed):
    rng = random.Random(seed)
    cfg = [ddg(DOM), ddg(SEPY), ddg(SEPY, pass_rights="sepy"), bdg(DOM)][seed % 4]
    state = new_game(cfg, g)
    while state.status.ongoing:
        moves = state.legal_moves()
        state = state.apply(moves[rng.randrange(len(moves))])
        for c in (PURPLE, BLUE):
            recount = 0
            for v in range(g.n):
                if state.vmask[c] >> v & 1:
                    recount |= g.closed_mask[v]
            assert state.dom[c] == recount
    assert state.status.winner in (DOM, SEPY)


@settings(max_examples=40, deadline=None)
@given(graphs_st(min_n=2, max_n=9, isolate_free=True), st.integers(0, 2**30))
def test_games_terminate_quickly(g, seed):
    rng = random.Random(seed)
    state = new_game(ddg(SEPY, pass_rights="sepy"), g)
    state = random_playout(state, rng)
    assert len(state.history) <= 2 * g.n + 2


def test_win_conditions_exclusive():
    # once both classes dominate, no same-color selection is legal, so a
    # monochromatic neighborhood can no longer appear; spot-check a full game
    rng = random.Random(7)
    state = random_playout(new_game(ddg(DOM), gen_cycle(5)), rng)
    assert state.status.winner in (DOM, SEPY)


# --- trace and replay -----------------------------------------------------------------

def test_trace_format():
    st_ = play(new_game(ddg(DOM), gen_path(2)), Move(0, PURPLE), Move(1, BLUE))
    lines = trace_lines(st_)
    assert lines == [
        {"ply": 1, "actor": "dom", "move": {"v": 0, "c": "purple"}, "status": "ongoing"},
        {"ply": 2, "actor": "sepy", "move": {"v": 1, "c": "blue"}, "status": "dom"},
    ]


def test_replay_round_trip():
    rng = random.Random(3)
    cfg = ddg(SEPY, pass_rights="sepy")
    state = random_playout(new_game(cfg, gen_cycle(6)), rng)
    lines = trace_lines(state)
    end = replay(cfg, gen_cycle(6), lines)
    assert end.status.winner == state.status.winner
    assert end.colors == state.colors


def test_replay_detects_tampering():
    st_ = play(new_game(ddg(DOM), gen_path(2)), Move(0, PURPLE), Move(1, BLUE))
    lines = trace_lines(st_)
    lines[1]["status"] = "ongoing"
    with pytest.raises(IllegalMoveError):
        replay(ddg(DOM), gen_path(2), lines)


_MALFORMED_MOVES = [{"v": 1, "c": "green"}, {"x": 1}, "jump", {"v": "a", "c": "blue"},
                    {"v": -1, "c": "purple"}, {"v": 99, "c": "blue"}, None, [1, "blue"]]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _corrupted_trace(draw):
    """A real trace of a random playout with one record corrupted: replaced
    whole, given a malformed move, or with a field dropped or replaced."""
    cfg = ddg(SEPY, pass_rights="sepy")
    g = gen_cycle(6)
    lines = trace_lines(random_playout(new_game(cfg, g), random.Random(draw(st.integers(0, 99)))))
    i = draw(st.integers(0, len(lines) - 1))
    key = draw(st.sampled_from(["ply", "actor", "move", "status"]))
    how = draw(st.sampled_from(["record", "move", "drop", "field"]))
    if how == "record":
        lines[i] = draw(_JSON)
    elif how == "move":
        lines[i]["move"] = draw(st.sampled_from(_MALFORMED_MOVES) | _JSON)
    elif how == "drop":
        del lines[i][key]
    else:
        lines[i][key] = draw(_JSON)
    return cfg, g, lines


@settings(max_examples=200, deadline=None)
@given(_corrupted_trace())
def test_replay_of_a_corrupted_trace_raises_only_illegal_move(case):
    cfg, g, lines = case
    try:
        replay(cfg, g, lines)
    except IllegalMoveError:
        pass


@pytest.mark.parametrize("move", _MALFORMED_MOVES)
def test_replay_rejects_malformed_moves(move):
    lines = trace_lines(play(new_game(ddg(DOM), gen_cycle(5)), Move(0, PURPLE)))
    lines[0]["move"] = move
    with pytest.raises(IllegalMoveError):
        replay(ddg(DOM), gen_cycle(5), lines)


def test_move_json_round_trip():
    assert Move.from_json(Move(3, BLUE).to_json()) == Move(3, BLUE)
    assert Move.from_json("pass") == PASS
