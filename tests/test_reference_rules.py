"""The engine against an independent reference for the rules.

The reference is written from the definitions: a coloring is a tuple of
per-vertex colors, and legality, domination, monochromatic neighborhoods,
passes and turn hand-over are per-vertex loops over closed neighborhoods.
Nothing is carried from move to move but the coloring and the turn, so it
shares no code and no masks with ``engine.Rules``.  The test walks the full
game trees of every isolate-free graph on at most five vertices and compares
the legal moves, the outcome of every move and the domination masks of
every state reached, each of which must also pass ``assert_state_sound``.

A plain minimax over the reference's moves, with a dict memo on reference
positions, is the solver's oracle: it searches in canonical order, folds no
symmetry and takes no hint, so it checks the winners of a search that orders
its children and folds positions by symmetry, with and without its memo.
"""

import pytest

from conftest import assert_state_sound, bdg, ddg
from domgame.engine import BLUE, DOM, PASS, PURPLE, SEPY, Move, new_game
from domgame.graphs import enumerate_isolate_free_graphs
from domgame.solver import Solver, solve


class Reference:
    """A position is (colors, player, selections this turn, moved yet)."""

    def __init__(self, cfg, g):
        self.cfg = cfg
        self.n = g.n
        self.nbhd = [(v, *g.adj[v]) for v in range(g.n)]

    def palette(self, player):
        if self.cfg.variant == "bdg":
            return (PURPLE,) if player == DOM else (BLUE,)
        return (PURPLE, BLUE)

    def dominated(self, colors, c):
        """The vertices with a vertex colored c in their closed neighborhood."""
        return {u for u in range(self.n) if any(colors[w] == c for w in self.nbhd[u])}

    def dominated_masks(self, colors):
        """``dominated`` in purple and in blue, as vertex masks."""
        return tuple(sum(1 << u for u in self.dominated(colors, c)) for c in (PURPLE, BLUE))

    def selections(self, colors, player):
        """Color an uncolored v with c when some vertex of N[v] is not yet
        dominated in c."""
        dominated = {c: self.dominated(colors, c) for c in self.palette(player)}
        return [(v, c) for v in range(self.n) if colors[v] is None
                for c in self.palette(player)
                if any(u not in dominated[c] for u in self.nbhd[v])]

    def monochromatic(self, colors):
        """(u, c) for the least u whose closed neighborhood is all c."""
        for u in range(self.n):
            if colors[u] is not None and all(colors[w] == colors[u] for w in self.nbhd[u]):
                return u, colors[u]
        return None

    def may_pass(self, colors, player, sel, moved):
        cfg = self.cfg
        if player == SEPY and sel >= 1:
            allowed = True  # Sepy ends a biased turn early
        else:
            biased = (cfg.d, cfg.s) != (1, 1)
            rights = cfg.pass_rights == player or (player == SEPY and biased)
            allowed = rights and moved
        # a pass must leave the opponent a selection
        return allowed and bool(self.selections(colors, other(player)))

    def moves(self, pos):
        colors, player, sel, moved = pos
        out = [Move(v, c) for v, c in self.selections(colors, player)]
        if self.may_pass(colors, player, sel, moved):
            out.append(PASS)
        return out

    def after(self, pos, move):
        """(position, winner, witness) once move is played."""
        colors, player, sel, moved = pos
        if move.is_pass:
            return self.hand_over(colors, other(player), moved)
        colors = tuple(move.color if v == move.vertex else colors[v] for v in range(self.n))
        here = (colors, player, sel + 1, True)
        mono = self.monochromatic(colors)
        if mono is not None:
            return here, SEPY, mono
        if self.cfg.variant == "ddg" and \
                len(self.dominated(colors, PURPLE)) == len(self.dominated(colors, BLUE)) == self.n:
            return here, DOM, None
        cap = self.cfg.d if player == DOM else self.cfg.s
        if sel + 1 < cap and self.selections(colors, player):
            return here, None, None
        return self.hand_over(colors, other(player), True)

    def hand_over(self, colors, player, moved):
        """The turn passes to player; in the bicolored game a player with no
        selection is skipped, and Dom wins when neither side has one."""
        if self.cfg.variant == "ddg" or self.selections(colors, player):
            return (colors, player, 0, moved), None, None
        if self.selections(colors, other(player)):
            return (colors, other(player), 0, moved), None, None
        return (colors, player, 0, moved), DOM, None


def other(player):
    return SEPY if player == DOM else DOM


def reference_winner(ref, pos, memo):
    """The winner of pos under optimal play: the player to move wins when
    one of the moves wins for that player, and the opponent otherwise."""
    winner = memo.get(pos)
    if winner is None:
        player = pos[1]
        winner = other(player)
        for mv in ref.moves(pos):
            nxt, end, _mono = ref.after(pos, mv)
            if (end or reference_winner(ref, nxt, memo)) == player:
                winner = player
                break
        memo[pos] = winner
    return winner


def _reference_position(state):
    return (tuple(None if c == -1 else c for c in state.colors), state.actor,
            state.selections_done, bool(state.history))


_CONFIGS = {
    "ddg-dom": ddg(DOM), "ddg-sepy": ddg(SEPY),
    "ddg-dom-pass-dom": ddg(DOM, pass_rights=DOM), "ddg-sepy-pass-dom": ddg(SEPY, pass_rights=DOM),
    "ddg-dom-pass-sepy": ddg(DOM, pass_rights=SEPY), "ddg-sepy-pass-sepy": ddg(SEPY, pass_rights=SEPY),
    "bdg-dom": bdg(DOM), "bdg-sepy": bdg(SEPY),
    "2to1-dom": ddg(DOM, d=2), "2to1-sepy": ddg(SEPY, d=2),
    "s2-dom": ddg(DOM, s=2), "s2-sepy": ddg(SEPY, s=2),
}


@pytest.mark.parametrize("name", _CONFIGS)
def test_engine_matches_reference_rules(name):
    cfg = _CONFIGS[name]
    for n in range(2, 6):
        for g in enumerate_isolate_free_graphs(n):
            ref = Reference(cfg, g)
            seen = set()
            stack = [new_game(cfg, g)]
            while stack:
                state = stack.pop()
                pos = _reference_position(state)
                if pos in seen:
                    continue
                seen.add(pos)
                assert_state_sound(state)
                where = (name, g.edges(), state.history)
                moves = state.legal_moves()
                assert moves == ref.moves(pos), where
                children = state.children()
                assert [mv for mv, _child in children] == moves, where
                for mv, sibling in children:
                    child = state.apply(mv)
                    assert (child.position(), child.winner) == \
                        (sibling.position(), sibling.winner), (where, mv)
                    ref_pos, winner, mono = ref.after(pos, mv)
                    assert child.dom == ref.dominated_masks(ref_pos[0]), (where, mv)
                    assert child.winner == winner, (where, mv)
                    # the reference names the monochromatic (u, c) of a Sepy
                    # win and None otherwise
                    assert child.witness() == mono, (where, mv)
                    if winner is None:
                        assert _reference_position(child) == ref_pos, (where, mv)
                        stack.append(child)
                    else:
                        assert_state_sound(child)


@pytest.mark.parametrize("name", _CONFIGS)
def test_solver_matches_reference_minimax(name):
    # the root of every graph n <= 5, with and without the memo; every
    # reachable state for n <= 4, from one kept search
    cfg = _CONFIGS[name]
    for n in range(2, 6):
        for g in enumerate_isolate_free_graphs(n):
            ref, memo = Reference(cfg, g), {}
            root = new_game(cfg, g)
            winner = reference_winner(ref, _reference_position(root), memo)
            assert solve(cfg, g).winner == solve(cfg, g, use_memo=False).winner == winner, \
                (name, g.edges())
            if n > 4:
                continue
            search = Solver(cfg, g)
            stack = [root]
            while stack:
                state = stack.pop()
                assert search.result(state).winner == \
                    reference_winner(ref, _reference_position(state), memo), \
                    (name, g.edges(), state.history)
                stack.extend(child for _mv, child in state.children() if child.winner is None)
