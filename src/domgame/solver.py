"""Exact winner computation and exhaustive strategy certification.

A ``Solver`` runs a memoized win/lose search over the positions of one
game's rules kernel ``engine.Rules`` (coloring and domination masks plus
turn bookkeeping), the kernel that ``GameState`` plays too; the solver holds
no rule of its own.  Its table lives as long as the ``Solver``, so every
state of the game is answered from one search; ``solve`` builds a fresh
one for each call.  Games of this family always end with a winner, so no
scores are needed and the first winning child cuts the branch.  Each
position is expanded once by ``Rules.expand`` into plain tuples; a child
that wins on the spot for the mover is taken before any open child is
searched.

The open children are then searched in the order of the paper's move
rules, each group in canonical order.  Dom first answers the opponent's
latest selection (v, c) with the other color on a neighbour of v, as in
the Sepy-start game; Sepy first colors a vertex beside the colored ones, as
in the Sepy wins on long cycles and triple subdivisions.  The selection
that led to a position is a search argument, the hint: a child that
continues its actor's turn inherits the hint, so Dom's second selection of
a (2:1) turn still answers Sepy's.  A win/lose value does not depend on
that order, so the hint is not part of the key, and the unmemoized search
orders its children alike.  The best move and PV are still the first child
in canonical order with the winner's value, whatever the search order.

The transposition table is keyed up to symmetry.  Once per game the solver
takes at most 2n automorphisms of the graph (``graphs.automorphisms``; 2n is
the most children a node can have, so a key costs about one expansion), and
a position's key is the least encoding of its coloring over the identity and
these images, each also palette-swapped in the disjoint game, and the turn
bits (actor and ``sel``) sit above it as they are.  Nothing else is keyed:
the first-turn pass ban asks only whether the coloring is empty, and every
image of an empty coloring is empty.  The rules depend only on adjacency,
and in the disjoint game both players may use both colors, so an automorphic
image or a palette swap of a position has the same value.  Equal keys mean
the two positions are images of each other, so any set of automorphisms
gives sound keys; when the whole group fits in the 2n (C_n has exactly 2n),
the key is canonical.  Image lookups go through per-automorphism tables of
two half-width chunks up to n = 16 and of byte-wide chunks past it, so
set-up stays small on wide graphs.

A position is first looked up by its own encoding: the identity term of its
key (palette-sorted in DDG) with the same turn bits.  Only on a miss is the
folded key computed and looked up; the value found or searched is then
stored under both entries.  A graph without automorphisms has one entry per
position, since its own encoding is its key.  Both kinds of entry share one
table and one encoding, and every entry, own or folded, encodes some image
of a position that holds the stored value.  So an equal entry always means
a position of the same value, whichever kind stored it: an exact
transposition (the same coloring by another move order) hits without
scanning any image, and an own encoding may also meet the folded key of an
image that a truncated group would have keyed apart.  The unmemoized search
computes no keys and no automorphisms, so it checks the keys and the table;
it searches in the same order, so the order itself is checked against a
plain minimax over independent reference rules in the tests.

``verify_strategy`` walks the full game tree of ``GameState`` with one side
pinned to a strategy and the other ranging over every legal move (passes
included); it either certifies the strategy or returns a counterexample
playout.  It recurses only into ongoing states: a game end is settled in
its parent's loop, which counts it, reads its ply count (carried down the
walk) and checks its winner.  A strategy that reads the history only
through ``last_select`` (``Strategy.history_independent``) moves alike in
states that agree on the position and ``last_select``, so the walk shares
the subtree below such states and walks it once.  Only the opponent's
nodes are shared: a node where the strategy moves has a single child, an
opponent node whose entry already shares that subtree, so the strategy is
asked again at a repeated node of its own and its invariants are checked
again.  An opponent node is keyed on the coloring and ``sel`` (its actor is
always the opponent), plus ``last_select`` when the opponent may pass
there; without a pass every child carries the opponent's own selection in
its place, so nothing below reads that field.  The memo stores each
subtree's longest line, so ``max_plies`` and the counterexample are those
of a walk without the memo; only the count of leaves walked depends on it.

Everything here is single-threaded; positions are plain values, so callers
wanting parallelism can fan out root children across solver instances and
will get identical results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .engine import (
    DOM,
    PASS,
    ConfigError,
    EngineInvariantError,
    GameConfig,
    GameState,
    IllegalMoveError,
    Move,
    new_game,
    other_player,
    trace_lines,
)
from .formats import emit_graph6
from .graphs import Graph, automorphisms

DEFAULT_VERTEX_CAP = 14
# the most entries the transposition table may hold, up to two per position
# (see above); a solve that needs more raises ResourceLimitError
DEFAULT_ENTRY_CAP = 20_000_000


class ResourceLimitError(RuntimeError):
    """The configured state-space bound was exceeded; results would be
    incomplete, so the solver refuses instead of degrading.  The table
    bound counts entries, and a position takes up to two (its own encoding
    and its folded key)."""


@dataclass(frozen=True)
class SolveResult:
    """``nodes`` counts the positions the search expanded.  It depends on
    the search order, the pruning and the symmetry folded into the memo
    keys, so it is not comparable across versions of the solver, nor between
    memoized and unmemoized solves.  ``best_move`` is the first move of
    ``pv``."""

    winner: str
    nodes: int
    pv: tuple[Move, ...]

    @property
    def best_move(self) -> Move | None:
        return self.pv[0] if self.pv else None

    def to_json(self, graph: Graph, config: GameConfig) -> dict:
        return {
            "graph": emit_graph6(graph),
            "config": config.to_json(),
            "winner": self.winner,
            "nodes": self.nodes,
            "pv": [m.to_json() for m in self.pv],
        }


@dataclass
class VerificationReport:
    """``branches`` counts the game ends the walk reached.  Subtrees shared
    through the memo are walked once, so like ``SolveResult.nodes`` it
    depends on the memo key and is not comparable across versions of the
    walk; ``verified``, ``counterexample`` and ``max_plies`` do not."""

    strategy: str
    role: str
    config: GameConfig
    graph6: str
    verified: bool
    counterexample: list[dict] | None
    branches: int
    max_plies: int

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "role": self.role,
            "config": self.config.to_json(),
            "graph": self.graph6,
            "verified": self.verified,
            "branches": self.branches,
            "max_plies": self.max_plies,
            "counterexample": self.counterexample,
        }


class Solver:
    """The win/lose search of one game, whose table it keeps."""

    def __init__(self, config: GameConfig, graph: Graph, *, use_memo: bool = True):
        env = os.environ.get("DOMGAME_STATE_CAP")
        try:
            cap = int(env) if env else DEFAULT_VERTEX_CAP
        except ValueError:
            raise ConfigError(f"DOMGAME_STATE_CAP must be an integer, not {env!r}") from None
        if graph.n > cap:
            raise ResourceLimitError(
                f"graph has {graph.n} vertices, above the solve bound of {cap} "
                "(raise via DOMGAME_STATE_CAP at your own risk)"
            )
        self.root = new_game(config, graph)
        rules = self.root.rules
        self.expand = rules.expand
        self.n = graph.n
        self.full = graph.full_mask
        self.nbr = graph.nbr_mask
        self.ddg = rules.ddg
        self.use_memo = use_memo
        self.memo: dict[int, str] = {}
        self.nodes = 0
        # a key scans at most 2n images, the most children a node can have
        self.width = (self.n + 1) // 2 if self.n <= 16 else 8
        self.images = [_image_tables(img, self.width)
                       for img in automorphisms(graph, 2 * self.n)] if use_memo else []

    def result(self, state: GameState | None = None) -> SolveResult:
        """The winner of state (the root by default) under optimal play and
        its principal variation: at each step the first child in canonical
        order with the winner's value, which every position on the line
        shares, until the game ends.  A game lasts at most 2n plies: every
        ply but a pass colors a vertex, and only one player ever holds a
        pass right, so the other's selection follows each pass.  ``nodes``
        counts every position this search has expanded so far.  The search
        from state takes the hint that a search from the root would pass it,
        read off the history: the latest move of the player not to move."""
        state = self.root if state is None else state
        if state.graph != self.root.graph or state.config != self.root.config:
            raise ConfigError("state does not belong to the given graph and config")
        if state.winner is not None:
            return SolveResult(state.winner, self.nodes, ())
        cur = state.position()
        hint = next(((mv.vertex, mv.color) for who, mv in reversed(state.history)
                     if who != state.actor), (None, None))
        winner = self.value(*cur, *hint)
        pv = []
        while True:
            for v, c, child in self.expand(*cur):
                nhint = hint if child[4] == cur[4] else (v, c)
                w = child[6] if child[6] is not None else self.value(*child[:6], *nhint)
                if w == winner:
                    break
            else:
                raise EngineInvariantError("position without a child of its value")
            pv.append(PASS if v is None else Move(v, c))
            if child[6] is not None:
                return SolveResult(winner, self.nodes, tuple(pv))
            cur, hint = child[:6], nhint

    # -- search -------------------------------------------------------------

    def _key(self, vp, vb, actor, sel):
        """The least encoding of (vp, vb) over the identity and the stored
        automorphism images, each also palette-swapped in DDG, with the turn
        bits above it: the actor's bit, then sel as the top field, so no
        bound on sel is needed."""
        n = self.n
        if n > 2 * self.width:  # more than two chunks
            return self._chunked_key(vp, vb, actor, sel)
        half = self.width
        low = (1 << half) - 1
        pl, ph, bl, bh = vp & low, vp >> half, vb & low, vb >> half
        if self.ddg:
            best = (vp << n | vb) if vp < vb else (vb << n | vp)
            for lo, hi in self.images:
                a = lo[pl] | hi[ph]
                b = lo[bl] | hi[bh]
                k = (a << n | b) if a < b else (b << n | a)
                if k < best:
                    best = k
        else:
            best = vp | vb << n
            for lo, hi in self.images:
                k = lo[pl] | hi[ph] | (lo[bl] | hi[bh]) << n
                if k < best:
                    best = k
        return best | (actor == DOM) << (2 * n) | sel << (2 * n + 1)

    def _chunked_key(self, vp, vb, actor, sel):
        """``_key`` for n > 16, whose images are looked up a byte at a time."""
        width = self.width
        low = (1 << width) - 1
        best = self._own(vp, vb, actor, sel)
        for tables in self.images:
            a = b = 0
            for i, table in enumerate(tables):
                a |= table[vp >> width * i & low]
                b |= table[vb >> width * i & low]
            best = min(best, self._own(a, b, actor, sel))
        return best

    def _own(self, vp, vb, actor, sel):
        """The position's own encoding: the identity term of ``_key``."""
        n = self.n
        if self.ddg:
            own = (vp << n | vb) if vp < vb else (vb << n | vp)
        else:
            own = vp | vb << n
        return own | (actor == DOM) << (2 * n) | sel << (2 * n + 1)

    def value(self, vp, vb, dp, db, actor, sel, hv=None, hc=None) -> str:
        """The winner of the position (vp, vb, dp, db, actor, sel) under
        optimal play.  (hv, hc) is the hint: the vertex and color of the
        opponent's latest move, the selection that handed the actor this
        turn, or None after a pass and before the first move.  It only
        orders the search (see the module docstring), so it is not part of
        the key, and a child that continues the actor's turn inherits it."""
        if self.use_memo:
            # an exact transposition finds its entry without folding
            own = self._own(vp, vb, actor, sel)
            memo = self.memo
            hit = memo.get(own)
            if hit is not None:
                return hit
            key = own
            if self.images:
                key = self._key(vp, vb, actor, sel)
                hit = memo.get(key)
                if hit is not None:
                    memo[own] = hit
                    self._check_cap()
                    return hit
        self.nodes += 1
        children = self.expand(vp, vb, dp, db, actor, sel)
        if not children:
            raise EngineInvariantError("ongoing position with no moves")
        # an immediate win ends the search; only then recurse
        result = other_player(actor)
        for _v, _c, child in children:
            if child[6] == actor:
                result = actor
                break
        else:
            # the front first: Dom's children in the other color beside the
            # hint's vertex, Sepy's beside the colored vertices; then the
            # rest.  Each sweep keeps canonical order, and a front that holds
            # every open child is dropped, so that one sweep searches all.
            free = self.full & ~(vp | vb)
            if actor == DOM:
                front = self.nbr[hv] & free if hv is not None else 0
                # Dom's bicolored purple always differs from Sepy's blue
                skip = hc if self.ddg else None
            else:
                front, skip = (dp | db) & free, None
            if front == free and skip is None:
                front = 0
            if front:
                for v, c, (cvp, cvb, cdp, cdb, ca, cs, winner) in children:
                    if winner is None and v is not None and c != skip and front >> v & 1:
                        if (self.value(cvp, cvb, cdp, cdb, ca, cs, hv, hc) if ca == actor
                                else self.value(cvp, cvb, cdp, cdb, ca, cs, v, c)) == actor:
                            result = actor
                            break
            if result != actor:
                for v, c, (cvp, cvb, cdp, cdb, ca, cs, winner) in children:
                    if winner is None and (v is None or c == skip or not front >> v & 1):
                        if (self.value(cvp, cvb, cdp, cdb, ca, cs, hv, hc) if ca == actor
                                else self.value(cvp, cvb, cdp, cdb, ca, cs, v, c)) == actor:
                            result = actor
                            break
        if self.use_memo:
            memo[own] = memo[key] = result
            self._check_cap()
        return result

    def _check_cap(self):
        if len(self.memo) > DEFAULT_ENTRY_CAP:
            raise ResourceLimitError(f"transposition table exceeded {DEFAULT_ENTRY_CAP} entries")


def _image_tables(img, width):
    """Lookup tables mapping each ``width``-bit chunk of a vertex mask, from
    the lowest, to its image under ``img``."""
    tables = []
    for shift in range(0, len(img), width):
        table = [0] * (1 << min(width, len(img) - shift))
        for m in range(1, len(table)):
            low = m & -m
            table[m] = table[m ^ low] | 1 << img[shift + low.bit_length() - 1]
        tables.append(table)
    return tables


def solve(config: GameConfig, g: Graph, state: GameState | None = None, *,
          use_memo: bool = True) -> SolveResult:
    """Exact winner under optimal play, with the deterministic best move at
    the root and a principal variation, from a fresh ``Solver``."""
    return Solver(config, g, use_memo=use_memo).result(state)


class _Failed(Exception):
    """A line of play the strategy loses, ending in ``state``; it unwinds the
    verification walk."""

    def __init__(self, state: GameState):
        self.state = state


def verify_strategy(strategy, role: str, config: GameConfig, g: Graph, *,
                    submap=None, seed=None) -> VerificationReport:
    """Certify that `strategy` playing `role` beats every line of opponent
    play on g, or produce the losing playout.

    The walk follows the strategy's unique move on its turns and branches on
    all legal opponent moves (passes included).  Subtrees below opponent
    nodes are shared through a memo only when the strategy declares itself
    history-independent (see the module docstring for the key).
    """
    from .strategies import StrategyViolation, seat

    strat, ctx = seat(strategy, role, config, g, submap=submap, seed=seed)
    start = new_game(config, g)
    rules = start.rules
    use_memo = strat.history_independent
    opponent_passes = rules.may_pass[other_player(role)]
    memo: dict = {}  # key -> the most plies from a node of that key to the end
    leaves = max_plies = 0

    def walk(state: GameState, ply: int) -> int:
        """The most plies from state, an ongoing state after ply plies, to
        the end of any line below it."""
        nonlocal leaves, max_plies
        # a strategy node has one child, whose subtree the opponent node
        # below it shares, so only opponent nodes are memoized
        memo_here = use_memo and state.actor != role
        if memo_here:
            vp, vb = state.vmask
            sel = state.selections_done
            key = (vp, vb, sel)
            # every child of an opponent node without a pass carries the
            # opponent's own selection, so last_select is read nowhere below
            if opponent_passes and \
                    rules.pass_child(vp, vb, *state.dom, state.actor, sel) is not None:
                key += (state.last_select,)
            height = memo.get(key)
            if height is not None:
                # the longest line of the skipped subtree, as if walked again
                if ply + height > max_plies:
                    max_plies = ply + height
                return height
        if state.actor == role:
            try:
                nxt = state.apply(strat.move(state, ctx))
            except IllegalMoveError as exc:
                raise StrategyViolation(str(exc), state) from exc
            strat.check_invariants(nxt, ctx)
            children = ((None, nxt),)
        else:
            children = state.children()
        ply += 1
        height = 0
        for _mv, child in children:
            if child.winner is None:
                h = walk(child, ply)
                if h > height:
                    height = h
            else:
                # a game end, settled here rather than in a call of its own
                leaves += 1
                if ply > max_plies:
                    max_plies = ply
                if child.winner != role:
                    raise _Failed(child)
        height += 1
        if memo_here:
            memo[key] = height
        return height

    verified = True
    counterexample = None
    try:
        walk(start, 0)
    except _Failed as fail:
        verified = False
        counterexample = trace_lines(fail.state)
    # walk refers to itself, so the cyclic collector frees it late; free the
    # memo now
    memo.clear()
    return VerificationReport(
        strategy=strat.sid,
        role=role,
        config=config,
        graph6=emit_graph6(g),
        verified=verified,
        counterexample=counterexample,
        branches=leaves,
        max_plies=max_plies,
    )
