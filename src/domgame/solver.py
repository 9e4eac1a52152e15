"""Exact winner computation and exhaustive strategy certification.

``solve`` runs a memoized win/lose search over the positions of the rules
kernel ``engine.Rules`` (coloring and domination masks plus turn
bookkeeping), the kernel that ``GameState`` plays too; the solver holds no
rule of its own.  Games of this family always end with a winner, so no
scores are needed and the first winning child cuts the branch.  Each
position is expanded once by ``Rules.expand`` into plain tuples; a child
that wins on the spot for the mover is taken before any open child is
searched, and the open ones are then searched in canonical order.  A win/lose value does not depend on
that order, and the best move and PV are still the first child in canonical
order with the right value.

The transposition table is keyed up to symmetry.  Once per solve the solver
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
computes no keys and no automorphisms and serves as the independent oracle.

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
    Rules,
    new_game,
    other_player,
    trace_lines,
)
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
        from .formats import emit_graph6

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


class _Solver:
    """Win/lose search over the positions of the rules kernel."""

    def __init__(self, rules: Rules, *, use_memo: bool = True):
        self.expand = rules.expand
        self.n = rules.graph.n
        self.ddg = rules.ddg
        self.use_memo = use_memo
        self.memo: dict[int, str] = {}
        self.nodes = 0
        # a key scans at most 2n images, the most children a node can have
        self.width = (self.n + 1) // 2 if self.n <= 16 else 8
        self.images = [_image_tables(img, self.width)
                       for img in automorphisms(rules.graph, 2 * self.n)] if use_memo else []

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

    def value(self, vp, vb, dp, db, actor, sel) -> str:
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
        # an immediate win ends the search; only then recurse, in order
        result = other_player(actor)
        for _v, _c, child in children:
            if child[6] == actor:
                result = actor
                break
        else:
            for _v, _c, (cvp, cvb, cdp, cdb, ca, cs, winner) in children:
                if winner is None and self.value(cvp, cvb, cdp, cdb, ca, cs) == actor:
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


def _state_cap() -> int:
    env = os.environ.get("DOMGAME_STATE_CAP")
    if not env:
        return DEFAULT_VERTEX_CAP
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"DOMGAME_STATE_CAP must be an integer, not {env!r}") from None


def solve(config: GameConfig, g: Graph, state: GameState | None = None, *,
          vertex_cap: int | None = None, use_memo: bool = True) -> SolveResult:
    """Exact winner under optimal play, with the deterministic best move at
    the root and a principal variation."""
    cap = vertex_cap if vertex_cap is not None else _state_cap()
    if g.n > cap:
        raise ResourceLimitError(
            f"graph has {g.n} vertices, above the solve bound of {cap} "
            "(raise via DOMGAME_STATE_CAP or vertex_cap at your own risk)"
        )
    root = state if state is not None else new_game(config, g)
    if root.graph != g or root.config != config:
        raise ValueError("state does not belong to the given graph and config")
    if root.winner is not None:
        return SolveResult(root.winner, 0, ())
    solver = _Solver(root.rules, use_memo=use_memo)
    pos = root.position()
    winner = solver.value(*pos)
    pv = _principal_variation(solver, pos, winner)
    return SolveResult(winner, solver.nodes, tuple(pv))


def _principal_variation(solver: _Solver, pos, winner: str, limit: int = 200) -> list[Move]:
    """Best play from pos, whose value is winner: at each step the first
    child in canonical order with that value, which every position on the
    line shares."""
    pv = []
    cur = pos
    for _ in range(limit):
        for v, c, child in solver.expand(*cur):
            w = child[6] if child[6] is not None else solver.value(*child[:6])
            if w == winner:
                break
        else:
            raise EngineInvariantError("position without a child of its value")
        pv.append(PASS if v is None else Move(v, c))
        if child[6] is not None:
            break
        cur = child[:6]
    return pv


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
    from .formats import emit_graph6
    from .strategies import NotApplicable, StrategyViolation, get_strategy

    strat = get_strategy(strategy) if isinstance(strategy, str) else strategy
    if strat.role is not None and strat.role != role:
        raise NotApplicable(f"strategy {strat.sid} plays {strat.role}, not {role}")
    ctx = strat.prepare(config, g, submap=submap, seed=seed)
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
