"""Move-selection strategies for both games, plus baseline adversaries.

Every strategy is a pure function of the current state (including its
history) and an immutable per-game context built by ``prepare``; identical
states always yield identical moves.  Ties are always broken by lowest
vertex index, purple before blue.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

from .engine import (
    BDG,
    BLUE,
    DDG,
    DOM,
    PASS,
    PURPLE,
    SEPY,
    GameConfig,
    GameState,
    Move,
    opposite,
    selection,
)
from .graphs import Graph, SubdivisionMap, bits, induced_subgraph, is_connected, nested_pair, subdivide3
from .matching import MatchingStructure, matching_plan


class NotApplicable(ValueError):
    """The strategy's preconditions (game, seat, graph shape) are unmet."""


class StrategyViolation(RuntimeError):
    """The strategy could not produce a rule-compliant move; carries the
    offending state when available."""

    def __init__(self, message: str, state: GameState | None = None):
        super().__init__(message)
        self.state = state


# --- shared opposite-neighbor search ---------------------------------------

def _ons_search(state: GameState, anchor_v: int, anchor_c: int, region: int | None = None) -> Move | None:
    """The opposite-neighbor move: answer the anchor vertex with the
    complementary color on a neighbor; otherwise fall back to the frontier
    construction over the vertices dominated by zero / exactly one color.

    region restricts the fallback to one component.  Returns None when no
    compliant move exists (caller decides whether that is an error).
    """
    g = state.graph
    reg = g.full_mask if region is None else region

    # rule 1: the least uncolored neighbor of the anchor that may take the
    # opposite color, that is whose closed neighborhood is not yet dominated
    # in it (the game is disjoint, so the actor holds both colors)
    want = opposite(anchor_c)
    vp, vb = state.vmask
    free = g.nbr_mask[anchor_v] & ~(vp | vb)
    undom = ~state.dom[want]
    while free:
        low = free & -free
        u = low.bit_length() - 1
        if g.closed_mask[u] & undom:
            return selection(u, want)
        free ^= low

    # rule 2a: frontier between the dominated region and the untouched one
    dom_any = (state.dom[PURPLE] | state.dom[BLUE]) & reg
    undom = reg & ~dom_any & g.full_mask
    uncolored = state.uncolored_mask()
    if undom:
        for u in bits(uncolored & reg & dom_any):
            if not g.nbr_mask[u] & undom:
                continue
            # move color is the opposite of a colored neighbor; prefer purple
            if g.nbr_mask[u] & vb:
                return selection(u, PURPLE)
            if g.nbr_mask[u] & vp:
                return selection(u, BLUE)

    # rule 2b: a vertex dominated in exactly one color gets (or passes on)
    # the missing color
    single = state.single_dominated_mask() & reg
    if single:
        u = (single & -single).bit_length() - 1
        have = PURPLE if state.dom[PURPLE] >> u & 1 else BLUE
        want = opposite(have)
        if uncolored >> u & 1:
            return selection(u, want)
        for w in g.adj[u]:
            if uncolored >> w & 1:
                return selection(w, want)
        raise StrategyViolation(
            f"vertex {u} lacks an uncolored neighbor in an ongoing game", state
        )
    return None


def _anchor(state: GameState) -> tuple[int, int]:
    """(vertex, color) of the latest selection, whoever made it."""
    if state.last_select is None:
        raise StrategyViolation("no selection in the history to answer", state)
    return state.last_select[:2]


def _answer(state: GameState) -> Move:
    """The opposite-neighbor answer to the latest selection."""
    v, c = _anchor(state)
    mv = _ons_search(state, v, c)
    if mv is None:
        raise StrategyViolation("no opposite-neighbor move available", state)
    return mv


# --- strategy objects -------------------------------------------------------

class Strategy:
    sid = "?"
    role: str | None = DOM  # None means either seat
    # True when move and check_invariants read the history only through
    # last_select, so a verification walk may share the subtrees below
    # opponent nodes that agree on position and last_select
    history_independent = True

    def prepare(self, config: GameConfig, graph: Graph, *, submap=None, seed=None):
        """Validate applicability and build the per-game context."""
        return None

    def move(self, state: GameState, ctx) -> Move:
        raise NotImplementedError

    def check_invariants(self, state: GameState, ctx) -> None:
        """Called on the state right after this strategy's move during
        verification runs."""


def _require(cond: bool, message: str):
    if not cond:
        raise NotApplicable(message)


def _every_colored_has_opposite_neighbor(state: GameState) -> bool:
    # a purple vertex is not blue, so it lies in some N[b] of a blue b, that
    # is in the blue-dominated mask, exactly when it has a blue neighbor
    vp, vb = state.vmask
    dp, db = state.dom
    return not (vp & ~db or vb & ~dp)


class Ons(Strategy):
    """Dom answers the latest selection with the complementary color next to
    it, falling back to the frontier construction.  Without passes turns
    alternate, so the latest selection before Dom's move is always Sepy's."""

    sid = "ons"
    role = DOM

    def prepare(self, config, graph, *, submap=None, seed=None):
        _require(config == GameConfig(DDG, SEPY),
                 "opposite-neighbor play is for the Sepy-start disjoint game without passes")
        _require(is_connected(graph), "opposite-neighbor play assumes a connected graph")
        return None

    def move(self, state, ctx):
        return _answer(state)

    def check_invariants(self, state, ctx):
        if not _every_colored_has_opposite_neighbor(state):
            raise StrategyViolation(
                "a colored vertex lacks an opposite-colored neighbor", state
            )


class Onsp(Ons):
    """``Ons`` with passing allowed: the same answer to the latest selection,
    which after a Sepy pass is Dom's own."""

    sid = "onsp"

    def prepare(self, config, graph, *, submap=None, seed=None):
        _require(replace(config, pass_rights="none") == GameConfig(DDG, SEPY),
                 "pass-aware opposite-neighbor play is for the Sepy-start disjoint (1:1) game")
        _require(is_connected(graph), "pass-aware opposite-neighbor play assumes a connected graph")
        return None


class DomStartSafe(Strategy):
    """Dom opens on a vertex whose closed neighborhood contains another one,
    then switches to opposite-neighbor play."""

    sid = "dom-start-safe"
    role = DOM

    def prepare(self, config, graph, *, submap=None, seed=None):
        _require(replace(config, pass_rights="none") == GameConfig(DDG, DOM),
                 "safe-start play is for the Dom-start disjoint (1:1) game")
        _require(is_connected(graph), "safe-start play assumes a connected graph")
        v = nested_pair(graph)
        _require(v is not None, "no pair of nested closed neighborhoods")
        return v

    def move(self, state, ctx):
        if not state.history:
            return selection(ctx, PURPLE)
        return _answer(state)


def _dom_win_opening(graph: Graph) -> Move | None:
    """First move of a winning line in the least Dom-win component of the
    Dom-start no-pass disjoint game, or None if no component is Dom-win."""
    from .solver import solve

    cfg = GameConfig(variant=DDG, starter=DOM)
    for comp_mask in graph.component_masks():
        sub, old_ids = induced_subgraph(graph, bits(comp_mask))
        res = solve(cfg, sub)
        if res.winner == DOM:
            mv = res.best_move
            return selection(old_ids[mv.vertex], mv.color)
    return None


class DomPass(Strategy):
    """With pass rights, Dom shadows Sepy's component with opposite-neighbor
    play and passes when that component is exhausted; a Dom start opens a
    component the exact solver certifies as Dom-win."""

    sid = "dom-pass"
    role = DOM

    def prepare(self, config, graph, *, submap=None, seed=None):
        _require(config == GameConfig(DDG, config.starter, pass_rights=DOM),
                 "pass-based play is for the disjoint game with Dom's pass rights")
        opening = None
        if config.starter == DOM:
            opening = _dom_win_opening(graph)
            _require(opening is not None, "no Dom-win component to open")
        return opening

    def move(self, state, ctx):
        if not state.history:  # the first move is never a pass
            if ctx is None:
                raise StrategyViolation("missing opening move", state)
            return ctx
        v, c = _anchor(state)
        region = state.graph.component_of(v)
        if not any(state.select_legal(u, col)
                   for u in bits(state.uncolored_mask() & region) for col in (PURPLE, BLUE)):
            return PASS  # no legal selection left in that component
        mv = _ons_search(state, v, c, region)
        if mv is None:
            raise StrategyViolation(
                "component holds legal moves but no opposite-neighbor move", state
            )
        return mv


class BiasedDom(Strategy):
    """Dom's play for several selections per turn against a single Sepy
    selection: pass-aware opposite-neighbor play, with fresh components
    always opened by an arbitrary vertex immediately answered on the next
    selection.

    The exception: when the prescribed opposite-neighbor move would finish
    the touched region with exactly two selections left, that completion is
    skipped (the abandoned component is safe, being one move from done) and
    both selections go into a fresh component instead.  A lone unanswered
    opener is never left behind; ending a turn that way is losing (e.g. one
    purple leaf of a path invites a monochromatic reply-fork).
    """

    sid = "biased-dom"
    role = DOM

    def prepare(self, config, graph, *, submap=None, seed=None):
        _require(config.variant == DDG, "biased play is for the disjoint game")
        _require(config.d >= 2 and config.s == 1, "biased play needs d >= 2 selections against 1")
        return None

    def move(self, state, ctx):
        g = state.graph
        colored = state.vmask[PURPLE] | state.vmask[BLUE]
        fresh = [m for m in g.component_masks() if not m & colored]
        remaining = state.config.d - state.selections_done
        mv = None
        if state.last_select is not None:
            v, c, _actor = state.last_select
            mv = _ons_search(state, v, c)
        if mv is not None:
            if remaining == 2 and fresh and _completes_touched(state, mv):
                return _opener(fresh[0])
            return mv
        if fresh:
            return _opener(fresh[0])
        raise StrategyViolation("no biased-play move available", state)


def _completes_touched(state: GameState, mv: Move) -> bool:
    """Would this selection leave every touched component dominated in both
    colors?"""
    g = state.graph
    new_dom = list(state.dom)
    new_dom[mv.color] |= g.closed_mask[mv.vertex]
    both = new_dom[PURPLE] & new_dom[BLUE]
    colored = state.vmask[PURPLE] | state.vmask[BLUE] | (1 << mv.vertex)
    return all(
        m & ~both == 0
        for m in g.component_masks()
        if m & colored
    )


def _opener(comp_mask: int) -> Move:
    return selection((comp_mask & -comp_mask).bit_length() - 1, PURPLE)


# --- bicolored-game strategies ----------------------------------------------

@dataclass(frozen=True)
class BdgPlan:
    """Static matching data for Dom's bicolored play; the dynamic parts
    (which endpoints are colored, Sepy's latest move) are read off the state."""

    matching: MatchingStructure
    partner: tuple[int, ...]  # matched partner or -1
    centers: frozenset[int]  # centers of star edges
    external_mask: int

    @staticmethod
    def build(graph: Graph) -> "BdgPlan":
        struct = matching_plan(graph)
        partner = struct.partner_table(graph.n)
        centers = frozenset(
            k.center for k in struct.kinds if k.kind == "star"
        )
        ext = 0
        for v in struct.external:
            ext |= 1 << v
        return BdgPlan(struct, tuple(partner), centers, ext)


def _bdg_partner_reply(state: GameState, plan: BdgPlan) -> Move | None:
    last = state.last_select
    if last is None:
        return None
    v, c, _actor = last
    if c != BLUE:
        return None
    p = plan.partner[v]
    if p != -1 and state.select_legal(p, PURPLE):
        return selection(p, PURPLE)
    return None


class BdgMatching(Strategy):
    """Perfect-matching play: answer Sepy inside his matching edge when
    legal, otherwise take a vertex of an untouched edge."""

    sid = "bdg-matching"
    role = DOM

    def prepare(self, config, graph, *, submap=None, seed=None):
        _require(config.variant == BDG, "matching play is for the bicolored game")
        plan = BdgPlan.build(graph)
        _require(not plan.matching.external, "graph has no perfect matching")
        return plan

    def move(self, state, ctx):
        mv = _bdg_partner_reply(state, ctx)
        if mv is not None:
            return mv
        colored = state.vmask[PURPLE] | state.vmask[BLUE]
        for v in bits(state.uncolored_mask()):
            p = ctx.partner[v]
            if p < 0 or colored >> p & 1:
                continue
            if state.select_legal(v, PURPLE):
                return selection(v, PURPLE)
        # the partner of a blue vertex was tried by the reply right after
        # Sepy colored it, and purple legality only shrinks after that
        raise StrategyViolation("no matching-play move available", state)

    def check_invariants(self, state, ctx):
        _check_one_purple_per_edge(state, ctx)


def _check_one_purple_per_edge(state: GameState, plan: BdgPlan):
    vp = state.vmask[PURPLE]
    for u, v in plan.matching.pairs:
        if vp >> u & 1 and vp >> v & 1:
            raise StrategyViolation(
                f"both endpoints of matching edge ({u},{v}) are purple", state
            )


class BdgGeneral(Strategy):
    """Bicolored play from a maximum matching: partner replies first, then
    the least matching vertex that opens star edges at their center, never
    doubles an edge and keeps every blue vertex purple-dominated; externals
    only as a last resort."""

    sid = "bdg-general"
    role = DOM

    def prepare(self, config, graph, *, submap=None, seed=None):
        _require(config.variant == BDG, "general bicolored play is for the bicolored game")
        return BdgPlan.build(graph)

    def move(self, state, ctx):
        mv = _bdg_partner_reply(state, ctx)
        if mv is not None:
            return mv
        g = state.graph
        vp, vb = state.vmask[PURPLE], state.vmask[BLUE]
        colored = vp | vb
        for v in bits(state.uncolored_mask() & ~ctx.external_mask):
            p = ctx.partner[v]
            if vp >> p & 1:
                continue  # never a second endpoint of one edge
            edge_untouched = not (colored >> v & 1 or colored >> p & 1)
            if edge_untouched and (v in ctx.centers or p in ctx.centers) and v not in ctx.centers:
                continue  # a fresh star edge must be opened at its center
            if not state.select_legal(v, PURPLE):
                continue
            if vb & ~(state.dom[PURPLE] | g.closed_mask[v]):
                continue  # every blue vertex must end up purple-dominated
            return selection(v, PURPLE)
        for v in bits(state.uncolored_mask() & ctx.external_mask):
            if state.select_legal(v, PURPLE):
                return selection(v, PURPLE)
        raise StrategyViolation("no rule-compliant bicolored move available", state)

    def check_invariants(self, state, ctx):
        _check_one_purple_per_edge(state, ctx)
        if state.vmask[BLUE] & ~state.dom[PURPLE]:
            raise StrategyViolation("a blue vertex has no purple vertex in reach", state)


# --- Sepy's constructions ---------------------------------------------------

def _dom_opening(state: GameState, what: str) -> tuple[int, int]:
    """(vertex, color) of Dom's opening selection, which ``what`` answers."""
    first_actor, first_move = state.history[0]
    if first_actor != DOM or first_move.is_pass:
        raise StrategyViolation(f"{what} expects Dom's opening selection", state)
    return first_move.vertex, first_move.color


class SepyCycle(Strategy):
    """Sepy's four-ply win on long cycles when Dom starts: echo Dom's color
    next to his opening, then close a monochromatic stretch on whichever
    side Dom failed to guard.

    Positions count along the cycle from Dom's opening (position 1) through
    its lesser neighbor (position 2), so position n is its other neighbor."""

    sid = "sepy-cycle"
    role = SEPY
    history_independent = False  # decisions hinge on the move order in the history

    def prepare(self, config, graph, *, submap=None, seed=None):
        _require(config == GameConfig(DDG, DOM),
                 "cycle play is for the Dom-start disjoint game without passes")
        _require(graph.n >= 8 and is_connected(graph)
                 and all(graph.degree(v) == 2 for v in range(graph.n)),
                 "graph is not a cycle of length at least 8")

    def move(self, state, ctx):
        adj = state.graph.adj
        v0, color = _dom_opening(state, "cycle play")  # Sepy echoes Dom's color
        near, far = adj[v0]
        if state.ply() == 1:  # nobody may pass, so every ply is a selection
            return selection(near, color)
        if state.ply() == 3:
            walk = [v0, near]  # positions 1, 2, ...
            while len(walk) < 5:
                a, b = adj[walk[-1]]
                walk.append(b if a == walk[-2] else a)
            dom_second = state.history[2][1].vertex
            return selection(far if dom_second in walk[2:] else walk[2], color)
        raise StrategyViolation("cycle play should have won by its second move", state)


class SepySubdiv(Strategy):
    """Sepy's win on triple subdivisions of graphs with minimum degree two
    when Dom starts: a double threat beside a subdivision-vertex opening, or
    one threat per incident path after a base-vertex opening."""

    sid = "sepy-subdiv"
    role = SEPY
    history_independent = False  # reads Dom's opening from the history

    def prepare(self, config, graph, *, submap=None, seed=None):
        _require(config == GameConfig(DDG, DOM),
                 "subdivision play is for the Dom-start disjoint game without passes")
        _require(isinstance(submap, SubdivisionMap), "needs the subdivision bookkeeping of the graph")
        sub, _ = subdivide3(submap.base)
        _require(sub == graph, "graph does not match the subdivision bookkeeping")
        _require(submap.base.min_degree() >= 2, "base graph needs minimum degree 2")
        return submap

    def move(self, state, ctx):
        win = state.immediate_win()
        if win is not None:
            return win
        v0, c0 = _dom_opening(state, "subdivision play")
        if ctx.is_sub_vertex(v0):
            inner = ctx.inner_partner(v0)
            if state.select_legal(inner, c0):
                return selection(inner, c0)
            raise StrategyViolation("double-threat reply unavailable", state)
        candidates = sorted(near for near, _far, _opp in ctx.paths_at(v0))
        for near in candidates:
            if state.select_legal(near, c0):
                return selection(near, c0)
        raise StrategyViolation("no open threat on the opened base vertex", state)


# --- baseline adversaries ----------------------------------------------------

def _state_digest(state: GameState, seed) -> int:
    raw = (
        f"{seed}|{state.vmask[PURPLE]}|{state.vmask[BLUE]}|{state.actor}|"
        f"{state.selections_done}|{bool(state.history)}|{state.last_select}"
    )
    return int.from_bytes(hashlib.sha256(raw.encode()).digest()[:8], "big")


class RandomStrategy(Strategy):
    """Uniform over the legal moves, deterministic per (seed, state)."""

    sid = "random"
    role = None

    def prepare(self, config, graph, *, submap=None, seed=None):
        return 0 if seed is None else seed

    def move(self, state, ctx):
        moves = state.legal_moves()
        rng = random.Random(_state_digest(state, ctx))
        return moves[rng.randrange(len(moves))]


class GreedyWin(RandomStrategy):
    """An immediately winning selection when one exists, otherwise random."""

    sid = "greedy"

    def move(self, state, ctx):
        win = state.immediate_win()
        if win is not None:
            return win
        return super().move(state, ctx)


_REGISTRY = {cls.sid: cls for cls in (Ons, Onsp, DomStartSafe, DomPass, BiasedDom, BdgMatching,
                                      BdgGeneral, SepyCycle, SepySubdiv, RandomStrategy, GreedyWin)}


def strategy_ids() -> list[str]:
    return sorted(_REGISTRY)


def get_strategy(sid: str) -> Strategy:
    if sid not in _REGISTRY:
        raise KeyError(f"unknown strategy {sid!r}; known: {', '.join(strategy_ids())}")
    return _REGISTRY[sid]()


def seat(strategy, role: str, config: GameConfig, graph: Graph, *, submap=None, seed=None):
    """Seat a strategy (an id or an instance) as role on this game: refuse a
    strategy made for the other seat, then prepare it.  Returns the strategy
    and its per-game context."""
    strat = get_strategy(strategy) if isinstance(strategy, str) else strategy
    _require(strat.role in (None, role), f"strategy {strat.sid} plays {strat.role}, not {role}")
    return strat, strat.prepare(config, graph, submap=submap, seed=seed)
