"""Rules engine for the two domination games.

Two players, Dom and Sepy, alternately color vertices purple or blue.  A
coloring of v with c is legal when v is uncolored and some vertex of N[v] is
not yet dominated in c.  Sepy wins the moment some closed neighborhood
becomes monochromatic; in the disjoint game (DDG) Dom wins when both color
classes dominate every vertex, and in the bicolored game (BDG, Dom plays
only purple, Sepy only blue) Dom wins when neither player can move and no
monochromatic closed neighborhood exists.

The rules are written once, in ``Rules``: a kernel on raw bitmasks that lists
a position's children.  ``GameState`` plays it move by move and the solver
searches it directly.  States are value-like: ``apply`` returns a fresh state
and never mutates its input, so undo is just keeping the old reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, bits

UNCOLORED = -1
PURPLE = 0
BLUE = 1
COLOR_NAMES = ("purple", "blue")

DOM = "dom"
SEPY = "sepy"

DDG = "ddg"
BDG = "bdg"


def opposite(color: int) -> int:
    return 1 - color


def other_player(actor: str) -> str:
    return SEPY if actor == DOM else DOM


class ConfigError(ValueError):
    """Invalid game configuration or setup graph."""


class IllegalMoveError(ValueError):
    """Move rejected by the rules; the state is unchanged."""


class EngineInvariantError(AssertionError):
    """A rule-level invariant failed; indicates an engine bug."""


@dataclass(frozen=True)
class Move:
    """Either a vertex selection with a color, or a pass (both fields None)."""

    vertex: int | None = None
    color: int | None = None

    @property
    def is_pass(self) -> bool:
        return self.vertex is None

    def to_json(self):
        if self.is_pass:
            return "pass"
        return {"v": self.vertex, "c": COLOR_NAMES[self.color]}

    @staticmethod
    def from_json(obj) -> "Move":
        if obj == "pass":
            return PASS
        if isinstance(obj, dict) and type(obj.get("v")) is int and obj.get("c") in COLOR_NAMES:
            return Move(obj["v"], COLOR_NAMES.index(obj["c"]))
        raise IllegalMoveError(f"malformed move {obj!r}")

    def __repr__(self) -> str:
        if self.is_pass:
            return "Move(pass)"
        return f"Move({self.vertex},{COLOR_NAMES[self.color]})"


PASS = Move()
# the move that colors vertex v with color c, shared: a Move is immutable, so
# kernel children and strategies take one per (v, c) instead of building
# their own.  Callers pass only vertex indices of a graph and the two
# colors, so it holds at most two moves per vertex index.
selection = lru_cache(maxsize=None)(Move)


@dataclass(frozen=True)
class GameConfig:
    """The parameters of a game: variant, starter, per-turn selection counts
    and the holder of pass rights.  The rights they grant, each player's
    colors and who may pass, are worked out once, in ``Rules``.

    In a biased game Dom colors exactly d vertices per turn (fewer only when
    the game ends, as nobody is stranded) while Sepy colors at most s and may
    pass; that pass right is part of the biased rules, so it is in force
    whenever (d, s) != (1, 1) regardless of pass_rights, and it is what lets
    Sepy stop a turn early.  A pass needs pass rights and a colored vertex,
    so nobody passes on the game's very first move.
    """

    variant: str = DDG
    starter: str = SEPY
    d: int = 1
    s: int = 1
    pass_rights: str = "none"  # "none" | "dom" | "sepy"

    def __post_init__(self):
        if self.variant not in (DDG, BDG):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.starter not in (DOM, SEPY):
            raise ConfigError(f"unknown starter {self.starter!r}")
        if self.pass_rights not in ("none", DOM, SEPY):
            raise ConfigError(f"unknown pass rights {self.pass_rights!r}")
        if self.d < 1 or self.s < 1:
            raise ConfigError("selection counts d and s must be at least 1")
        if self.variant == BDG and (self.d, self.s) != (1, 1):
            raise ConfigError("the bicolored game requires d = s = 1")
        if self.biased and self.pass_rights == DOM:
            raise ConfigError("Dom cannot hold pass rights in a biased game")

    @property
    def biased(self) -> bool:
        return (self.d, self.s) != (1, 1)

    def to_json(self):
        return {
            "variant": self.variant,
            "start": self.starter,
            "d": self.d,
            "s": self.s,
            "pass": self.pass_rights,
        }


class Rules:
    """The rules of one game on raw bitmasks: the kernel that ``GameState``
    plays and the solver searches.

    A position is (vp, vb, dp, db, actor, sel): the purple and blue vertex
    masks, the masks of the vertices dominated in purple and in blue, the
    player to move and the selections made this turn.  The one rule that
    asks about history, no pass before the first move, only needs to know
    whether any vertex is colored: a selection always colors a vertex, a
    pass colors none and nothing is ever uncolored, so no move has been
    made exactly when vp | vb == 0; a pass needs that and a pass right.
    dp and db follow from vp and vb too, but every child reads them and
    recomputing them costs a loop over the colored vertices, so they are
    carried.  ``expand`` lists a position's children; the other methods
    serve it.

    The rules also hold the rights the config grants: ``colors`` maps each
    player to the colors he may use (both in the disjoint game; Dom purple
    and Sepy blue in the bicolored one), and ``may_pass`` to whether he
    holds a pass right (Dom with pass rights "dom"; Sepy with pass rights
    "sepy", and in every biased game).  ``turn`` maps each player to the
    data of his turn, (the other player, his selections per turn, his
    colors), so that ``expand`` sets up with one lookup.

    Nobody is stranded in the disjoint game: while nobody has won, both
    players can select.  Were no uncolored vertex selectable, a colored w
    with an uncolored neighbour u would lie in N[u], dominated in both
    colors; otherwise w's neighbours (it has some) are colored, and one has
    the other color, or N[w] would be monochromatic.  So both colors would
    dominate every vertex: a Dom win.  This holds inside a component too.
    """

    def __init__(self, config: GameConfig, graph: Graph):
        self.cfg = config
        self.graph = graph
        self.full = graph.full_mask
        self.closed = graph.closed_mask
        self.closed_verts = tuple(tuple(bits(m)) for m in graph.closed_mask)
        self.ddg = config.variant == DDG
        self.colors = ({DOM: (PURPLE, BLUE), SEPY: (PURPLE, BLUE)} if self.ddg
                       else {DOM: (PURPLE,), SEPY: (BLUE,)})
        self.may_pass = {DOM: config.pass_rights == DOM,
                         SEPY: config.pass_rights == SEPY or config.biased}
        self.turn = {DOM: (SEPY, config.d, self.colors[DOM]),
                     SEPY: (DOM, config.s, self.colors[SEPY])}

    def is_vertex(self, v) -> bool:
        return type(v) is int and 0 <= v < self.graph.n

    def has_select(self, vp, vb, dp, db, actor):
        undom = 0
        for c in self.colors[actor]:
            undom |= ~(dp if c == PURPLE else db)
        uncolored = self.full & ~(vp | vb)
        if uncolored & undom:
            return True  # v is in N[v]: the loop below would stop at v
        closed = self.closed
        for v in bits(uncolored):
            if closed[v] & undom:
                return True
        return False

    def pass_child(self, vp, vb, dp, db, actor, sel):
        """The child (vp, vb, dp, db, actor', 0, None) of a pass, or None
        when passing is illegal here.  A pass needs the actor's pass right
        and a colored vertex; sel is unread, since Sepy has made selections
        this turn only in a biased game, whose pass right lets him stop
        early.  A pass never ends the game: it is legal only when the
        opponent, who moves next, can select."""
        if not (vp | vb and self.may_pass[actor]):
            return None
        # a pass that leaves the opponent with no selection would stall the
        # game; only the bicolored game strands a player (see the class)
        other = other_player(actor)
        if not self.has_select(vp, vb, dp, db, other):
            return None
        return vp, vb, dp, db, other, 0, None

    def expand(self, vp, vb, dp, db, actor, sel, only=None):
        """The children in canonical order (vertex ascending, the actor's
        colors in order, the pass last) as (vertex, color, child) tuples;
        vertex and color are None for the pass, and child is (vp, vb, dp,
        db, actor, sel, winner_or_None).  When ``only`` is a selection
        (vertex, color), just its child is listed, or nothing when it is
        illegal."""
        full = self.full
        closed = self.closed
        closed_verts = self.closed_verts
        ddg = self.ddg
        other, cap, colors = self.turn[actor]
        nsel = sel + 1
        may_continue = nsel < cap
        verts = full & ~(vp | vb)
        if only is not None:
            ov, oc = only
            verts &= 1 << ov if type(ov) is int and 0 <= ov < self.graph.n else 0
            # the kernel's own value of the color, so children carry an int
            colors = () if oc not in colors else (PURPLE,) if oc == PURPLE else (BLUE,)
        out = []
        while verts:
            cbit = verts & -verts
            verts ^= cbit
            v = cbit.bit_length() - 1
            nbhd = closed[v]
            for c in colors:
                if c == PURPLE:
                    if not nbhd & ~dp:
                        continue
                    nvp, nvb, ndp, ndb = vp | cbit, vb, dp | nbhd, db
                    vcmask = nvp
                else:
                    if not nbhd & ~db:
                        continue
                    nvp, nvb, ndp, ndb = vp, vb | cbit, dp, db | nbhd
                    vcmask = nvb
                winner = None
                for u in closed_verts[v]:
                    if not closed[u] & ~vcmask:
                        winner = SEPY
                        break
                nactor, csel = actor, nsel
                if winner is None:
                    if ddg and ndp == full and ndb == full:
                        winner = DOM
                    elif may_continue:
                        pass  # same actor continues the turn: nobody is stranded
                    elif ddg or self.has_select(nvp, nvb, ndp, ndb, other):
                        nactor, csel = other, 0
                    elif self.has_select(nvp, nvb, ndp, ndb, actor):
                        csel = 0  # the bicolored game skips a stuck player
                    else:
                        nactor, csel, winner = other, 0, DOM  # both are stuck
                out.append((v, c, (nvp, nvb, ndp, ndb, nactor, csel, winner)))
        if only is None:
            child = self.pass_child(vp, vb, dp, db, actor, sel)
            if child is not None:
                out.append((None, None, child))
        return out


class GameState:
    """A kernel position plus the record of how play reached it.

    vmask and dom are the (purple, blue) masks of colored and of dominated
    vertices; actor and selections_done are the turn bookkeeping; winner,
    the state's one outcome field, is None while the game is on (``witness``
    names Sepy's monochromatic neighborhood).  history holds (actor, move)
    pairs and last_select is (vertex, color, actor) of the latest selection.
    """

    __slots__ = (
        "rules", "vmask", "dom", "actor", "selections_done", "winner", "history",
        "last_select",
    )

    def __init__(self):
        raise TypeError("use new_game() to create states")

    # -- queries ----------------------------------------------------------

    @property
    def graph(self) -> Graph:
        return self.rules.graph

    @property
    def config(self) -> GameConfig:
        return self.rules.cfg

    def witness(self) -> tuple[int, int] | None:
        """(u, color) for the least monochromatic N[u] after a Sepy win,
        else None."""
        if self.winner != SEPY:
            return None
        # Sepy won with the latest selection, so every monochromatic closed
        # neighborhood is around its vertex
        v, c, _actor = self.last_select
        closed, colored = self.rules.closed, self.vmask[c]
        return next(u for u in self.rules.closed_verts[v] if not closed[u] & ~colored), c

    @property
    def colors(self) -> list[int]:
        """UNCOLORED, PURPLE or BLUE per vertex, read off the masks."""
        vp, vb = self.vmask
        return [PURPLE if vp >> v & 1 else BLUE if vb >> v & 1 else UNCOLORED
                for v in range(self.graph.n)]

    def position(self) -> tuple:
        """The kernel position (vp, vb, dp, db, actor, sel)."""
        return (*self.vmask, *self.dom, self.actor, self.selections_done)

    def uncolored_mask(self) -> int:
        return self.rules.full & ~(self.vmask[PURPLE] | self.vmask[BLUE])

    def single_dominated_mask(self) -> int:
        """Vertices dominated in exactly one color."""
        return self.dom[PURPLE] ^ self.dom[BLUE]

    def select_legal(self, v: int, c: int) -> bool:
        """Whether the actor may color v with c: the one rule predicate
        outside the kernel, for strategies that weigh a single move."""
        rules = self.rules
        if not rules.is_vertex(v) or c not in rules.colors[self.actor]:
            return False
        if (self.vmask[PURPLE] | self.vmask[BLUE]) >> v & 1:
            return False
        return bool(rules.closed[v] & ~self.dom[c])

    def ply(self) -> int:
        return len(self.history)

    # -- transitions -------------------------------------------------------

    def _expand_all(self) -> list:
        """The kernel's children of this state (see ``Rules.expand``), none
        once the game is over."""
        if self.winner is not None:
            return []
        out = self.rules.expand(*self.position())
        if not out:
            raise EngineInvariantError("ongoing state with no legal move for the actor")
        return out

    def legal_moves(self) -> list[Move]:
        """The legal moves in canonical order (vertex ascending, the actor's
        colors in order, the pass last), read off the kernel's children."""
        return [PASS if v is None else selection(v, c) for v, c, _child in self._expand_all()]

    def children(self) -> list[tuple[Move, "GameState"]]:
        """(move, successor) for every legal move, in ``legal_moves`` order."""
        return [self._successor(v, c, child) for v, c, child in self._expand_all()]

    def immediate_win(self) -> Move | None:
        """The least selection that wins the game on the spot for the actor,
        or None.  A pass never ends the game."""
        for v, c, child in self._expand_all():
            if child[6] == self.actor:
                return selection(v, c)
        return None

    def apply(self, move: Move) -> "GameState":
        """The state after move, or IllegalMoveError.  A selection is
        checked and played by ``Rules.expand`` restricted to it, so one rule
        both lists children and checks moves.  The successor then passes the
        engine's invariant checks; among them, a disjoint-game turn handed
        over must leave the new actor a move, which one mask test proves for
        almost every turn (see ``_successor``)."""
        if self.winner is not None:
            raise IllegalMoveError("game is over")
        if move.is_pass:
            child = self.rules.pass_child(*self.position())
            if child is None:
                raise IllegalMoveError(f"{self.actor} may not pass here")
            return self._successor(None, None, child)[1]
        v, c = move.vertex, move.color
        vp, vb = self.vmask
        dp, db = self.dom
        found = self.rules.expand(vp, vb, dp, db, self.actor, self.selections_done, (v, c))
        if not found:
            name = COLOR_NAMES[c] if c in (PURPLE, BLUE) else repr(c)
            raise IllegalMoveError(f"{self.actor} cannot color vertex {v!r} {name}")
        return self._successor(*found[0])[1]

    def _successor(self, v, c, child) -> tuple[Move, "GameState"]:
        """The move and state of a kernel child, after the engine's own
        invariant checks (the solver's search runs none).

        One of them is that a disjoint-game turn handed over leaves the new
        actor a move.  An uncolored vertex that is not dominated in both
        colors is itself a legal selection in the color it lacks, since it
        lies in its own closed neighborhood, so one mask test proves almost
        every such turn feasible; only the rest ask ``has_select`` and
        ``pass_child``."""
        rules = self.rules
        vp, vb, dp, db, actor, sel, winner = child
        if v is None:
            move, last = PASS, self.last_select
        else:
            move, last = selection(v, c), (v, c, self.actor)
            if not rules.closed[v] & ~(vb if c else vp):
                raise EngineInvariantError(
                    "legal selection made its own closed neighborhood monochromatic"
                )
        if winner is None:
            # a disjoint-game turn just changed hands: nobody is stranded (see Rules)
            if (rules.ddg and sel == 0 and not rules.full & ~(vp | vb) & ~(dp & db)
                    and not rules.has_select(vp, vb, dp, db, actor)
                    and rules.pass_child(vp, vb, dp, db, actor, sel) is None):
                raise EngineInvariantError(
                    "ongoing disjoint-game state without a feasible move"
                )
        elif winner == DOM and not rules.ddg and not dp == db == rules.full:
            # with no monochromatic closed neighborhood, a stuck player's
            # color class must dominate every vertex
            raise EngineInvariantError(
                "bicolored game ended without two dominating color classes"
            )
        st = object.__new__(GameState)
        st.rules = rules
        st.vmask = (vp, vb)
        st.dom = (dp, db)
        st.actor = actor
        st.selections_done = sel
        st.winner = winner
        st.history = self.history + ((self.actor, move),)
        st.last_select = last
        return move, st


def new_game(config: GameConfig, g: Graph) -> GameState:
    """Fresh state: everything uncolored, the configured starter to move."""
    if g.n < 1:
        raise ConfigError("game graph must have at least one vertex")
    if g.has_isolates():
        isolate = next(v for v in range(g.n) if not g.adj[v])
        raise ConfigError(f"game graph has an isolated vertex ({isolate})")
    st = object.__new__(GameState)
    st.rules = Rules(config, g)
    st.vmask = st.dom = (0, 0)
    st.actor = config.starter
    st.selections_done = 0
    st.winner = None
    st.history = ()
    st.last_select = None
    return st


# -- replay / trace ---------------------------------------------------------

def trace_record(state: GameState) -> dict:
    """The JSON-lines trace record of the state's latest move."""
    actor, move = state.history[-1]
    return {"ply": state.ply(), "actor": actor, "move": move.to_json(),
            "status": state.winner or "ongoing"}


def trace_lines(state: GameState) -> list[dict]:
    """Replay the state's history into the JSON-lines trace records."""
    cur = new_game(state.config, state.graph)
    out = []
    for actor, move in state.history:
        if cur.actor != actor:
            raise EngineInvariantError("history actor mismatch during replay")
        cur = cur.apply(move)
        out.append(trace_record(cur))
    return out


def replay(config: GameConfig, g: Graph, lines: list[dict]) -> GameState:
    """Re-apply a trace, checking each recorded status; returns the end state.
    A malformed or inconsistent record raises IllegalMoveError."""
    cur = new_game(config, g)
    for ply, rec in enumerate(lines, start=1):
        try:
            actor, move, status = rec["actor"], rec["move"], rec["status"]
        except (KeyError, TypeError):
            raise IllegalMoveError(f"ply {ply}: malformed record {rec!r}") from None
        if cur.actor != actor:
            raise IllegalMoveError(f"ply {ply}: expected {cur.actor} to move")
        cur = cur.apply(Move.from_json(move))
        label = trace_record(cur)["status"]
        if label != status:
            raise IllegalMoveError(f"ply {ply}: status {label} != recorded {status}")
    return cur
