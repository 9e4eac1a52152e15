"""The acceptance battery: the claims of the paper, checked exactly
(winners and certifications admit no tolerance) at desk scale.

Each item is independent and returns a short detail string; ``run_suite``
prints one pass/fail line per item.  The pytest suite runs the same items;
the library's own self-tests live in ``tests/``, not here.
"""

from __future__ import annotations

import random

from .engine import BDG, DDG, DOM, SEPY, GameConfig
from .formats import emit_graph6
from .graphs import (
    Graph,
    corpus,
    disjoint_union,
    enumerate_connected_graphs,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_petersen,
    nested_pair,
    random_isolate_free,
    subdivide3,
)
from .solver import solve, verify_strategy


def _check(cond, message):
    if not cond:
        raise AssertionError(message)


def _certified(strategy, role, cfg, graphs, *, solved=True) -> int:
    """Certify the strategy playing role on every graph and, when solved,
    check that the solver names role the winner too; returns the count."""
    count = 0
    for g in graphs:
        case = f"{emit_graph6(g)} {cfg.starter}-start"
        _check(verify_strategy(strategy, role, cfg, g).verified, f"{strategy} failed on {case}")
        if solved:
            _check(solve(cfg, g).winner == role, f"{case} not {role}-win")
        count += 1
    return count


# -- 1 ------------------------------------------------------------------------

def crit_cycles() -> str:
    """Dom-start cycles of length >= 8 are Sepy wins, and the explicit cycle
    strategy is certified (winning within four plies up to n = 12)."""
    for n in (8, 9, 10, 11):
        g = gen_cycle(n)
        res = solve(GameConfig(DDG, DOM), g)
        _check(res.winner == SEPY, f"C{n} Dom-start solved as {res.winner}")
    for n in range(8, 13):
        rep = verify_strategy("sepy-cycle", SEPY, GameConfig(DDG, DOM), gen_cycle(n))
        _check(rep.verified, f"cycle strategy failed on C{n}")
        _check(rep.max_plies <= 4, f"cycle strategy needed {rep.max_plies} plies on C{n}")
    return "C8..C11 solved Sepy-win; strategy certified on C8..C12 within 4 plies"


# -- 2 / 3 ---------------------------------------------------------------------

def crit_ons_connected() -> str:
    """Sepy-start on a connected graph: Dom wins, and opposite-neighbor play
    is a certified winning strategy, over the whole n <= 6 corpus."""
    count = _certified("ons", DOM, GameConfig(DDG, SEPY), corpus("connected:6"))
    return f"{count} connected graphs: solver Dom-win and ons certified"


def crit_onsp_pass() -> str:
    """Same corpus with Sepy allowed to pass (never in the first move)."""
    count = _certified("onsp", DOM, GameConfig(DDG, SEPY, pass_rights=SEPY), corpus("connected:6"))
    return f"{count} connected graphs with Sepy passes: solver Dom-win and onsp certified"


# -- 4 / 5 ---------------------------------------------------------------------

def _two_component_unions(total: int):
    conn = {n: list(enumerate_connected_graphs(n)) for n in range(2, total - 1)}
    for a in range(2, total - 1):
        for b in range(a, total - a + 1):
            if b not in conn:
                continue
            for i, g1 in enumerate(conn[a]):
                second = range(i, len(conn[b])) if a == b else range(len(conn[b]))
                for j in second:
                    yield disjoint_union(g1, conn[b][j])


def crit_dom_pass_unions() -> str:
    """Dom's pass rights beat every two-component union (total n <= 8) in the
    Sepy-start game, and the C4+C8 Dom-start game with pass rights."""
    _certified("dom-pass", DOM, GameConfig(DDG, DOM, pass_rights=DOM),
               [disjoint_union(gen_cycle(4), gen_cycle(8))])
    count = _certified("dom-pass", DOM, GameConfig(DDG, SEPY, pass_rights=DOM),
                       _two_component_unions(8), solved=False)
    return f"C4+C8 Dom-start certified; {count} Sepy-start unions certified"


def crit_c4c8_passing() -> str:
    """Pass rights flip the C4+C8 Sepy-start game: Sepy-win with them,
    Dom-win without."""
    g = disjoint_union(gen_cycle(4), gen_cycle(8))
    with_pass = solve(GameConfig(DDG, SEPY, pass_rights=SEPY), g).winner
    _check(with_pass == SEPY, f"with Sepy passes solved as {with_pass}")
    without = solve(GameConfig(DDG, SEPY), g).winner
    _check(without == DOM, f"without passes solved as {without}")
    return "C4+C8 Sepy-start: sepy with pass rights, dom without"


# -- 6 --------------------------------------------------------------------------

def crit_safe_start() -> str:
    """A nested closed-neighborhood pair gives Dom a certified Dom-start win
    (complete graphs, paths, and the whole connected n <= 6 corpus that has
    such a pair)."""
    fixtures = [gen_complete(n) for n in range(2, 7)]
    fixtures += [gen_path(n) for n in range(2, 8)]
    bulk = [g for g in corpus("connected:6") if nested_pair(g) is not None]
    count = _certified("dom-start-safe", DOM, GameConfig(DDG, DOM), fixtures + bulk)
    return f"{count} graphs with nested neighborhoods: certified and solver-agreed"


# -- 7 --------------------------------------------------------------------------

def crit_subdivision() -> str:
    """Triple subdivisions of min-degree-2 graphs are Sepy wins when Dom
    starts; the explicit strategy is certified on C3, C4, K4 bases."""
    cfg = GameConfig(DDG, DOM)
    g9, _ = subdivide3(gen_cycle(3))
    res = solve(cfg, g9)
    _check(res.winner == SEPY, f"C3 subdivision solved as {res.winner}")
    for name, base in (("C3", gen_cycle(3)), ("C4", gen_cycle(4)), ("K4", gen_complete(4))):
        sub, smap = subdivide3(base)
        rep = verify_strategy("sepy-subdiv", SEPY, cfg, sub, submap=smap)
        _check(rep.verified, f"subdivision strategy failed on {name} base")
    return "C3+2 solved Sepy-win; strategy certified on C3+2, C4+2, K4+2"


# -- 8 --------------------------------------------------------------------------

def crit_biased_two_one() -> str:
    """Two selections per Dom turn beat every isolate-free graph: strategy
    certified on n <= 6 (both starts), solver agreement there and on larger
    fixtures up to n = 10."""
    count = sum(_certified("biased-dom", DOM, GameConfig(DDG, start, d=2), corpus("isolatefree:6"))
                for start in (DOM, SEPY))
    fixtures = [
        gen_cycle(7), gen_cycle(8), gen_cycle(10), gen_path(10),
        Graph(6, [(u, v + 3) for u in range(3) for v in range(3)]),  # K3,3
        disjoint_union(gen_path(2), gen_cycle(8)),
        disjoint_union(gen_cycle(4), gen_cycle(5)),
        gen_petersen(),
    ]
    for g in fixtures:
        for start in (DOM, SEPY):
            cfg = GameConfig(DDG, start, d=2)
            _check(solve(cfg, g).winner == DOM,
                   f"(2:1) fixture {emit_graph6(g)} {start}-start not Dom-win")
    return f"{count} corpus cases certified; {len(fixtures)} fixtures to n=10 solver-agreed"


# -- 9 / 10 ----------------------------------------------------------------------

def crit_bdg_perfect_matching() -> str:
    """Matching play wins the bicolored game on every isolate-free graph with
    a perfect matching, n in {2, 4, 6}, both starts."""
    graphs = corpus("perfectmatching:6")
    count = sum(_certified("bdg-matching", DOM, GameConfig(BDG, start), graphs, solved=False)
                for start in (DOM, SEPY))
    return f"{count} perfect-matching cases certified"


def crit_bdg_general() -> str:
    """The matching-based rules win the bicolored game on every isolate-free
    graph: certified on n <= 6 both starts, solver agreement there and on 100
    seeded random graphs up to n = 10."""
    count = sum(_certified("bdg-general", DOM, GameConfig(BDG, start), corpus("isolatefree:6"))
                for start in (DOM, SEPY))
    rng = random.Random(20260810)
    for i in range(100):
        g = random_isolate_free(rng.randrange(2, 11), rng)
        start = DOM if i % 2 == 0 else SEPY
        _check(solve(GameConfig(BDG, start), g).winner == DOM,
               f"random bicolored fixture {i} ({emit_graph6(g)}) not Dom-win")
    return f"{count} corpus cases certified; 100 random graphs to n=10 solver-agreed"


# item id -> criterion, in the order the battery runs
ITEMS = {
    "cycles": crit_cycles,
    "ons-connected": crit_ons_connected,
    "onsp-pass": crit_onsp_pass,
    "dom-pass-unions": crit_dom_pass_unions,
    "c4c8-passing": crit_c4c8_passing,
    "safe-start": crit_safe_start,
    "subdivision": crit_subdivision,
    "biased-two-one": crit_biased_two_one,
    "bdg-perfect-matching": crit_bdg_perfect_matching,
    "bdg-general": crit_bdg_general,
}


def run_suite(only: str | None = None, out=print) -> bool:
    """Run (a filtered subset of) the battery; one line per item.  A filter
    that no item id contains raises KeyError, so a typo cannot pass."""
    items = [item_id for item_id in ITEMS if not only or only in item_id]
    if only and not items:
        raise KeyError(f"no acceptance item id contains {only!r}")
    ok = True
    for item_id in items:
        try:
            out(f"[PASS] {item_id}: {ITEMS[item_id]()}")
        except AssertionError as exc:
            ok = False
            out(f"[FAIL] {item_id}: {exc}")
    return ok
