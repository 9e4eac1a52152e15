"""The benchmark's instance lists and the known answer of every item.

A workload is built in three steps.  ``base_instances`` lists the items in
a fixed labelling; this is the set-up a user pays too, and ``setup_s`` times
it.  ``fill_answers`` then adds the answers that take work to know: the
Dom-start winners of graphs without a nested pair, from the committed table
``dom_start_n7.json``; every other answer follows from a theorem of the
paper.  ``seeded_items`` turns the list into the items of a run: every
instance graph is relabelled by vertex permutations drawn from the seed,
as many times as its ``labellings`` says (once except on solve-deep).  Each
pass then runs the same items in the order ``pass_order`` draws from
(seed, pass), so every pass does the same work however many passes fit.
Winners and certifications are invariant under relabelling and order, so the
expected answers carry over unchanged, while the search order inside the
library does not.

The library is always called through its module attributes
(``solver.solve``, not a name bound at import time), so that the wrappers the
traced run installs see every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from domgame import engine, formats, graphs, solver

DOM, SEPY = engine.DOM, engine.SEPY

WORKLOADS = ("solve-deep", "certify-corpus", "survey-small")

# Graphs on n vertices and connected graphs on n vertices, n = 1..7
# (OEIS A000088 and A001349).
GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044)
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853)

_TABLE = Path(__file__).with_name("dom_start_n7.json")

# Labellings per solve-deep instance.  The cost of a deep solve depends on
# the labelling (by up to a fifth in nodes), and solve-deep has only 11
# instances, so each is solved in several labellings to keep its pass time
# and percentiles from hanging on the seed.  The instances that take well
# under a second get more, so that each is timed for a few seconds a pass:
# item_p50_ms, the sixth of the 11 latencies, is one of them (the ~0.4 s
# C12 Sepy-start solve).  The corpora of the other workloads are large
# enough to average this out in one labelling.
DEEP_LABELLINGS = 3
SHALLOW_LABELLINGS = 15


def ddg(starter: str, pass_rights: str = "none", d: int = 1) -> engine.GameConfig:
    return engine.GameConfig(variant=engine.DDG, starter=starter, d=d, pass_rights=pass_rights)


def bdg(starter: str) -> engine.GameConfig:
    return engine.GameConfig(variant=engine.BDG, starter=starter)


@dataclass(frozen=True)
class Instance:
    """One item in the fixed labelling.

    kind is "solve", "certify", "enumerate" or "emit".  For "certify" the
    graph of a subdivision item is its base graph (``subdivide`` set), so a
    relabelling permutes the base and the subdivision is rebuilt from it.
    An expected answer of None is one that ``fill_answers`` looks up.
    """

    key: str
    kind: str
    graph: graphs.Graph | None
    config: engine.GameConfig | None
    expected: object
    strategy: str | None = None
    role: str | None = None
    max_plies: int | None = None
    subdivide: bool = False
    graph_list: tuple[graphs.Graph, ...] = ()
    enum_max: int = 0
    labellings: int = 1


@dataclass
class Item:
    """One call of one pass: ``run`` is timed, ``check`` is not.  ``check``
    returns None for a right answer and a reason otherwise.
    ``timed_latency`` marks the solves and certifications, whose latencies
    make item_p50_ms and item_p99_ms; ``graph`` is the relabelled instance
    graph they are called on, and ``labelling`` which of the instance's
    labellings it is."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    timed_latency: bool
    graph: graphs.Graph | None = None
    labelling: int = 0


# -- known answers ---------------------------------------------------------

def has_nested_pair(g: graphs.Graph) -> bool:
    """Some N[u] inside N[v], u != v: Dom wins the Dom-start disjoint game
    by opening on v (the paper's safe-start strategy)."""
    cm = g.closed_mask
    return any(u != v and cm[u] & ~cm[v] == 0 for v in range(g.n) for u in range(g.n))


def isomorphic(g: graphs.Graph, h: graphs.Graph) -> bool:
    """Backtracking isomorphism test, independent of the library's
    canonical forms so that the answer table survives a change to them."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    image = [-1] * g.n

    def extend(v: int, used: int) -> bool:
        if v == g.n:
            return True
        for w in range(h.n):
            if used >> w & 1 or h.degree(w) != g.degree(v):
                continue
            if all(h.has_edge(w, image[u]) == g.has_edge(v, u) for u in range(v)):
                image[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        return False

    return extend(0, 0)


def load_dom_start_table() -> list[tuple[graphs.Graph, str]]:
    """The committed Dom-start winners of the connected 7-vertex graphs that
    have no nested pair, as (graph, winner) pairs."""
    with open(_TABLE) as fh:
        rows = json.load(fh)["winners"]
    return [(formats.parse_graph6(g6), winner) for g6, winner in sorted(rows.items())]


def dom_start_winner(g: graphs.Graph, table) -> str:
    if has_nested_pair(g):
        return DOM
    for known, winner in table:
        if isomorphic(g, known):
            return winner
    raise KeyError(f"{formats.emit_graph6(g)} is in neither the theorem nor the table")


# -- base instance lists ----------------------------------------------------

def _solve(key, g, cfg, expected, labellings=1) -> Instance:
    return Instance(key, "solve", g, cfg, expected, labellings=labellings)


def _certify(key, g, cfg, strategy, role=DOM, max_plies=None, subdivide=False) -> Instance:
    return Instance(key, "certify", g, cfg, True, strategy=strategy, role=role,
                    max_plies=max_plies, subdivide=subdivide)


def _solve_deep(small: bool) -> list[Instance]:
    cycles = (8, 9) if small else (12, 13)
    c4c8 = graphs.disjoint_union(graphs.gen_cycle(4), graphs.gen_cycle(8))
    pet = graphs.gen_petersen()
    deep, shallow = DEEP_LABELLINGS, SHALLOW_LABELLINGS
    out = []
    for n in cycles:
        out.append(_solve(f"C{n}/ddg-dom", graphs.gen_cycle(n), ddg(DOM), SEPY, deep))
        # the Sepy-start search of the smaller cycle is the shallowest of the deep ones
        out.append(_solve(f"C{n}/ddg-sepy", graphs.gen_cycle(n), ddg(SEPY), DOM,
                          shallow if n == cycles[0] else deep))
    if not small:
        out.append(_solve("C4+C8/ddg-sepy-pass-sepy", c4c8, ddg(SEPY, pass_rights=SEPY), SEPY, deep))
        out.append(_solve("C4+C8/ddg-sepy", c4c8, ddg(SEPY), DOM, deep))
    out.append(_solve("petersen/ddg-sepy", pet, ddg(SEPY), DOM, shallow))
    for s in (DOM, SEPY):
        out.append(_solve(f"petersen/bdg-{s}", pet, bdg(s), DOM, shallow))
        out.append(_solve(f"petersen/2:1-{s}", pet, ddg(s, d=2), DOM, shallow))
    return out


def _certify_corpus(small: bool) -> list[Instance]:
    top = 5 if small else 7
    out = []
    for n in range(2, top + 1):
        for i, g in enumerate(graphs.enumerate_connected_graphs(n)):
            out.append(_certify(f"ons/n{n}#{i}", g, ddg(SEPY), "ons"))
    for n in range(2, top):
        for i, g in enumerate(graphs.enumerate_connected_graphs(n)):
            out.append(_certify(f"onsp/n{n}#{i}", g, ddg(SEPY, pass_rights=SEPY), "onsp"))
    for i, g in enumerate(graphs.enumerate_isolate_free_graphs(top)):
        for s in (DOM, SEPY):
            out.append(_certify(f"bdg-general-{s}/n{top}#{i}", g, bdg(s), "bdg-general"))
    for n in range(8, 10 if small else 15):
        # the paper's cycle strategy wins within four plies
        out.append(_certify(f"sepy-cycle/C{n}", graphs.gen_cycle(n), ddg(DOM), "sepy-cycle", SEPY,
                            max_plies=4))
    bases = (("C3", graphs.gen_cycle(3)), ("C4", graphs.gen_cycle(4)), ("K4", graphs.gen_complete(4)))
    for name, base in bases[:1] if small else bases:
        out.append(_certify(f"sepy-subdiv/{name}", base, ddg(DOM), "sepy-subdiv", SEPY,
                            subdivide=True))
    return out


def _survey_small(small: bool) -> list[Instance]:
    n = 5 if small else 7
    conn = graphs.enumerate_connected_graphs(n)
    out = [
        Instance(f"enumerate/n<={n}", "enumerate", None, None, GRAPH_COUNTS[:n], enum_max=n),
        Instance(f"emit/connected:{n}", "emit", None, None, CONNECTED_COUNTS[n - 1],
                 graph_list=conn),
    ]
    for i, g in enumerate(conn):
        # the Dom-start winner is left for fill_answers
        out.append(_solve(f"n{n}#{i}/ddg-dom", g, ddg(DOM), None))
        out.append(_solve(f"n{n}#{i}/ddg-sepy", g, ddg(SEPY), DOM))
    return out


def _small_dom_start_winner(g: graphs.Graph) -> str:
    # Reduced-size runs only: below 7 vertices the committed table does not
    # apply, so the unmemoized solver is the reference.
    if has_nested_pair(g):
        return DOM
    return solver.solve(ddg(DOM), g, use_memo=False).winner


def fill_answers(instances: list[Instance]) -> list[Instance]:
    """The instances with every expected answer filled in.  The answers that
    base_instances leaves open cost work to look up, which is the
    benchmark's, not the library's, so it is kept out of the timed set-up."""
    table = None
    out = []
    for inst in instances:
        if inst.expected is None:
            if inst.graph.n == 7:
                table = table or load_dom_start_table()
                winner = dom_start_winner(inst.graph, table)
            else:
                winner = _small_dom_start_winner(inst.graph)
            inst = dataclasses.replace(inst, expected=winner)
        out.append(inst)
    return out


def base_instances(workload: str, small: bool = False) -> list[Instance]:
    builders = {
        "solve-deep": _solve_deep,
        "certify-corpus": _certify_corpus,
        "survey-small": _survey_small,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](small)


def plant_wrong(instances: list[Instance]) -> list[Instance]:
    """Flip the expected answer of the first answer-checked item, so that a
    run must report it as failed."""
    out = list(instances)
    for i, inst in enumerate(out):
        if inst.kind == "solve":
            flipped = SEPY if inst.expected == DOM else DOM
        elif inst.kind == "certify":
            flipped = not inst.expected
        else:
            continue
        out[i] = dataclasses.replace(inst, expected=flipped)
        return out
    raise ValueError("no answer-checked item to plant a wrong answer in")


# -- items of one pass -------------------------------------------------------

def _permuted(g: graphs.Graph, rng: random.Random) -> graphs.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graphs.relabel(g, perm)


def _solve_item(inst: Instance, g: graphs.Graph) -> Item:
    def check(res):
        if res.winner == inst.expected:
            return None
        return f"{formats.emit_graph6(g)}: winner {res.winner}, expected {inst.expected}"
    return Item(inst.key, lambda: solver.solve(inst.config, g), check, True, g)


def _certify_item(inst: Instance, g: graphs.Graph) -> Item:
    submap = None
    if inst.subdivide:
        g, submap = graphs.subdivide3(g)

    def check(rep):
        if rep.verified != inst.expected:
            return f"{rep.graph6}: verified={rep.verified}, expected {inst.expected}"
        if inst.max_plies is not None and rep.max_plies > inst.max_plies:
            return f"{rep.graph6}: won in {rep.max_plies} plies, expected at most {inst.max_plies}"
        return None

    def run():
        return solver.verify_strategy(inst.strategy, inst.role, inst.config, g, submap=submap)
    return Item(inst.key, run, check, True, g)


def _enumerate_item(inst: Instance) -> Item:
    cache = getattr(graphs, "_all_graphs_cache", None)
    if not isinstance(cache, dict):
        # The survey pass must enumerate cold, as a fresh survey process
        # does; without the cache to clear, this benchmark must be updated
        # rather than silently time a warm enumeration.
        raise RuntimeError("domgame.graphs._all_graphs_cache is gone: cannot enumerate cold")

    def run():
        cache.clear()
        return tuple(len(graphs.enumerate_graphs(n)) for n in range(1, inst.enum_max + 1))

    def check(counts):
        return None if counts == inst.expected else f"graph counts {counts}, expected {inst.expected}"
    return Item(inst.key, run, check, False)


def _emit_item(inst: Instance, rng: random.Random) -> Item:
    batch = [_permuted(g, rng) for g in inst.graph_list]

    def check(strings):
        if len(strings) != inst.expected:
            return f"{len(strings)} graph6 strings, expected {inst.expected}"
        for g, s in zip(batch, strings):
            if formats.parse_graph6(s) != g:
                return f"graph6 {s!r} does not parse back to its graph"
        return None
    return Item(inst.key, lambda: [formats.emit_graph6(g) for g in batch], check, False)


def seeded_items(instances: list[Instance], seed: int) -> list[Item]:
    """The items of a run under ``seed``: every instance in as many
    labellings as it asks for, each a vertex permutation drawn from the
    seed.  The same arguments always give the same items, and every pass of
    the run times these items."""
    rng = random.Random(seed)
    items = []
    for labelling in range(max((inst.labellings for inst in instances), default=0)):
        for inst in instances:
            if labelling >= inst.labellings:
                continue
            if inst.kind == "solve":
                item = _solve_item(inst, _permuted(inst.graph, rng))
            elif inst.kind == "certify":
                item = _certify_item(inst, _permuted(inst.graph, rng))
            elif inst.kind == "enumerate":
                item = _enumerate_item(inst)
            else:
                item = _emit_item(inst, rng)
            items.append(dataclasses.replace(item, labelling=labelling))
    return items


def pass_order(items: list[Item], seed: int, pass_index: int) -> list[Item]:
    """The items in the order of pass ``pass_index``: a shuffle drawn from
    (seed, pass_index)."""
    out = list(items)
    random.Random(f"{seed}/{pass_index}").shuffle(out)
    return out
