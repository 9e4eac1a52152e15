"""Solve a named survey of disjoint games and print one JSON line per
(graph, config).

    python3 scripts/survey.py cycles      # C3 up to the vertex cap, both starters
    python3 scripts/survey.py dom-start   # every connected graph n <= 7, Dom starts

Each row has ``survey``, ``n``, ``graph`` (graph6), ``config``
(``GameConfig.to_json()``), ``winner`` and ``nodes``.  ``dom-start`` rows add
``nested_pair``: ``graphs.nested_pair`` of the graph, a vertex or null.

Which graphs are Dom-win when Dom must move first is open in general; the
nested-neighborhood condition (some N[u] inside N[v]) is sufficient but not
necessary, and ``dom-start`` shows exactly how far it reaches at small
orders.  The long cycles' Dom-start games flip to Sepy; the small cycles
carry no general claim, so ``cycles`` is their empirical record.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from domgame.engine import DDG, DOM, SEPY, GameConfig
from domgame.formats import emit_graph6
from domgame.graphs import corpus, gen_cycle, nested_pair
from domgame.solver import DEFAULT_VERTEX_CAP, solve


def cycles():
    for n in range(3, DEFAULT_VERTEX_CAP + 1):
        for starter in (DOM, SEPY):
            yield gen_cycle(n), GameConfig(DDG, starter), {}


def dom_start():
    for g in corpus("connected:7"):
        yield g, GameConfig(DDG, DOM), {"nested_pair": nested_pair(g)}


SURVEYS = {"cycles": cycles, "dom-start": dom_start}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("survey", choices=SURVEYS)
    name = ap.parse_args().survey
    for g, cfg, extra in SURVEYS[name]():
        res = solve(cfg, g)
        print(json.dumps({"survey": name, "n": g.n, "graph": emit_graph6(g), "config": cfg.to_json(),
                          "winner": res.winner, "nodes": res.nodes, **extra}))


if __name__ == "__main__":
    main()
