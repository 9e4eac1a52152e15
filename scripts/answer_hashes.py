"""Print digests of the library's answers, so that a change can show it keeps
them.

    python3 scripts/answer_hashes.py        # isolate-free graphs, 2 <= n <= 6
    python3 scripts/answer_hashes.py 4      # the same for n <= 4

Two digest lines, each "<what> <items> <digest>"; the digest is the first
16 hex digits of the SHA-256 of the items' JSON lines, in order:

- ``verify``: ``VerificationReport.to_json()`` of every certification that
  applies, on every graph, under the 16 rule sets with (d:s) = (1:1) or
  (2:1), of the 9 strategies that play Dom on these graphs (``random`` and
  ``greedy`` with their default seed).  ``branches`` is hashed too, so the
  digest also pins the work the walk does.
- ``solve``: (config, graph6, winner, best move, PV) of ``solve`` on every
  graph under 12 configs that cover every variant, starter, pass right and
  bias.  These are the answers alone: they do not depend on the order in
  which the solver searches.

A third line, "solve-nodes <items> <total nodes>", gives the work of those
solves, which the search order does change.
"""

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from domgame.engine import DOM, SEPY, GameConfig
from domgame.formats import emit_graph6
from domgame.graphs import GraphError, corpus
from domgame.solver import solve, verify_strategy
from domgame.strategies import NotApplicable

DOM_STRATEGIES = ("ons", "onsp", "dom-start-safe", "dom-pass", "biased-dom",
                  "bdg-matching", "bdg-general", "random", "greedy")
# one selection a turn or Dom's two; a (2:1) game is disjoint, and Dom holds
# no pass right in it
VERIFY_RULE_SETS = [
    GameConfig(variant, starter, d=d, pass_rights=rights)
    for variant, starter, d, rights in itertools.product(
        ("ddg", "bdg"), (DOM, SEPY), (1, 2), ("none", DOM, SEPY))
    if d == 1 or (variant == "ddg" and rights != DOM)
]
SOLVE_CONFIGS = [
    GameConfig(variant, starter, d=d, s=s, pass_rights=rights)
    for variant, d, s, rights in (("ddg", 1, 1, "none"), ("ddg", 1, 1, DOM), ("ddg", 1, 1, SEPY),
                                  ("bdg", 1, 1, "none"), ("ddg", 2, 1, "none"),
                                  ("ddg", 1, 2, "none"))
    for starter in (DOM, SEPY)
]


def digest(records) -> tuple[int, str]:
    """(number of records, first 16 hex digits of their JSON lines' SHA-256)."""
    h = hashlib.sha256()
    count = 0
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode() + b"\n")
        count += 1
    return count, h.hexdigest()[:16]


def verify_records(graphs):
    for g in graphs:
        for cfg in VERIFY_RULE_SETS:
            for sid in DOM_STRATEGIES:
                try:
                    rep = verify_strategy(sid, DOM, cfg, g)
                except NotApplicable:
                    continue
                yield rep.to_json()


def solve_records(graphs):
    """(nodes, answers) of every solve."""
    for cfg in SOLVE_CONFIGS:
        for g in graphs:
            res = solve(cfg, g)
            best = res.best_move
            yield res.nodes, [cfg.to_json(), emit_graph6(g), res.winner,
                              None if best is None else best.to_json(),
                              [m.to_json() for m in res.pv]]


def main():
    ap = argparse.ArgumentParser(description="Print digests of verify and solve answers.")
    ap.add_argument("bound", type=int, nargs="?", default=6,
                    help="the most vertices of a graph (default 6)")
    try:
        graphs = corpus(f"isolatefree:{ap.parse_args().bound}")
    except GraphError as exc:
        ap.error(str(exc))
    print("verify", *digest(verify_records(graphs)))
    solves = list(solve_records(graphs))
    print("solve", *digest(answers for _nodes, answers in solves))
    print("solve-nodes", len(solves), sum(nodes for nodes, _answers in solves))


if __name__ == "__main__":
    main()
