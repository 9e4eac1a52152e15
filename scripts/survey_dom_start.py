"""Classify the Dom-start disjoint game over all connected graphs n <= 7.

Which graphs are Dom-win when Dom must move first is open in general; the
nested-neighborhood condition (some N[u] inside N[v]) is sufficient but not
necessary, and this sweep shows exactly how far it reaches at small orders.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from domgame.engine import DOM, GameConfig
from domgame.formats import emit_graph6
from domgame.graphs import enumerate_connected_graphs
from domgame.solver import solve
from domgame.strategies import _safe_first_vertex


def main():
    cfg = GameConfig(variant="ddg", starter=DOM)
    tally = Counter()
    sepy_wins = []
    dom_wins_without_pair = []
    for n in range(2, 8):
        for g in enumerate_connected_graphs(n):
            winner = solve(cfg, g).winner
            has_pair = _safe_first_vertex(g) is not None
            tally[(n, winner, has_pair)] += 1
            if winner != DOM:
                sepy_wins.append(emit_graph6(g))
            elif not has_pair:
                dom_wins_without_pair.append(emit_graph6(g))

    print(f"{'n':>3} {'winner':>7} {'nested-pair':>12} {'count':>6}")
    for (n, winner, has_pair), count in sorted(tally.items()):
        print(f"{n:>3} {winner:>7} {str(has_pair):>12} {count:>6}")
    print()
    print(f"Sepy-win graphs ({len(sepy_wins)}):", " ".join(sepy_wins) or "none")
    print(f"Dom-win graphs without a nested pair ({len(dom_wins_without_pair)}):")
    print(" ".join(dom_wins_without_pair) or "none")


if __name__ == "__main__":
    main()
