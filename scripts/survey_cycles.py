"""Survey the disjoint game on cycles: exact winner per length and starter,
for every length up to the solver's default vertex cap.

The long-cycle Dom-start games flip to Sepy; the small cases (3..7) carry no
general claim, so this table is the empirical record.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from domgame.engine import DOM, SEPY, GameConfig
from domgame.graphs import gen_cycle
from domgame.solver import DEFAULT_VERTEX_CAP, solve


def main():
    print(f"{'n':>3} {'dom-start':>10} {'sepy-start':>10} {'nodes':>9} {'sec':>6}")
    for n in range(3, DEFAULT_VERTEX_CAP + 1):
        g = gen_cycle(n)
        row = [f"{n:>3}"]
        nodes = 0
        t0 = time.perf_counter()
        for starter in (DOM, SEPY):
            res = solve(GameConfig(variant="ddg", starter=starter), g)
            row.append(f"{res.winner:>10}")
            nodes += res.nodes
        row.append(f"{nodes:>9}")
        row.append(f"{time.perf_counter() - t0:>6.2f}")
        print(" ".join(row))


if __name__ == "__main__":
    main()
