"""Compare two results files written by ``collect.py``.

    python3 bench/compare.py parent.json change.json

For each workload and end-to-end metric it prints both medians and
quartiles, the change of the median, and a verdict against the bound that
BENCHMARK.json fixes for the metric:

- ``worse``: the change's median is worse than the parent's by more than the
  bound;
- ``better``: the change wins at least nine tenths of the run pairs (pairs
  by seed when both files ran the same seeds, else every cross pair) and
  the medians differ by more than the parent's own quartile distance;
- ``unresolved``: a side's spread (quartile distance over median) is wider
  than the bound, unless every run of one side beats every run of the
  other;
- ``same``: none of these.

It then prints the per-layer medians of both files and their difference.
The exit code is 1 when some metric reads ``worse``.  Collect the two files
together (``collect.py --paired-checkout``): on a shared machine, files
collected at different times can differ by 20 % for the same code.
"""

from __future__ import annotations

import argparse
import json
import sys


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _pairs(a: dict, b: dict, name: str, workload: str) -> list[tuple[float, float]]:
    def by_seed(res):
        return {r["seed"]: r["metrics"][name]["value"] for r in res["runs"]
                if r["workload"] == workload and not r["trace"]}
    sa, sb = by_seed(a), by_seed(b)
    if sa.keys() == sb.keys():
        return [(sa[s], sb[s]) for s in sa]
    return [(x, y) for x in sa.values() for y in sb.values()]


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool,
            pairs: list[tuple[float, float]]) -> str:
    def cost(v: float) -> float:  # larger is worse
        return v if lower_is_better else -v
    worse_by = (cost(b["median"]) - cost(a["median"])) / abs(a["median"])
    if a["spread"] > bound or b["spread"] > bound:
        if max(map(cost, b["values"])) < min(map(cost, a["values"])):
            return "better"
        if min(map(cost, b["values"])) > max(map(cost, a["values"])) and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for x, y in pairs if cost(y) < cost(x))
    if pairs and wins >= 0.9 * len(pairs) and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        return "better"
    return "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    a, b = _load(args.parent), _load(args.change)
    spec = {m["name"]: m for m in a["benchmark"]["end_to_end"]}
    any_worse = False
    print(f"parent {a['provenance']['commit']}  change {b['provenance']['commit']}")
    print(f"{'workload':15s} {'metric':13s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'delta':>8s}  verdict")
    for workload, kinds in a["summary"].items():
        other = b["summary"].get(workload, {})
        for name, sa in kinds.get("end_to_end", {}).items():
            sb = other.get("end_to_end", {}).get(name)
            if sb is None or name not in spec:
                continue
            m = spec[name]
            v = verdict(sa, sb, m["bound"], m["better"] == "lower",
                        _pairs(a, b, name, workload))
            any_worse |= v == "worse"
            delta = (sb["median"] - sa["median"]) / sa["median"]
            print(f"{workload:15s} {name:13s} "
                  f"{sa['median']:>10.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}] {m['unit']:>4s} "
                  f"{sb['median']:>10.5g} [{sb['q1']:.5g}, {sb['q3']:.5g}] {m['unit']:>4s} "
                  f"{delta:>+8.1%}  {v}")
    print()
    print(f"{'workload':15s} {'per-layer metric':36s} {'parent':>12s} {'change':>12s} {'delta':>12s}")
    for workload, kinds in a["summary"].items():
        other = b["summary"].get(workload, {}).get("per_layer", {})
        for name, sa in kinds.get("per_layer", {}).items():
            sb = other.get(name)
            if sb is None:
                continue
            diff = sb["median"] - sa["median"]
            rel = f"{diff / sa['median']:+.1%}" if sa["median"] else ""
            print(f"{workload:15s} {name:36s} {sa['median']:>12.6g} {sb['median']:>12.6g} "
                  f"{diff:>+12.6g} {rel}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
