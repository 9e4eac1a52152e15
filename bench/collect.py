"""Run the benchmark over several seeds and write one results file.

    python3 bench/collect.py --out results.json --runs 10
    python3 bench/collect.py --out r.json --workloads solve-deep --runs 5 --first-seed 11

For every workload and seed, ``run.py`` runs once with ``--trace 0``; then
the first seed runs again with ``--trace 1``.  The runs
are made one after another, never side by side.  The results file holds
every run's record plus, per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  ``compare.py`` reads two such
files.

The speed of a shared machine drifts by tens of percent over minutes, so
two results files collected at different times differ even for the same
code.  To compare a change with its parent, collect both in one go:

    python3 bench/collect.py --out change.json --paired-checkout ../parent \
        --paired-out parent.json

which runs each (workload, seed) in both checkouts back to back, alternating
which goes first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHOWN_LAYER_METRICS = ("solver.nodes", "solver.verify.branches", "graphs.canonical_key.calls",
                       "trace.overhead_s")


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def run_one(root: Path, workload: str, seed: int, trace: int, record_file: Path) -> dict:
    # run.py measures for BENCHMARK.json's run_seconds
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(record_file)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if not record_file.exists():
        raise RuntimeError(f"{' '.join(cmd)} wrote no result:\n{proc.stdout}{proc.stderr}")
    record = json.loads(record_file.read_text())
    record_file.unlink()
    record["exit_code"] = proc.returncode
    return record


def summary_of(runs: list[dict]) -> dict:
    out: dict = {}
    for rec in runs:
        kind = "per_layer" if rec["trace"] else "end_to_end"
        metrics = out.setdefault(rec["workload"], {}).setdefault(kind, {})
        for name, m in rec["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for per_workload in out.values():
        for metrics in per_workload.values():
            for name, m in metrics.items():
                metrics[name] = {"unit": m["unit"], **summarize(m["values"])}
    return out


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--paired-checkout", type=Path,
                    help="another checkout to run alternately with this one")
    ap.add_argument("--paired-out", help="results file for --paired-checkout")
    args = ap.parse_args(argv)
    if (args.paired_checkout is None) != (args.paired_out is None):
        ap.error("--paired-checkout and --paired-out go together")

    sides = [(ROOT, Path(args.out), [])]
    if args.paired_checkout:
        sides.append((args.paired_checkout.resolve(), Path(args.paired_out), []))
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads.split(","):
        plan = [(s, 0) for s in seeds] + [(args.first_seed, 1)]
        for seed, trace in plan:
            for root, out, runs in sides[::-1] if seed % 2 else sides:
                rec = run_one(root, workload, seed, trace, out.with_name(out.name + ".run.json"))
                runs.append(rec)
                shown = ", ".join(f"{k}={m['value']:.4g}" for k, m in rec["metrics"].items()
                                  if not trace or k in SHOWN_LAYER_METRICS)
                print(f"{root.name} {workload} seed={seed} trace={trace} "
                      f"correct={rec['correct']} {shown}", flush=True)
    ok = True
    for root, out, runs in sides:
        summary = summary_of(runs)
        out.write_text(json.dumps({
            "benchmark": bench,
            "seconds": bench["run_seconds"],
            "provenance": runs[0]["provenance"] if runs else None,
            "summary": summary,
            "runs": runs,
        }, indent=1) + "\n")
        ok &= all(r["correct"] for r in runs)
        print(f"{out}:")
        print_summary(summary, bench)
    print("all answers correct" if ok else "WRONG ANSWERS in some runs")
    return 0 if ok else 1


def print_summary(summary: dict, bench: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, kinds in summary.items():
        for name, s in kinds.get("end_to_end", {}).items():
            flag = "" if s["spread"] < bounds.get(name, 1) / 3 else "  <-- spread >= bound/3"
            print(f"{workload:15s} {name:13s} median={s['median']:.5g} {s['unit']} "
                  f"q1={s['q1']:.5g} q3={s['q3']:.5g} spread={s['spread']:.4f} "
                  f"bound={bounds.get(name)}{flag}")


if __name__ == "__main__":
    sys.exit(main())
