"""Run one workload of the domgame benchmark and print its metrics.

    python3 bench/run.py --workload solve-deep --seed 1 --seconds 35 --trace 0

A single process with a single thread drives the library in a closed loop:
the next ``solve``/``verify_strategy`` call starts only after the previous
one has returned.  Every answer is checked against a known result (see
``workloads.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary.  The exit code is 0 only when every answer
was right.

``--trace 0`` measures the end-to-end metrics.  The seed fixes the items of
the run: each instance graph is relabelled by permutations drawn from it
(on solve-deep three or fifteen labellings per instance, one elsewhere).
Passes over these items repeat until ``--seconds`` have gone by, each in an
order drawn from (seed, pass), so every pass times the same work.  The latency of an
instance is the median over its labellings of the median of their
repetitions, which damps the swings of a shared machine:

- ``wall_s``: the sum of the instance latencies, the time of a pass that
  ran every instance in one labelling;
- ``item_p50_ms``/``item_p99_ms``: percentiles of the solve or certification
  latencies (nearest rank; on solve-deep, with 11 instances, p50 is the
  sixth and p99 the slowest);
- ``setup_s``: median time of several fresh interpreters, each started from
  scratch and ended once the instance list is built;
- ``peak_rss_mib``: the peak resident set of the measuring process.

The solver nodes and certification branches of one pass are recorded with
the result, so that two runs can be told to have timed the same work.

``--trace 1`` measures the per-layer metrics of ``layers.py``: the set-up
and passes over the items, as many as fit in ``--seconds`` (at least one).
In a pass every item runs twice back to back, once untraced and once
traced, the order alternating from item to item.  Counts come from the
set-up and pass 0 and repeat exactly for the same seed; times are medians
over the passes; ``trace.overhead_s`` is the median over passes of the
summed traced-minus-untraced item times.

``--out FILE`` also writes the full result (provenance, sample counts,
failures) as JSON; ``collect.py`` and ``compare.py`` read those files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "domgame" / "__init__.py").is_file():
    sys.exit(f"bench: no domgame package under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_PROBES = 5
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# -- one pass ----------------------------------------------------------------

class Tally:
    """Latencies per item key, the work each item did, and the answers that
    were wrong."""

    def __init__(self):
        # keyed by (item key, labelling)
        self.samples: dict[tuple[str, int], list[float]] = defaultdict(list)
        self.latency_keys: set[str] = set()
        self.work: dict[tuple[str, int], tuple[int, int]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, item: workloads.Item) -> float:
        """Time one item, check its answer, and return its latency."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # an unexpected error is a wrong answer
            dt = perf_counter() - t0
            self.failures.append(f"{item.key}: {type(exc).__name__}: {exc}")
            return dt
        dt = perf_counter() - t0
        labelled = (item.key, item.labelling)
        self.samples[labelled].append(dt)
        if item.timed_latency:
            self.latency_keys.add(item.key)
        self.work.setdefault(labelled, (getattr(out, "nodes", 0), getattr(out, "branches", 0)))
        reason = item.check(out)
        if reason is not None:
            self.failures.append(f"{item.key}: {reason}")
        return dt

    def item_latencies(self) -> dict[str, float]:
        """Per item key: the median over its labellings of the median of
        each labelling's repetitions."""
        per_labelling = defaultdict(list)
        for (key, _), times in self.samples.items():
            per_labelling[key].append(statistics.median(times))
        return {k: statistics.median(v) for k, v in per_labelling.items()}

    def work_detail(self) -> dict:
        return {"pass_solver_nodes": sum(n for n, _ in self.work.values()),
                "pass_verify_branches": sum(b for _, b in self.work.values())}


def run_pass(tally: Tally, items, deadline: float | None = None) -> bool:
    """Run the items in order; stop early once ``deadline`` has passed.
    Returns whether the pass completed."""
    for item in items:
        if deadline is not None and perf_counter() >= deadline:
            return False
        tally.run(item)
    return True


# -- set-up -------------------------------------------------------------------

def run_items(args, base: list) -> list:
    """The items of the run: answers filled in, then relabelled by the seed."""
    base = workloads.fill_answers(base)
    if args.plant_wrong:
        base = workloads.plant_wrong(base)
    return workloads.seeded_items(base, args.seed)


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        # no timeout: Popen.wait with a timeout polls in sleeps of up to
        # 50 ms, which would quantize the measurement
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


# -- the two kinds of run -------------------------------------------------------

def measure_end_to_end(args) -> dict:
    setup_times = measure_setup(args)
    items = run_items(args, workloads.base_instances(args.workload, small=args.small))
    tally = Tally()
    deadline = perf_counter() + args.seconds
    passes = 0
    while True:
        order = workloads.pass_order(items, args.seed, passes)
        complete = run_pass(tally, order, deadline if passes else None)
        passes += complete
        if not complete or perf_counter() >= deadline:
            break
    latency = tally.item_latencies()
    per_item_ms = [latency[k] * 1e3 for k in tally.latency_keys]
    values = {
        "wall_s": sum(latency.values()),
        "setup_s": statistics.median(setup_times),
        "item_p50_ms": percentile(per_item_ms, 50) if per_item_ms else float("nan"),
        "item_p99_ms": percentile(per_item_ms, 99) if per_item_ms else float("nan"),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
        "tally": tally,
        "detail": {
            "passes_completed": passes,
            "items_per_pass": len(items),
            "labellings_max": max(it.labelling for it in items) + 1,
            "latency_items": len(per_item_ms),
            "samples_per_item_min": min(map(len, tally.samples.values()), default=0),
            "setup_probes_s": setup_times,
            **tally.work_detail(),
        },
    }


def measure_layers(args) -> dict:
    tracer = layers.Tracer()
    tracer.calibrate()
    tracer.install()
    try:
        base = workloads.base_instances(args.workload, small=args.small)
    finally:
        tracer.uninstall()
    setup_raw = tracer.raw
    items = run_items(args, base)
    tally = Tally()
    deadline = perf_counter() + args.seconds
    per_pass, overheads, plain_s = [], [], []
    while True:
        pass_start = perf_counter()
        tracer.reset()
        plain = traced = 0.0
        for i, item in enumerate(workloads.pass_order(items, args.seed, len(per_pass))):
            traced_first = (i + len(per_pass)) % 2 == 0
            for trace in (traced_first, not traced_first):
                if not trace:
                    plain += tally.run(item)
                    continue
                tracer.install()
                try:
                    traced += tally.run(item)
                finally:
                    tracer.uninstall()
        per_pass.append(layers.derive(layers.add(setup_raw, tracer.raw)))
        overheads.append(traced - plain)
        plain_s.append(plain)
        # start another pass only if it should end by the deadline
        if 2 * perf_counter() - pass_start > deadline:
            break
    values = {}
    for name in layers.METRICS:
        if name == "trace.overhead_s":
            values[name] = statistics.median(overheads)
        elif name in layers.EXACT:
            values[name] = per_pass[0][name]
        else:
            values[name] = statistics.median(p[name] for p in per_pass)
    self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    return {
        "metrics": {k: {"value": v, "unit": layers.METRICS[k]} for k, v in values.items()},
        "tally": tally,
        "detail": {
            "passes": len(per_pass),
            "items_per_pass": len(items),
            "wrapper_inner_us": tracer.inner_s * 1e6,
            "wrapper_outer_us": tracer.outer_s * 1e6,
            # the self times would add up to the untraced pass plus the
            # traced set-up if the calibration caught all of the wrapper cost
            "self_s_sum": self_sum,
            "untraced_pass_s": statistics.median(plain_s),
        },
    }


# -- provenance and output -------------------------------------------------------

def _git(*cmd: str) -> str | None:
    try:
        out = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    # a checkout that is not itself a repository (but may sit inside one)
    # has no commit to report
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result as JSON to this file")
    ap.add_argument("--small", action="store_true",
                    help="reduced instance lists, for the benchmark's own tests")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="flip one expected answer; the run must then fail")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        workloads.base_instances(args.workload, small=args.small)
        return 0
    result = measure_layers(args) if args.trace else measure_end_to_end(args)
    tally: Tally = result["tally"]
    failed = len(tally.failures)
    correct = failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "provenance": provenance(),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "failed_frac": failed / tally.attempted if tally.attempted else 1.0,
        "failures": tally.failures[:20],
        "metrics": result["metrics"],
        **result["detail"],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    prov = record["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={prov['commit']} dirty={prov['dirty']} python={prov['python']} "
          f"nproc={prov['nproc']} cpu={prov['cpu_model']!r}")
    print(f"# {json.dumps(result['detail'])}")
    for reason in tally.failures[:20]:
        print(f"# WRONG {reason}")
    print(f"failed_frac = {record['failed_frac']:.6g} ({failed} of {tally.attempted} items)")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
