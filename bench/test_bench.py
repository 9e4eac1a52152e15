"""The benchmark's own fast tests: ``python3 -m pytest bench -q``.

They run reduced-size workloads (``--small``), so they check the output
contract and the answer checks, not the timings.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
from collect import summarize  # noqa: E402
import workloads  # noqa: E402
from domgame import engine, graphs, solver  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_schema(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_workload_names_match_benchmark_json():
    assert tuple(WORKLOADS) == workloads.WORKLOADS
    assert [m["name"] for m in BENCH["per_layer"]] == list(layers.METRICS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_end_to_end(workload):
    code, out = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                          "--trace", "0", "--small")
    assert code == 0, out
    result = last_json(out)
    check_schema(result, BENCH["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_traced_runs_repeat_exact_counts(workload):
    results = []
    for _ in range(2):
        code, out = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                              "--trace", "1", "--small")
        assert code == 0, out
        results.append(last_json(out))
        check_schema(results[-1], BENCH["per_layer"])
    first, second = (r["metrics"] for r in results)
    for name in layers.EXACT:
        assert first[name]["value"] == second[name]["value"], name
    busy = {"solve-deep": "solver.nodes", "certify-corpus": "solver.verify.branches",
            "survey-small": "graphs.canonical_key.calls"}[workload]
    assert first[busy]["value"] > 0


def test_planted_wrong_answer_fails_the_run():
    code, out = run_bench("--workload", "solve-deep", "--seconds", "0.2", "--small",
                          "--plant-wrong")
    result = last_json(out)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run_bench("--workload", "solve-deep", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert "correct" not in out


def test_seed_fixes_the_items_and_passes_only_reorder():
    base = workloads.fill_answers(workloads.base_instances("solve-deep", small=True))
    first = workloads.seeded_items(base, 7)
    graphs_of = lambda items: [it.graph for it in items]  # noqa: E731
    assert graphs_of(first) == graphs_of(workloads.seeded_items(base, 7))
    assert graphs_of(first) != graphs_of(workloads.seeded_items(base, 8))
    labellings = {inst.key: inst.labellings for inst in base}
    assert set(labellings.values()) == {workloads.DEEP_LABELLINGS, workloads.SHALLOW_LABELLINGS}
    for key, count in labellings.items():
        assert sorted(it.labelling for it in first if it.key == key) == list(range(count))
    orders = [workloads.pass_order(first, 7, k) for k in range(5)]
    assert all(sorted(map(id, o)) == sorted(map(id, first)) for o in orders)
    assert len({tuple(it.key for it in o) for o in orders}) > 1
    assert [it.key for it in orders[0]] == [it.key for it in workloads.pass_order(first, 7, 0)]


def test_answer_lookup_is_outside_the_set_up():
    base = workloads.base_instances("survey-small", small=True)
    assert any(inst.expected is None for inst in base)
    assert all(inst.expected is not None for inst in workloads.fill_answers(base))


def test_calibrated_self_times_do_not_charge_wrappers_to_the_caller():
    tracer = layers.Tracer()
    tracer.calibrate()
    assert tracer.inner_s >= 0 and tracer.outer_s > 0

    def leaf():
        return None
    wrapped_leaf = tracer._wrap("leaf", leaf)

    def parent():
        for _ in range(20000):
            wrapped_leaf()
    tracer._wrap("parent", parent)()
    # without the calibration, the parent would be charged about
    # 20000 * outer_s for the wrappers of its calls
    assert tracer.raw["parent.self_s"] < 20000 * tracer.outer_s / 2


def test_dom_start_table_against_unmemoized_solver():
    table = workloads.load_dom_start_table()
    uncovered = [g for g in graphs.enumerate_connected_graphs(7)
                 if not workloads.has_nested_pair(g)]
    assert len(uncovered) == len(table) == 46
    for g in uncovered:
        assert sum(workloads.isomorphic(g, known) for known, _ in table) == 1
    cfg = workloads.ddg(engine.DOM)
    for g, winner in table:
        assert solver.solve(cfg, g, use_memo=False).winner == winner


def test_isomorphic():
    c6 = graphs.gen_cycle(6)
    assert workloads.isomorphic(c6, graphs.relabel(c6, [3, 0, 5, 1, 4, 2]))
    two_triangles = graphs.disjoint_union(graphs.gen_cycle(3), graphs.gen_cycle(3))
    assert not workloads.isomorphic(c6, two_triangles)


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.0, 10.1, 9.95, 10.02, 10.0], "same"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [12.5, 12.6, 12.4, 12.5, 12.55], "worse"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [8.0, 8.1, 7.9, 8.0, 8.05], "better"),
    ([10.0, 14.0, 6.0, 9.0, 12.0], [9.0, 13.0, 7.0, 10.0, 11.0], "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    a, b = summarize(parent), summarize(change)
    pairs = list(zip(parent, change))
    assert compare.verdict(a, b, 0.1, True, pairs) == expected
