"""The scripts find the package from any working directory."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from domgame.solver import DEFAULT_VERTEX_CAP

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ROW_KEYS = {"survey", "n", "graph", "config", "winner", "nodes"}


def _survey(name, cwd):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "survey.py"), name],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    extra = {"nested_pair"} if name == "dom-start" else set()
    assert all(set(row) == ROW_KEYS | extra and row["survey"] == name for row in rows)
    return rows


def test_survey_dom_start_runs_outside_the_repo(tmp_path):
    rows = _survey("dom-start", tmp_path)
    assert all(row["config"]["start"] == "dom" for row in rows)
    tally = Counter((row["n"], row["winner"], row["nested_pair"] is not None) for row in rows)
    # n = 7: the 853 connected graphs, 46 of them with no nested pair
    assert tally[7, "dom", False] == 46
    assert tally[7, "dom", True] == 807
    # no Sepy row at all
    assert not [row for row in rows if row["winner"] != "dom"]


def test_survey_cycles_reaches_the_vertex_cap(tmp_path):
    rows = _survey("cycles", tmp_path)
    winners = {(row["n"], row["config"]["start"]): row["winner"] for row in rows}
    assert len(winners) == len(rows)
    assert sorted(winners) == [(n, start) for n in range(3, DEFAULT_VERTEX_CAP + 1)
                               for start in ("dom", "sepy")]
    # Dom-start flips to Sepy from C8 on; Sepy-start stays Dom's throughout
    assert all(winner == ("sepy" if n >= 8 and start == "dom" else "dom")
               for (n, start), winner in winners.items())


@pytest.mark.parametrize("args", [["biased"], []])
def test_survey_refuses_an_unknown_or_missing_name(tmp_path, args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "survey.py"), *args],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_answer_hashes_repeat(tmp_path):
    # isolate-free graphs n <= 4: 542 certifications that apply, and the 10
    # graphs under 12 configs
    runs = [subprocess.run([sys.executable, str(SCRIPTS / "answer_hashes.py"), "4"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    lines = [line.split() for line in runs[0].stdout.splitlines()]
    assert [(what, count) for what, count, _value in lines] == \
        [("verify", "542"), ("solve", "120"), ("solve-nodes", "120")]
    assert runs[1].stdout == runs[0].stdout
