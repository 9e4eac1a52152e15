"""The survey scripts find the package from any working directory."""

import subprocess
import sys
from pathlib import Path

from domgame.solver import DEFAULT_VERTEX_CAP

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_survey_dom_start_runs_outside_the_repo(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "survey_dom_start.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    # n = 7: the 853 connected graphs, 46 of them with no nested pair
    assert ["7", "dom", "False", "46"] in rows
    assert ["7", "dom", "True", "807"] in rows
    assert "Sepy-win graphs (0): none" in proc.stdout


def test_survey_cycles_reaches_the_vertex_cap(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "survey_cycles.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(3, DEFAULT_VERTEX_CAP + 1))
    # Dom-start flips to Sepy from C8 on; Sepy-start stays Dom's throughout
    assert all(r[1] == ("sepy" if int(r[0]) >= 8 else "dom") for r in rows)
    assert all(r[2] == "dom" for r in rows)


def test_answer_hashes_repeat(tmp_path):
    # isolate-free graphs n <= 4: 542 certifications that apply, and the 10
    # graphs under 12 configs
    runs = [subprocess.run([sys.executable, str(SCRIPTS / "answer_hashes.py"), "4"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    lines = [line.split() for line in runs[0].stdout.splitlines()]
    assert [(what, count) for what, count, _digest in lines] == [("verify", "542"), ("solve", "120")]
    assert runs[1].stdout == runs[0].stdout
