"""The survey scripts find the package from any working directory."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_survey_dom_start_runs_outside_the_repo(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "survey_dom_start.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Sepy-win graphs (0): none" in proc.stdout
