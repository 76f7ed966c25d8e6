"""Smoke runs of the experiment scripts, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_critical_point_gallery_script(tmp_path):
    proc = run_script(
        "critical_point_gallery.py", "--n-elem", "16", "--out-dir", str(tmp_path), cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert len(rows) == 6
    assert all(row[-1] == "True" for row in rows)
    assert len(list(tmp_path.glob("gallery_*.csv"))) == 6
