"""The scripts under scripts/ run end to end, each as its own process with
the package on PYTHONPATH."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_value_comparison_demo():
    done = run_script("value_comparison_demo.py")
    assert done.returncode == 0, done.stderr
    # The S16 comparison and its reduced-scale replay both agree.
    assert done.stdout.count("multisets equal: True") == 2


def test_run_catalog_sweep_writes_its_report(tmp_path):
    out = tmp_path / "sweep.json"
    args = ["--catalog", "small", "--jobs", "1", "--out", str(out)]
    done = run_script("run_catalog_sweep.py", *args)
    assert done.returncode == 0, done.stderr
    assert f"wrote {out}" in done.stdout
    report = json.loads(out.read_text())
    assert report["catalog"] == "small"
    assert report["reports"] and all(r["status"] == "holds" for r in report["reports"])
