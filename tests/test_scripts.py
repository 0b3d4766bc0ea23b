"""The scripts under scripts/ run end to end, each as its own process with
the package on PYTHONPATH."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_value_comparison_replay_reads_no_symfast_value(monkeypatch, capsys):
    """The S8 replay is a confirmation independent of the border-strip rule:
    with every function symfast defines replaced, wherever it is bound, by
    one that fails, the replay still runs and agrees."""
    from pickylab import symfast

    demo = _load_script("value_comparison_demo.py")
    own = {
        name: fn
        for name, fn in vars(symfast).items()
        if callable(fn) and getattr(fn, "__module__", None) == symfast.__name__
    }
    assert {"mn_value", "_mn", "degree"} <= own.keys()

    def refuse(*args, **kwargs):
        raise AssertionError("the replay read symfast")

    namespaces = [vars(m) for n, m in sys.modules.items() if n.startswith("pickylab")]
    namespaces.append(vars(demo))
    for namespace in namespaces:
        for key, value in list(namespace.items()):
            if any(value is fn for fn in own.values()):
                monkeypatch.setitem(namespace, key, refuse)
    with pytest.raises(AssertionError, match="read symfast"):
        symfast.mn_value((2, 1), (3,))
    demo.s8_replay()
    assert "multisets equal: True" in capsys.readouterr().out


def test_run_catalog_sweep_writes_its_report(tmp_path):
    out = tmp_path / "sweep.json"
    args = ["--catalog", "small", "--jobs", "1", "--out", str(out)]
    done = run_script("run_catalog_sweep.py", *args)
    assert done.returncode == 0, done.stderr
    assert f"wrote {out}" in done.stdout
    report = json.loads(out.read_text())
    assert report["catalog"] == "small"
    assert report["reports"] and all(r["status"] == "holds" for r in report["reports"])
