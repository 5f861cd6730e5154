"""Smoke tests for the scripts in ``scripts/``, run as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_scan_rebalance_family(tmp_path):
    out = tmp_path / "family.csv"
    proc = run_script("scan_rebalance_family.py", "--grid", "9", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "grid: 10 x 10, valid members: 25" in lines
    assert "min squared distance to a permutation: 1 at (u, v) = (0, 0)" in lines
    assert f"wrote 25 rows to {out}" in lines
    assert len(out.read_text().splitlines()) == 26  # header plus one row per member


def test_axiom_report_refuses_one_slot():
    proc = run_script("axiom_report.py", "--n", "1", "--samples", "5")
    assert proc.returncode == 1
    assert proc.stderr == "axiom_report: axioms need at least two slots\n"


def test_axiom_report_with_control():
    proc = run_script(
        "axiom_report.py", "--n", "4", "--samples", "5", "--include-control"
    )
    assert proc.returncode == 0, proc.stderr
    failures = [
        line for line in proc.stdout.splitlines() if line.startswith("failed: log_control")
    ]
    assert failures == [
        "failed: log_control / zero_at_equality",
        "failed: log_control / order_respecting",
        "failed: log_control / strict_monotone",
    ]
