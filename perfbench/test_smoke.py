"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs twice untraced and once traced. The two untraced runs
must give identical hashes, equal to the golden ones, and every metric
BENCHMARK.json names must be printed with its unit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int):
    """(hash and golden verdict per policy, result object, stdout lines)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0"]
    cmd += ["--seconds", "0.1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    hashes = {p: (h, verdict) for _, p, h, _, verdict in (l.split() for l in lines if l.startswith("hash "))}
    return hashes, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_repeatable_with_every_metric(workload):
    first, result, lines = run_bench(workload, 0)
    second, _, _ = run_bench(workload, 0)
    traced_hashes, traced, traced_lines = run_bench(workload, 1)
    assert first == second == traced_hashes
    assert sorted(first) == sorted(wl.POLICIES)
    assert all(verdict == "ok" for _, verdict in first.values())
    for res, out, section in ((result, lines, "end_to_end"), (traced, traced_lines, "per_layer")):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= len(wl.POLICIES)
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
        printed = {l.split()[1]: l.split()[3] for l in out if l.startswith("metric ")}
        assert printed == units


def test_cli_replay_prints_the_benchmark_hash():
    workload = wl.SMOKE["xt6_chain"]
    hashes, _, _ = run_bench("xt6_chain", 0)
    trace, _ = wl.trace_paths(workload, 0)
    env = dict(os.environ, PYTHONPATH=str(wl.SRC))
    for policy, (digest, _) in hashes.items():
        cmd = [sys.executable, "-m", "mempoolsim.cli", "replay", str(trace)]
        cmd += ["--policy", policy, "--capacity", str(workload.capacity)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["report_hash"] == digest

