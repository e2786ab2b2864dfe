"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from hypervekua import cli  # noqa: E402
from workloads import WORKLOADS, cli_argv, make_configs  # noqa: E402

SINGLE_THREADED = [w for w, (_, threads, _) in WORKLOADS.items() if threads == 1]


def _smoke(trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        workload, name, value, unit = line.split()
        table[(workload, name)] = (float(value), unit)
    return table, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    table, result = _smoke(trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        printed = result["metrics"][workload]
        assert set(printed) == {m["name"] for m in declared}
        for metric in declared:
            assert printed[metric["name"]]["unit"] == metric["unit"]
            assert table[(workload, metric["name"])][1] == metric["unit"]
        for name, unit in [("job_s", "s"), ("job_s_tail", "s"),
                           ("cpu_s", "s"), ("peak_rss_mb", "MB"),
                           ("fail_frac", "ratio"), ("job_wall_s", "s")]:
            assert table[(workload, name)][1] == unit
        if not trace:
            assert table[(workload, "setup_s")][1] == "s"


def _run_traced(workload, tmp_path):
    """One smoke job of the workload under the tracer: (self times, span)."""
    cfg = make_configs(workload, 0, 1, smoke=True)[0]
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(cfg))
    argv = cli_argv(workload, str(path), str(tmp_path / workload))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        main = tracer.wrap("cli.job", cli.main)
        t0 = time.perf_counter()
        assert main(argv) == 0
        span = time.perf_counter() - t0
        return tracer.collect(), span
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_are_nonnegative_and_partition_the_job(workload, tmp_path):
    totals, span = _run_traced(workload, tmp_path)
    selfs = totals["self"]
    assert all(v >= 0.0 for v in selfs.values()), selfs
    metrics = tracing.layer_metrics(totals)
    if workload in SINGLE_THREADED:
        # the wrapped calls nest on one stack, so self times add up to the job
        assert math.isclose(sum(selfs.values()), span, rel_tol=0.02,
                            abs_tol=2e-3)
    else:
        assert 0.0 < metrics["cli.grid_eval.parallel_eff"] <= 1.0
        assert metrics["cli.grid_eval_s"] <= span


def test_tracer_uninstall_restores_the_library():
    from hypervekua import zakharov_shabat
    before = zakharov_shabat.Potential.__dict__["S"]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert zakharov_shabat.Potential.__dict__["S"] is not before
    tracer.uninstall()
    assert zakharov_shabat.Potential.__dict__["S"] is before


class _FirstCells:
    """Stands in for the gate's rng: always samples cell (0, 0) and k[0]."""

    def randrange(self, n):
        return 0

    def choice(self, seq):
        return seq[0]


def _powers_job(tmp_path):
    cfg = make_configs("powers-sech", 0, 1, smoke=True)[0]
    path = tmp_path / "powers.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli.main(cli_argv("powers-sech", str(path), str(out)))
    return cfg, out, {"rc": rc, "wall": 0.1, "cpu": 0.1, "error": None}


def test_gate_counts_a_corrupted_cell_and_a_nonzero_exit(tmp_path):
    cfg, out, reply = _powers_job(tmp_path)
    ok_problems, accuracy = gate.Gate("powers-sech", [cfg], _FirstCells()).check(
        0, str(out), reply)
    assert ok_problems == []
    assert accuracy["accuracy.oracle_dev"] < 1e-12

    table = out / "power_m0_n1.csv"
    lines = table.read_text().split("\n")
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)     # cell (0, 0), column re
    lines[1] = ",".join(cells)
    table.write_text("\n".join(lines))
    corrupted, _ = gate.Gate("powers-sech", [cfg], _FirstCells()).check(
        0, str(out), reply)
    assert any("power_m0_n1.csv cell (0, 0)" in p for p in corrupted)

    nonzero, _ = gate.Gate("powers-sech", [cfg], _FirstCells()).check(
        0, str(out), dict(reply, rc=1))
    assert nonzero and "exit code 1" in nonzero[0]

    jobs = [{"kind": "plain", "timed": True, "wall": 1.0, "cpu": 1.0,
             "speed": 1.0, "problems": p, "accuracy": {}}
            for p in (ok_problems, corrupted, nonzero)]
    session = types.SimpleNamespace(jobs=jobs, rss_kb=1024, setup=[0.1],
                                     calib=[0.02])
    metrics = run.summarize(session, False)
    assert metrics["fail_frac"][0] == pytest.approx(2 / 3)


def test_gate_rejects_changed_bytes_for_the_same_config(tmp_path):
    cfg, out, reply = _powers_job(tmp_path)
    checker = gate.Gate("powers-sech", [cfg], _FirstCells())
    assert checker.check(0, str(out), reply)[0] == []
    with open(out / "power_m0_n3.csv", "a") as fh:
        fh.write("\n")
    problems, _ = checker.check(0, str(out), reply)
    assert any("power_m0_n3.csv" in p and "differ" in p for p in problems)


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert make_configs(workload, 7, 3) == make_configs(workload, 7, 3)
        assert make_configs(workload, 7, 3) != make_configs(workload, 8, 3)
        for cfg in make_configs(workload, 7, 3):
            assert cfg["domain"]["nx"] == cfg["domain"]["nt"] == 101


def test_fails_without_the_library(tmp_path):
    """In a tree holding only the benchmark, it exits non-zero, printing no result."""
    (tmp_path / "bench").mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (tmp_path / "bench" / name).write_text((BENCH / name).read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "powers-sech",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
        env=dict(os.environ, PYTHONPATH=""))
    assert done.returncode != 0
    assert "correct" not in done.stdout
