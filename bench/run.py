"""hypervekua benchmark: seeded CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py                        # all four workloads, interleaved
    python3 bench/run.py --workload powers-sech --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --smoke                # tiny grids, one job per workload

Each workload runs `hypervekua.cli.main` in its own child process
(bench/worker.py) as a closed loop with one client: the next job starts
when the previous one has ended and has been checked by the correctness
gate (bench/gate.py), outside the timed region.  With several workloads
the jobs of the workloads are interleaved round by round, so a drift of
the host's speed hits all of them alike.

--trace 0 prints the end-to-end metrics; --trace 1 runs a second child
with the library's entry points wrapped (bench/tracer.py), alternating
traced and plain jobs, and prints the per-layer metrics.  The last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it are a table of every metric with its unit.  A record
of the run (seed, generated configs, SHA-256 of every artifact, every
job) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from tracer import METRIC_UNITS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, cli_argv, make_configs  # noqa: E402

CONFIGS_PER_RUN = 3      # jobs cycle through these, so repeats are byte-checked
SETUP_SAMPLES = 11       # fresh interpreters timed per workload and run
# The host's speed drifts by up to 1.9x over seconds to minutes, and job
# wall and CPU times drift with it.  A calibration kernel is timed
# CALIB_REPS times right before and right after every job, and the job's
# times are scaled by CALIB_REF_S / (mean of the two medians), where
# CALIB_REF_S is the kernel's time on a quiet 2-CPU x86-64 host.
CALIB_REPS = 3
CALIB_REF_S = 0.020
JOB_TIMEOUT_S = 60.0
DEADLINE_S = 110.0       # per workload: stop issuing jobs after this long

END_TO_END = ["job_s", "cpu_s", "peak_rss_mb", "setup_s"]
# printed in the JSON line of a traced run, next to the layer metrics
RUN_LEVEL = ["trace.overhead", "fail_frac", "host.calib_s", "job_s_tail",
             "job_s_tail.pct", "job_s_tail.beyond", "accuracy.oracle_dev",
             "accuracy.vekua_residual", "accuracy.closed_form_diff",
             "accuracy.drift_per_unit_x"]
PER_LAYER = RUN_LEVEL + list(METRIC_UNITS)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # the CLI's --threads is the only parallelism: at most 2 threads (nproc = 2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """A worker process serving CLI jobs over a line protocol."""

    def __init__(self, trace: bool):
        argv = [sys.executable, str(BENCH / "worker.py")]
        if trace:
            argv.append("--trace")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=ROOT,
                                     env=_child_env(), bufsize=0)

    def call(self, request: dict, timeout: float = JOB_TIMEOUT_S) -> dict:
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
        except OSError as exc:
            raise BenchError(f"worker is gone: {exc}") from exc
        fd = self.proc.stdout.fileno()
        buf = bytearray()
        deadline = time.monotonic() + timeout
        while not buf.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise BenchError(f"worker gave no reply within {timeout:g} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError(f"worker exited with {self.proc.wait()}")
            buf += chunk
        return json.loads(buf)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def setup_sample(config_path: Path) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--setup", str(config_path)],
        capture_output=True, text=True, cwd=ROOT, env=_child_env(), timeout=60)
    if done.returncode != 0:
        raise BenchError(f"setup run failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout)


def host_calibration() -> float:
    """Seconds for a fixed pure-Python loop plus a fixed numpy kernel."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += i * 0.5
    a = np.linspace(0.0, 1.0, 100_000)
    for _ in range(20):
        a = np.cos(a)
    return time.perf_counter() - t0


class Session:
    """One workload within a run: its configs, children, gate and jobs."""

    def __init__(self, workload: str, seed: int, trace: bool, smoke: bool,
                 run_dir: Path):
        from gate import Gate

        self.workload = workload
        self.dir = run_dir / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        count = 1 if smoke else CONFIGS_PER_RUN
        self.configs = make_configs(workload, seed, count, smoke)
        self.config_paths = []
        for i, cfg in enumerate(self.configs):
            path = self.dir / f"config{i}.json"
            path.write_text(json.dumps(cfg, indent=1) + "\n")
            self.config_paths.append(path)
        self.gate = Gate(workload, self.configs,
                         random.Random(f"gate:{workload}:{seed}"))
        self.children = {"plain": Child(False)}
        if trace:
            self.children["traced"] = Child(True)
        self.jobs: list = []
        self.setup: list = []
        self.timed_wall = 0.0
        self.rss_kb = 0
        self.calib: list = []

    def run_job(self, kind: str, timed: bool) -> None:
        seq = len(self.jobs)
        index = seq % len(self.configs)
        out_dir = self.dir / f"job{seq}"
        argv = cli_argv(self.workload, str(self.config_paths[index]),
                        str(out_dir))
        before = self.calibrate()
        reply = self.children[kind].call({"op": "job", "argv": argv})
        speed = CALIB_REF_S / (0.5 * (before + self.calibrate()))
        t0 = time.perf_counter()
        problems, accuracy = self.gate.check(index, str(out_dir), reply)
        shutil.rmtree(out_dir, ignore_errors=True)
        record = {"kind": kind, "timed": timed, "config": index,
                  "wall": reply["wall"], "cpu": reply["cpu"], "speed": speed,
                  "gate_s": time.perf_counter() - t0,
                  "problems": problems, "accuracy": accuracy}
        if "trace" in reply:
            record["layers"] = layer_metrics(reply["trace"])
            record["self_s"] = reply["trace"]["self"]
        self.jobs.append(record)
        if timed:
            self.timed_wall += reply["wall"]

    def calibrate(self) -> float:
        """Median of CALIB_REPS calibration kernels, all kept in self.calib."""
        times = [host_calibration() for _ in range(CALIB_REPS)]
        self.calib += times
        return statistics.median(times)

    def take_setup_sample(self) -> None:
        self.setup.append(setup_sample(self.config_paths[0]))

    def close(self) -> None:
        self.rss_kb = self.children["plain"].call({"op": "rss"})["rss_kb"]
        for child in self.children.values():
            child.close()

    def abort(self) -> None:
        for child in self.children.values():
            child.proc.kill()
            child.proc.wait()


def job_tail(walls: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile of the
    walls with at least 10 samples above it, or as many as there are."""
    ordered = sorted(walls)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def summarize(session: Session, trace: bool) -> dict:
    """Every metric of one workload as {name: (value, unit)}.

    Times in seconds are at the reference host speed: a job's wall, CPU
    and layer times are multiplied by its own `speed`, set-up times by
    CALIB_REF_S / (median calibration time of the run).  The unscaled
    medians are kept as job_wall_s and cpu_wall_s.
    """
    jobs = session.jobs
    plain = [j for j in jobs if j["kind"] == "plain" and j["timed"]]
    calib = statistics.median(session.calib)
    speed = CALIB_REF_S / calib

    def median(kind_jobs, key, scaled=True):
        return statistics.median(j[key] * (j["speed"] if scaled else 1.0)
                                 for j in kind_jobs)

    failed = sum(1 for j in jobs if j["problems"])
    tail, pct, beyond = job_tail([j["wall"] * j["speed"] for j in plain])
    metrics = {
        "job_s": (median(plain, "wall"), "s"),
        "cpu_s": (median(plain, "cpu"), "s"),
        "peak_rss_mb": (session.rss_kb / 1024.0, "MB"),
        "job_wall_s": (median(plain, "wall", scaled=False), "s"),
        "cpu_wall_s": (median(plain, "cpu", scaled=False), "s"),
        "job_s_tail": (tail, "s"),
        "job_s_tail.pct": (pct, "%"),
        "job_s_tail.beyond": (beyond, "count"),
        "jobs_timed": (len(plain), "count"),
        "fail_frac": (failed / len(jobs), "ratio"),
        "host.calib_s": (calib, "s"),
    }
    if session.setup:
        metrics["setup_s"] = (statistics.median(session.setup) * speed, "s")
    accuracy: dict = {}
    for job in jobs:
        for name, value in job["accuracy"].items():
            accuracy[name] = max(accuracy.get(name, 0.0), value)
    for name in ("accuracy.oracle_dev", "accuracy.vekua_residual",
                 "accuracy.closed_form_diff", "accuracy.drift_per_unit_x"):
        metrics[name] = (accuracy.get(name, 0.0), "1")
    if trace:
        traced = [j for j in jobs if j["kind"] == "traced" and j["timed"]]
        for name, unit in METRIC_UNITS.items():
            metrics[name] = (statistics.median(
                j["layers"][name] * (j["speed"] if unit == "s" else 1.0)
                for j in traced), unit)
        metrics["trace.overhead"] = (
            median(traced, "wall") / median(plain, "wall"), "ratio")
    return metrics


def run(workloads: list, seed: int, seconds: float, trace: bool,
        smoke: bool) -> tuple:
    """Run the workloads interleaved.

    Returns the metrics of each workload and its (attempted, failed) jobs.
    """
    tag = f"{'all' if len(workloads) > 1 else workloads[0]}-seed{seed}-trace{int(trace)}"
    if smoke:
        tag += "-smoke"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    sessions = []
    try:
        for workload in workloads:
            sessions.append(Session(workload, seed, trace, smoke, run_dir))
        kinds = list(sessions[0].children)
        if not smoke:
            for session in sessions:
                for kind in kinds:
                    session.run_job(kind, timed=False)     # warm-up
        start = time.monotonic()
        deadline = start + DEADLINE_S * len(sessions)
        active = list(sessions)
        while active:
            for session in active:
                for kind in kinds:
                    session.run_job(kind, timed=True)
                if not trace and len(session.setup) < SETUP_SAMPLES:
                    session.take_setup_sample()
            active = [s for s in active
                      if not smoke and s.timed_wall < seconds
                      and time.monotonic() < deadline]
        if not trace:
            for session in sessions:
                while len(session.setup) < (1 if smoke else SETUP_SAMPLES):
                    session.take_setup_sample()
        for session in sessions:
            session.close()
    except BaseException:
        for session in sessions:
            session.abort()
        raise
    summaries = {s.workload: summarize(s, trace) for s in sessions}
    counts = {s.workload: (len(s.jobs), sum(1 for j in s.jobs if j["problems"]))
              for s in sessions}
    record = {
        "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "workloads": {
            s.workload: {
                "configs": s.configs,
                "artifact_sha256": {str(i): d for i, d in s.gate.digests.items()},
                "setup_s_samples": s.setup,
                "host.calib_s": s.calib,
                "rss_kb": s.rss_kb,
                "jobs": s.jobs,
                "metrics": summaries[s.workload],
            } for s in sessions},
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return summaries, counts


def _json_metrics(metrics: dict, names) -> dict:
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, one job per workload")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hypervekua
    except ImportError as exc:
        print(f"bench: cannot import hypervekua from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(hypervekua.__file__).resolve().parent.parent != ROOT / "src":
        print(f"bench: hypervekua imported from {hypervekua.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    try:
        summaries, counts = run(workloads, args.seed, args.seconds, trace, args.smoke)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    for workload, metrics in summaries.items():
        for name, (value, unit) in metrics.items():
            print(f"{workload:18s} {name:36s} {value:14.6g} {unit}")
    attempted = sum(a for a, _ in counts.values())
    failed = sum(f for _, f in counts.values())
    names = PER_LAYER if trace else END_TO_END
    if len(summaries) == 1:
        metrics = _json_metrics(next(iter(summaries.values())), names)
    else:
        metrics = {w: _json_metrics(m, names) for w, m in summaries.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
