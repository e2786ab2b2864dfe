"""Seeded inputs for the four benchmark workloads.

Grid sizes, exponent lists and step sizes are fixed per workload, because
they set the amount of work.  The seed picks only the ordinary physical
inputs: the expansion center z0, the potential parameters and the wave
numbers k.  The center stays inside [-0.25, 0.25]^2 so that the longest
straight path from z0 to a grid corner stays between 1.0 and 1.5, which
keeps the ladder's starting panel count (one panel per 0.5 of path
length) the same for every seed; work then does not jump between seeds.

This module imports nothing from the library, so the parent process can
build configs before any child starts.
"""

from __future__ import annotations

import random

GRID = {"x_min": -0.8, "x_max": 0.8, "t_min": -0.8, "t_max": 0.8,
        "nx": 101, "nt": 101}
SMOKE_GRID = dict(GRID, nx=21, nt=21)

# name -> (CLI subcommand, --threads value, why it is in the benchmark)
WORKLOADS = {
    "powers-sech": (
        "powers", 1,
        "headline path, single-threaded: ladder, scalar closed forms and "
        "CSV formatting share the job"),
    "modes-gauss-deep": (
        "modes", 2,
        "deep ladder with S from np.vectorize(erf), no closed forms; the "
        "only workload through the grid thread pool"),
    "sequence-sech": (
        "sequence", 1,
        "scalar CharCoefficients.at per node plus CSV; no ladder and no "
        "closed forms, so ladder changes must predict no change here"),
    "spectral-sweep": (
        "spectral", 1,
        "RK4 wave-number sweep; the only workload that measures "
        "spectral_solve"),
}


def _center(rng: random.Random) -> list:
    return [round(rng.uniform(-0.25, 0.25), 4),
            round(rng.uniform(-0.25, 0.25), 4)]


def _sech(rng: random.Random) -> str:
    return f"sech:{rng.uniform(0.5, 1.5):.4f}:{rng.uniform(0.5, 2.0):.4f}"


def _k_values(rng: random.Random, count: int) -> list:
    # distinct at the CLI's %g file naming, so no artifact overwrites another
    ks: set = set()
    while len(ks) < count:
        ks.add(round(rng.uniform(0.25, 8.0), 3))
    return sorted(ks)


def make_config(workload: str, rng: random.Random, smoke: bool = False) -> dict:
    """One CLI configuration for the workload, drawn from rng."""
    cfg = _make(workload, rng, smoke)
    if smoke:
        # grid-step residuals of the deep modes exceed the default 1e-2 at 21 x 21
        cfg["tolerances"] = {"residual": 0.1}
    return cfg


def _make(workload: str, rng: random.Random, smoke: bool) -> dict:
    grid = dict(SMOKE_GRID if smoke else GRID)
    if workload == "powers-sech":
        return {"potential": _sech(rng), "domain": grid,
                "center": _center(rng), "exponents": [0, 1, 2, 3]}
    if workload == "modes-gauss-deep":
        return {"potential": f"gauss:{rng.uniform(0.5, 1.5):.4f}:"
                             f"{rng.uniform(0.3, 1.0):.4f}",
                "domain": grid, "center": _center(rng), "exponents": [4, 6]}
    if workload == "sequence-sech":
        return {"potential": _sech(rng), "domain": grid,
                "center": _center(rng), "sequence_indices": [0, 1]}
    if workload == "spectral-sweep":
        return {"potential": _sech(rng), "domain": grid,
                "center": _center(rng),
                "k_values": _k_values(rng, 2 if smoke else 6),
                "x_range": [-1.0, 1.0] if smoke else [-4.0, 4.0]}
    raise ValueError(f"unknown workload {workload!r}")


def make_configs(workload: str, seed: int, count: int,
                 smoke: bool = False) -> list:
    """count configs for one run; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return [make_config(workload, rng, smoke) for _ in range(count)]


def cli_argv(workload: str, config_path: str, out_dir: str) -> list:
    command, threads, _ = WORKLOADS[workload]
    return [command, "--config", config_path, "--out", out_dir,
            "--threads", str(threads)]
