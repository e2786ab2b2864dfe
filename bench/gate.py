"""Correctness gate for benchmark jobs, run outside the timed region.

A job fails when it exits non-zero or raises, when its summary.json says
`passed: false`, when a sampled output cell disagrees with the library's
scalar oracle, or when its artifacts differ in bytes from another job
with the same config.  The oracles take other code paths than the CLI:

- powers / modes: `l_path_power` (axis-aligned path) against the batched
  straight path, and `closed_form_power` for the closed-form columns;
- sequence: a fresh `CharCoefficients.at` and pair evaluation, plus the
  pair-0 identities A = 0 and B = -j s/2;
- spectral: `spectral_solve` at half the step, for one k per config.

Cells agree when |cell - oracle| <= tol * max(1, |oracle|), with tol the
config's `quadrature` tolerance.  The half-step RK4 oracle is the
exception: its gap to the full step is RK4 truncation error (2e-9 at
k = 8 and the default step), not quadrature error, so it is held to the
config's `drift` tolerance times the length of the x range instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from hypervekua import cli
from hypervekua.errors import CenterSingular
from hypervekua.formal_powers import FormalPowerSpec, l_path_power
from hypervekua.hypernum import HyperbolicNumber
from hypervekua.zakharov_shabat import (CENTER_EPS, closed_form_power,
                                        spectral_solve, zs_sequence)

CELLS_PER_TABLE = 4


def artifact_digests(out_dir: str) -> dict:
    """SHA-256 of every artifact; summary.json is hashed without its timestamp."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "summary.json":
            summary = json.loads(data)
            summary.pop("timestamp", None)
            data = json.dumps(summary, sort_keys=True).encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def _csv_row(lines: list, index: int) -> list:
    return [float(v) for v in lines[1 + index].split(",")]


def _read_lines(path: str) -> list:
    with open(path) as fh:
        return fh.read().split("\n")


class _Oracle:
    """Library objects for one config, built afresh from its raw dict."""

    def __init__(self, raw: dict):
        self.cfg = cli.RunConfig.from_dict(raw)
        self.p = cli._build_potential(self.cfg)
        self.seq = zs_sequence(self.p, cli._working_domain(self.cfg))
        self.xs = self.cfg.domain.x_nodes()
        self.ts = self.cfg.domain.t_nodes()
        self.values: dict = {}      # memo of oracle values by cell key

    def memo(self, key, compute):
        if key not in self.values:
            self.values[key] = compute()
        return self.values[key]


class Gate:
    """Checks the jobs of one workload and records artifact digests."""

    def __init__(self, workload: str, configs: list, rng):
        self.workload = workload
        self.configs = configs
        self.rng = rng
        self.oracles: dict = {}
        self.digests: dict = {}     # config index -> artifact digests

    def check(self, config_index: int, out_dir: str, reply: dict):
        """(problems, accuracy) for one finished job; no problems means pass."""
        if reply.get("error") or reply.get("rc") != 0:
            return ([f"exit code {reply.get('rc')}, error {reply.get('error')}, "
                     f"stdout {reply.get('stdout', '')!r}"], {})
        problems = []
        try:
            with open(os.path.join(out_dir, "summary.json")) as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"summary.json unreadable: {exc}"], {}
        if summary.get("passed") is not True:
            problems.append("summary.json reports passed: false")
        digests = artifact_digests(out_dir)
        first = self.digests.setdefault(config_index, digests)
        if digests != first:
            changed = sorted(k for k in set(first) | set(digests)
                             if first.get(k) != digests.get(k))
            problems.append(f"artifacts differ from an earlier job with the "
                            f"same config: {changed}")
        if config_index not in self.oracles:
            self.oracles[config_index] = _Oracle(self.configs[config_index])
        oracle = self.oracles[config_index]
        check = getattr(self, "_" + self.workload.split("-")[0])
        try:
            dev = check(oracle, out_dir, problems)
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
            dev = math.inf
        accuracy = _accuracy(summary)
        accuracy["accuracy.oracle_dev"] = dev
        return problems, accuracy

    # -- per-workload cell checks; each returns the largest deviation -----

    def _cells(self, oracle: _Oracle) -> list:
        nx, nt = len(oracle.xs), len(oracle.ts)
        return [(self.rng.randrange(nt), self.rng.randrange(nx))
                for _ in range(CELLS_PER_TABLE)]

    def _compare(self, what, got, want, tol, problems) -> float:
        dev = max(abs(g - w) for g, w in zip(got, want))
        scale = max([1.0] + [abs(w) for w in want])
        if not dev <= tol * scale:
            problems.append(f"{what}: got {got}, oracle {want}, "
                            f"deviation {dev:.3e} > {tol:.1e} * {scale:.3g}")
        return dev

    def _node(self, oracle, row, it, ix, what, problems) -> HyperbolicNumber:
        want = (float(oracle.xs[ix]), float(oracle.ts[it]))
        if tuple(row[:2]) != want:
            problems.append(f"{what}: cell coordinates {row[:2]} != {want}")
        return HyperbolicNumber(*want)

    def _powers(self, oracle: _Oracle, out_dir: str, problems: list) -> float:
        cfg = oracle.cfg
        tol = cfg.tolerances["quadrature"]
        dev = 0.0
        for n in cfg.exponents:
            spec = FormalPowerSpec(cfg.sequence_index, n, cfg.coefficient,
                                   cfg.center)
            name = f"power_m{cfg.sequence_index}_n{n}.csv"
            lines = _read_lines(os.path.join(out_dir, name))
            for it, ix in self._cells(oracle):
                row = _csv_row(lines, it * len(oracle.xs) + ix)
                what = f"{name} cell ({it}, {ix})"
                z = self._node(oracle, row, it, ix, what, problems)
                v = oracle.memo(("lpath", n, it, ix),
                                lambda: l_path_power(spec, z, oracle.seq, tol=tol))
                dev = max(dev, self._compare(what, row[2:4], (v.re, v.im),
                                             tol, problems))
                if n <= 2:
                    c = oracle.memo(("closed", n, it, ix),
                                    lambda: _closed(oracle, n, z))
                    if c is None:
                        if not all(math.isnan(v) for v in row[4:6]):
                            problems.append(f"{what}: closed form should be nan")
                    else:
                        dev = max(dev, self._compare(what + " closed", row[4:6],
                                                     c, tol, problems))
        return dev

    def _modes(self, oracle: _Oracle, out_dir: str, problems: list) -> float:
        cfg = oracle.cfg
        tol = cfg.tolerances["quadrature"]
        dev = 0.0
        for n in cfg.exponents:
            spec = FormalPowerSpec(cfg.sequence_index, n, cfg.coefficient,
                                   cfg.center)
            name = f"modes_m{cfg.sequence_index}_n{n}.csv"
            lines = _read_lines(os.path.join(out_dir, name))
            for it, ix in self._cells(oracle):
                row = _csv_row(lines, it * len(oracle.xs) + ix)
                what = f"{name} cell ({it}, {ix})"
                z = self._node(oracle, row, it, ix, what, problems)
                v = oracle.memo(("lpath", n, it, ix),
                                lambda: l_path_power(spec, z, oracle.seq, tol=tol))
                n_plus, n_minus = row[2], row[3]
                got = (n_plus + n_minus, n_minus - n_plus)
                dev = max(dev, self._compare(what, got, (v.re, v.im), tol,
                                             problems))
        return dev

    def _sequence(self, oracle: _Oracle, out_dir: str, problems: list) -> float:
        cfg = oracle.cfg
        tol = cfg.tolerances["quadrature"]
        dev = 0.0
        for m in [int(m) for m in cfg.raw.get("sequence_indices", [0, 1])]:
            pair = oracle.seq.pair(m)
            coeffs = pair.coefficients()
            tables = {part: _read_lines(os.path.join(out_dir, f"pair_m{m}_{part}.csv"))
                      for part in ("F", "G", "coefficients")}
            for it, ix in self._cells(oracle):
                index = it * len(oracle.xs) + ix
                row = _csv_row(tables["coefficients"], index)
                what = f"pair_m{m}_coefficients.csv cell ({it}, {ix})"
                z = self._node(oracle, row, it, ix, what, problems)
                c = coeffs.at(z)
                want = (c.a.re, c.a.im, c.b.re, c.b.im,
                        c.A.re, c.A.im, c.B.re, c.B.im)
                dev = max(dev, self._compare(what, row[2:], want, tol, problems))
                if m == 0:
                    half_s = 0.5 * oracle.p.s(z.re)
                    dev = max(dev, self._compare(what + " A = 0, B = -j s/2",
                                                 row[6:], (0.0, 0.0, 0.0, -half_s),
                                                 tol, problems))
                for part, field in (("F", pair.F), ("G", pair.G)):
                    frow = _csv_row(tables[part], index)
                    fwhat = f"pair_m{m}_{part}.csv cell ({it}, {ix})"
                    self._node(oracle, frow, it, ix, fwhat, problems)
                    v = field(z)
                    dev = max(dev, self._compare(fwhat, frow[2:4], (v.re, v.im),
                                                 tol, problems))
        return dev

    def _spectral(self, oracle: _Oracle, out_dir: str, problems: list) -> float:
        cfg = oracle.cfg
        lo, hi = cfg.x_range
        tol = cfg.tolerances["drift"] * (hi - lo)
        step = float(cfg.raw.get("rk_step", 1e-3))
        # one k per config: a half-step solve costs about half a job
        k = oracle.memo("k", lambda: self.rng.choice(cfg.k_values))
        half = oracle.memo(("half-step", k), lambda: spectral_solve(
            oracle.p, k, (lo, hi), cfg.init, step=step / 2,
            drift_threshold=cfg.tolerances["drift"]))
        name = f"spectral_k{k:g}.csv"
        lines = _read_lines(os.path.join(out_dir, name))
        full_size = (half.xs.size - 1) // 2 + 1
        stride = max(1, full_size // 400)
        rows = len(lines) - 2
        dev = 0.0
        for r in [self.rng.randrange(rows) for _ in range(CELLS_PER_TABLE)]:
            row = _csv_row(lines, r)
            i = 2 * r * stride
            what = f"{name} row {r}"
            if not abs(row[0] - half.xs[i]) <= 1e-12 * max(1.0, abs(row[0])):
                problems.append(f"{what}: x = {row[0]!r} != {half.xs[i]!r}")
            want = (half.n1[i].real, half.n1[i].imag,
                    half.n2[i].real, half.n2[i].imag)
            dev = max(dev, self._compare(what, row[1:5], want, tol, problems))
        return dev


def _closed(oracle: _Oracle, n: int, z: HyperbolicNumber):
    """closed_form_power at z, or None where the CLI writes nan."""
    cfg = oracle.cfg
    if n == 2 and abs(z.re - cfg.center.re) < CENTER_EPS:
        return None
    try:
        v = closed_form_power(oracle.p, n, cfg.coefficient, cfg.center, z)
    except CenterSingular:
        return None
    return (v.re, v.im)


def _accuracy(summary: dict) -> dict:
    """Accuracy figures the CLI itself recorded; 0 where a workload has none."""
    residual = closed = drift = 0.0
    for entry in summary.get("results", {}).values():
        if not isinstance(entry, dict):
            continue
        for key in ("max_vekua_residual", "max_mode_residual",
                    "max_bridge_residual"):
            residual = max(residual, entry.get(key, 0.0))
        if "closed_form_ok" in entry:   # exponents 0 and 1; 2 is a report only
            closed = max(closed, entry["closed_form_max_diff"])
        drift = max(drift, entry.get("conservation_drift_per_unit_x", 0.0))
    return {"accuracy.vekua_residual": residual,
            "accuracy.closed_form_diff": closed,
            "accuracy.drift_per_unit_x": drift}
