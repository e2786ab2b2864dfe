"""Command-line front end.

Subcommands build solution tables (powers), mode tables with residual
fields (modes), wave-number sweeps (spectral), pair dumps (sequence), and
the full property suite (check).  All numeric output is deterministic for
a fixed configuration: CSV cells carry 17 significant digits and the JSON
summary embeds the configuration echo plus a content hash of the inputs
(the summary timestamp is the only varying field).  Files are written
atomically via a temp file and rename.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import verification
from .errors import ConfigError, HyperVekuaError, StepTooLarge
from .fields import GridDomain
from .fields import csv_text as _csv_text
from .formal_powers import FormalPowerSpec, formal_power_batch
from .hypernum import HyperbolicNumber
from .pseudoanalytic import GeneratingSequence
from .zakharov_shabat import (DEFAULT_RK_STEP, Potential, closed_form_grid,
                              parse_potential, spectral_solve, zs_residual,
                              zs_sequence)

DOMAIN_KEYS = ("x_min", "x_max", "t_min", "t_max", "nx", "nt", "timelike")
DEFAULT_TOLERANCES = {
    "residual": 1e-2,      # finite differences at grid resolution
    "closed_form": 1e-6,
    "drift": 1e-8,
    "quadrature": 1e-10,
}


@dataclass
class RunConfig:
    """Validated run configuration parsed from JSON."""

    potential_spec: str
    domain: GridDomain
    center: HyperbolicNumber
    coefficient: HyperbolicNumber
    exponents: list
    sequence_index: int
    k_values: list
    init: tuple
    x_range: tuple
    tolerances: dict
    out_dir: str
    threads: int
    rk_step: float
    sequence_indices: list
    raw: dict = field(repr=False, default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        dom_raw = raw.get("domain", {})
        if not isinstance(dom_raw, dict):
            raise ConfigError("domain must be a JSON object")
        try:
            _known(dom_raw, DOMAIN_KEYS)
            domain = GridDomain(
                _finite(dom_raw.get("x_min", -1.0)),
                _finite(dom_raw.get("x_max", 1.0)),
                _finite(dom_raw.get("t_min", -1.0)),
                _finite(dom_raw.get("t_max", 1.0)),
                _integer(dom_raw.get("nx", 21)),
                _integer(dom_raw.get("nt", 21)),
                _boolean(dom_raw.get("timelike", False)),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad domain: {exc}") from exc
        center = HyperbolicNumber(*_field(raw, "center", [0.0, 0.0], _pair))
        coefficient = HyperbolicNumber(
            *_field(raw, "coefficient", [1.0, 0.0], _pair))
        exponents = _field(raw, "exponents", [0, 1, 2], _exponents)
        if not exponents:
            raise ConfigError("exponents must name at least one exponent")
        if any(n < 0 for n in exponents):
            raise ConfigError("exponents must be nonnegative")
        tolerances = dict(DEFAULT_TOLERANCES)
        tolerances.update(_field(raw, "tolerances", {}, lambda v: {
            key: _finite(val)
            for key, val in _known(v, DEFAULT_TOLERANCES).items()}))
        if any(v <= 0 for v in tolerances.values()):
            raise ConfigError("tolerances must be positive")
        k_values = _field(raw, "k_values", [],
                          lambda v: [_finite(k) for k in _sequence(v)])
        labels = [_k_label(k) for k in k_values]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"k_values must differ at %g: {labels}")
        rk_step = _field(raw, "rk_step", DEFAULT_RK_STEP, _finite)
        if not rk_step > 0:
            raise ConfigError("rk_step must be positive")
        init = _field(raw, "init", [1.0, 0.0],
                      lambda v: tuple(complex(c) for c in _sequence(v, 2)))
        if "x_range" in raw:
            lo, hi = _field(raw, "x_range", None, _pair)
        else:
            lo = min(domain.x_min, center.re) - 0.5
            hi = max(domain.x_max, center.re) + 0.5
        if not lo < hi:
            raise ConfigError("x_range must be increasing")
        return RunConfig(
            potential_spec=str(raw.get("potential", "zero")),
            domain=domain,
            center=center,
            coefficient=coefficient,
            exponents=exponents,
            sequence_index=_field(raw, "sequence_index", 0, _integer),
            k_values=k_values,
            init=init,
            x_range=(lo, hi),
            tolerances=tolerances,
            out_dir=str(raw.get("out_dir", "hypervekua_out")),
            threads=_field(raw, "threads", 1, _integer),
            rk_step=rk_step,
            sequence_indices=_field(
                raw, "sequence_indices", [0, 1],
                lambda v: [_integer(m) for m in _sequence(v)]),
            raw=raw,
        )


def _field(raw: dict, key: str, default, convert):
    """raw[key], or the default when absent, passed through convert.

    A value convert rejects becomes a ConfigError that names the key.
    """
    try:
        return convert(raw.get(key, default))
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _finite(value) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{value!r} is not a finite number")
    return out


def _integer(value) -> int:
    if isinstance(value, bool) or float(value) != int(value):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _known(value: dict, keys) -> dict:
    """value itself; a key outside keys (a misspelling) is an error."""
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown}")
    return value


def _sequence(value, length=None) -> list:
    if not isinstance(value, (list, tuple)) or (
            length is not None and len(value) != length):
        raise ValueError(f"expected a list of {length or 'any number of'} "
                         f"values, got {value!r}")
    return value


def _pair(value) -> tuple:
    return tuple(_finite(v) for v in _sequence(value, 2))


def _exponents(value) -> list:
    if isinstance(value, int) and not isinstance(value, bool):
        return list(range(value + 1))
    return [_integer(n) for n in _sequence(value)]


def _k_label(k: float) -> str:
    """The wave number as it appears in spectral file and result names."""
    return f"k{k:g}"


def _build_potential(cfg: RunConfig) -> Potential:
    p = parse_potential(cfg.potential_spec)
    if p.name.startswith("table"):
        lo, hi = p.x_range
        needed = (min(cfg.domain.x_min, cfg.center.re),
                  max(cfg.domain.x_max, cfg.center.re))
        if needed[0] < lo - 1e-12 or needed[1] > hi + 1e-12:
            raise ConfigError(
                f"table potential covers [{lo:g}, {hi:g}] but the run needs "
                f"[{needed[0]:g}, {needed[1]:g}]", code="CENTER_OUT_OF_DOMAIN")
        return p
    return p.rebase(cfg.x_range)


def _check_center(cfg: RunConfig) -> None:
    if not cfg.domain.contains(cfg.center):
        raise ConfigError(
            f"center ({cfg.center.re:g}, {cfg.center.im:g}) outside the "
            f"domain rectangle", code="CENTER_OUT_OF_DOMAIN")


# ----------------------------------------------------------------------
# deterministic artifact helpers


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _input_hash(cfg: RunConfig) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(cfg.raw, sort_keys=True).encode())
    if cfg.potential_spec.startswith("table:"):
        path = cfg.potential_spec.split(":", 1)[1]
        try:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        except OSError:
            pass
    return digest.hexdigest()


def _summary(cfg: RunConfig, command: str, results: dict, passed: bool) -> dict:
    return {
        "command": command,
        "passed": passed,
        "config": cfg.raw,
        "input_hash": _input_hash(cfg),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }


def _write_summary(cfg: RunConfig, command: str, results: dict,
                   passed: bool) -> None:
    payload = _summary(cfg, command, results, passed)
    path = os.path.join(cfg.out_dir, "summary.json")
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _grid_eval(seq: GeneratingSequence, spec: FormalPowerSpec, xx, tt,
               tol: float):
    """The power on the whole grid in one batch.

    Single-threaded: the x-ladder of a Zakharov-Shabat sequence is shared
    by every grid row, so splitting rows across threads repeats it.
    """
    return formal_power_batch(spec, seq, xx, tt, tol=tol)


def _table_vekua_residual(p: Potential, dom: GridDomain, re, im):
    """Max |W_zbar + (s j/2) conj(W)| over interior nodes, grid-step FD."""
    hx, ht = dom.h_x, dom.h_t
    dx_re = (re[1:-1, 2:] - re[1:-1, :-2]) / (2 * hx)
    dx_im = (im[1:-1, 2:] - im[1:-1, :-2]) / (2 * hx)
    dt_re = (re[2:, 1:-1] - re[:-2, 1:-1]) / (2 * ht)
    dt_im = (im[2:, 1:-1] - im[:-2, 1:-1]) / (2 * ht)
    # W_zbar = (dx W - j dt W) / 2
    wzb_re = 0.5 * (dx_re - dt_im)
    wzb_im = 0.5 * (dx_im - dt_re)
    svals = p.s_many(dom.x_nodes()[1:-1])[None, :]
    res_re = wzb_re - 0.5 * svals * im[1:-1, 1:-1]
    res_im = wzb_im + 0.5 * svals * re[1:-1, 1:-1]
    return float(max(np.max(np.abs(res_re)), np.max(np.abs(res_im))))


# ----------------------------------------------------------------------
# subcommands


def cmd_powers(cfg: RunConfig) -> int:
    _check_center(cfg)
    p = _build_potential(cfg)
    seq = zs_sequence(p, _working_domain(cfg))
    dom = cfg.domain
    xx, tt = np.meshgrid(dom.x_nodes(), dom.t_nodes())
    tol_quad = cfg.tolerances["quadrature"]
    results = {}
    passed = True
    for n in cfg.exponents:
        spec = FormalPowerSpec(cfg.sequence_index, n, cfg.coefficient,
                               cfg.center)
        re, im = _grid_eval(seq, spec, xx, tt, tol_quad)
        with_closed = n <= 2
        header = ["x", "t", "re", "im"]
        columns = [xx, tt, re, im]
        if with_closed:
            closed_re, closed_im = closed_form_grid(
                p, n, cfg.coefficient, cfg.center, dom.x_nodes(),
                dom.t_nodes())
            header += ["re_closed", "im_closed"]
            columns += [closed_re, closed_im]
        name = f"power_m{cfg.sequence_index}_n{n}.csv"
        _atomic_write(os.path.join(cfg.out_dir, name),
                      _csv_text(header, columns))
        entry = {"table": name}
        entry["max_vekua_residual"] = _table_vekua_residual(p, dom, re, im)
        residual_ok = entry["max_vekua_residual"] <= cfg.tolerances["residual"]
        entry["residual_ok"] = residual_ok
        passed = passed and residual_ok
        if with_closed:
            mask = ~np.isnan(closed_re)
            diff = np.maximum(np.abs(re - closed_re), np.abs(im - closed_im))
            max_diff = float(np.max(diff[mask])) if mask.any() else float("nan")
            entry["closed_form_max_diff"] = max_diff
            if n <= 1:
                closed_ok = max_diff <= cfg.tolerances["closed_form"]
                entry["closed_form_ok"] = closed_ok
                passed = passed and closed_ok
            else:
                entry["closed_form_note"] = (
                    "discrepancy report only; the published exponent-2 "
                    "formula does not reproduce the generic construction")
        results[f"n{n}"] = entry
    _write_summary(cfg, "powers", results, passed)
    return 0 if passed else 1


def _working_domain(cfg: RunConfig) -> GridDomain:
    lo, hi = cfg.x_range
    t_lo = min(cfg.domain.t_min, cfg.center.im) - 0.5
    t_hi = max(cfg.domain.t_max, cfg.center.im) + 0.5
    return GridDomain(lo, hi, t_lo, t_hi, 3, 3)


def cmd_modes(cfg: RunConfig) -> int:
    _check_center(cfg)
    p = _build_potential(cfg)
    seq = zs_sequence(p, _working_domain(cfg))
    dom = cfg.domain
    xx, tt = np.meshgrid(dom.x_nodes(), dom.t_nodes())
    results = {}
    passed = True
    for n in cfg.exponents:
        spec = FormalPowerSpec(cfg.sequence_index, n, cfg.coefficient,
                               cfg.center)
        re, im = _grid_eval(seq, spec, xx, tt, cfg.tolerances["quadrature"])
        n_plus = (re - im) / 2.0
        n_minus = (re + im) / 2.0
        # mode-equation residuals on interior nodes via grid-step differences
        hx, ht = dom.h_x, dom.h_t
        svals = p.s_many(dom.x_nodes()[1:-1])[None, :]
        r1 = np.full(xx.shape, np.nan)
        r2 = np.full(xx.shape, np.nan)
        r1[1:-1, 1:-1] = ((n_plus[1:-1, 2:] - n_plus[1:-1, :-2]) / (2 * hx)
                          + (n_plus[2:, 1:-1] - n_plus[:-2, 1:-1]) / (2 * ht)
                          - svals * n_minus[1:-1, 1:-1])
        r2[1:-1, 1:-1] = ((n_minus[1:-1, 2:] - n_minus[1:-1, :-2]) / (2 * hx)
                          - (n_minus[2:, 1:-1] - n_minus[:-2, 1:-1]) / (2 * ht)
                          + svals * n_plus[1:-1, 1:-1])
        name = f"modes_m{cfg.sequence_index}_n{n}.csv"
        _atomic_write(os.path.join(cfg.out_dir, name),
                      _csv_text(["x", "t", "n_plus", "n_minus", "r1", "r2"],
                                [xx, tt, n_plus, n_minus, r1, r2]))
        max_res = float(max(np.nanmax(np.abs(r1)), np.nanmax(np.abs(r2))))
        ok = max_res <= cfg.tolerances["residual"]
        results[f"n{n}"] = {"table": name, "max_mode_residual": max_res,
                            "residual_ok": ok}
        passed = passed and ok
    _write_summary(cfg, "modes", results, passed)
    return 0 if passed else 1


def cmd_spectral(cfg: RunConfig) -> int:
    if not cfg.k_values:
        raise ConfigError("spectral runs need a nonempty k list")
    p = _build_potential(cfg)
    lo, hi = cfg.x_range
    results = {}
    passed = True
    for k in cfg.k_values:
        try:
            state = spectral_solve(p, k, (lo, hi), cfg.init, step=cfg.rk_step,
                                   drift_threshold=cfg.tolerances["drift"])
        except StepTooLarge as exc:
            raise StepTooLarge(f"k = {k:g}: {exc}") from exc
        conserved = state.conserved()
        rows = slice(None, None, max(1, state.xs.size // 400))
        name = f"spectral_{_k_label(k)}.csv"
        _atomic_write(os.path.join(cfg.out_dir, name),
                      _csv_text(["x", "re_n1", "im_n1", "re_n2", "im_n2",
                                 "conserved"],
                                [state.xs[rows], state.n1.real[rows],
                                 state.n1.imag[rows], state.n2.real[rows],
                                 state.n2.imag[rows], conserved[rows]]))
        modes = state.lift_modes()
        probe_x = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7)
        probe_t = (0.0, 0.9)
        bridge = 0.0
        for x in probe_x:
            for t in probe_t:
                r1, r2 = zs_residual(modes, p, HyperbolicNumber(float(x), t),
                                     h=1e-3)
                bridge = max(bridge, abs(r1), abs(r2))
        ok = bridge <= cfg.tolerances["residual"]
        results[_k_label(k)] = {
            "table": name,
            "conservation_drift_per_unit_x": state.drift_per_unit,
            "max_bridge_residual": bridge,
            "bridge_ok": ok,
        }
        passed = passed and ok
    _write_summary(cfg, "spectral", results, passed)
    return 0 if passed else 1


def cmd_sequence(cfg: RunConfig) -> int:
    p = _build_potential(cfg)
    seq = zs_sequence(p, _working_domain(cfg))
    dom = cfg.domain
    xx, tt = np.meshgrid(dom.x_nodes(), dom.t_nodes())
    t_any = float(dom.t_nodes()[0])
    manifest = {
        "potential": cfg.potential_spec,
        "domain": dom.to_json_dict(),
        "period": seq.period,
        "pairs": {},
    }
    for m in cfg.sequence_indices:
        pair = seq.pair(m)
        names = {"F": f"pair_m{m}_F.csv", "G": f"pair_m{m}_G.csv",
                 "coefficients": f"pair_m{m}_coefficients.csv"}
        for key, fld in (("F", pair.F), ("G", pair.G)):
            _atomic_write(os.path.join(cfg.out_dir, names[key]),
                          _csv_text(["x", "t", "re", "im"],
                                    [xx, tt, *fld.eval_many(xx, tt)]))
        # the pairs depend on x only, so one row of values per x serves every t
        co = pair.coefficients()
        per_x = np.array([
            [part for c in co.at(HyperbolicNumber(float(x), t_any))
             for part in (c.re, c.im)] for x in dom.x_nodes()])
        _atomic_write(os.path.join(cfg.out_dir, names["coefficients"]),
                      _csv_text(["x", "t", "a_re", "a_im", "b_re", "b_im",
                                 "A_re", "A_im", "B_re", "B_im"],
                                [xx, tt] + [np.broadcast_to(col, xx.shape)
                                            for col in per_x.T]))
        manifest["pairs"][str(m)] = names
    _atomic_write(os.path.join(cfg.out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _write_summary(cfg, "sequence", {"pairs_written": len(manifest["pairs"])},
                   True)
    return 0


def cmd_check(cfg: RunConfig) -> int:
    results = verification.run_all(echo=print)
    payload = {
        r.number: {"name": r.name, "passed": r.passed,
                   "seconds": round(r.seconds, 3),
                   "budget_seconds": r.limit_seconds,
                   "details": _jsonable(r.details)}
        for r in results
    }
    passed = all(r.passed for r in results)
    runtime_ok = all(r.seconds < r.limit_seconds for r in results)
    _write_summary(cfg, "check",
                   {"criteria": payload, "runtime_ok": runtime_ok}, passed)
    return 0 if (passed and runtime_ok) else 1


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


# ----------------------------------------------------------------------
# entry point

COMMANDS = {
    "powers": cmd_powers,
    "modes": cmd_modes,
    "spectral": cmd_spectral,
    "sequence": cmd_sequence,
    "check": cmd_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypervekua",
        description="Formal-power tables and verification for the "
                    "hyperbolic Vekua form of the Zakharov-Shabat system.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("powers", "write formal-power tables with closed-form comparisons"),
        ("modes", "write mode tables with pointwise residual fields"),
        ("spectral", "run wave-number sweeps with conservation checks"),
        ("sequence", "dump generating pairs and their coefficients"),
        ("check", "run the full property suite"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a JSON run configuration")
        cmd.add_argument("--out", help="output directory (overrides config)")
        cmd.add_argument("--tol", type=float,
                         help="override the residual tolerance")
        cmd.add_argument("--threads", type=int,
                         help="accepted for compatibility; grid sweeps run "
                              "single-threaded (HYPERVEKUA_THREADS as "
                              "fallback)")
    return parser


def _emit_error(code: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "message": message}}))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    raw = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = RunConfig.from_dict(raw)
        if args.out:
            cfg.out_dir = args.out
        if args.tol is not None:
            if args.tol <= 0:
                raise ConfigError("--tol must be positive")
            cfg.tolerances["residual"] = args.tol
        threads = args.threads
        if threads is None:
            threads = _field(os.environ, "HYPERVEKUA_THREADS", cfg.threads,
                             _integer)
        cfg.threads = max(1, threads)
        return COMMANDS[args.command](cfg)
    except HyperVekuaError as exc:
        _emit_error(exc.code, str(exc))
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        _emit_error("INTERNAL", f"{type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
