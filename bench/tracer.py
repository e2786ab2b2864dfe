"""Spans and counters around the library's entry points, set from outside.

`install` replaces functions of the hypervekua modules with timing
wrappers; nothing under src/ is edited.  Every wrapped call pushes a frame
on its thread's own stack, so the self time of a call (its duration minus
the time of the wrapped calls it made) never mixes threads.  A worker
thread of the CLI's grid thread pool has an empty stack; its top-level
calls are parented on the open `cli.grid_eval` frame, whose self time is
its span minus the union of the worker intervals.

Per-node entry points (Potential.S, closed_form_power, CharCoefficients.at,
...) run tens of thousands of times per job, so no span record is kept per
call: each thread aggregates self time, calls and counts in dictionaries,
which `collect` merges and clears after every job.
"""

from __future__ import annotations

import math
import threading
from time import perf_counter

# frame layout: [start, child_time, worker_intervals or None, mark]
_START, _CHILD, _WORKERS, _MARK = range(4)


def _union_length(intervals) -> float:
    total = 0.0
    end = -math.inf
    for a, b, _ in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Per-thread frame stacks with aggregated self times and counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accs: list = []        # (thread, accumulator) of every thread seen
        self._pool_frame = None      # the open cli.grid_eval frame, if any
        self._patched: list = []     # (owner, attr, original) for uninstall

    def _acc(self) -> dict:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = {"stack": [], "self": {}, "calls": {}, "counts": {}}
            self._local.acc = acc
            with self._lock:
                self._accs.append((threading.current_thread(), acc))
        return acc

    def wrap(self, name: str, fn, *, pre=None, post=None, pool: bool = False):
        """A wrapper recording fn's self time and calls under name.

        pre(args) runs before the call and its value is stored as the
        frame's mark; post(counts, args, kwargs, frame, stack) runs after
        it with the caller's stack, so it can add counts or mark the caller.
        """
        tracer = self

        def traced(*args, **kwargs):
            acc = tracer._acc()
            stack = acc["stack"]
            frame = [0.0, 0.0, None, pre(args) if pre is not None else 0]
            if pool:
                frame[_WORKERS] = []
                tracer._pool_frame = frame
            stack.append(frame)
            frame[_START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[_START]
                covered = frame[_CHILD]
                if pool:
                    tracer._pool_frame = None
                    workers = frame[_WORKERS]
                    covered += _union_length(workers)
                    counts = acc["counts"]
                    busy = frame[_CHILD] + sum(b - a for a, b, _ in workers)
                    threads = len({t for _, _, t in workers}) or 1
                    counts["cli.grid_eval.span"] = (
                        counts.get("cli.grid_eval.span", 0.0) + dur)
                    counts["cli.grid_eval.busy"] = (
                        counts.get("cli.grid_eval.busy", 0.0) + busy)
                    counts["cli.grid_eval.capacity"] = (
                        counts.get("cli.grid_eval.capacity", 0.0)
                        + threads * dur)
                selfs = acc["self"]
                selfs[name] = selfs.get(name, 0.0) + (dur - covered)
                calls = acc["calls"]
                calls[name] = calls.get(name, 0) + 1
                if post is not None:
                    post(acc["counts"], args, kwargs, frame, stack)
                if stack:
                    stack[-1][_CHILD] += dur
                else:
                    parent = tracer._pool_frame
                    if parent is not None:
                        with tracer._lock:
                            parent[_WORKERS].append(
                                (frame[_START], end, threading.get_ident()))

        return traced

    def patch(self, owners, attr: str, name: str, **kwargs) -> None:
        """Replace attr on every owner (module or class) by one wrapper."""
        first = owners[0].__dict__[attr]
        is_static = isinstance(first, staticmethod)
        fn = first.__func__ if is_static else first
        wrapped = self.wrap(name, fn, **kwargs)
        for owner in owners:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def collect(self) -> dict:
        """Merge and clear every thread's totals: {"self", "calls", "counts"}."""
        merged = {"self": {}, "calls": {}, "counts": {}}
        with self._lock:
            live = []
            for thread, acc in self._accs:
                for key in merged:
                    for name, value in acc[key].items():
                        merged[key][name] = merged[key].get(name, 0) + value
                    acc[key].clear()
                if thread.is_alive():
                    live.append((thread, acc))
            self._accs = live
        return merged


# ----------------------------------------------------------------------
# the entry points the benchmark wraps


def _count(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _bytes_written(counts, args, kwargs, frame, stack):
    _count(counts, "cli.bytes_written", len(args[1]))


def _sweep_nodes(counts, args, kwargs, frame, stack):
    # _ladder_sweep(seq, m, n, lam, mu, verts_x, verts_t, panels, order)
    verts_x, panels, order = args[5], args[7], args[8]
    nodes = verts_x.shape[0] * (verts_x.shape[1] - 1) * panels * order
    _count(counts, "formal_powers.nodes", nodes)
    if stack:
        stack[-1][_MARK] = nodes     # the enclosing batch keeps its last sweep


def _batch_useful(counts, args, kwargs, frame, stack):
    _count(counts, "formal_powers.useful_nodes", frame[_MARK])


def _S_many_nodes(counts, args, kwargs, frame, stack):
    _count(counts, "zakharov_shabat.S_many_nodes", getattr(args[1], "size", 1))


def _rk4_steps(counts, args, kwargs, frame, stack):
    # spectral_solve(p, k, x_range, init, step=...)
    x0, x1 = args[2]
    step = args[4] if len(args) > 4 else kwargs.get("step")
    if step is None:
        from hypervekua.zakharov_shabat import DEFAULT_RK_STEP as step
    _count(counts, "zakharov_shabat.rk4_steps",
           max(1, math.ceil((float(x1) - float(x0)) / step)))


def _family_miss(counts, args, kwargs, frame, stack):
    if stack:
        stack[-1][_MARK] = 1         # the enclosing levels call missed


def _family_hit(counts, args, kwargs, frame, stack):
    if not frame[_MARK]:
        _count(counts, "zakharov_shabat.family_hits", 1)


def _coeff_cached(args):
    coeffs, z = args[0], args[1]
    key = (z.re, z.im) if hasattr(z, "re") else None
    return 1 if key in coeffs._cache else 0


def _coeff_hit(counts, args, kwargs, frame, stack):
    _count(counts, "pseudoanalytic.coeff_hits", frame[_MARK])


def _eval_many_nodes(counts, args, kwargs, frame, stack):
    _count(counts, "fields.eval_many_nodes", getattr(args[1], "size", 1))


def install(tracer: Tracer) -> None:
    """Wrap the library entry points that the CLI jobs cross."""
    from hypervekua import (cli, fields, formal_powers, pseudoanalytic,
                            quadrature, zakharov_shabat)

    zs = zakharov_shabat
    tracer.patch([cli], "_grid_eval", "cli.grid_eval", pool=True)
    tracer.patch([cli], "_csv_text", "cli.csv")
    tracer.patch([cli], "_atomic_write", "cli.write", post=_bytes_written)
    tracer.patch([cli], "_table_vekua_residual", "cli.residual")
    tracer.patch([cli, formal_powers], "formal_power_batch",
                 "formal_powers.batch", post=_batch_useful)
    tracer.patch([formal_powers], "_ladder_sweep", "formal_powers.sweep",
                 post=_sweep_nodes)
    tracer.patch([formal_powers._BatchedPathGrid], "prefix_re",
                 "formal_powers.prefix")
    tracer.patch([zs.Potential], "S", "zakharov_shabat.S")
    tracer.patch([zs.Potential], "S_many", "zakharov_shabat.S_many",
                 post=_S_many_nodes)
    tracer.patch([zs], "closed_form_power", "zakharov_shabat.closed_form")
    tracer.patch([zs.IteratedIntegralFamily], "levels",
                 "zakharov_shabat.family_levels", post=_family_hit)
    tracer.patch([zs.IteratedIntegralFamily], "_sweep",
                 "zakharov_shabat.family_sweep", post=_family_miss)
    tracer.patch([cli, zs], "spectral_solve", "zakharov_shabat.spectral",
                 post=_rk4_steps)
    tracer.patch([cli, zs], "zs_residual", "zakharov_shabat.bridge")
    tracer.patch([pseudoanalytic.CharCoefficients], "at", "pseudoanalytic.coeff",
                 pre=_coeff_cached, post=_coeff_hit)
    tracer.patch([fields.HyperField], "sample", "fields.sample")
    tracer.patch([fields.HyperField], "eval_many", "fields.eval_many",
                 post=_eval_many_nodes)
    tracer.patch([quadrature.PathGrid], "__init__", "quadrature.pathgrid")
    tracer.patch([quadrature.PathGrid], "prefix_re", "quadrature.prefix")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics of one job from the merged totals of `collect`.

    `_s` metrics are self times: the wrapped call's duration minus the
    wrapped calls it made.  `cli.grid_eval_s` is the exception: it is the
    wall span of the grid evaluation, children included.
    """
    s = totals["self"]
    c = totals["calls"]
    n = totals["counts"]

    def t(*names):
        return sum(s.get(name, 0.0) for name in names)

    return {
        "cli.self_s": t("cli.job"),
        "cli.csv_s": t("cli.csv"),
        "cli.grid_eval_s": n.get("cli.grid_eval.span", 0.0),
        "cli.grid_eval.parallel_eff": _ratio(n.get("cli.grid_eval.busy", 0.0),
                                             n.get("cli.grid_eval.capacity", 0)),
        "cli.write_s": t("cli.write"),
        "cli.bytes_written": n.get("cli.bytes_written", 0),
        "cli.residual_s": t("cli.residual"),
        "formal_powers.batch_s": t("formal_powers.batch"),
        "formal_powers.sweeps": c.get("formal_powers.sweep", 0),
        "formal_powers.sweep_s": t("formal_powers.sweep"),
        "formal_powers.prefix_s": t("formal_powers.prefix"),
        "formal_powers.nodes": n.get("formal_powers.nodes", 0),
        "formal_powers.useful_ratio": _ratio(
            n.get("formal_powers.useful_nodes", 0),
            n.get("formal_powers.nodes", 0)),
        "zakharov_shabat.S_calls": c.get("zakharov_shabat.S", 0),
        "zakharov_shabat.S_many_nodes": n.get("zakharov_shabat.S_many_nodes", 0),
        "zakharov_shabat.S_s": t("zakharov_shabat.S", "zakharov_shabat.S_many"),
        "zakharov_shabat.closed_form_calls": c.get("zakharov_shabat.closed_form", 0),
        "zakharov_shabat.closed_form_s": t("zakharov_shabat.closed_form",
                                           "zakharov_shabat.family_levels",
                                           "zakharov_shabat.family_sweep"),
        "zakharov_shabat.family_sweeps": c.get("zakharov_shabat.family_sweep", 0),
        "zakharov_shabat.family_hit_ratio": _ratio(
            n.get("zakharov_shabat.family_hits", 0),
            c.get("zakharov_shabat.family_levels", 0)),
        "zakharov_shabat.spectral_s": t("zakharov_shabat.spectral"),
        "zakharov_shabat.rk4_steps": n.get("zakharov_shabat.rk4_steps", 0),
        "zakharov_shabat.bridge_s": t("zakharov_shabat.bridge"),
        "pseudoanalytic.coeff_calls": c.get("pseudoanalytic.coeff", 0),
        "pseudoanalytic.coeff_s": t("pseudoanalytic.coeff"),
        "pseudoanalytic.coeff_hit_ratio": _ratio(
            n.get("pseudoanalytic.coeff_hits", 0),
            c.get("pseudoanalytic.coeff", 0)),
        "fields.sample_s": t("fields.sample"),
        "fields.eval_many_s": t("fields.eval_many"),
        "fields.eval_many_nodes": n.get("fields.eval_many_nodes", 0),
        "quadrature.pathgrids": c.get("quadrature.pathgrid", 0),
        "quadrature.prefix_s": t("quadrature.prefix", "quadrature.pathgrid"),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_eff")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


METRIC_UNITS = {name: _unit(name)
                for name in layer_metrics({"self": {}, "calls": {}, "counts": {}})}
