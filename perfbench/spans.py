"""Outside-in span tracing for the benchmark.

The program is never edited: ``install`` replaces each traced public name
at the place its caller looks it up (a module attribute or a class
attribute) with a wrapper that records a span.  A span is
``[name, start, end, parent, op, extra]``: ``parent`` is the index of the
enclosing span in the same list (-1 at top level), ``op`` is the
benchmark operation it belongs to and ``extra`` holds readings taken from
the call's result (file sizes, history counts).  Spans stay in memory
until ``summarize`` reads them at the end of a stage.

A name that the program no longer has is skipped: it reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = 0
        self._patched: list = []

    def wrap(self, name, fn, reading=None):
        """``fn`` recording a span ``name``; ``reading(args, kwargs, result)``
        may return a dict stored with the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self.stack.pop()
            if reading is not None:
                rec[EXTRA] = reading(args, kwargs, result)
            return result

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def patch(self, owner, attr: str, name: str, reading=None) -> bool:
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, reading))
        return True

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def _file_size(path_arg_index: int):
    def reading(args, kwargs, result):
        path = kwargs.get("path", args[path_arg_index] if len(args) > path_arg_index else None)
        return {"bytes": os.path.getsize(path)} if path and os.path.exists(path) else None
    return reading


def _history_counts(args, kwargs, result):
    history = result.history
    total = history[:, 4]
    running_min = float("inf")
    improvements = 0
    for value in total:
        if value < running_min:
            running_min = value
            improvements += 1
    lr = history[:, 1]
    return {
        "epochs": int(len(history)),
        "best_improvements": improvements,
        "lr_decays": int((lr[1:] != lr[:-1]).sum()),
    }


def _newton_iterations(args, kwargs, result):
    return {"newton_iterations": int(result.newton_iterations)}


def _param_count(args, kwargs, result):
    params = args[1]
    return {"params": int(sum(p.value.size for p in params))}


def _scatter_quality(args, kwargs, result):
    out = {"r2": float(result["r2"])}
    if "gate_err" in result:
        out["max_gate_err_mV"] = float(abs(result["gate_err"]).max() * 1e3)
    return out


# (owner, attribute, span, reading): the owner is a wirepinn module, or a
# class in one, where the traced name's callers look it up.
TARGETS = [
    ("cli", "cmd_generate", "cli.generate", None),
    ("cli", "cmd_fit_lr", "cli.fit_lr", None),
    ("cli", "ramp_sweep", "oracle.ramp_sweep", None),
    ("oracle", "solve_equilibrium", "oracle.solve_equilibrium", _newton_iterations),
    ("oracle", "solve_banded", "oracle.solve_banded", None),
    ("cli", "residual_check", "oracle.residual_check", None),
    ("fermi", "electron_density", "fermi.electron_density", None),
    ("fermi", "electron_density_deriv", "fermi.electron_density_deriv", None),
    ("dataset_io", "write_sweep", "dataset_io.write_sweep", _file_size(2)),
    ("dataset_io", "read_sweep", "dataset_io.read_sweep", _file_size(0)),
    ("dataset_io", "write_csv", "dataset_io.write_csv", _file_size(0)),
    ("dataset_io", "write_model", "dataset_io.write_model", _file_size(1)),
    ("dataset_io", "read_model", "dataset_io.read_model", _file_size(0)),
    ("dataset_io", "write_loss_history", "dataset_io.write_loss_history", _file_size(1)),
    ("dataset_io", "write_report", "dataset_io.write_report", _file_size(2)),
    ("surrogate", "fit", "surrogate.fit", None),
    ("surrogate", "scatter_stats", "surrogate.scatter_stats", _scatter_quality),
    ("surrogate", "predict_phi", "surrogate.predict_phi", None),
    ("pinn", "predict_phi", "surrogate.predict_phi", None),
    ("pinn.PinnProblem", "__init__", "pinn.problem_init", None),
    ("pinn", "solve_bias", "pinn.solve_bias", _history_counts),
    ("pinn.PinnProblem", "build_losses", "pinn.build_losses", None),
    ("pinn.PinnProblem", "surrogate_phi", "pinn.surrogate_phi", None),
    ("pinn", "loss_boundary", "pinn.loss_boundary", None),
    ("pinn", "loss_fd", "pinn.loss_fd", None),
    ("autodiff.GeneratorNet", "forward", "autodiff.forward", None),
    ("autodiff", "backward", "autodiff.backward", None),
    ("autodiff", "adam_step", "autodiff.adam_step", _param_count),
    ("autodiff", "scheduler_step", "autodiff.scheduler_step", None),
]
SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in TARGETS))


def install(tracer: Tracer) -> list:
    """Wrap every traced name the program still has; returns their spans."""
    found = []
    for owner, attr, span, reading in TARGETS:
        module, _, cls = owner.partition(".")
        obj = importlib.import_module(f"wirepinn.{module}")
        if cls:
            obj = getattr(obj, cls, None)
        if obj is not None and tracer.patch(obj, attr, span, reading):
            found.append(span)
    return found


TAIL_QUANTILES = (0.999, 0.99, 0.9, 0.5)


def tail(durations: list):
    """(quantile, value): the highest of TAIL_QUANTILES with at least ten
    samples beyond it; the maximum (quantile 1.0) when none has."""
    ordered = sorted(durations)
    n = len(ordered)
    for q in TAIL_QUANTILES:
        if n * (1.0 - q) >= 10:
            return q, ordered[min(n - 1, int(q * n))]
    return 1.0, ordered[-1] if ordered else 0.0


def summarize(spans: list) -> dict:
    """Per span name: calls, busy seconds, self seconds (the duration less
    that of the child spans), durations and the readings."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out: dict = {}
    for i, rec in enumerate(spans):
        entry = out.setdefault(rec[NAME], {
            "calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "readings": {},
            "has_children": False,
        })
        dur = rec[END] - rec[START]
        entry["calls"] += 1
        entry["busy_s"] += dur
        entry["self_s"] += dur - child_time[i]
        entry["has_children"] |= child_time[i] > 0.0
        entry["durations"].append(dur)
        for key, value in (rec[EXTRA] or {}).items():
            entry["readings"].setdefault(key, []).append(value)
    return out
