"""One measured stage of a benchmark workload, run in its own process.

    python3 perfbench/stage.py SPEC.json

The spec names the stage (``inputs``, ``prepare`` or ``solve``), the
checkout's ``src`` directory, a work directory, the seed,
the measuring time and whether to trace.  The stage writes its raw
results (times, digests, accuracy readings, peak memory, environment and,
when traced, the span summary) to the spec's ``result`` path; ``run.py``
turns them into gates and metrics.  A separate process per stage keeps
each stage's peak memory its own.

A traced stage alternates untraced and traced operations, installing the
tracing wrappers only for the odd ones, so both halves see the same
machine and the overhead and digest comparisons are like for like.

Every stage drives the program through its public functions only, the
way a user would: ``cli.main`` for ``generate`` and ``fit-lr``, and the
library calls ``cmd_solve`` makes for a solve.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import envinfo
import spans

# Canonical device, as in the README quick start.
V_START, V_END, V_STEP, CUTOFF = 0.0, 0.75, 0.0075, 40
# solve: the paper's headline bias, 2.5x beyond the surrogate's training range.
SOLVE_VG, SOLVE_EPOCHS = 0.75, 300
# Each prepare operation ends by loading and briefly training its own
# products, with the program's default generator seed: prepare has no
# randomness of its own.
CHECK_VG, CHECK_EPOCHS, CHECK_SEED = 0.15, 50, 42
# The solve stage first sets up this many times on its own, so the set-up
# median never rests on fewer samples than this.
SETUPS = 3
# Operations of one inputs stage: solve runs one such stage before
# training and one after.
INPUT_OPS = 3
# Measured operations per stage, whatever the measuring time; a traced
# stage alternates untraced and traced operations, so it needs two of each.
MIN_OPS, MIN_TRACED_OPS = 3, 4


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def peak_rss_mb() -> float:
    """High-water resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stage:
    def __init__(self, spec: dict):
        self.spec = spec
        self.work = spec["work"]
        self.failures: list = []
        self.tracer = None
        self.traced_names: list = []
        if spec["traced"]:
            self.tracer = spans.Tracer()

        from wirepinn import cli, dataset_io, fermi, pinn
        from wirepinn.mesh import DeviceConfig, build_device_mesh

        self.cli, self.dataset_io, self.fermi, self.pinn = cli, dataset_io, fermi, pinn
        self.DeviceConfig, self.build_device_mesh = DeviceConfig, build_device_mesh

    def set_op(self, k: int) -> None:
        if self.tracer is not None:
            self.tracer.op = k

    def set_tracing(self, on: bool) -> None:
        if on and not self.tracer.installed:
            self.traced_names = spans.install(self.tracer)
        elif not on:
            self.tracer.uninstall()

    # -- the user's commands -------------------------------------------------

    def prepare_once(self, out_dir: str) -> dict:
        """``wirepinn generate`` then ``wirepinn fit-lr`` into out_dir."""
        os.makedirs(out_dir, exist_ok=True)
        sweep = os.path.join(out_dir, "sweep.txt")
        model = os.path.join(out_dir, "surrogate.wpnn")
        t0 = time.perf_counter()
        rc_gen = self.cli.main(["generate", "--v-start", str(V_START), "--v-end", str(V_END),
                                "--step", str(V_STEP), "--out", sweep])
        t1 = time.perf_counter()
        rc_fit = self.cli.main(["fit-lr", "--sweep", sweep, "--cutoff", str(CUTOFF), "--out", model])
        t2 = time.perf_counter()
        if rc_gen != 0 or rc_fit != 0:
            raise RuntimeError(f"generate exited {rc_gen}, fit-lr exited {rc_fit}")
        return {"sweep": sweep, "model": model, "generate_s": t1 - t0, "fit_lr_s": t2 - t1}

    def setup(self, sweep: str, model: str):
        """What the solve command does before its first epoch."""
        t0 = time.perf_counter()
        mesh = self.build_device_mesh(self.DeviceConfig())
        sur = self.dataset_io.read_model(model)
        oracle = self.dataset_io.read_sweep(sweep, mesh)
        problem = self.pinn.PinnProblem(mesh=mesh, surrogate=sur, params=self.fermi.default_params())
        return time.perf_counter() - t0, problem, oracle

    def solve_command(self, out_dir, sweep, model, vg, epochs, seed) -> dict:
        """The ``solve`` command through the library, from set-up to written outputs."""
        from wirepinn.oracle import SweepDataset

        os.makedirs(out_dir, exist_ok=True)
        t0 = time.perf_counter()
        setup_s, problem, oracle = self.setup(sweep, model)
        t1 = time.perf_counter()
        opts = self.pinn.SolveOptions(epochs=epochs, seed=seed, arch="dense")
        result = self.pinn.solve_bias(problem, vg, opts)
        t2 = time.perf_counter()
        match = [s for s in oracle.snapshots if abs(s.v_gate - vg) < 1e-9]
        report = self.pinn.evaluate_against(
            result.prediction, match[0], gate_nodes=problem.gate_nodes, epochs=result.epochs,
            losses=self.pinn.best_losses_within(result.history, result.epochs),
        )
        prefix = os.path.join(out_dir, f"vg{vg:g}")
        paths = {
            "loss_history": prefix + "_loss_history.csv",
            "prediction": prefix + "_prediction.txt",
            "report": prefix + "_report.txt",
        }
        self.dataset_io.write_loss_history(result.history, paths["loss_history"])
        pred_ds = SweepDataset(snapshots=[result.prediction],
                               mesh_fingerprint=problem.mesh.fingerprint(), params=problem.params)
        self.dataset_io.write_sweep(pred_ds, problem.mesh, paths["prediction"])
        self.dataset_io.write_report(report, problem.mesh, paths["report"])
        t3 = time.perf_counter()
        return {
            "setup_s": setup_s,
            "train_s": t2 - t1,
            "total_s": t3 - t0,
            "epochs": len(result.history),
            "digests": {f"vg{vg:g}_{k}": sha256(p) for k, p in paths.items()},
            "quality": quality(report, vg, result.history, result.best_loss),
        }

    # -- stages -------------------------------------------------------------

    def run_ops(self, op, seconds: float) -> list:
        """Repeat ``op(k)`` while another operation as long as the last one
        still ends within ``seconds``, and at least MIN_OPS times.  An
        operation that raises is recorded as failed and the stage goes on."""
        ops = []
        start = time.perf_counter()
        k, last = 0, 0.0
        traced = self.tracer is not None
        min_ops = MIN_TRACED_OPS if traced else MIN_OPS
        while k < min_ops or time.perf_counter() - start + last <= seconds:
            self.set_op(k)
            if traced:
                self.set_tracing(k % 2 == 1)
            t0 = time.perf_counter()
            try:
                ops.append(dict(op(k), traced=traced and k % 2 == 1))
            except Exception as exc:  # recorded, counted as a failed operation
                self.failures.append(f"{self.spec['stage']} op {k}: {type(exc).__name__}: {exc}")
            last = time.perf_counter() - t0
            k += 1
        return ops

    def prepare_op(self, name: str, k: int, check: bool) -> dict:
        """generate + fit-lr into a fresh directory and, when ``check``, a
        short solve that loads and trains the products."""
        out = self.prepare_once(os.path.join(self.work, f"{name}{k}"))
        out["digests"] = {"sweep": sha256(out["sweep"]), "model": sha256(out["model"])}
        if check:
            out["check"] = self.solve_command(os.path.join(self.work, f"check{k}"), out["sweep"],
                                              out["model"], CHECK_VG, CHECK_EPOCHS, CHECK_SEED)
        return out

    def stage_inputs(self) -> dict:
        """INPUT_OPS times generate + fit-lr; the last products are the
        solve stage's inputs, without which it cannot run, so a failure
        ends the stage."""
        ops = [self.prepare_op("inputs", k, check=False) for k in range(INPUT_OPS)]
        return {"ops": ops, "products": {key: ops[-1][key] for key in ("sweep", "model")}}

    def stage_prepare(self) -> dict:
        kept = []

        def op(k):
            out = self.prepare_op("prepare", k, check=True)
            # Keep the last products for the surrogate check; drop the rest
            # so a long run does not fill the disk.
            if kept:
                shutil.rmtree(os.path.dirname(kept.pop()["sweep"]))
            kept.append(out)
            return out

        ops = self.run_ops(op, self.spec["seconds"])
        quality = self.surrogate_quality(kept[0]["sweep"], kept[0]["model"]) if kept else None
        return {"ops": ops, "surrogate": quality}

    def surrogate_quality(self, sweep: str, model: str) -> dict:
        """R^2 and gate error of the fitted surrogate over the whole sweep
        (outside the timed region, untraced)."""
        from wirepinn import surrogate

        if self.tracer is not None:
            self.set_tracing(False)
        mesh = self.build_device_mesh(self.DeviceConfig())
        sur = self.dataset_io.read_model(model)
        stats = surrogate.scatter_stats(sur, self.dataset_io.read_sweep(sweep, mesh), mesh.gate_nodes())
        return {"r2": float(stats["r2"]),
                "max_gate_err_mV": float(max(abs(e) for e in stats["gate_err"]) * 1e3)}

    def stage_solve(self) -> dict:
        sweep, model = self.spec["inputs"]["sweep"], self.spec["inputs"]["model"]
        setups = []
        for j in range(SETUPS):
            self.set_op(-1 - j)
            setups.append(self.setup(sweep, model)[0])

        def op(k):
            out_dir = os.path.join(self.work, f"solve{k}")
            out = self.solve_command(out_dir, sweep, model, SOLVE_VG, SOLVE_EPOCHS, self.spec["seed"])
            shutil.rmtree(out_dir)
            return out

        return {"setups": setups, "ops": self.run_ops(op, self.spec["seconds"])}

    def run(self) -> dict:
        stages = {"inputs": self.stage_inputs, "prepare": self.stage_prepare, "solve": self.stage_solve}
        out = stages[self.spec["stage"]]()
        out["failures"] = self.failures
        out["peak_rss_mb"] = peak_rss_mb()
        if self.tracer is not None:
            out["trace"] = self.trace_summary()
        return out

    def trace_summary(self) -> dict:
        summary = spans.summarize(self.tracer.spans)
        for entry in summary.values():
            q, value = spans.tail(entry["durations"])
            entry["p50_s"] = statistics.median(entry["durations"]) if entry["durations"] else 0.0
            entry["tail_q"] = q
            entry["tail_s"] = value
            del entry["durations"]
        return {"names": self.traced_names, "spans": summary}


def quality(report, vg: float, history, best_loss: float) -> dict:
    """Accuracy readings of a solve, and whether its losses stayed finite."""
    import numpy as np

    return {
        "vg": vg,
        "max_phi_err_pct": float(report.max_phi_err_pct),
        "max_logn_err_pct": float(report.max_logn_err_pct),
        "v_gate_err_mV": abs(float(report.v_gate_extracted) - vg) * 1e3,
        "best_loss": float(best_loss),
        "finite": math.isfinite(best_loss) and bool(np.isfinite(history).all()),
    }


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    stage = Stage(spec)
    result = stage.run()
    result["env"] = envinfo.collect(spec["root"], spec["src"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
