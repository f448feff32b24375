"""wirepinn benchmark: two workloads through the package's public functions.

    python3 perfbench/run.py --workload {prepare,solve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``
there, so nothing needs installing.  Workloads (see perfbench/README.md):

- ``prepare``: ``wirepinn generate`` then ``wirepinn fit-lr`` on the
  canonical 129x17 device (101 snapshots, cutoff 40), each followed by a
  short check solve of the products; repeated.  The seed is recorded and
  ignored: prepare has no randomness.
- ``solve``: the ``solve`` command at 0.75 V with a fixed epoch budget,
  through the library, from set-up to written outputs; repeated.

``solve`` makes its inputs with ``generate`` + ``fit-lr`` before training
and times the same again after it.  Each stage runs in its own process
(``stage.py``).  With ``--trace 1`` the workload's operations alternate
between untraced and traced (``spans.py``), and the result holds the
per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come
from ``BENCHMARK.json``.  Exits non-zero without a result when the
checkout has no ``src/wirepinn`` or a stage crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("prepare", "solve")
DEADLINE_S = 170.0      # the whole run, stages included
WORK_DIR = ".perfbench_work"

# Correctness gates.  The solve's accuracy bounds (max phi error %, max
# log-n error %, |V_G' - V_G| mV) are 1.5x the worst of seeds 1-10 after
# its 300 epochs, measured on the seed commit; see perfbench/README.md.
# The budget is far from converged, so they catch breakage, not a loss of
# paper-level accuracy.
SOLVE_BOUNDS = (3.4, 13.3, 5.9)
SURROGATE_R2_MIN = 0.999999          # seed commit: 0.99999952
SURROGATE_GATE_ERR_MAX_MV = 1.0      # seed commit: 0.7778 mV


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_stage(name: str, spec: dict, work: str, deadline: float) -> dict:
    """Run stage.py on ``spec`` in a child process and return its result;
    ``name`` labels the stage's files and messages."""
    spec_path = os.path.join(work, f"{name}.spec.json")
    spec = dict(spec, result=os.path.join(work, f"{name}.result.json"))
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(work, f"{name}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        # Its own process group, so a stage that has to be stopped takes
        # anything it started with it.
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "stage.py"), spec_path],
                                stdout=log, stderr=subprocess.STDOUT, cwd=spec["root"],
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        fail(f"stage {name} {'timed out' if code is None else f'exited {code}'}", 1)
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Gates:
    def __init__(self):
        self.results = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def digest_sets(ops) -> list:
    return [json.dumps(op["digests"], sort_keys=True) for op in ops]


def gate_stage(workload: str, res: dict, gates: Gates) -> None:
    ops = res["ops"]
    gates.check(f"{workload}: ran", bool(ops), f"{len(ops)} operations")
    gates.check(f"{workload}: identical digests across operations",
                len(set(digest_sets(ops))) <= 1, f"{len(ops)} operations")
    if workload == "prepare":
        checks = [op["check"] for op in ops]
        gates.check(f"{workload}: check solves finite", all(c["quality"]["finite"] for c in checks))
        gates.check(f"{workload}: identical check-solve digests", len(set(digest_sets(checks))) <= 1)
        sur = res["surrogate"]
        if sur is not None:
            gates.check(f"{workload}: surrogate R2 >= {SURROGATE_R2_MIN}",
                        sur["r2"] >= SURROGATE_R2_MIN, f"{sur['r2']:.10f}")
            gates.check(f"{workload}: surrogate gate error <= {SURROGATE_GATE_ERR_MAX_MV} mV",
                        sur["max_gate_err_mV"] <= SURROGATE_GATE_ERR_MAX_MV,
                        f"{sur['max_gate_err_mV']:.4f} mV")
        return
    phi, logn, vg_mv = SOLVE_BOUNDS
    for k, op in enumerate(ops):
        q = op["quality"]
        gates.check(f"{workload} op {k}: finite losses", q["finite"], f"best loss {q['best_loss']:.3e}")
        ok = q["max_phi_err_pct"] <= phi and q["max_logn_err_pct"] <= logn and q["v_gate_err_mV"] <= vg_mv
        gates.check(f"{workload} op {k}: accuracy at {q['vg']:g} V", ok,
                    f"phi {q['max_phi_err_pct']:.3f}% (<= {phi}), "
                    f"log-n {q['max_logn_err_pct']:.3f}% (<= {logn}), "
                    f"|V_G'-V_G| {q['v_gate_err_mV']:.3f} mV (<= {vg_mv})")


def main_op_times(workload: str, res: dict) -> list:
    if workload == "prepare":
        return [op["generate_s"] + op["fit_lr_s"] for op in res["ops"]]
    return [op["total_s"] for op in res["ops"]]


def training_ops(workload: str, res: dict) -> list:
    return [op["check"] for op in res["ops"]] if workload == "prepare" else res["ops"]


def end_to_end(workload: str, res: dict, inputs: list) -> dict:
    """Every end-to-end metric from the untraced operations; ``inputs``
    are solve's generate + fit-lr operations."""
    prep_ops = res["ops"] if workload == "prepare" else inputs
    train_ops = training_ops(workload, res)
    setups = res.get("setups", [])
    return {
        "generate_s": median([op["generate_s"] for op in prep_ops]),
        "fit_lr_s": median([op["fit_lr_s"] for op in prep_ops]),
        "setup_s": median(setups + [op["setup_s"] for op in train_ops]),
        "epochs_per_s": median([op["epochs"] / op["train_s"] for op in train_ops]),
        "solve_s": median([op["total_s"] for op in train_ops]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(workload: str, res: dict, overhead_pct: float) -> dict:
    """Every per-layer metric the traced pass can give, by name."""
    summary = res["trace"]["spans"]
    out = {"trace.overhead_pct": overhead_pct}
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_s": 0.0, "tail_s": 0.0, "readings": {}}

    def readings(span, key):
        return summary.get(span, empty)["readings"].get(key, [])

    for name in spans.SPAN_NAMES:
        e = summary.get(name, empty)
        out[f"{name}.calls"] = e["calls"]
        out[f"{name}.busy_s"] = e["busy_s"]
        out[f"{name}.self_s"] = e["self_s"]
        out[f"{name}.p50_ms"] = e["p50_s"] * 1e3
        out[f"{name}.tail_ms"] = e["tail_s"] * 1e3
        sizes = readings(name, "bytes")
        out[f"{name}.bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
        out[f"{name}.mb_per_s"] = sum(sizes) / e["busy_s"] / 1e6 if sizes and e["busy_s"] else 0.0

    ramps = summary.get("oracle.ramp_sweep", empty)["calls"]
    newton = readings("oracle.solve_equilibrium", "newton_iterations")
    out["oracle.newton_iterations"] = sum(newton) / ramps if ramps else float(sum(newton))
    out["surrogate.r2"] = (readings("surrogate.scatter_stats", "r2") or [0.0])[-1]
    out["surrogate.max_gate_err_mV"] = (readings("surrogate.scatter_stats", "max_gate_err_mV") or [0.0])[-1]
    for key in ("best_improvements", "lr_decays"):
        values = readings("pinn.solve_bias", key)
        out[f"pinn.{key}"] = sum(values) / len(values) if values else 0.0

    solves = [op["quality"] for op in training_ops(workload, res)]
    for key in ("max_phi_err_pct", "max_logn_err_pct", "v_gate_err_mV", "best_loss"):
        out[f"pinn.{key}"] = max((q[key] for q in solves), default=0.0)

    params = max(readings("autodiff.adam_step", "params") or [0])
    adam = summary.get("autodiff.adam_step", empty)
    out["autodiff.params"] = params
    # 7 arrays of 8-byte floats per parameter: read p, g, m, v; write p, m, v.
    out["autodiff.adam_bytes_computed"] = 7 * 8 * params
    out["autodiff.adam_gb_per_s_computed"] = (
        adam["calls"] * 7 * 8 * params / adam["busy_s"] / 1e9 if adam["busy_s"] else 0.0)
    return out


def print_trace(res: dict) -> None:
    summary = res["trace"]["spans"]
    print("# span                            calls     busy_s     self_s    p50_ms   tail_ms (q)")
    for name in spans.SPAN_NAMES:
        e = summary.get(name)
        if e is None:
            print(f"# {name:<30} {0:>7}  (not called)")
            continue
        self_s = f"{e['self_s']:10.4f}" if e["has_children"] else " " * 10
        print(f"# {name:<30} {e['calls']:>7} {e['busy_s']:10.4f} {self_s} "
              f"{e['p50_s'] * 1e3:9.3f} {e['tail_s'] * 1e3:9.3f} (p{e['tail_q'] * 100:g})")
    missing = [n for n in spans.SPAN_NAMES if n not in res["trace"]["names"]]
    if missing:
        print(f"# names the program no longer has: {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Stopped from outside: unwind, so the running stage is killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wirepinn", "cli.py")):
        fail(f"no wirepinn sources under {src}; run from the root of a checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_DIR))
    spec = {"root": root, "src": src, "seed": args.seed, "seconds": args.seconds,
            "inputs": None, "traced": False}
    inputs = []   # solve's generate + fit-lr stages, before and after training
    try:
        def stage(label, **kw):
            os.makedirs(os.path.join(work, label))
            return run_stage(label, dict(spec, work=os.path.join(work, label), **kw), work, deadline)

        if args.workload != "prepare":
            inputs.append(stage("inputs-before", stage="inputs"))
            spec["inputs"] = inputs[0]["products"]
        res = stage(args.workload, stage=args.workload, traced=bool(args.trace))
        if args.workload != "prepare" and not args.trace:
            # More samples, a run's length after the first ones, so the
            # reported median does not rest on one moment of a noisy machine.
            inputs.append(stage("inputs-after", stage="inputs"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass
    input_ops = [op for stage_res in inputs for op in stage_res["ops"]]
    untraced = dict(res, ops=[op for op in res["ops"] if not op["traced"]])
    traced = dict(res, ops=[op for op in res["ops"] if op["traced"]])

    gates = Gates()
    if inputs:
        gates.check("inputs: identical digests across operations",
                    len(set(digest_sets(input_ops))) <= 1, f"{len(input_ops)} operations")
    gate_stage(args.workload, res, gates)
    overhead_pct = 0.0
    if args.trace:
        digests = [set(digest_sets(training_ops(args.workload, r))) for r in (untraced, traced)]
        gates.check("tracing leaves every digest unchanged",
                    bool(traced["ops"]) and digests[0] == digests[1])
        if traced["ops"] and untraced["ops"]:
            overhead_pct = 100.0 * (median(main_op_times(args.workload, traced))
                                    / median(main_op_times(args.workload, untraced)) - 1.0)

    print("# environment " + json.dumps(res["env"], sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    train_ops = training_ops(args.workload, res)
    print("# digests " + json.dumps(dict(input_ops[0]["digests"] if input_ops else {},
                                         **(train_ops[0]["digests"] if train_ops else {})),
                                    sort_keys=True))
    failures = [m for stage_res in [res] + inputs for m in stage_res["failures"]]
    for message in failures:
        print(f"# operation FAILED  {message}")
    for name, ok, detail in gates.results:
        print(f"# gate {'PASS' if ok else 'FAIL'}  {name}  {detail}")
    for ops, label in ((input_ops, "inputs"), (res["ops"], args.workload)):
        for k, op in enumerate(ops):
            times = {key: round(op[key], 4) for key in ("generate_s", "fit_lr_s", "setup_s", "train_s",
                                                          "total_s") if key in op}
            if "check" in op:
                times.update(check_total_s=round(op["check"]["total_s"], 4))
            print(f"# {label} op {k}{' traced' if op.get('traced') else ''}: {json.dumps(times)}")

    if args.trace:
        print_trace(res)
        print(f"# tracing overhead {overhead_pct:+.2f}% on the median operation time")
        available = per_layer(args.workload, traced, overhead_pct)
        wanted = bench["per_layer"]
    else:
        available = end_to_end(args.workload, res, input_ops)
        wanted = bench["end_to_end"]
        for name, value in available.items():
            print(f"# {name} = {value:.6g}")
    metrics = {m["name"]: {"value": available[m["name"]], "unit": m["unit"]} for m in wanted}

    # Operations (each generate + fit-lr, set-up or solve command)
    # and correctness gates both count as attempted; a failed one as failed.
    ops = len(failures) + len(input_ops) + len(res["ops"]) + len(res.get("setups", []))
    print(json.dumps({
        "correct": not failures and gates.failed == 0,
        "attempted": ops + len(gates.results),
        "failed": len(failures) + gates.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
