"""Operator entry point: generate data, fit the surrogate, solve biases.

Subcommands: generate, fit-lr, solve, report.  ``solve`` takes one gate
bias or a comma list of them, solves a list on one worker process per
core (``pinn.sweep_solve``) and writes the same products for every bias.
Its ``--epochs`` is one budget or a comma list of them: training runs to
the largest, and each budget is scored against the ``--sweep`` oracle in
its own report, as if the run had stopped there.  With ``-v``, ``solve``
logs its training progress every 1% of the largest budget, from every
worker.  The probe traces (``generate``'s ``<sweep>_probe.csv`` and
``solve``'s ``probe_trace.csv``) read the node nearest the middle of the
wire axis, halfway out through the silicon radius (``mesh.probe_node``).
``report`` summarizes a sweep or surrogate container, a report or a
loss-history file, told apart by the container magic or the first line
of text.  Every command is reproducible: the same config and seed
produce byte-identical data products (no timestamps in payloads),
whatever the core count or ``OPENBLAS_NUM_THREADS``, because BLAS runs
on one thread (``_blas``).

Exit codes: 0 ok, 1 configuration error, 2 oracle failure, 3 solver
divergence, 4 a ``solve`` worker process died; no bias of that
``solve`` is written then, not even those already finished.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import dataset_io, fermi, pinn, surrogate
from .mesh import (
    ConfigError,
    DeviceConfig,
    assemble_fv_coefficients,
    build_device_mesh,
    load_device_config,
    probe_node,
)
from .oracle import (
    ConvergenceError,
    Snapshot,
    SweepDataset,
    default_tolerance,
    extract_probe,
    ramp_sweep,
    residual_check,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ORACLE = 2
EXIT_DIVERGED = 3
EXIT_WORKER_DIED = 4


def _device_config(args) -> DeviceConfig:
    if getattr(args, "config", None):
        return load_device_config(args.config)
    return DeviceConfig()


def cmd_generate(args) -> int:
    config = _device_config(args)
    mesh = build_device_mesh(config)
    coeffs = assemble_fv_coefficients(mesh)
    params = fermi.default_params()
    dataset = ramp_sweep(mesh, params, args.v_start, args.v_end, args.step)
    tol = default_tolerance(mesh, coeffs)
    for k, snap in enumerate(dataset.snapshots):
        resid = residual_check(mesh, coeffs, params, snap)
        if resid > tol:
            raise ConvergenceError(
                f"independent residual check failed at snapshot {k}: {resid:.3e} > {tol:.3e}",
                residual=resid,
            )
    dataset_io.write_sweep(dataset, mesh, args.out)
    node = probe_node(mesh)
    biases, phi, n = extract_probe(dataset, mesh, node)
    probe_csv = os.path.splitext(args.out)[0] + "_probe.csv"
    dataset_io.write_csv(probe_csv, ["v_gate", "phi_V", "n_cm3"], [biases, phi, n])
    print(f"wrote {len(dataset)} snapshots to {args.out} (probe node {node} -> {probe_csv})")
    return EXIT_OK


def cmd_fit_lr(args) -> int:
    mesh = build_device_mesh(_device_config(args))
    dataset = dataset_io.read_sweep(args.sweep, mesh)
    if not 1 <= args.cutoff <= len(dataset):
        raise ConfigError(f"cutoff {args.cutoff} outside 1..{len(dataset)}")
    sur = surrogate.fit(dataset.snapshots[:args.cutoff], dataset.mesh_fingerprint)
    dataset_io.write_model(sur, args.out)

    stats = surrogate.scatter_stats(sur, dataset, mesh.gate_nodes())
    # The predicted phi beside the oracle n, as a sweep; the oracle phi is the sweep's own.
    scatter = SweepDataset(snapshots=[Snapshot(v_gate=s.v_gate, phi=phi, n=s.n)
                                      for s, phi in zip(dataset.snapshots, stats["predictions"])],
                           mesh_fingerprint=dataset.mesh_fingerprint, params=dataset.params)
    dataset_io.write_sweep(scatter, mesh, os.path.splitext(args.out)[0] + "_scatter.wpnn")
    print(f"fitted on first {args.cutoff} snapshots "
          f"(V_G {sur.meta.bias_min:g}..{sur.meta.bias_max:g} V) -> {args.out}")
    print(f"R2 over all snapshots: {stats['r2']:.8f}; max |dphi| {stats['max_abs_err']*1e3:.4f} mV; "
          f"max gate-mean error {np.abs(stats['gate_err']).max()*1e3:.4f} mV")
    return EXIT_OK


def _comma_list(text: str, flag: str, convert) -> list:
    values = []
    for item in text.split(","):
        try:
            values.append(convert(item))
        except ValueError:
            raise ConfigError(f"{flag}: bad value {item!r}") from None
    return values


def _biases(text: str) -> list:
    """The ``--vg`` list.  A bias's files are named by ``f"{v:g}"``; two
    biases that share that name would train twice and overwrite each other."""
    seen = {}
    for v in _comma_list(text, "--vg", float):
        name = f"{v:g}"
        if name in seen:
            raise ConfigError(f"--vg: biases {seen[name]!r} and {v!r} both name their files vg{name}_*")
        seen[name] = v
    return list(seen.values())


def _budgets(text: str, sweep) -> list:
    """The ``--epochs`` budgets, sorted and distinct.  Training runs to the
    largest; the others only add reports, so a list needs an oracle."""
    budgets = sorted(set(_comma_list(text, "--epochs", int)))
    if budgets[0] < 1:
        raise ConfigError(f"--epochs: budget {budgets[0]} is below 1")
    if len(budgets) > 1 and not sweep:
        raise ConfigError("--epochs: a list of budgets is scored only against a --sweep oracle")
    return budgets


def cmd_solve(args) -> int:
    biases = _biases(args.vg)
    budgets = _budgets(args.epochs, args.sweep)
    mesh = build_device_mesh(_device_config(args))
    problem = pinn.PinnProblem(mesh=mesh, surrogate=dataset_io.read_model(args.surrogate),
                               params=fermi.default_params())
    oracle_ds = dataset_io.read_sweep(args.sweep, mesh) if args.sweep else None
    probe = probe_node(mesh)
    os.makedirs(args.out, exist_ok=True)

    opts = pinn.SolveOptions(epochs=budgets[-1], seed=args.seed, checkpoints=tuple(budgets),
                             log_every=max(1, budgets[-1] // 100) if args.verbose else 0)
    results = pinn.sweep_solve(problem, biases, opts)
    probe_rows, scatter = [], []
    for v, result in zip(biases, results):
        prefix = os.path.join(args.out, f"vg{v:g}")
        if result.history is not None and len(result.history):  # a divergence keeps its partial one
            dataset_io.write_loss_history(result.history, prefix + "_loss_history.csv")
        if isinstance(result, pinn.DivergedError):
            print(f"solver diverged: {result}", file=sys.stderr)
            continue
        pred = result.prediction
        dataset_io.write_sweep(SweepDataset(snapshots=[pred], mesh_fingerprint=mesh.fingerprint(),
                                            params=problem.params),
                               mesh, prefix + "_prediction.wpnn")
        l1, l2, _ = pinn.best_losses_within(result.history, result.epochs)
        print(f"V_G={v:g} V: {result.epochs} epochs in {result.wall_time_s/60:.1f} min, "
              f"best-state losses l1={l1:.3e} l2={l2:.3e}")
        if not pred.converged:
            logger.warning("V_G=%g V: best total loss %.3e above the accept_loss bound %.1e",
                           v, result.best_loss, pinn.ACCEPT_LOSS)
        if oracle_ds is None:
            continue
        snap = oracle_ds.snapshot_at(v)
        if snap is None:
            logger.warning("no oracle snapshot at V_G=%g; skipping error report", v)
            continue
        # Each report is scored with the best losses within its own budget.
        for budget in budgets:
            report = pinn.evaluate_against(result.checkpoints[budget], snap,
                                           gate_nodes=problem.gate_nodes, epochs=budget,
                                           losses=pinn.best_losses_within(result.history, budget))
            suffix = f"_report_{budget}.txt" if len(budgets) > 1 else "_report.txt"
            dataset_io.write_report(report, mesh, prefix + suffix)
            print(f"  epochs={budget}: max phi err {report.max_phi_err_pct:.4f}%, "
                  f"max log-n err {report.max_logn_err_pct:.4f}%, "
                  f"V_G'={report.v_gate_extracted:.5f} V")
        probe_rows.append((v, snap.phi[probe], pred.phi[probe], snap.n[probe], pred.n[probe]))
        scatter.append(np.stack([snap.phi, pred.phi, snap.n, pred.n]))
    n_failed = sum(isinstance(r, pinn.DivergedError) for r in results)
    print(f"wrote {len(biases) - n_failed} of {len(biases)} predictions to {args.out}")

    if probe_rows:
        probe_csv = os.path.join(args.out, "probe_trace.csv")
        dataset_io.write_csv(probe_csv,
                             ["v_gate", "phi_oracle_V", "phi_pinn_V", "n_oracle_cm3", "n_pinn_cm3"],
                             np.array(probe_rows).T)
        dataset_io.write_csv(os.path.join(args.out, "scatter_all_nodes.csv"),
                             ["phi_oracle_V", "phi_pinn_V", "n_oracle_cm3", "n_pinn_cm3"],
                             np.concatenate(scatter, axis=1))
        print(f"probe trace at node {probe} -> {probe_csv}")
    return EXIT_DIVERGED if n_failed else EXIT_OK


def cmd_report(args) -> int:
    for path in args.files:
        with open(path, "rb") as fh:
            head = fh.readline(256)
        if head.startswith(dataset_io.MODEL_MAGIC):
            kind, obj = dataset_io.read_container(path)
            if kind == "sweep":
                print(f"{path}: {len(obj)} snapshots x {len(obj.snapshots[0].phi)} nodes, "
                      f"V_G {obj.biases[0]:g}..{obj.biases[-1]:g} V, constants n_c={obj.params.n_c:g} "
                      f"v_t={obj.params.v_t:g} phi_ref={obj.params.phi_ref:g}")
            else:
                print(f"{path}: surrogate of rank {obj.left.shape[1]}, fitted on {obj.meta.n_snapshots} "
                      f"snapshots (V_G {obj.meta.bias_min:g}..{obj.meta.bias_max:g} V), "
                      f"mesh {obj.meta.mesh_fingerprint}")
            continue
        head = head.decode("utf-8", "replace").rstrip("\n")
        if head == dataset_io.REPORT_HEADER:
            scalars, per_node = dataset_io.read_report(path)
            print(f"{path}:")
            for key in ("v_gate", "v_gate_extracted", "epochs",
                        "max_phi_err_pct", "max_logn_err_pct", "final_loss_total"):
                if key in scalars:
                    print(f"  {key} = {scalars[key]:g}")
            if len(per_node):
                print(f"  per-node rows: {len(per_node)}")
        elif head == dataset_io.LOSS_HISTORY_HEADER:
            data = dataset_io.read_loss_history(path)
            final = f"; final lr={data[-1, 1]:g} total={data[-1, 4]:.3e}" if len(data) else ""
            print(f"{path}: {len(data)} rows{final}")
        else:
            print(f"{path}: unrecognized file", file=sys.stderr)
            return EXIT_CONFIG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wirepinn",
        description="Gated-nanowire electrostatics: finite-volume oracle and self-supervised solver",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable info logging, with solve's training progress every 1%% of the budget")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="solve the gate ramp and write the sweep dataset")
    p.add_argument("--config", help="device config file (key/value text)")
    p.add_argument("--v-start", type=float, default=0.0)
    p.add_argument("--v-end", type=float, default=0.75)
    p.add_argument("--step", type=float, default=0.0075)
    p.add_argument("--out", required=True, help="output sweep file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit-lr", help="fit the density->potential surrogate on a sweep prefix")
    p.add_argument("--config", help="device config file")
    p.add_argument("--sweep", required=True)
    p.add_argument("--cutoff", type=int, default=40, help="number of leading snapshots to train on")
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_fit_lr)

    p = sub.add_parser("solve", help="solve one or more gate biases with the self-supervised solver")
    p.add_argument("--config", help="device config file")
    p.add_argument("--surrogate", required=True)
    p.add_argument("--sweep", help="oracle sweep file for error reports")
    p.add_argument("--vg", required=True, help="gate bias [V], or a comma list solved on one worker process per core")
    p.add_argument("--epochs", default=str(pinn.SolveOptions.epochs),
                   help="training epochs, or a comma list of budgets each scored in its own report "
                        "(needs --sweep), e.g. 30000,100000,200000")
    p.add_argument("--seed", type=int, default=pinn.SolveOptions.seed)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("report", help="summarize sweep, surrogate, report and loss-history files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (dataset_io.FormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except pinn.WorkerDiedError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED


if __name__ == "__main__":
    sys.exit(main())
