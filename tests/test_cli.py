import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from wirepinn import _blas, dataset_io as dio, pinn, surrogate
from wirepinn.cli import main
from wirepinn.mesh import build_device_mesh, load_device_config, nearest_node

SMALL_CFG = "nx = 17\nny = 8\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small-device artifacts shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "device.cfg"
    cfg.write_text(SMALL_CFG)
    sweep = root / "sweep.wpnn"
    rc = main(["generate", "--config", str(cfg), "--out", str(sweep)])
    assert rc == 0
    sur = root / "surrogate.wpnn"
    rc = main(["fit-lr", "--config", str(cfg), "--sweep", str(sweep),
               "--cutoff", "40", "--out", str(sur)])
    assert rc == 0
    return {"root": root, "cfg": cfg, "sweep": sweep, "surrogate": sur}


class TestGenerate:
    def test_default_range_produces_101_snapshots(self, workdir):
        ds = dio.read_sweep(workdir["sweep"])
        assert len(ds) == 101

    def test_zero_length_range(self, workdir, tmp_path):
        out = tmp_path / "one.wpnn"
        rc = main(["generate", "--config", str(workdir["cfg"]),
                   "--v-start", "0.3", "--v-end", "0.3", "--out", str(out)])
        assert rc == 0
        assert len(dio.read_sweep(out)) == 1

    def test_corrupt_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nx = banana\n")
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.wpnn")])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_output_directories_created(self, workdir, tmp_path):
        sweep = tmp_path / "runs" / "new" / "sweep.wpnn"
        model = tmp_path / "models" / "lr" / "surrogate.wpnn"
        assert main(["generate", "--config", str(workdir["cfg"]), "--v-end", "0.3",
                     "--out", str(sweep)]) == 0
        assert main(["fit-lr", "--config", str(workdir["cfg"]), "--sweep", str(sweep),
                     "--cutoff", "40", "--out", str(model)]) == 0
        assert len(dio.read_sweep(sweep)) == 41
        assert (sweep.parent / "sweep_probe.csv").exists()
        assert dio.read_model(model).meta.n_snapshots == 40
        assert (model.parent / "surrogate_scatter.wpnn").exists()

    def test_nan_residual_exit_2_names_bias(self, workdir, tmp_path, capsys, nan_closure):
        nan_closure(build_device_mesh(load_device_config(workdir["cfg"])), 0.0075 * 2)
        rc = main(["generate", "--config", str(workdir["cfg"]), "--out", str(tmp_path / "x.wpnn")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "oracle failure: sweep failed at bias index 2 (V_G=0.015 V): non-finite residual" in err
        assert not (tmp_path / "x.wpnn").exists()

    @pytest.mark.parametrize("flag, value", [("--v-end", "inf"), ("--step", "nan"), ("--v-start", "nan")])
    def test_non_finite_range_exit_1(self, workdir, tmp_path, capsys, flag, value):
        rc = main(["generate", "--config", str(workdir["cfg"]), flag, value,
                   "--out", str(tmp_path / "x.wpnn")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flag[2:].replace('-', '_')} must be finite, got {value}\n"
        assert not (tmp_path / "x.wpnn").exists()

    def test_probe_csv_written(self, workdir):
        probe = workdir["root"] / "sweep_probe.csv"
        assert probe.exists()
        assert probe.read_text().startswith("v_gate,")


class TestFitLr:
    def test_metadata_range(self, workdir):
        sur = dio.read_model(workdir["surrogate"])
        assert sur.meta.n_snapshots == 40
        assert sur.meta.bias_max == pytest.approx(0.2925)

    def test_full_cutoff_interpolates(self, workdir, tmp_path, capsys):
        out = tmp_path / "all.wpnn"
        rc = main(["fit-lr", "--config", str(workdir["cfg"]), "--sweep", str(workdir["sweep"]),
                   "--cutoff", "101", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "R2" in text
        sur = dio.read_model(out)
        assert sur.meta.bias_max == pytest.approx(0.75)

    def test_cutoff_one_runs_with_warning(self, workdir, tmp_path, caplog):
        out = tmp_path / "one.wpnn"
        with caplog.at_level("WARNING"):
            rc = main(["fit-lr", "--config", str(workdir["cfg"]), "--sweep", str(workdir["sweep"]),
                       "--cutoff", "1", "--out", str(out)])
        assert rc == 0
        assert any("rank" in r.message for r in caplog.records)

    def test_cutoff_out_of_range(self, workdir, tmp_path, capsys):
        rc = main(["fit-lr", "--config", str(workdir["cfg"]), "--sweep", str(workdir["sweep"]),
                   "--cutoff", "500", "--out", str(tmp_path / "x.wpnn")])
        assert rc == 1
        capsys.readouterr()

    def test_scatter_container_written(self, workdir):
        mesh = build_device_mesh(load_device_config(workdir["cfg"]))
        ds = dio.read_sweep(workdir["sweep"], mesh)
        stats = surrogate.scatter_stats(dio.read_model(workdir["surrogate"]), ds, mesh.gate_nodes())
        kind, arrays, meta = dio._read_container(workdir["root"] / "surrogate_scatter.wpnn")
        assert kind == "sweep" and meta["mesh_fingerprint"] == ds.mesh_fingerprint
        assert arrays["biases"].tobytes() == ds.biases.tobytes()
        assert arrays["phi"].shape == stats["predictions"].shape
        assert arrays["phi"].tobytes() == stats["predictions"].tobytes()
        assert arrays["n"].tobytes() == np.stack([s.n for s in ds.snapshots]).tobytes()
        # no Newton record, as in a solve's prediction
        assert np.isnan(arrays["residual_norm"]).all() and not arrays["iterations"].any()

    def test_generate_and_fit_lr_byte_identical(self, workdir, tmp_path):
        cfg = str(workdir["cfg"])
        for run in ("a", "b"):
            assert main(["generate", "--config", cfg, "--out", str(tmp_path / run / "sweep.wpnn")]) == 0
        for run in ("a", "b"):
            assert main(["fit-lr", "--config", cfg, "--sweep", str(tmp_path / "a" / "sweep.wpnn"),
                         "--cutoff", "40", "--out", str(tmp_path / run / "surrogate.wpnn")]) == 0
        for name in ("sweep.wpnn", "sweep_probe.csv", "surrogate.wpnn", "surrogate_scatter.wpnn"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.slow
class TestSolveAndSweep:
    def test_solve_writes_products(self, workdir, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   "--sweep", str(workdir["sweep"]), "--vg", "0.45",
                   "--epochs", "800", "--out", str(out)])
        assert rc == 0
        assert (out / "vg0.45_loss_history.csv").exists()
        assert (out / "vg0.45_prediction.wpnn").exists()
        assert (out / "vg0.45_report.txt").exists()
        scalars, _ = dio.read_report(out / "vg0.45_report.txt")
        assert scalars["epochs"] == 800
        capsys.readouterr()

    def test_epoch_study_emits_three_reports(self, workdir, tmp_path, capsys):
        out = tmp_path / "study"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   "--sweep", str(workdir["sweep"]), "--vg", "0.3",
                   "--epochs", "600,100,300", "--out", str(out)])
        assert rc == 0
        for epochs in (100, 300, 600):
            scalars, _ = dio.read_report(out / f"vg0.3_report_{epochs}.txt")
            assert scalars["epochs"] == epochs
        assert len(dio.read_loss_history(out / "vg0.3_loss_history.csv")) == 600
        capsys.readouterr()

    def test_reproducible_byte_identical(self, workdir, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["solve", "--config", str(workdir["cfg"]),
                         "--surrogate", str(workdir["surrogate"]),
                         "--vg", "0.25", "--epochs", "120", "--out", str(out)]) == 0
            outs.append((out / "vg0.25_loss_history.csv").read_bytes())
        assert outs[0] == outs[1]
        capsys.readouterr()

    def test_not_converged_warning_names_best_loss_and_bound(self, workdir, tmp_path, caplog):
        out = tmp_path / "short"
        with caplog.at_level("WARNING"):
            assert main(["solve", "--config", str(workdir["cfg"]),
                         "--surrogate", str(workdir["surrogate"]),
                         "--vg", "0.2", "--epochs", "30", "--out", str(out)]) == 0
        history = dio.read_loss_history(out / "vg0.2_loss_history.csv")
        best = history[:, 4].min()
        assert best > 1e-6 and best < history[-1, 4]  # best and last differ here
        messages = [r.getMessage() for r in caplog.records if "accept_loss" in r.getMessage()]
        assert messages == [f"V_G=0.2 V: best total loss {best:.3e} above the accept_loss bound 1.0e-06"]

    def test_printed_losses_are_the_reports(self, workdir, tmp_path, capsys):
        # the last epoch is not the best here, and the printed losses are
        # the best state's, as in the report and the prediction
        out = tmp_path / "printed"
        assert main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                     "--sweep", str(workdir["sweep"]), "--vg", "0.3",
                     "--epochs", "30", "--out", str(out)]) == 0
        history = dio.read_loss_history(out / "vg0.3_loss_history.csv")
        assert history[:, 4].min() < history[-1, 4]
        scalars, _ = dio.read_report(out / "vg0.3_report.txt")
        assert (f"best-state losses l1={scalars['final_loss_boundary']:.3e} "
                f"l2={scalars['final_loss_fd']:.3e}\n") in capsys.readouterr().out

    def test_sweep_command(self, workdir, tmp_path, capsys):
        out = tmp_path / "sweepdir"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   "--sweep", str(workdir["sweep"]), "--vg", "0.15,0.6",
                   "--epochs", "500", "--out", str(out)])
        assert rc == 0
        mesh = build_device_mesh(load_device_config(workdir["cfg"]))
        probe = nearest_node(mesh, 0.0405, 0.002)  # mid-axis, half the silicon radius
        oracle = dio.read_sweep(workdir["sweep"], mesh)
        expected_probe, expected_scatter = [], []
        for v in (0.15, 0.6):
            scalars, per_node = dio.read_report(out / f"vg{v:g}_report.txt")
            assert scalars["v_gate"] == v and scalars["epochs"] == 500
            assert per_node.shape == (mesh.n_nodes, 2)
            pred = dio.read_sweep(out / f"vg{v:g}_prediction.wpnn", mesh).snapshots[0]
            snap = oracle.snapshot_at(v)
            expected_probe.append([v, snap.phi[probe], pred.phi[probe], snap.n[probe], pred.n[probe]])
            expected_scatter.append(np.column_stack([snap.phi, pred.phi, snap.n, pred.n]))

        def table(name):
            lines = (out / name).read_text().splitlines()
            return lines[0].split(","), np.array([[float(x) for x in l.split(",")] for l in lines[1:]])

        header, rows = table("probe_trace.csv")
        assert header == ["v_gate", "phi_oracle_V", "phi_pinn_V", "n_oracle_cm3", "n_pinn_cm3"]
        assert np.array_equal(rows, np.array(expected_probe))
        header, rows = table("scatter_all_nodes.csv")
        assert header == ["phi_oracle_V", "phi_pinn_V", "n_oracle_cm3", "n_pinn_cm3"]
        assert rows.shape == (2 * mesh.n_nodes, 4)
        assert np.array_equal(rows, np.concatenate(expected_scatter))
        capsys.readouterr()

    def test_verbose_logs_progress_every_percent(self, workdir, tmp_path, caplog):
        solve = ["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                 "--vg", "0.3"]
        # 1% of 40 epochs rounds down to 0, so every epoch; 1% of 300 is 3
        for flags, epochs, expected in ((["-v"], 40, range(1, 41)), (["-v"], 300, range(3, 301, 3)),
                                        ([], 40, ())):
            caplog.clear()
            with caplog.at_level("INFO", logger="wirepinn.pinn"):
                assert main([*flags, *solve, "--epochs", str(epochs), "--out", str(tmp_path / "run")]) == 0
            steps = [r.getMessage().split(" step ")[1].split()[0]
                     for r in caplog.records if " step " in r.getMessage()]
            assert steps == [f"{k}/{epochs}" for k in expected]

    def test_sweep_writes_predictions_without_oracle_match(self, workdir, tmp_path, capsys):
        common = ["--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                  "--epochs", "20"]
        # no oracle at all, then an oracle whose grid misses both biases
        for name, extra, biases in (("none", [], (0.15, 0.6)),
                                    ("offgrid", ["--sweep", str(workdir["sweep"])], (0.1, 0.123))):
            out = tmp_path / name
            rc = main(["solve", *common, *extra, "--vg", ",".join(map(str, biases)),
                       "--out", str(out)])
            assert rc == 0
            for v in biases:
                ds = dio.read_sweep(out / f"vg{v:g}_prediction.wpnn")
                assert len(ds) == 1 and ds.snapshots[0].v_gate == v
        # the same file, byte for byte, as solve writes for that bias
        solo = tmp_path / "solo"
        assert main(["solve", *common, "--vg", "0.15", "--out", str(solo)]) == 0
        assert ((solo / "vg0.15_prediction.wpnn").read_bytes()
                == (tmp_path / "none" / "vg0.15_prediction.wpnn").read_bytes())
        capsys.readouterr()

    def test_divergence_writes_partial_history_and_continues(self, workdir, tmp_path, capsys,
                                                             monkeypatch, diverging_problem, two_workers):
        partial = np.column_stack([np.arange(3), np.full(3, 1e-3), np.ones(3), np.ones(3), np.ones(3)])
        monkeypatch.setattr(pinn, "PinnProblem",
                            functools.partial(diverging_problem, diverge_at=0.3, history=partial))
        out = tmp_path / "diverged"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   "--sweep", str(workdir["sweep"]), "--vg", "0.15,0.3,0.6",
                   "--epochs", "20", "--out", str(out)])
        assert rc == 3
        assert "solver diverged: forced at V_G=0.3" in capsys.readouterr().err
        assert np.array_equal(dio.read_loss_history(out / "vg0.3_loss_history.csv"), partial)
        assert not (out / "vg0.3_prediction.wpnn").exists()
        for v in (0.15, 0.6):  # solved and written on both sides of the divergence
            assert len(dio.read_loss_history(out / f"vg{v:g}_loss_history.csv")) == 20
            assert dio.read_sweep(out / f"vg{v:g}_prediction.wpnn").snapshots[0].v_gate == v
            assert dio.read_report(out / f"vg{v:g}_report.txt")[0]["v_gate"] == v
        probe = (out / "probe_trace.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in probe[1:]] == ["0.15", "0.6"]

    def test_dead_worker_exits_4_on_one_line(self, workdir, tmp_path, capsys, monkeypatch):
        def dies(problem, biases, opts):
            raise pinn.WorkerDiedError("the worker solving V_G=0.3 died (exit code -9)", 0.3)

        monkeypatch.setattr(pinn, "sweep_solve", dies)
        out = tmp_path / "died"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   "--vg", "0.15,0.3", "--epochs", "20", "--out", str(out)])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err == "worker failure: the worker solving V_G=0.3 died (exit code -9)\n"
        assert list(out.iterdir()) == []  # finished biases are not written either

    def test_bits_ignore_blas_threads(self, oracle_sweep, lr_surrogate, default_mesh, tmp_path, capsys):
        # A pooled two-bias solve in fresh processes, whatever OPENBLAS_NUM_THREADS
        # says, writes what each bias's solo solve writes.  The canonical device:
        # OpenBLAS runs the 17x8 device's small products on one thread anyway.
        sweep, model = tmp_path / "sweep.wpnn", tmp_path / "surrogate.wpnn"
        dio.write_sweep(oracle_sweep, default_mesh, sweep)
        dio.write_model(lr_surrogate, model)
        common = ["--surrogate", str(model), "--sweep", str(sweep), "--epochs", "30"]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        runs = []
        for threads in (None, "1", "2"):
            env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run([sys.executable, "-m", "wirepinn.cli", "solve", *common,
                                   "--vg", "0.15,0.3", "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert runs[0] == runs[1] == runs[2]
        for v in ("0.15", "0.3"):
            solo = tmp_path / f"solo{v}"
            assert main(["solve", *common, "--vg", v, "--out", str(solo)]) == 0
            for kind in ("loss_history.csv", "prediction.wpnn", "report.txt"):
                name = f"vg{v}_{kind}"
                assert (solo / name).read_bytes() == runs[0][name]
        assert len(runs[0]) == 8  # and the probe trace and scatter of both
        capsys.readouterr()


class TestSolveInput:
    """Bad --vg / --epochs values are rejected before any training."""

    @pytest.mark.parametrize("flags, named", [
        (["--vg", "0.3", "--epochs", "0,-5,20"], "budget -5 is below 1"),
        (["--vg", "0.3", "--epochs", "20,0"], "budget 0 is below 1"),
        (["--vg", "0.3", "--epochs", "0"], "budget 0 is below 1"),
        (["--vg", "0.3", "--epochs", "20,abc"], "--epochs: bad value 'abc'"),
        (["--vg", "0.3", "--epochs", "10,20"], "only against a --sweep oracle"),
        (["--vg", "0.15,0.15"], "biases 0.15 and 0.15"),
        (["--vg", "0.1500001,0.1500002"], "biases 0.1500001 and 0.1500002"),
        (["--vg", "0.1,abc"], "bad value 'abc'"),
    ], ids=["negative-budget", "zero-budget", "zero-epochs", "budget-not-a-number",
            "budget-list-without-sweep", "repeated-bias", "colliding-file-names", "not-a-number"])
    def test_rejected_before_training(self, workdir, tmp_path, capsys, monkeypatch, flags, named):
        calls = []
        monkeypatch.setattr(pinn, "solve_bias", lambda *args: calls.append(args))
        out = tmp_path / "never"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   "--epochs", "20", *flags, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and named in err
        assert calls == [] and not out.exists()


def test_cli_loads_no_scipy_solver_or_quadrature(tmp_path):
    # generate, fit-lr and a solve run all of their BLAS and LAPACK on
    # numpy's bundled OpenBLAS (`_blas`) and find the contact potential
    # without scipy.optimize, so no command loads any part of scipy
    if _blas._bundled() is None:
        pytest.skip("this numpy does not bundle the wheels' OpenBLAS; BLAS runs on scipy.linalg")
    cfg = tmp_path / "device.cfg"
    cfg.write_text(SMALL_CFG)
    sweep, model = str(tmp_path / "sweep.wpnn"), str(tmp_path / "surrogate.wpnn")
    commands = [["generate", "--config", str(cfg), "--out", sweep],
                ["fit-lr", "--config", str(cfg), "--sweep", sweep, "--out", model],
                ["solve", "--config", str(cfg), "--surrogate", model, "--sweep", sweep,
                 "--vg", "0.75", "--epochs", "20", "--out", str(tmp_path / "solve")]]
    code = ("import sys\n"
            "from wirepinn.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_missing_surrogate_file(tmp_path, capsys):
    rc = main(["solve", "--surrogate", str(tmp_path / "nope.wpnn"), "--vg", "0.1",
               "--epochs", "5", "--out", str(tmp_path / "o")])
    assert rc == 1
    capsys.readouterr()


def test_model_without_mesh_fingerprint_refused(workdir, tmp_path, capsys):
    # a model whose metadata names no mesh is not taken for one fitted here,
    # even on a mesh of the same size it was never fitted on
    unnamed = tmp_path / "unnamed.wpnn"
    dio.write_model(surrogate.fit(dio.read_sweep(workdir["sweep"]).snapshots[:40], ""), unnamed)
    cfg = tmp_path / "thin.cfg"
    cfg.write_text(SMALL_CFG + "radius_nm = 3\n")
    for config in (workdir["cfg"], cfg):
        rc = main(["solve", "--config", str(config), "--surrogate", str(unnamed), "--vg", "0.3",
                   "--epochs", "5", "--out", str(tmp_path / "never")])
        assert rc == 1
        assert capsys.readouterr().err == "error: surrogate was fitted on a different mesh\n"
    assert not (tmp_path / "never").exists()


class TestContainerInput:
    """A container of the wrong kind, or one that lacks a name, ends in exit 1
    and a message naming the file, not in a traceback."""

    def _drop(self, src, dst, names):
        kind, arrays, meta = dio._read_container(src)
        dio._write_container(dst, kind, [(a, v) for a, v in arrays.items() if a not in names],
                             {k: v for k, v in meta.items() if k not in names})
        return dst

    def test_bad_container_exit_1(self, workdir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pinn, "solve_bias", lambda *args: pytest.fail("trained"))
        sur, sweep = workdir["surrogate"], workdir["sweep"]
        no_left = self._drop(sur, tmp_path / "no_left.wpnn", ("left",))
        no_rcond = self._drop(sur, tmp_path / "no_rcond.wpnn", ("rcond",))
        no_phi = self._drop(sweep, tmp_path / "no_phi.wpnn", ("phi", "n_c"))
        for model, oracle, message in (
                (no_left, sweep, f"{no_left}: surrogate container lacks left\n"),
                (no_rcond, sweep, f"{no_rcond}: surrogate container lacks rcond\n"),
                (sur, no_phi, f"{no_phi}: sweep container lacks phi, n_c\n"),
                (sweep, sweep, f"{sweep}: holds a 'sweep' container, not a 'surrogate' one\n"),
                (sur, sur, f"{sur}: holds a 'surrogate' container, not a 'sweep' one\n")):
            rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(model),
                       "--sweep", str(oracle), "--vg", "0.3", "--epochs", "5", "--out", str(tmp_path / "o")])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {message}"

    def test_empty_sweep_exit_1(self, workdir, tmp_path, capsys):
        kind, arrays, meta = dio._read_container(workdir["sweep"])
        empty = tmp_path / "empty.wpnn"
        dio._write_container(empty, kind, [(a, v[:0]) for a, v in arrays.items()], meta)
        for argv in (["report", str(empty)],
                     ["fit-lr", "--config", str(workdir["cfg"]), "--sweep", str(empty),
                      "--out", str(tmp_path / "never.wpnn")]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {empty}: sweep holds no snapshots\n"
        assert not (tmp_path / "never.wpnn").exists()


class TestReport:
    def test_summarizes_sweep_and_reports(self, workdir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                     "--sweep", str(workdir["sweep"]), "--vg", "0.3", "--epochs", "5",
                     "--out", str(run)]) == 0
        capsys.readouterr()
        empty = tmp_path / "empty_loss_history.csv"  # a header and no rows
        empty.write_text(f"{dio.LOSS_HISTORY_HEADER}\n")
        rc = main(["report", str(workdir["sweep"]), str(run / "vg0.3_report.txt"),
                   str(run / "vg0.3_loss_history.csv"), str(empty), str(workdir["surrogate"]),
                   str(run / "vg0.3_prediction.wpnn"), str(workdir["root"] / "surrogate_scatter.wpnn")])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"{workdir['sweep']}: 101 snapshots x 136 nodes, V_G 0..0.75 V, constants n_c=" in out
        assert "vg0.3_prediction.wpnn: 1 snapshots x 136 nodes, V_G 0.3..0.3 V" in out
        assert "surrogate_scatter.wpnn: 101 snapshots x 136 nodes, V_G 0..0.75 V, constants n_c=" in out
        fingerprint = dio.read_model(workdir["surrogate"]).meta.mesh_fingerprint
        assert (f"{workdir['surrogate']}: surrogate of rank 17, fitted on 40 snapshots "
                f"(V_G 0..0.2925 V), mesh {fingerprint}\n") in out
        assert "epochs = 5" in out
        assert "vg0.3_loss_history.csv: 5 rows" in out
        assert f"{empty}: 0 rows\n" in out

    def test_unknown_file(self, workdir, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        binary = tmp_path / "junk.bin"
        binary.write_bytes(b"\xd9\xff\x00WPNN\n")
        # text, a figure CSV, then bytes that are neither text nor a container
        for unknown in (path, workdir["root"] / "sweep_probe.csv", binary):
            assert main(["report", str(unknown)]) == 1
            assert capsys.readouterr().err == f"{unknown}: unrecognized file\n"
        # known files with a malformed line end in an error naming it, not a traceback
        for name, text, where in (
                ("history.csv", f"{dio.LOSS_HISTORY_HEADER}\n0 0.001 1.0 2.0\n", ":2: expected 5 fields"),
                ("report.txt", f"{dio.REPORT_HEADER}\nv_gate = 0.3\n0 0.0 0.0\n", ":3: expected 5 fields"),
                ("sweep.wpnn", workdir["sweep"].read_bytes()[:-8], ": truncated container")):
            bad = tmp_path / name
            bad.write_bytes(text if isinstance(text, bytes) else text.encode())
            assert main(["report", str(bad)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {bad}{where}")
