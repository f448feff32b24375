import numpy as np
import pytest

from wirepinn import checks, dataset_io as dio, pinn
from wirepinn.cli import main
from wirepinn.mesh import build_device_mesh, load_device_config, nearest_node

SMALL_CFG = "nx = 17\nny = 8\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small-device artifacts shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "device.cfg"
    cfg.write_text(SMALL_CFG)
    sweep = root / "sweep.txt"
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
        out = tmp_path / "one.txt"
        rc = main(["generate", "--config", str(workdir["cfg"]),
                   "--v-start", "0.3", "--v-end", "0.3", "--out", str(out)])
        assert rc == 0
        assert len(dio.read_sweep(out)) == 1

    def test_corrupt_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nx = banana\n")
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.txt")])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_output_directories_created(self, workdir, tmp_path):
        sweep = tmp_path / "runs" / "new" / "sweep.txt"
        model = tmp_path / "models" / "lr" / "surrogate.wpnn"
        assert main(["generate", "--config", str(workdir["cfg"]), "--v-end", "0.3",
                     "--out", str(sweep)]) == 0
        assert main(["fit-lr", "--config", str(workdir["cfg"]), "--sweep", str(sweep),
                     "--cutoff", "40", "--out", str(model)]) == 0
        assert len(dio.read_sweep(sweep)) == 41
        assert (sweep.parent / "sweep_probe.csv").exists()
        assert dio.read_model(model).meta.n_snapshots == 40
        assert (model.parent / "surrogate_scatter.csv").exists()

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

    def test_scatter_csv_written(self, workdir):
        scatter = workdir["root"] / "surrogate_scatter.csv"
        assert scatter.exists()


@pytest.mark.slow
class TestSolveAndSweep:
    def test_solve_writes_products(self, workdir, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   "--sweep", str(workdir["sweep"]), "--vg", "0.45",
                   "--epochs", "800", "--out", str(out)])
        assert rc == 0
        assert (out / "vg0.45_loss_history.csv").exists()
        assert (out / "vg0.45_prediction.txt").exists()
        assert (out / "vg0.45_report.txt").exists()
        scalars, _ = dio.read_report(out / "vg0.45_report.txt")
        assert scalars["epochs"] == 800
        capsys.readouterr()

    def test_epoch_study_emits_three_reports(self, workdir, tmp_path, capsys):
        out = tmp_path / "study"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   "--sweep", str(workdir["sweep"]), "--vg", "0.3",
                   "--epoch-study", "100,300,600", "--epochs", "600", "--out", str(out)])
        assert rc == 0
        for epochs in (100, 300, 600):
            scalars, _ = dio.read_report(out / f"vg0.3_report_{epochs}.txt")
            assert scalars["epochs"] == epochs
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

    def test_sweep_command(self, workdir, tmp_path, capsys):
        out = tmp_path / "sweepdir"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   "--sweep", str(workdir["sweep"]), "--vg", "0.15,0.6",
                   "--epochs", "500", "--out", str(out)])
        assert rc == 0
        mesh = build_device_mesh(load_device_config(workdir["cfg"]))
        probe = nearest_node(mesh, 0.0405, 0.002)  # the default --probe-x/--probe-y
        oracle = dio.read_sweep(workdir["sweep"], mesh)
        expected_probe, expected_scatter = [], []
        for v in (0.15, 0.6):
            scalars, per_node = dio.read_report(out / f"vg{v:g}_report.txt")
            assert scalars["v_gate"] == v and scalars["epochs"] == 500
            assert per_node.shape == (mesh.n_nodes, 2)
            pred = dio.read_sweep(out / f"vg{v:g}_prediction.txt", mesh).snapshots[0]
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
                ds = dio.read_sweep(out / f"vg{v:g}_prediction.txt")
                assert len(ds) == 1 and ds.snapshots[0].v_gate == v
        # the same file, byte for byte, as solve writes for that bias
        solo = tmp_path / "solo"
        assert main(["solve", *common, "--vg", "0.15", "--out", str(solo)]) == 0
        assert ((solo / "vg0.15_prediction.txt").read_bytes()
                == (tmp_path / "none" / "vg0.15_prediction.txt").read_bytes())
        capsys.readouterr()

    def test_divergence_writes_partial_history_and_continues(self, workdir, tmp_path, capsys,
                                                             monkeypatch):
        real_solve = pinn.solve_bias
        partial = np.column_stack([np.arange(3), np.full(3, 1e-3), np.ones(3), np.ones(3), np.ones(3)])

        def solve_or_diverge(problem, v_gate, opts):
            if v_gate == 0.3:
                raise pinn.DivergedError(f"forced at V_G={v_gate}", step=3, history=partial)
            return real_solve(problem, v_gate, opts)

        monkeypatch.setattr(pinn, "solve_bias", solve_or_diverge)
        out = tmp_path / "diverged"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   "--sweep", str(workdir["sweep"]), "--vg", "0.15,0.3,0.6",
                   "--epochs", "20", "--out", str(out)])
        assert rc == 3
        assert "solver diverged: forced at V_G=0.3" in capsys.readouterr().err
        assert np.array_equal(dio.read_loss_history(out / "vg0.3_loss_history.csv"), partial)
        assert not (out / "vg0.3_prediction.txt").exists()
        for v in (0.15, 0.6):  # solved and written on both sides of the divergence
            assert len(dio.read_loss_history(out / f"vg{v:g}_loss_history.csv")) == 20
            assert dio.read_sweep(out / f"vg{v:g}_prediction.txt").snapshots[0].v_gate == v
            assert dio.read_report(out / f"vg{v:g}_report.txt")[0]["v_gate"] == v
        probe = (out / "probe_trace.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in probe[1:]] == ["0.15", "0.6"]


class TestSolveInput:
    """Bad --vg / --epoch-study values are rejected before any training."""

    @pytest.mark.parametrize("flags, named", [
        (["--vg", "0.3", "--epoch-study", "0,-5,20"], "budget -5 is below 1"),
        (["--vg", "0.3", "--epoch-study", "20,0"], "budget 0 is below 1"),
        (["--vg", "0.15,0.15"], "biases 0.15 and 0.15"),
        (["--vg", "0.1500001,0.1500002"], "biases 0.1500001 and 0.1500002"),
        (["--vg", "0.1,abc"], "bad value 'abc'"),
    ], ids=["negative-budget", "zero-budget", "repeated-bias", "colliding-file-names", "not-a-number"])
    def test_rejected_before_training(self, workdir, tmp_path, capsys, monkeypatch, flags, named):
        calls = []
        monkeypatch.setattr(pinn, "solve_bias", lambda *args: calls.append(args))
        out = tmp_path / "never"
        rc = main(["solve", "--config", str(workdir["cfg"]), "--surrogate", str(workdir["surrogate"]),
                   *flags, "--epochs", "20", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and named in err
        assert calls == [] and not out.exists()


class TestReport:
    def test_summarizes_sweep_and_reports(self, workdir, capsys):
        rc = main(["report", str(workdir["sweep"])])
        assert rc == 0
        out = capsys.readouterr().out
        assert "101 snapshots" in out

    def test_unknown_file(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        assert main(["report", str(path)]) == 1
        capsys.readouterr()


class TestCheck:
    def test_fast_self_checks_pass(self, capsys):
        rc = main(["check", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fermi-approx-vs-quadrature" in out
        assert "FAIL" not in out

    def test_injected_fault_detected(self, monkeypatch, capsys):
        from wirepinn import fermi

        real = fermi.fermi_half_deriv
        monkeypatch.setattr(fermi, "fermi_half_deriv", lambda eta: 1.1 * np.asarray(real(eta)))
        rc = main(["check", "--fast"])
        out = capsys.readouterr()
        assert rc == 4
        assert "FAIL" in out.out

    def test_missing_surrogate_file(self, tmp_path, capsys):
        rc = main(["solve", "--surrogate", str(tmp_path / "nope.wpnn"), "--vg", "0.1",
                   "--epochs", "5", "--out", str(tmp_path / "o")])
        assert rc == 1
        capsys.readouterr()


def test_run_self_checks_shapes():
    results = checks.run_self_checks(fast=True)
    assert all(len(r) == 3 for r in results)
