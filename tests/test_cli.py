import csv
import errno
import json
import os
import shutil
import struct

import numpy as np
import pytest

from neurodiff import cli, presets
from neurodiff.cli import main
from neurodiff.solver import SolverConfig, fit

FAST = ["--epochs", "3", "--batch-size", "32", "--seed", "0"]


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestSolveArtifacts:
    def test_writes_metrics_solution_checkpoint_manifest(self, tmp_path):
        out = str(tmp_path / "run")
        assert run(["solve", "decay", "--out", out] + FAST) == 0
        rows = read_csv(os.path.join(out, "metrics.csv"))
        assert rows[0] == ["epoch", "train_loss", "valid_loss", "loss_kind", "lr"]
        assert len(rows) == 4  # header + 3 epochs
        sol = read_csv(os.path.join(out, "solution.csv"))
        assert sol[0] == ["t", "u_pred", "u_true", "abs_err"]
        assert len(sol) == 101
        assert os.path.exists(os.path.join(out, "net0.ckpt"))
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["preset"] == "decay"
        assert manifest["flags"]["epochs"] == 3

    def test_deterministic_metrics_across_runs(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run(["solve", "decay", "--out", out1] + FAST)
        run(["solve", "decay", "--out", out2] + FAST)
        m1 = open(os.path.join(out1, "metrics.csv")).read()
        m2 = open(os.path.join(out2, "metrics.csv")).read()
        assert m1 == m2

    def test_manifest_reproduces_run(self, tmp_path):
        out1 = str(tmp_path / "a")
        run(["solve", "decay", "--out", out1] + FAST)
        out2 = str(tmp_path / "b")
        run(["solve", "decay", "--out", out2, "--manifest",
             os.path.join(out1, "manifest.json")])
        m1 = open(os.path.join(out1, "metrics.csv")).read()
        m2 = open(os.path.join(out2, "metrics.csv")).read()
        assert m1 == m2

    def test_seed_env_variable(self, tmp_path, monkeypatch):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        monkeypatch.setenv("NEURODIFF_SEED", "7")
        run(["solve", "decay", "--out", out1, "--epochs", "2",
             "--batch-size", "32"])
        run(["solve", "decay", "--out", out2, "--epochs", "2",
             "--batch-size", "32", "--seed", "7"])
        m1 = open(os.path.join(out1, "metrics.csv")).read()
        m2 = open(os.path.join(out2, "metrics.csv")).read()
        assert m1 == m2

    @pytest.mark.parametrize("command, preset", [("solve", "decay"),
                                                 ("bundle", "decay-bundle")])
    @pytest.mark.parametrize("value", ["-3", "18446744073709551616", "abc",
                                       ""])
    def test_bad_seed_env_variable_exits_2(self, tmp_path, monkeypatch,
                                           capsys, command, preset, value):
        monkeypatch.setenv("NEURODIFF_SEED", value)
        out = tmp_path / "run"
        assert run([command, preset, "--out", str(out), "--epochs", "2",
                    "--batch-size", "32"]) == 2
        assert capsys.readouterr().err == (
            f"{command}: NEURODIFF_SEED must be an integer in [0, 2**64), "
            f"got {value!r}\n")
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        assert run(["solve", "decay", "--out", str(tmp_path / "run"),
                    "--epochs", "2", "--batch-size", "32",
                    "--seed", str(2 ** 64 - 1)]) == 0

    def test_heat_dim_gate(self, tmp_path, capsys):
        out = str(tmp_path / "h")
        code = run(["solve", "heat", "--dim", "4", "--out", out] + FAST)
        assert code == 2
        assert "allow-large" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_heat_dim_below_one_exits_2(self, tmp_path, capsys, dim):
        out = tmp_path / "h"
        code = run(["solve", "heat", "--dim", dim, "--out", str(out)] + FAST)
        assert code == 2
        assert capsys.readouterr().err == (
            f"heat: --dim must be a positive integer, got {dim}\n")
        assert not out.exists()

    @pytest.mark.parametrize("dim", [0, 1.5])
    def test_bad_heat_dim_in_manifest_exits_2(self, tmp_path, capsys, dim):
        first = str(tmp_path / "a")
        assert run(["solve", "decay", "--out", first] + FAST) == 0
        path = os.path.join(first, "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        manifest["preset"] = "heat"
        manifest["flags"]["dim"] = dim
        with open(path, "w") as f:
            json.dump(manifest, f)
        capsys.readouterr()
        out = tmp_path / "b"
        assert run(["solve", "heat", "--out", str(out),
                    "--manifest", path]) == 2
        assert capsys.readouterr().err == (
            f"heat: --dim must be a positive integer, got {dim!r}\n")
        assert not out.exists()

    def test_hidden_and_loss_flags(self, tmp_path):
        out = str(tmp_path / "run")
        assert run(["solve", "decay", "--out", out, "--hidden", "8",
                    "--loss", "l1"] + FAST) == 0
        rows = read_csv(os.path.join(out, "metrics.csv"))
        assert rows[1][3] == "l1"

    def test_unknown_preset_exits_2(self):
        with pytest.raises(SystemExit) as e:
            run(["solve", "wave"])
        assert e.value.code == 2


BAD_TRAINING_FLAGS = [
    (["--batch-size", "0"], "--batch-size must be a positive integer, got 0"),
    (["--batch-size", "-4"], "--batch-size must be a positive integer, got -4"),
    (["--epochs", "0"], "--epochs must be a positive integer, got 0"),
    (["--epochs", "-1"], "--epochs must be a positive integer, got -1"),
    (["--hidden", "32,x"],
     "--hidden must be comma-separated positive integers, got '32,x'"),
    (["--hidden", "0"],
     "--hidden must be comma-separated positive integers, got '0'"),
    (["--hidden", "8,-2"],
     "--hidden must be comma-separated positive integers, got '8,-2'"),
    (["--hidden", "8,,8"],
     "--hidden must be comma-separated positive integers, got '8,,8'"),
    (["--hidden", ""],
     "--hidden must be comma-separated positive integers, got ''"),
    (["--switch-window", "0"],
     "--switch-window must be a positive integer, got 0"),
    (["--switch-window", "-3"],
     "--switch-window must be a positive integer, got -3"),
    (["--switch-delta", "-1"],
     "--switch-delta must be a finite number above 0, got -1.0"),
    (["--switch-delta", "0"],
     "--switch-delta must be a finite number above 0, got 0.0"),
    (["--switch-delta", "nan"],
     "--switch-delta must be a finite number above 0, got nan"),
    (["--switch-delta", "inf"],
     "--switch-delta must be a finite number above 0, got inf"),
    (["--lr", "-0.5"], "--lr must be a finite number above 0, got -0.5"),
    (["--lr", "0"], "--lr must be a finite number above 0, got 0.0"),
    (["--lr", "nan"], "--lr must be a finite number above 0, got nan"),
    (["--lr", "inf"], "--lr must be a finite number above 0, got inf"),
    (["--seed", "-1"], "--seed must be an integer in [0, 2**64), got -1"),
    (["--seed", "18446744073709551616"],
     "--seed must be an integer in [0, 2**64), got 18446744073709551616"),
]


class TestTrainingFlags:
    @pytest.mark.parametrize("command, preset", [("solve", "decay"),
                                                 ("bundle", "decay-bundle")])
    @pytest.mark.parametrize("flags, message", BAD_TRAINING_FLAGS)
    def test_bad_flag_exits_2(self, tmp_path, capsys, command, preset, flags,
                              message):
        out = tmp_path / "run"
        code = run([command, preset, "--out", str(out)] + FAST + flags)
        assert code == 2
        assert capsys.readouterr().err == f"{command}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", -1, "--epochs must be a positive integer, got -1"),
        ("epochs", 2.5, "--epochs must be a positive integer, got 2.5"),
        ("batch_size", 0, "--batch-size must be a positive integer, got 0"),
        ("hidden", "32,x",
         "--hidden must be comma-separated positive integers, got '32,x'"),
        ("hidden", "0",
         "--hidden must be comma-separated positive integers, got '0'"),
        ("switch_window", 0,
         "--switch-window must be a positive integer, got 0"),
        ("switch_window", 2.5,
         "--switch-window must be a positive integer, got 2.5"),
        ("switch_delta", -1,
         "--switch-delta must be a finite number above 0, got -1"),
        ("switch_delta", "0.1",
         "--switch-delta must be a finite number above 0, got '0.1'"),
        ("lr", -1, "--lr must be a finite number above 0, got -1"),
        ("lr", "0.1", "--lr must be a finite number above 0, got '0.1'"),
        ("seed", -3, "--seed must be an integer in [0, 2**64), got -3"),
        ("seed", 1.5, "--seed must be an integer in [0, 2**64), got 1.5"),
        ("seed", 2 ** 64,
         "--seed must be an integer in [0, 2**64), got 18446744073709551616"),
    ])
    def test_bad_manifest_flag_exits_2(self, tmp_path, capsys, key, value,
                                       message):
        first = str(tmp_path / "a")
        assert run(["solve", "decay", "--out", first] + FAST) == 0
        path = os.path.join(first, "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        manifest["flags"][key] = value
        with open(path, "w") as f:
            json.dump(manifest, f)
        capsys.readouterr()
        out = tmp_path / "b"
        assert run(["solve", "decay", "--out", str(out),
                    "--manifest", path]) == 2
        assert capsys.readouterr().err == f"solve: {message}\n"
        assert not out.exists()


class TestLossSwitch:
    def test_switch_records_single_transition(self, tmp_path):
        out = str(tmp_path / "run")
        assert run(["solve", "decay", "--out", out, "--epochs", "60",
                    "--batch-size", "64", "--seed", "0",
                    "--switch-loss", "l1", "--switch-delta", "0.5",
                    "--switch-window", "3"]) == 0
        kinds = [r[3] for r in read_csv(os.path.join(out, "metrics.csv"))[1:]]
        transitions = sum(1 for a, b in zip(kinds, kinds[1:]) if a != b)
        assert transitions == 1
        assert kinds[0] == "mse" and kinds[-1] == "l1"


class TestBundleInvert:
    def _train_bundle(self, tmp_path):
        out = str(tmp_path / "bundle")
        assert run(["bundle", "decay-bundle", "--out", out] + FAST) == 0
        return out

    def test_bundle_artifacts(self, tmp_path):
        out = self._train_bundle(tmp_path)
        with open(os.path.join(out, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["command"] == "bundle"
        assert "u0" in manifest["layout"]["theta_ic"]
        assert os.path.exists(os.path.join(out, "net0.ckpt"))

    def _write_data(self, tmp_path):
        path = str(tmp_path / "obs.csv")
        t = np.linspace(0, 2, 10)
        u = 1.0 * np.exp(-1.0 * t)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["t", "u"])
            for ti, ui in zip(t, u):
                w.writerow([ti, ui])
        return path

    def test_invert_zero_steps_returns_midpoint_init(self, tmp_path):
        bundle = self._train_bundle(tmp_path)
        data = self._write_data(tmp_path)
        out = str(tmp_path / "inv")
        assert run(["invert", "decay-bundle", "--data", data,
                    "--bundle-dir", bundle, "--steps", "0",
                    "--out", out]) == 0
        with open(os.path.join(out, "theta.json")) as f:
            result = json.load(f)
        # midpoint of the [0.5, 2.0] ranges
        assert result["theta"]["u0"] == pytest.approx(1.25)
        assert result["theta"]["lam"] == pytest.approx(1.25)

    @pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
    def test_invert_bad_lr_exits_2(self, tmp_path, capsys, lr):
        bundle = self._train_bundle(tmp_path)
        data = self._write_data(tmp_path)
        capsys.readouterr()
        out = tmp_path / "inv"
        assert run(["invert", "decay-bundle", "--data", data,
                    "--bundle-dir", bundle, "--lr", lr,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"invert: --lr must be a finite number above 0, "
            f"got {float(lr)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["-5", "-1"])
    def test_invert_negative_steps_exits_2(self, tmp_path, capsys, steps):
        bundle = self._train_bundle(tmp_path)
        data = self._write_data(tmp_path)
        capsys.readouterr()
        out = tmp_path / "inv"
        assert run(["invert", "decay-bundle", "--data", data,
                    "--bundle-dir", bundle, "--steps", steps,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"invert: --steps must be an integer >= 0, got {int(steps)}\n")
        assert not out.exists()

    def test_invert_init_theta_flag(self, tmp_path):
        bundle = self._train_bundle(tmp_path)
        data = self._write_data(tmp_path)
        out = str(tmp_path / "inv")
        assert run(["invert", "decay-bundle", "--data", data,
                    "--bundle-dir", bundle, "--steps", "0",
                    "--init-theta", "u0=0.9,lam=1.7", "--out", out]) == 0
        with open(os.path.join(out, "theta.json")) as f:
            result = json.load(f)
        assert result["theta"] == {"u0": 0.9, "lam": 1.7}

    def test_invert_unknown_parameter_exits_2(self, tmp_path, capsys):
        bundle = self._train_bundle(tmp_path)
        data = self._write_data(tmp_path)
        code = run(["invert", "decay-bundle", "--data", data,
                    "--bundle-dir", bundle, "--init-theta", "gamma=1.0",
                    "--out", str(tmp_path / "inv")])
        assert code == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_invert_malformed_init_theta_exits_2(self, tmp_path, capsys):
        bundle = self._train_bundle(tmp_path)
        data = self._write_data(tmp_path)
        for entry in ("u0", "u0=abc", "u0=", "lam=1.0,u0"):
            code = run(["invert", "decay-bundle", "--data", data,
                        "--bundle-dir", bundle, "--init-theta", entry,
                        "--out", str(tmp_path / "inv")])
            assert code == 2
            assert "invert: --init-theta entry 'u0" in capsys.readouterr().err

    def test_invert_bad_header_exits_2(self, tmp_path, capsys):
        bundle = self._train_bundle(tmp_path)
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w", newline="") as f:
            csv.writer(f).writerows([["t", "x", "u"], [0.0, 0.0, 1.0]])
        code = run(["invert", "decay-bundle", "--data", bad,
                    "--bundle-dir", bundle, "--out", str(tmp_path / "inv")])
        assert code == 2

    def test_invert_skips_blank_rows(self, tmp_path):
        bundle = self._train_bundle(tmp_path)
        data = self._write_data(tmp_path)
        with open(data) as f:
            lines = f.read().splitlines()
        blank = str(tmp_path / "blank.csv")
        with open(blank, "w") as f:
            f.write("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
        thetas = []
        for path, out in ((data, "inv"), (blank, "inv_blank")):
            assert run(["invert", "decay-bundle", "--data", path,
                        "--bundle-dir", bundle, "--steps", "3",
                        "--out", str(tmp_path / out)]) == 0
            with open(os.path.join(tmp_path / out, "theta.json")) as f:
                thetas.append(json.load(f))
        assert thetas[0] == thetas[1]

    def test_invert_malformed_data_exits_2(self, tmp_path, capsys):
        bundle = self._train_bundle(tmp_path)
        cases = {
            "cell.csv": ("t,u\n0.0,1.0\n0.5,abc\n", "line 3"),
            "short.csv": ("t,u\n0.0,1.0\n0.5\n", "line 3"),
            "nan.csv": ("t,u\n0.0,nan\n", "line 2"),
            "header.csv": ("t,u\n", "no observations"),
            "empty.csv": ("", "must have columns"),
        }
        for name, (text, detail) in cases.items():
            path = str(tmp_path / name)
            with open(path, "w") as f:
                f.write(text)
            code = run(["invert", "decay-bundle", "--data", path,
                        "--bundle-dir", bundle, "--steps", "3",
                        "--out", str(tmp_path / "inv")])
            assert code == 2, name
            err = capsys.readouterr().err
            assert err.startswith(f"invert: {path}"), err
            assert detail in err, err

    def test_invert_missing_checkpoints(self, tmp_path, capsys):
        data = self._write_data(tmp_path)
        empty = str(tmp_path / "empty")
        code = run(["invert", "decay-bundle", "--data", data,
                    "--bundle-dir", empty, "--out", str(tmp_path / "inv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"invert: no net*.ckpt checkpoints in {empty}\n")


    def test_invert_missing_data_exits_2(self, tmp_path, capsys):
        bundle = self._train_bundle(tmp_path)
        missing = str(tmp_path / "nope.csv")
        code = run(["invert", "decay-bundle", "--data", missing,
                    "--bundle-dir", bundle, "--out", str(tmp_path / "inv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"invert: {missing}: {os.strerror(errno.ENOENT)}\n")

    def test_invert_extra_checkpoint_exits_2(self, tmp_path, capsys):
        bundle = self._train_bundle(tmp_path)
        shutil.copy(os.path.join(bundle, "net0.ckpt"),
                    os.path.join(bundle, "net1.ckpt"))
        data = self._write_data(tmp_path)
        code = run(["invert", "decay-bundle", "--data", data,
                    "--bundle-dir", bundle, "--out", str(tmp_path / "inv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"invert: {bundle} holds 2 net*.ckpt checkpoints, but "
            f"decay-bundle has 1 unknown(s)\n")
        assert not os.path.exists(tmp_path / "inv")

    @pytest.mark.parametrize("cut, part", [
        (lambda blob, hlen: 0, "prefix"), (lambda blob, hlen: 4, "prefix"),
        (lambda blob, hlen: 7, "prefix"), (lambda blob, hlen: 12, "header"),
        (lambda blob, hlen: 9 + hlen + 3, "parameter count"),
        (lambda blob, hlen: len(blob) - 1, "parameter block")])
    def test_invert_truncated_checkpoint_exits_2(self, tmp_path, capsys, cut,
                                                 part):
        bundle = self._train_bundle(tmp_path)
        ckpt = os.path.join(bundle, "net0.ckpt")
        with open(ckpt, "rb") as f:
            blob = f.read()
        with open(ckpt, "wb") as f:
            f.write(blob[:cut(blob, struct.unpack_from("<I", blob, 5)[0])])
        data = self._write_data(tmp_path)
        capsys.readouterr()
        code = run(["invert", "decay-bundle", "--data", data,
                    "--bundle-dir", bundle, "--out", str(tmp_path / "inv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invert: {ckpt}: checkpoint: truncated {part} ")
        assert err.count("\n") == 1
        assert not os.path.exists(tmp_path / "inv")

    def test_invert_wrong_input_width_exits_2(self, tmp_path, capsys):
        solo = str(tmp_path / "solo")
        assert run(["solve", "decay", "--out", solo] + FAST) == 0
        bundle = str(tmp_path / "bundle")
        os.makedirs(bundle)
        ckpt = os.path.join(bundle, "net0.ckpt")
        shutil.copy(os.path.join(solo, "net0.ckpt"), ckpt)
        data = self._write_data(tmp_path)
        code = run(["invert", "decay-bundle", "--data", data,
                    "--bundle-dir", bundle, "--out", str(tmp_path / "inv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"invert: {ckpt} takes 1 input(s), but decay-bundle feeds it 3\n")
        assert not os.path.exists(tmp_path / "inv")


class TestBench:
    def test_bench_csv(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert run(["bench-operators", "--sizes", "32", "--repeats", "1",
                    "--out", out, "--seed", "0"]) == 0
        rows = read_csv(out)
        assert rows[0][0] == "system"
        assert len(rows) == 1 + 15  # 3 systems x 5 operators
        assert all(r[-1] == "ok" for r in rows[1:])

    @pytest.mark.parametrize("flags, env, message", [
        (["--repeats", "0"], None,
         "repeats must be an integer >= 1, got 0"),
        (["--sizes", "8", "0"], None,
         "sizes must be integers >= 1, got [8, 0]"),
        (["--seed", "-1"], None,
         "--seed must be an integer in [0, 2**64), got -1"),
        (["--seed", str(2 ** 64 - 1)], None,
         "seed must be an integer in [0, 2**64) with seed * 1009 + repeats "
         f"below 2**64, got {2 ** 64 - 1}"),
        ([], "abc", "NEURODIFF_SEED must be an integer in [0, 2**64), "
         "got 'abc'"),
    ])
    def test_bad_inputs_exit_2(self, tmp_path, capsys, monkeypatch, flags,
                               env, message):
        if env is not None:
            monkeypatch.setenv("NEURODIFF_SEED", env)
        out = tmp_path / "bench.csv"
        argv = ["bench-operators", "--sizes", "8", "--repeats", "1",
                "--out", str(out)]
        assert run(argv + flags) == 2
        assert capsys.readouterr().err == f"bench-operators: {message}\n"
        assert not out.exists()


class TestDivergenceExit:
    def test_exit_code_1(self, tmp_path, capsys):
        # an absurd learning rate drives the loss non-finite
        with np.errstate(all="ignore"):
            code = run(["solve", "decay", "--out", str(tmp_path / "run"),
                        "--epochs", "50", "--batch-size", "16",
                        "--lr", "1e160", "--seed", "0"])
        assert code == 1
        assert "aborted" in capsys.readouterr().err


def _decay_fit():
    """A small f64 library fit, as a tuple of its weights and histories."""
    preset = presets.get("decay")
    cfg = SolverConfig(networks=preset.network_specs((8, 8), "tanh", 0),
                       conditions=preset.conditions, epochs=3, seed=0)
    state = fit(preset.problem(32), cfg)
    arrays = [a for net in state.networks for a in net.weights + net.biases]
    assert {a.dtype for a in arrays} == {np.dtype(np.float64)}
    return ([a.tobytes() for a in arrays], state.train_history,
            state.valid_history)


class TestPrecisionScope:
    def test_f32_flag_does_not_outlive_the_command(self, tmp_path):
        alone = _decay_fit()
        out = str(tmp_path / "run")
        assert run(["solve", "decay", "--out", out, "--precision", "f32"]
                   + FAST) == 0
        assert _decay_fit() == alone

    def test_precision_restored_when_the_command_raises(self, tmp_path,
                                                        monkeypatch):
        alone = _decay_fit()

        def failing_fit(problem, cfg, *args, **kwargs):
            state = fit(problem, cfg, *args, **kwargs)
            assert state.networks[0].weights[0].dtype == np.float32
            raise RuntimeError("fit failed")
        monkeypatch.setattr(cli, "fit", failing_fit)
        with pytest.raises(RuntimeError, match="fit failed"):
            run(["solve", "decay", "--out", str(tmp_path / "run"),
                 "--precision", "f32"] + FAST)
        assert _decay_fit() == alone
