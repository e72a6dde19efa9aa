"""End-to-end command-line behavior in temporary directories."""

import json

import numpy as np
import pytest

import actlab.cli as cli
from actlab.activations import zc_swish_eval
from actlab.data import write_synthetic_cifar100


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    write_synthetic_cifar100(d, 6, 4, num_classes=10, seed=0)
    return d


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def base_train_args(data_dir, out, **extra):
    cfg = {"num_classes": 10}
    cfg.update(extra)
    cfg_path = out.parent / f"{out.name}_base.json"
    cfg_path.write_text(json.dumps(cfg))
    return [
        "train",
        "--data-dir",
        data_dir,
        "--config",
        cfg_path,
        "--depth",
        "8",
        "--width-divisor",
        "8",
        "--epochs",
        "1",
        "--batch-size",
        "16",
        "--per-class",
        "4",
        "--out",
        out,
    ]


class TestTrainCommand:
    def test_writes_all_documented_outputs(self, data_dir, tmp_path):
        out = tmp_path / "run"
        rc = run_cli(*base_train_args(data_dir, out), "--activation", "zcswish", "--seeds", "42")
        assert rc == 0
        for fname in ("config.json", "summary.json"):
            assert (out / fname).exists()
        for fname in ("metrics.csv", "steps.csv", "layerstats.csv", "summary.json"):
            assert (out / "seed_42" / fname).exists()
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["activation"] == "zcswish"
        assert cfg["schema_version"] == 3
        assert not {"lr", "weight_decay", "beta1", "beta2", "eps", "decay_activation_params", "dropout_p"} & set(cfg)

    def test_epochs_zero_is_chance_level_eval(self, data_dir, tmp_path):
        out = tmp_path / "run0"
        rc = run_cli(*base_train_args(data_dir, out), "--activation", "relu", "--epochs", "0", "--seeds", "42")
        assert rc == 0
        metrics = (out / "seed_42" / "metrics.csv").read_text().strip().split("\n")
        assert len(metrics) == 3  # header + train + test rows for epoch 0
        acc = float(metrics[1].split(",")[3])
        assert abs(acc - 0.1) < 0.05  # 10 classes, chance level

    def test_config_roundtrip_reproduces_run(self, data_dir, tmp_path):
        out1 = tmp_path / "runa"
        rc = run_cli(*base_train_args(data_dir, out1), "--activation", "swish", "--seeds", "7")
        assert rc == 0
        # replay purely from the saved effective config
        out2 = tmp_path / "runb"
        rc = run_cli("train", "--config", out1 / "config.json", "--out", out2)
        assert rc == 0
        for fname in ("metrics.csv", "steps.csv", "layerstats.csv", "summary.json"):
            a = (out1 / "seed_7" / fname).read_bytes()
            b = (out2 / "seed_7" / fname).read_bytes()
            assert a == b, fname

    def test_multi_seed_aggregate(self, data_dir, tmp_path):
        out = tmp_path / "runm"
        rc = run_cli(*base_train_args(data_dir, out), "--activation", "relu", "--seeds", "1,2")
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aggregate"]["seeds"] == [1, 2]
        assert len(summary["per_seed"]) == 2

    def test_bad_config_field_nonzero_exit(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"depth": 8, "flux_capacitor": 1}))
        rc = run_cli("train", "--data-dir", data_dir, "--config", cfg, "--out", tmp_path / "x")
        assert rc == 1
        assert "flux_capacitor" in capsys.readouterr().err

    @pytest.mark.parametrize("loaded, kind", [([1, 2], "list"), ("x", "str")])
    def test_config_not_a_json_object_nonzero_exit_and_no_run_dir(self, data_dir, tmp_path, capsys, loaded, kind):
        cfg = tmp_path / "notobject.json"
        cfg.write_text(json.dumps(loaded))
        out = tmp_path / "runnotobject"
        rc = run_cli("train", "--data-dir", data_dir, "--config", cfg, "--out", out)
        assert rc == 1
        assert f"--config {cfg} must hold a JSON object, got {kind}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_seed_list_nonzero_exit_and_no_run_dir(self, data_dir, tmp_path, capsys):
        out = tmp_path / "runempty"
        rc = run_cli(*base_train_args(data_dir, out, seeds=[]))
        assert rc == 1
        assert "seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config_file"])
    def test_non_integer_seed_nonzero_exit_naming_seeds(self, data_dir, tmp_path, capsys, where):
        out = tmp_path / "runbadseed"
        if where == "flag":
            rc = run_cli(*base_train_args(data_dir, out), "--seeds", "1,x")
        else:
            rc = run_cli(*base_train_args(data_dir, out, seeds=[1, "x"]))
        assert rc == 1
        err = capsys.readouterr().err
        assert "seeds" in err and "'x'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad, flags, field",
        [
            ({"seeds": "42"}, [], "seeds"),
            ({"seeds": ["1", "2"]}, [], "seeds"),
            ({"epochs": "5"}, [], "epochs"),
            ({"epochs": 2.5}, [], "epochs"),
            ({"epochs": True}, [], "epochs"),
            ({"batch_size": "8"}, [], "batch_size"),
            ({"depth": 12}, [], "depth"),
            ({}, ["--width-divisor", "7"], "width_divisor"),
            ({}, ["--per-class", "0"], "train_per_class"),
        ],
    )
    def test_invalid_config_value_nonzero_exit_naming_field(self, data_dir, tmp_path, capsys, bad, flags, field):
        cfg = {"num_classes": 10, "depth": 8, "width_divisor": 8, "epochs": 1, "batch_size": 16}
        cfg.update(bad)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "runbad"
        rc = run_cli("train", "--data-dir", data_dir, "--config", cfg_path, "--per-class", "4", "--out", out, *flags)
        assert rc == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_schema_v1_config_refused_naming_schema_version(self, data_dir, tmp_path, capsys):
        # a config.json as schema version 1 wrote it: the recipe's seven
        # fields were still config fields then
        v1 = {
            "schema_version": 1, "depth": 8, "width_divisor": 8, "activation": "relu", "num_classes": 10,
            "dropout_p": 0.5, "data_dir": str(data_dir), "train_per_class": 4, "test_per_class": 4,
            "lr": 0.001, "weight_decay": 0.0005, "beta1": 0.9, "beta2": 0.999, "eps": 1e-08,
            "decay_activation_params": True, "epochs": 1, "batch_size": 16, "seeds": [42],
            "probe_batch": 16, "precision": "float32", "out_dir": None,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(v1, indent=2, sort_keys=True) + "\n")
        out = tmp_path / "runv1"
        rc = run_cli("train", "--config", cfg_path, "--out", out)
        assert rc == 1
        assert "schema_version" in capsys.readouterr().err
        assert not out.exists()

    def test_schema_v2_config_refused_naming_schema_version(self, data_dir, tmp_path, capsys):
        # a config.json as schema version 2 wrote it: the probe batch size
        # and the precision were still config fields then
        v2 = {
            "schema_version": 2, "depth": 8, "width_divisor": 8, "activation": "relu", "num_classes": 10,
            "data_dir": str(data_dir), "train_per_class": 4, "test_per_class": 4, "epochs": 1,
            "batch_size": 16, "seeds": [42], "probe_batch": 256, "precision": "float32", "out_dir": None,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(v2, indent=2, sort_keys=True) + "\n")
        out = tmp_path / "runv2"
        rc = run_cli("train", "--config", cfg_path, "--out", out)
        assert rc == 1
        assert "schema_version" in capsys.readouterr().err
        assert not out.exists()

    def test_label_beyond_num_classes_refused_before_run_dir(self, data_dir, tmp_path, capsys):
        out = tmp_path / "runfewclasses"
        rc = run_cli(*base_train_args(data_dir, out, num_classes=9))  # the data's labels run to 9
        assert rc == 1
        err = capsys.readouterr().err
        assert "num_classes is 9" in err and "label 9" in err
        assert not out.exists()

    def test_empty_split_file_refused_before_run_dir(self, data_dir, tmp_path, capsys):
        empty_test = tmp_path / "emptytest"
        empty_test.mkdir()
        (empty_test / "train.bin").write_bytes((data_dir / "train.bin").read_bytes())
        (empty_test / "test.bin").write_bytes(b"")
        out = tmp_path / "runemptytest"
        rc = run_cli(*base_train_args(empty_test, out))
        assert rc == 1
        assert "test.bin" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_dir_nonzero_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("ACTLAB_DATA_DIR", raising=False)
        rc = run_cli("train", "--depth", "8", "--out", tmp_path / "x")
        assert rc == 1
        assert "data directory" in capsys.readouterr().err

    def test_env_var_supplies_data_dir(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ACTLAB_DATA_DIR", str(data_dir))
        out = tmp_path / "runenv"
        args = base_train_args(data_dir, out)
        args.remove("--data-dir")
        args.remove(data_dir)
        rc = run_cli(*args, "--activation", "gelu", "--epochs", "0", "--seeds", "3")
        assert rc == 0


class TestWriteCsv:
    def test_failed_write_leaves_previous_file_and_no_temp(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_csv(path, ["a", "b"], [(1, 0.5), (2, 0.25)])
        assert path.read_bytes() == b"a,b\n1,0.5\n2,0.25\n"

        def rows():
            yield (3, 0.125)
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            cli._write_csv(path, ["a", "b"], rows())
        assert path.read_bytes() == b"a,b\n1,0.5\n2,0.25\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


class TestCurvesCommand:
    def test_panels_written_with_expected_headers(self, tmp_path):
        rc = run_cli("curves", "--out", tmp_path, "--points", "11", "--x-min", "-2", "--x-max", "2")
        assert rc == 0
        assert (tmp_path / "baseline.csv").read_text().splitlines()[0] == "x,relu,gelu,swish,zcswish"
        assert (tmp_path / "c_sweep.csv").read_text().splitlines()[0].startswith("x,c=")
        assert (tmp_path / "g_sweep.csv").exists() and (tmp_path / "beta_sweep.csv").exists()

    def test_zcswish_column_is_zero_at_origin_for_every_sweep(self, tmp_path):
        rc = run_cli("curves", "--out", tmp_path, "--points", "5", "--x-min", "-2", "--x-max", "2")
        assert rc == 0
        for fname in ("baseline.csv", "c_sweep.csv", "g_sweep.csv", "beta_sweep.csv"):
            lines = (tmp_path / fname).read_text().strip().split("\n")
            rows = [line.split(",") for line in lines[1:]]
            zero_rows = [r for r in rows if float(r[0]) == 0.0]
            assert zero_rows, fname
            for r in zero_rows:
                cols = r[1:] if fname != "baseline.csv" else r[4:]  # zcswish column(s)
                assert all(float(v) == 0.0 for v in cols), f"{fname}: {r}"

    def test_beta_sweep_matches_direct_evaluation(self, tmp_path):
        rc = run_cli("curves", "--out", tmp_path, "--points", "9", "--beta-values", "0.5,2")
        assert rc == 0
        lines = (tmp_path / "beta_sweep.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["x", "beta=0.5", "beta=2"]
        for line in lines[1:]:
            x, b05, b2 = (float(v) for v in line.split(","))
            assert b05 == pytest.approx(float(zc_swish_eval(np.float64(x), c=0.01, beta=0.5, g=1.0)), rel=1e-12)
            assert b2 == pytest.approx(float(zc_swish_eval(np.float64(x), c=0.01, beta=2.0, g=1.0)), rel=1e-12)

    def test_unparsable_sweep_value_names_the_flag(self, tmp_path, capsys):
        rc = run_cli("curves", "--out", tmp_path / "c", "--c-values", "1,x")
        assert rc == 1
        err = capsys.readouterr().err
        assert "--c-values" in err and "'x'" in err
        assert not (tmp_path / "c").exists()

    def test_empty_grid_rejected(self, tmp_path, capsys):
        rc = run_cli("curves", "--out", tmp_path, "--points", "0")
        assert rc == 1
        assert "at least one point" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_fresh_checkout_passes_at_default_tolerance(self, capsys):
        assert run_cli("gradcheck") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_corrupted_backward_fails_naming_the_op(self, monkeypatch, capsys):
        import actlab.tensor as T

        real_maxpool = T.maxpool2

        def corrupted(x):
            out = real_maxpool(x)
            # sabotage: overwrite the recorded gradient routing
            stack = T._tapes
            if stack and stack[-1]._records:
                output, inputs, _fn = stack[-1]._records[-1]

                def broken(g):
                    if inputs[0].requires_grad:
                        inputs[0].grad += 0.5  # wrong everywhere
                stack[-1]._records[-1] = (output, inputs, broken)
            return out

        monkeypatch.setattr(cli, "maxpool2", corrupted)
        rc = run_cli("gradcheck")
        out = capsys.readouterr().out
        assert rc == 1
        assert "maxpool2" in out and "FAIL" in out

    def test_64bit_errors_at_least_10x_smaller_than_32bit(self):
        errs64 = cli.run_gradcheck_suite(dtype=np.float64)
        errs32 = cli.run_gradcheck_suite(dtype=np.float32)
        assert max(errs64.values()) * 10 < max(errs32.values())
        # and per-op, the 64-bit path is never worse
        for name in errs64:
            assert errs64[name] <= errs32[name]


class TestParamsCommand:
    def test_canonical_counts(self, capsys):
        assert run_cli("params", "--depth", "16", "--activation", "relu") == 0
        out = capsys.readouterr().out
        assert "15,028,644" in out
        assert run_cli("params", "--depth", "16", "--activation", "zcswish") == 0
        out = capsys.readouterr().out
        assert "15,041,316" in out and "12,672" in out and "0.084%" in out

    def test_expect_flag_sets_exit_code(self, capsys):
        assert run_cli("params", "--depth", "16", "--activation", "zcswish", "--expect", "15041316:12672") == 0
        assert run_cli("params", "--depth", "16", "--activation", "zcswish", "--expect", "15041316:12673") == 1
        assert run_cli("params", "--depth", "16", "--activation", "relu", "--expect", "1") == 1

    def test_unparsable_expect_names_the_flag(self, capsys):
        assert run_cli("params", "--depth", "8", "--expect", "abc") == 1
        captured = capsys.readouterr()
        assert "--expect" in captured.err and "'abc'" in captured.err
        assert captured.out == ""  # refused before any table is printed

    def test_width_divisor_matches_closed_form(self, capsys):
        from test_plainnet import closed_form_count
        from actlab.plainnet import DEPTH_LAYOUTS

        total, act = closed_form_count(DEPTH_LAYOUTS[16][0], 8, 100, True)
        assert run_cli("params", "--depth", "16", "--activation", "zcswish", "--width-divisor", "8", "--expect", f"{total}:{act}") == 0


class TestDriftCommand:
    def test_csv_format_and_summary(self, tmp_path, capsys):
        out = tmp_path / "drift.csv"
        rc = run_cli("drift", "--activation", "swish", "--depth", "4", "--width", "32", "--samples", "256", "--seed", "1", "--out", out)
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "layer,mean,std,activation,seed"
        assert len(lines) == 5
        assert "final |mean|" in capsys.readouterr().out

    def test_oracle_summary_counts_converged_anchors(self, tmp_path, capsys):
        out = tmp_path / "drift_zc.csv"
        rc = run_cli("drift", "--activation", "zcswish", "--center", "oracle", "--depth", "4", "--width", "32", "--samples", "256", "--out", out)
        assert rc == 0
        assert "anchors converged: 4/4" in capsys.readouterr().out.splitlines()


class TestCenterOracleCommand:
    def test_gaussian_sample_converges(self, capsys):
        rc = run_cli("center-oracle", "--samples", "5000", "--seed", "42", "--tol", "1e-6")
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged=True" in out
        mean_line = [l for l in out.splitlines() if l.startswith("mean_at_c_star=")][0]
        assert abs(float(mean_line.split("=")[1])) < 1e-6
        zero_line = [l for l in out.splitlines() if l.startswith("mean_at_c_zero=")][0]
        assert float(zero_line.split("=")[1]) > 0.0

    def test_input_file_and_no_root_exit_code(self, tmp_path, capsys):
        sample = tmp_path / "sample.txt"
        sample.write_text("\n".join(["2.5"] * 50))  # constant: no bracket
        rc = run_cli("center-oracle", "--input", sample)
        out = capsys.readouterr().out
        assert rc == 3
        assert "converged=False" in out


    @pytest.fixture
    def no_solve(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solver reached")

        monkeypatch.setattr(cli, "find_centering_anchor", solve)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_refused_naming_the_flag(self, samples, capsys, no_solve):
        rc = run_cli("center-oracle", "--samples", samples)
        assert rc == 1
        assert f"--samples must be at least 1, got {samples}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "# no values\n", "\n\n"])
    def test_empty_input_file_refused_naming_the_path(self, text, tmp_path, capsys, no_solve):
        sample = tmp_path / "empty.txt"
        sample.write_text(text)
        rc = run_cli("center-oracle", "--input", sample)
        assert rc == 1
        assert f"--input {sample} holds no sample values" in capsys.readouterr().err

    def test_directory_as_input_refused_naming_it(self, tmp_path, capsys, no_solve):
        rc = run_cli("center-oracle", "--input", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_evaluation_count_printed(self, capsys):
        rc = run_cli("center-oracle", "--samples", "1000", "--seed", "3")
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert int([l for l in lines if l.startswith("evaluations=")][0].split("=")[1]) >= 2

    @pytest.mark.parametrize("flag, value", [("--beta", "nan"), ("--beta", "inf"), ("--tol", "nan")])
    def test_non_finite_solver_argument_refused_naming_it(self, flag, value, capsys):
        rc = run_cli("center-oracle", "--samples", "100", flag, value)
        assert rc == 1
        assert f"{flag[2:]} must be positive and finite, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_input_value_refused_naming_the_path(self, bad, tmp_path, capsys, no_solve):
        sample = tmp_path / "sample.txt"
        sample.write_text(f"0.5\n# comment\n-1.25\n{bad}\n2.0\n")
        rc = run_cli("center-oracle", "--input", sample)
        assert rc == 1
        assert f"--input {sample}: sample value 2 is {bad}, not finite" in capsys.readouterr().err


def test_byte_identical_outputs_across_reruns(tmp_path):
    for sub in ("a", "b"):
        rc = run_cli("curves", "--out", tmp_path / sub, "--points", "33")
        assert rc == 0
    for fname in ("baseline.csv", "c_sweep.csv", "g_sweep.csv", "beta_sweep.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
