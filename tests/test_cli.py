"""End-to-end command-line workflows on a small synthetic problem."""

import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from selpred import cli, data
from selpred.autograd import GradCheckError
from selpred.checks import (CLASSIFICATION, MAX_SIZE, REGRESSION,
                            ConfigurationError, DomainError)
from selpred.cli import _resolve, build_parser, main, prepare_splits
from selpred.data import (ParseError, SplitSpec, load_csv,
                          standardized_splits, synth_classification,
                          unstandardize_target)
from selpred.evaluate import selective_metrics
from selpred.losses import LossConfig
from selpred.model import ArchitectureConfig, FrozenNet
from selpred.optim import TrainConfig, TrainingDivergedError
from selpred.persist import IntegrityError, load_model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny trained-and-calibrated model shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "dataset": {"kind": "synthetic", "seed": 0, "m": 600, "n_classes": 3,
                    "n_features": 5, "noise_fraction": 0.2},
        "split": {"train": 0.6, "calibration": 0.2, "test": 0.2, "seed": 0,
                  "stratified": True},
        "architecture": {"body_widths": [16], "selection_hidden": 8,
                         "dropout_rate": 0.0},
        "loss": {"target_coverage": 0.8},
        "train": {"epochs": 15, "batch_size": 64, "learning_rate": 2e-3},
        "seeds": [0],
    }
    cfg_path = root / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    rc = main(["train", "--config", str(cfg_path),
               "--out", str(root / "run")])
    assert rc == 0
    rc = main(["calibrate", "--model", str(root / "run" / "model.ckpt"),
               "--config", str(cfg_path), "--coverage", "0.8",
               "--out", str(root / "run")])
    assert rc == 0
    return root, cfg_path


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    comments = [l for l in lines if l.startswith("# ")]
    data = [l for l in lines if not l.startswith("# ")]
    return comments, data


def _regression_config(tmp_path):
    """A small csv regression config whose target is in original units
    far from 0 (mean 40), standardized for training."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 3))
    y = 40.0 + 15.0 * x[:, 0] + rng.normal(size=200)
    data = tmp_path / "data.csv"
    data.write_text("a,b,c,y\n" + "".join(
        f"{a},{b},{c},{t}\n" for (a, b, c), t in zip(x, y)))
    cfg = {"dataset": {"kind": "csv", "path": str(data),
                       "feature_columns": [0, 1, 2], "target_column": 3,
                       "standardize_target": True},
           "architecture": {"body_widths": [8], "selection_hidden": 4},
           "train": {"epochs": 3, "batch_size": 32}}
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    return cfg_path


def _count_reads(monkeypatch):
    """Wrap ``cli``'s two loaders; returns the calls of each by kind."""
    calls = {"csv": 0, "synthetic": 0}
    for kind, name in (("csv", "load_csv"),
                       ("synthetic", "synth_classification")):
        def counting(*args, _kind=kind, _loader=getattr(cli, name), **kw):
            calls[_kind] += 1
            return _loader(*args, **kw)
        monkeypatch.setattr(cli, name, counting)
    return calls


def _count_heads_per_split(monkeypatch, cfg_path, argv, split_seeds=None):
    """Run ``main(argv)`` and count ``FrozenNet.heads`` calls by the split
    (of ``prepare_splits`` on the resolved config, at its one split seed)
    whose rows they evaluate."""
    conf = _resolve(yaml.safe_load(cfg_path.read_text()))
    [(tr, ca, te, _)] = prepare_splits(conf, split_seeds)
    names = {s.features.tobytes(): name
             for name, s in (("train", tr), ("cal", ca), ("test", te))}
    counts = {}
    heads = FrozenNet.heads

    def counting_heads(self, x):
        name = names.get(np.asarray(x).tobytes(), "other")
        counts[name] = counts.get(name, 0) + 1
        return heads(self, x)

    monkeypatch.setattr(FrozenNet, "heads", counting_heads)
    assert main(argv) == 0
    return counts


class TestTrain:
    def test_outputs_exist(self, workdir):
        root, _ = workdir
        assert (root / "run" / "model.ckpt").exists()
        assert (root / "run" / "history.csv").exists()
        assert (root / "run" / "effective_config.yaml").exists()

    def test_history_has_provenance_and_rows(self, workdir):
        root, _ = workdir
        comments, data = _read_csv(root / "run" / "history.csv")
        assert any(c.startswith("# config_hash=") for c in comments)
        assert any(c.startswith("# seeds=") for c in comments)
        assert data[0].startswith("epoch,total_loss")
        assert len(data) == 1 + 15  # header + one row per epoch


    def test_one_based_labels_get_an_output_per_index(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(90, 3))
        labels = np.repeat([1, 2, 3], 30)
        data = tmp_path / "data.csv"
        data.write_text("a,b,c,y\n" + "".join(
            f"{a},{b},{c},{y}\n" for (a, b, c), y in zip(x, labels)))
        cfg = {"dataset": {"kind": "csv", "path": str(data),
                           "feature_columns": [0, 1, 2], "target_column": 3,
                           "task": "classification"},
               "architecture": {"body_widths": [4], "selection_hidden": 4},
               "train": {"epochs": 1, "batch_size": 32}}
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        rc = main(["train", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        model, _ = load_model(tmp_path / "run" / "model.ckpt")
        assert model.forward(x[:2])[0].data.shape == (2, 4)


class TestCalibrate:
    def test_calibration_outputs(self, workdir):
        root, _ = workdir
        assert (root / "run" / "model_calibrated.ckpt").exists()
        comments, data = _read_csv(root / "run" / "calibration.csv")
        header = data[0].split(",")
        row = dict(zip(header, data[1].split(",")))
        assert float(row["target_coverage"]) == 0.8
        assert float(row["achieved_coverage"]) >= 0.8
        assert 0.0 <= float(row["tau"]) <= 1.0

    @pytest.mark.parametrize("delta", ["1", "1.5", "-1e-3"])
    def test_delta_outside_zero_one_rejected(self, workdir, tmp_path, capsys,
                                             delta):
        root, cfg_path = workdir
        rc = main(["calibrate", "--model", str(root / "run" / "model.ckpt"),
                   "--config", str(cfg_path), "--coverage", "0.8",
                   "--delta", delta, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --delta must lie in (0, 1), got {float(delta)}\n")
        assert not (tmp_path / "calibration.csv").exists()
        assert not (tmp_path / "model_calibrated.ckpt").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--coverage", "1.5", "--coverage must lie in (0, 1], got 1.5"),
        ("--coverage", "0", "--coverage must lie in (0, 1], got 0.0"),
        ("--coverage", "nan", "--coverage: nan is not finite"),
        ("--delta", "1.5", "--delta must lie in (0, 1), got 1.5"),
        ("--delta", "0", "--delta must lie in (0, 1), got 0.0"),
        ("--delta", "nan", "--delta: nan is not finite"),
        ("--delta", "-1e-3", "--delta must lie in (0, 1), got -0.001"),
    ], ids=["coverage-above-one", "coverage-zero", "coverage-nan",
            "delta-above-one", "delta-zero", "delta-nan", "delta-negative"])
    @pytest.mark.parametrize("checkpoint", ["model.ckpt", "absent.ckpt"])
    def test_flag_is_named_before_any_read(self, workdir, tmp_path, capsys,
                                           monkeypatch, checkpoint, flag,
                                           value, message):
        """A bad flag fails before the checkpoint or the data is read, so a
        missing checkpoint does not hide it."""
        root, cfg_path = workdir
        calls = _count_reads(monkeypatch)
        loads = []
        load = cli.load_model
        monkeypatch.setattr(cli, "load_model",
                            lambda path: loads.append(path) or load(path))
        flags = {"--coverage": "0.8", "--delta": "0.001", flag: value}
        out = tmp_path / "out"
        argv = ["calibrate", "--model", str(root / "run" / checkpoint),
                "--config", str(cfg_path), "--out", str(out)]
        assert main(argv + [a for kv in flags.items() for a in kv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == {"csv": 0, "synthetic": 0} and loads == []
        assert not out.exists()


class TestEvaluate:
    def test_calibrated_evaluation(self, workdir, tmp_path, capsys):
        root, cfg_path = workdir
        rc = main(["evaluate",
                   "--model", str(root / "run" / "model_calibrated.ckpt"),
                   "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "coverage=" in out and "risk=" in out
        assert (tmp_path / "eval.csv").exists()

    def test_tau_zero_full_coverage(self, workdir, capsys):
        root, cfg_path = workdir
        rc = main(["evaluate", "--model", str(root / "run" / "model.ckpt"),
                   "--config", str(cfg_path), "--tau", "0"])
        assert rc == 0
        assert "coverage=1.0000" in capsys.readouterr().out

    def test_nan_tau_rejected_before_any_file_is_read(self, tmp_path,
                                                      capsys):
        rc = main(["evaluate", "--model", str(tmp_path / "missing.ckpt"),
                   "--config", str(tmp_path / "missing.yaml"),
                   "--tau", "nan", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --tau must be a number, got nan\n")
        assert not (tmp_path / "out").exists()

    def test_infinite_taus_stay_valid(self, workdir, capsys):
        root, cfg_path = workdir
        argv = ["evaluate", "--model", str(root / "run" / "model.ckpt"),
                "--config", str(cfg_path)]
        assert main(argv + ["--tau=-inf"]) == 0
        assert "coverage=1.0000" in capsys.readouterr().out
        # the value as its own argument, though it starts with a dash
        assert main(argv + ["--tau", "-inf"]) == 0
        assert "coverage=1.0000" in capsys.readouterr().out
        # +inf accepts nothing, so the risk, not the flag, is refused
        assert main(argv + ["--tau", "inf"]) == 1
        assert capsys.readouterr().err == (
            "error: no accepted samples; selective risk undefined\n")

    def test_regression_risk_in_original_units(self, tmp_path):
        cfg_path = _regression_config(tmp_path)
        ckpt = tmp_path / "run" / "model.ckpt"
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["evaluate", "--model", str(ckpt), "--config",
                     str(cfg_path), "--out", str(tmp_path / "eval")]) == 0
        _, data = _read_csv(tmp_path / "eval" / "eval.csv")
        risk = float(data[1].split(",")[data[0].split(",").index("risk")])
        model, _ = load_model(ckpt)
        [(_, _, te, tstats)] = prepare_splits(
            _resolve(yaml.safe_load(cfg_path.read_text())))
        preds, accepted = model.predict(te.features, 0.5)
        assert risk == selective_metrics(
            unstandardize_target(preds, tstats),
            unstandardize_target(te.labels, tstats), accepted,
            REGRESSION).risk


class TestCurve:
    def test_curve_points(self, workdir, tmp_path):
        root, cfg_path = workdir
        rc = main(["curve", "--model", str(root / "run" / "model.ckpt"),
                   "--config", str(cfg_path), "--coverages", "1.0,0.8,0.6",
                   "--score", "g", "--out", str(tmp_path)])
        assert rc == 0
        _, data = _read_csv(tmp_path / "curve.csv")
        assert len(data) == 4
        first = data[1].split(",")
        assert float(first[0]) == 1.0 and float(first[1]) == 1.0


    def test_one_frozen_forward_per_split(self, workdir, tmp_path,
                                          monkeypatch):
        root, cfg_path = workdir
        counts = _count_heads_per_split(monkeypatch, cfg_path, [
            "curve", "--model", str(root / "run" / "model.ckpt"),
            "--config", str(cfg_path), "--coverages", "1.0,0.8",
            "--score", "g", "--out", str(tmp_path)])
        assert counts == {"cal": 1, "test": 1}

    def test_one_frozen_forward_per_split_with_sr_scores(
            self, workdir, tmp_path, monkeypatch):
        """The test predictions and their SR scores share one forward."""
        root, cfg_path = workdir
        counts = _count_heads_per_split(monkeypatch, cfg_path, [
            "curve", "--model", str(root / "run" / "model.ckpt"),
            "--config", str(cfg_path), "--coverages", "1.0,0.8",
            "--score", "sr", "--out", str(tmp_path)])
        assert counts == {"cal": 1, "test": 1}

    def test_mcdropout_without_dropout_layers(self, workdir, tmp_path):
        """MC-dropout applies its own rate to the frozen body, so a model
        trained with no dropout layers (dropout_rate unset) gets scores."""
        _, base_cfg = workdir
        cfg = yaml.safe_load(base_cfg.read_text())
        del cfg["architecture"]["dropout_rate"]
        cfg["train"]["epochs"] = 2
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 0
        model, _ = load_model(tmp_path / "run" / "model.ckpt")
        assert all(block.dropout is None for block in model.body)
        assert main(["curve", "--model", str(tmp_path / "run" / "model.ckpt"),
                     "--config", str(cfg_path), "--coverages", "1.0,0.8",
                     "--score", "mcdropout", "--out", str(tmp_path)]) == 0
        _, data = _read_csv(tmp_path / "curve.csv")
        assert len(data) == 3

    def test_sr_on_regression_names_the_score_kind(self, tmp_path, capsys):
        cfg_path = _regression_config(tmp_path)
        ckpt = str(tmp_path / "run" / "model.ckpt")
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 0
        assert main(["curve", "--model", ckpt, "--config", str(cfg_path),
                     "--coverages", "1.0,0.8", "--score", "sr",
                     "--out", str(tmp_path / "curve")]) == 1
        assert ("error: score kind 'sr' does not apply to this regression "
                "model\n") == capsys.readouterr().err
        assert not (tmp_path / "curve" / "curve.csv").exists()


class TestGrid:
    def test_single_model_grid(self, workdir, tmp_path):
        root, cfg_path = workdir
        rc = main(["grid", "--models", str(root / "run" / "model.ckpt"),
                   "--config", str(cfg_path), "--coverages", "0.9,0.7",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, data = _read_csv(tmp_path / "grid.csv")
        assert data[0] == "train_coverage,calib_0.9,calib_0.7"
        assert len(data) == 2

    @staticmethod
    def _grid_row_and_curve_risks(cfg_path, ckpt, out):
        """The grid row of ``ckpt`` and the ``curve --score g`` risks at the
        same coverages, each as written to its CSV."""
        coverages = "1.0,0.9,0.8,0.6"
        for argv in (["curve", "--model", ckpt, "--score", "g",
                      "--out", str(out / "curve")],
                     ["grid", "--models", ckpt, "--out", str(out / "grid")]):
            assert main(argv + ["--coverages", coverages,
                                "--config", str(cfg_path)]) == 0
        _, curve = _read_csv(out / "curve" / "curve.csv")
        _, grid = _read_csv(out / "grid" / "grid.csv")
        return (grid[1].split(",")[1:],
                [row.split(",")[2] for row in curve[1:]])

    def test_regression_risk_in_original_units(self, tmp_path):
        cfg_path = _regression_config(tmp_path)
        ckpt = str(tmp_path / "run" / "model.ckpt")
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 0
        row, curve = self._grid_row_and_curve_risks(cfg_path, ckpt, tmp_path)
        assert row == curve and len(row) == 4

    def test_classification_row_equals_the_g_curve(self, workdir, tmp_path):
        root, cfg_path = workdir
        row, curve = self._grid_row_and_curve_risks(
            cfg_path, str(root / "run" / "model.ckpt"), tmp_path)
        assert row == curve and len(row) == 4

    def test_one_frozen_forward_per_model_and_split(self, workdir, tmp_path,
                                                    monkeypatch):
        root, cfg_path = workdir
        models = ",".join(str(root / "run" / name) for name in
                          ("model.ckpt", "model_calibrated.ckpt"))
        counts = _count_heads_per_split(monkeypatch, cfg_path, [
            "grid", "--models", models, "--config", str(cfg_path),
            "--coverages", "1.0,0.8,0.6", "--out", str(tmp_path)])
        assert counts == {"cal": 2, "test": 2}


class TestCompare:
    def test_byte_identical_reruns(self, workdir, tmp_path):
        _, cfg_path = workdir
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["compare", "--config", str(cfg_path),
                       "--coverages", "1.0,0.8", "--seeds", "0",
                       "--out", str(out)])
            assert rc == 0
        assert (out1 / "compare.csv").read_bytes() == \
            (out2 / "compare.csv").read_bytes()
        _, data = _read_csv(out1 / "compare.csv")
        assert data[0].split(",")[:2] == ["coverage", "selnet_risk"]
        assert len(data) == 3

    def test_no_seeds_is_a_configuration_error(self, workdir):
        """A resolved config, the only input of ``run_comparison``, holds
        at least one seed."""
        _, cfg_path = workdir
        cfg = yaml.safe_load(cfg_path.read_text())
        with pytest.raises(ConfigurationError, match=(
                r"^seeds must be a non-empty list of integers, got \[\]$")):
            _resolve(dict(cfg, seeds=[]))

    def test_full_coverage_selnet_risk_is_full_test_risk(self, workdir,
                                                         tmp_path):
        _, base_cfg = workdir
        # at seed 4 the lowest test score lies below every calibration score
        cfg = yaml.safe_load(base_cfg.read_text())
        cfg["split"]["seed"] = 4
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        rc = main(["compare", "--config", str(cfg_path),
                   "--coverages", "1.0", "--seeds", "4",
                   "--out", str(tmp_path / "compare")])
        assert rc == 0
        # the same model as compare's c = 1.0 one: split seed = seed, and
        # dropout_rate 0.0 in the config; tau 0 accepts every test row
        rc = main(["train", "--config", str(cfg_path), "--seed", "4",
                   "--coverage", "1.0", "--out", str(tmp_path / "run")])
        assert rc == 0
        rc = main(["evaluate", "--model", str(tmp_path / "run" / "model.ckpt"),
                   "--config", str(cfg_path), "--tau", "0",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        _, cmp_data = _read_csv(tmp_path / "compare" / "compare.csv")
        _, eval_data = _read_csv(tmp_path / "run" / "eval.csv")
        compared = dict(zip(cmp_data[0].split(","), cmp_data[1].split(",")))
        evaluated = dict(zip(eval_data[0].split(","), eval_data[1].split(",")))
        assert float(evaluated["coverage"]) == 1.0
        assert float(compared["selnet_risk"]) == float(evaluated["risk"])

    def test_one_frozen_forward_per_model_and_split(self, workdir, tmp_path,
                                                    monkeypatch):
        """Two SelectiveNets and the twin: each model evaluates the
        calibration and the test rows once (MC-dropout runs its own
        passes, not ``heads``)."""
        _, cfg_path = workdir
        counts = _count_heads_per_split(monkeypatch, cfg_path, [
            "compare", "--config", str(cfg_path), "--coverages", "1.0,0.8",
            "--seeds", "0", "--out", str(tmp_path)], split_seeds=[0])
        assert counts == {"cal": 3, "test": 3}

    def test_regression_twin_calibrates_without_a_forward(self, tmp_path,
                                                          monkeypatch):
        """A regression twin has only MC-dropout scores, which make their
        own passes: the calibration rows see one forward per SelectiveNet
        and the test rows one per model."""
        cfg_path = _regression_config(tmp_path)
        counts = _count_heads_per_split(monkeypatch, cfg_path, [
            "compare", "--config", str(cfg_path), "--coverages", "1.0,0.8",
            "--seeds", "0", "--out", str(tmp_path / "out")], split_seeds=[0])
        assert counts == {"cal": 2, "test": 3}

    def test_improvement_cells_follow_their_row(self, tmp_path):
        # separable data, so some baseline risks are exactly 0
        cfg = {"dataset": {"kind": "synthetic", "seed": 0, "m": 200,
                           "n_classes": 2, "n_features": 5,
                           "noise_fraction": 0.0},
               "split": {"seed": 0, "stratified": True},
               "architecture": {"body_widths": [8], "selection_hidden": 4,
                                "dropout_rate": 0.0},
               "train": {"epochs": 20, "batch_size": 64,
                         "learning_rate": 2e-2}}
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        rc = main(["compare", "--config", str(cfg_path),
                   "--coverages", "1.0,0.5", "--seeds", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, data = _read_csv(tmp_path / "compare.csv")
        header = data[0].split(",")
        baseline_of = {"mc_improvement": "mc_dropout_risk",
                       "sr_improvement": "sr_risk"}
        assert {h for h in header if h.endswith("_improvement")} == \
            set(baseline_of)
        cells = []
        for line in data[1:]:
            row = dict(zip(header, line.split(",")))
            selnet = float(row["selnet_risk"])
            for col, base_col in baseline_of.items():
                base = float(row[base_col])
                cells.append(row[col])
                if base == 0.0:
                    assert row[col] == "n/a"
                else:
                    assert float(row[col]) == 100.0 * (base - selnet) / base
        assert "n/a" in cells and any(c != "n/a" for c in cells)


class TestDataStep:
    """Each command reads its dataset once, through its kind's loader, and
    splits that one read at every seed it needs."""

    def _configs(self, workdir, tmp_path):
        _, cfg_path = workdir
        return {"synthetic": cfg_path, "csv": _regression_config(tmp_path)}

    @pytest.mark.parametrize("split_seeds", [None, [0], [0, 1, 2]])
    @pytest.mark.parametrize("kind", ["csv", "synthetic"])
    def test_one_loader_call(self, workdir, tmp_path, monkeypatch, kind,
                             split_seeds):
        conf = _resolve(yaml.safe_load(
            self._configs(workdir, tmp_path)[kind].read_text()))
        calls = _count_reads(monkeypatch)
        splits = prepare_splits(conf, split_seeds)
        assert calls == {"csv": 0, "synthetic": 0, kind: 1}
        assert len(splits) == len(split_seeds or [0])

    @pytest.mark.parametrize("kind", ["csv", "synthetic"])
    def test_each_split_is_the_step_at_its_seed(self, workdir, tmp_path,
                                                kind):
        """Split ``i`` is ``standardized_splits`` of one read at seed
        ``i``, byte for byte; the default seed is ``split.seed``."""
        conf = _resolve(yaml.safe_load(
            self._configs(workdir, tmp_path)[kind].read_text()))
        args = dict(conf["dataset"])
        del args["kind"]
        target = args.pop("standardize_target", False)
        loader = load_csv if kind == "csv" else synth_classification
        ds = loader(**args)
        seeds = [2, 0, 5]
        got = prepare_splits(conf, seeds) + prepare_splits(conf)
        for seed, parts in zip(seeds + [conf["split"]["seed"]], got):
            want = standardized_splits(
                ds, SplitSpec(**{**conf["split"], "seed": seed}), target)
            for a, b in zip(parts[:3], want[:3]):
                assert a.task == b.task
                assert a.features.tobytes() == b.features.tobytes()
                assert a.labels.tobytes() == b.labels.tobytes()
                assert a.labels.dtype == b.labels.dtype
            assert repr(parts[3]) == repr(want[3])
        assert (kind == "csv") == (got[0][3] is not None)

    def test_compare_reads_the_csv_once(self, tmp_path, monkeypatch):
        cfg_path = _regression_config(tmp_path)
        calls = _count_reads(monkeypatch)
        assert main(["compare", "--config", str(cfg_path), "--coverages",
                     "1.0", "--seeds", "0,1,2",
                     "--out", str(tmp_path / "out")]) == 0
        assert calls == {"csv": 1, "synthetic": 0}


class TestDatasetConfig:
    CSV = {"kind": "csv", "path": "data.csv", "feature_columns": [0, 1],
           "target_column": 2}
    SYNTHETIC = {"kind": "synthetic", "m": 60, "n_classes": 3,
                 "n_features": 4}

    @pytest.mark.parametrize("dataset, field", [
        (CSV, "path"), (CSV, "feature_columns"), (CSV, "target_column"),
        (SYNTHETIC, "m"), (SYNTHETIC, "n_classes"), (SYNTHETIC, "n_features"),
    ])
    def test_missing_field_is_named(self, tmp_path, capsys, dataset, field):
        dataset = {k: v for k, v in dataset.items() if k != field}
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump({"dataset": dataset}))
        rc = main(["train", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: config field dataset.{field} is missing" in err

    @pytest.mark.parametrize("dataset, key", [
        (CSV, "m"), (CSV, "noise_fraction"), (SYNTHETIC, "path"),
        (SYNTHETIC, "standardize_target"),
    ])
    def test_key_of_the_other_kind_is_named(self, tmp_path, capsys, dataset,
                                            key):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(
            {"dataset": dict(dataset, **{key: 1})}))
        rc = main(["train", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert (capsys.readouterr().err
                == f"error: unknown config key dataset.{key}\n")

    def test_non_integer_synthetic_field_is_named(self, tmp_path, capsys):
        dataset = dict(self.SYNTHETIC, m="600")
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump({"dataset": dataset}))
        rc = main(["train", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "error: m: '600' is not an integer" in capsys.readouterr().err

    def test_dataset_must_be_a_mapping(self):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            _resolve({"dataset": [self.CSV]})

    def test_unknown_kind_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError,
                           match="^unknown dataset kind 'parquet'$"):
            _resolve({"dataset": {"kind": "parquet"}})

    def _train(self, tmp_path, dataset):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump({"dataset": dataset}))
        return main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")])

    @pytest.mark.parametrize("path", [0, True, None, [1], b"data.csv"],
                             ids=["zero", "true", "null", "list", "bytes"])
    def test_path_that_is_not_a_path_is_named(self, tmp_path, capsys,
                                              monkeypatch, path):
        """``path: 0`` would read the CSV from stdin and close it, and
        ``path: 1`` close stdout: each is refused before ``data`` opens a
        file."""
        opened = []
        monkeypatch.setattr(data, "open", lambda *a, **k: opened.append(a),
                            raising=False)
        assert self._train(tmp_path, dict(self.CSV, path=path)) == 1
        assert (capsys.readouterr().err
                == f"error: path: {path!r} is not a file path\n")
        assert opened == []
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("task", [5, "ranking", ["x"]],
                             ids=["int", "unknown", "list"])
    def test_unknown_task_is_named_before_any_read(self, tmp_path, capsys,
                                                   monkeypatch, task):
        calls = _count_reads(monkeypatch)
        assert self._train(tmp_path, dict(self.CSV, task=task)) == 1
        assert capsys.readouterr().err == f"error: unknown task {task!r}\n"
        assert calls == {"csv": 0, "synthetic": 0}

    @pytest.mark.parametrize("task, default", [(REGRESSION, True),
                                               (CLASSIFICATION, False)])
    def test_standardize_target_defaults_by_task(self, task, default):
        """Like the task loss: standardized targets for a regression CSV,
        none for a classification one, whose labels are class indices."""
        conf = _resolve({"dataset": dict(self.CSV, task=task)})
        assert conf["dataset"]["standardize_target"] is default

    def test_standardized_class_labels_fail_before_any_read(
            self, tmp_path, capsys, monkeypatch):
        calls = _count_reads(monkeypatch)
        assert self._train(tmp_path, dict(
            self.CSV, task=CLASSIFICATION, standardize_target=True)) == 1
        assert (capsys.readouterr().err == "error: standardize_target must be "
                "false for a classification dataset\n")
        assert calls == {"csv": 0, "synthetic": 0}

    def test_csv_that_is_not_utf8_is_named(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_bytes(b"a,b,y\n1,2,3\n4,5,\xff\n")
        assert self._train(tmp_path, dict(self.CSV, path=str(csv_path))) == 1
        assert re.fullmatch(rf"error: {re.escape(str(csv_path))}: not \S+ "
                            r"text\n", capsys.readouterr().err)


class TestConfigSchema:
    """Each section reads into the dataclass that owns its defaults, and a
    key that its section does not take fails the run, naming the key."""

    SYNTHETIC = TestDatasetConfig.SYNTHETIC

    def _train(self, tmp_path, cfg):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        return main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")])

    @pytest.mark.parametrize("section, values, field, value", [
        ("dataset", {"m": 10**30}, "m", 10**30),
        ("dataset", {"n_classes": 10**30}, "n_classes", 10**30),
        ("dataset", {"n_features": 10**30}, "n_features", 10**30),
        ("architecture", {"selection_hidden": 10**30}, "selection_hidden",
         10**30),
        ("architecture", {"body_widths": [16, 10**30]}, "body_widths", 10**30),
        ("dataset", {"m": 2**31, "n_features": 2**31}, "m", 2**31),
        ("train", {"epochs": 2**63}, "epochs", 2**63),
        ("train", {"batch_size": 2**63}, "batch_size", 2**63),
    ], ids=["m", "n_classes", "n_features", "selection_hidden", "body_widths",
            "product", "epochs", "batch_size"])
    def test_size_beyond_max_size_is_one_line(self, tmp_path, capsys, section,
                                              values, field, value):
        """numpy refuses an extent or an array byte count beyond its index
        type with a ValueError, which would print a bug's traceback."""
        cfg = {"dataset": self.SYNTHETIC, "train": {"epochs": 1}}
        cfg[section] = dict(cfg.get(section, {}), **values)
        assert self._train(tmp_path, cfg) == 1
        assert (capsys.readouterr().err
                == f"error: {field} must be <= {MAX_SIZE}, got {value}\n")
        assert not (tmp_path / "run").exists()

    def test_sizes_within_max_size_too_large_for_memory_are_one_line(
            self, tmp_path, capsys):
        """Any two sizes within ``MAX_SIZE`` make an array numpy can index,
        so one too large for memory is a MemoryError: here the (n_classes,
        n_features) class centres, 8 EiB, the first array the data step
        asks for."""
        cfg = {"dataset": dict(self.SYNTHETIC, n_classes=MAX_SIZE,
                               n_features=MAX_SIZE), "train": {"epochs": 1}}
        assert self._train(tmp_path, cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"({MAX_SIZE}, {MAX_SIZE})" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key", [
        ("split", "seeed"), ("architecture", "body_width"),
        ("architecture", "input_dim"), ("loss", "target_coverag"),
        ("train", "learning_rat"), ("train", "seed"), ("train", "loss"),
        (None, "trian"),
    ], ids=["split", "architecture", "architecture-derived", "loss",
            "train", "train-derived-seed", "train-derived-loss", "top-level"])
    def test_unknown_key_is_named(self, tmp_path, capsys, section, key):
        cfg = {"dataset": self.SYNTHETIC, "train": {"epochs": 1}}
        if section is None:
            cfg[key] = 1
        else:
            cfg[section] = dict(cfg.get(section, {}), **{key: 1})
        assert self._train(tmp_path, cfg) == 1
        name = key if section is None else f"{section}.{key}"
        assert (f"error: unknown config key {name}\n"
                == capsys.readouterr().err)

    @pytest.mark.parametrize("text, message", [
        ("- dataset\n", "{path}: config root must be a mapping"),
        ("dataset: {kind: parquet}\n", "unknown dataset kind 'parquet'"),
        ("dataset: {kind: [a]}\n", "unknown dataset kind ['a']"),
    ], ids=["root-not-a-mapping", "unknown-dataset-kind",
            "list-dataset-kind"])
    def test_malformed_config_is_named(self, tmp_path, capsys, text,
                                       message):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(text)
        rc = main(["train", "--config", str(cfg_path),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert (capsys.readouterr().err
                == f"error: {message.format(path=cfg_path)}\n")
        assert not (tmp_path / "run").exists()

    def test_misspelled_config_fails_on_its_first_unknown_key(self, tmp_path,
                                                              capsys):
        cfg = {"dataset": self.SYNTHETIC,
               "train": {"learning_rat": 0.5, "batchsize": 7},
               "architecture": {"body_width": [8]},
               "loss": {"target_coverag": 0.5}}
        assert self._train(tmp_path, cfg) == 1
        assert (capsys.readouterr().err
                == "error: unknown config key architecture.body_width\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("seeds, message", [
        (0, "seeds must be a non-empty list of integers, got 0"),
        ([], "seeds must be a non-empty list of integers, got []"),
        ([0, True], "seeds: True is not an integer"),
        ([0, 1.0], "seeds: 1.0 is not an integer"),
        ([0, "1"], "seeds: '1' is not an integer"),
        ([-1], "seeds must be >= 0, got -1"),
    ], ids=["scalar", "empty", "bool", "float", "string", "negative"])
    def test_seeds_are_a_list_of_integers(self, tmp_path, capsys, seeds,
                                          message):
        cfg = {"dataset": self.SYNTHETIC, "seeds": seeds}
        assert self._train(tmp_path, cfg) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["train", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["compare", "--coverages", "1.0", "--seeds=0,-2"],
         "--seeds must be >= 0, got -2"),
    ], ids=["train-seed", "compare-seeds"])
    def test_negative_seed_flag_is_named(self, tmp_path, capsys, argv,
                                         message):
        """A seed flag goes through the config's check before any work."""
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump({"dataset": self.SYNTHETIC}))
        out = tmp_path / "run"
        assert main(argv + ["--config", str(cfg_path),
                            "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["compare", "--coverages", "0.9,abc"],
         "--coverages: 'abc' is not a number"),
        (["compare", "--coverages", "1.0", "--seeds", "1,,2"],
         "--seeds: '' is not an integer"),
        (["compare", "--coverages", "1.0", "--seeds", ""],
         "--seeds: '' is not an integer"),
        (["compare", "--coverages", "0.9,1.5"],
         "--coverages must lie in (0, 1], got 1.5"),
        (["compare", "--coverages", "nan"],
         "--coverages: nan is not finite"),
        (["curve", "--model", "absent.ckpt", "--coverages", "0.0,0.5"],
         "--coverages must lie in (0, 1], got 0.0"),
        (["grid", "--models", "absent.ckpt", "--coverages", "1,inf"],
         "--coverages: inf is not finite"),
    ], ids=["compare-not-a-number", "compare-empty-seed",
            "compare-empty-seeds", "compare-above-one",
            "compare-nan", "curve-zero", "grid-infinite"])
    def test_bad_list_flag_is_named(self, tmp_path, capsys, argv, message):
        """A list flag is checked before any config, checkpoint or data is
        read: the curve and grid checkpoints named here do not exist."""
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump({"dataset": self.SYNTHETIC}))
        out = tmp_path / "run"
        assert main(argv + ["--config", str(cfg_path),
                            "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        ("architecture", "batchnorm"), ("architecture", "auxiliary_head"),
        ("train", "shuffle"),
    ])
    @pytest.mark.parametrize("argv", [
        ["train"], ["evaluate", "--model", "absent.ckpt"],
    ], ids=lambda argv: argv[0])
    def test_removed_switch_is_an_unknown_key(self, tmp_path, capsys,
                                              monkeypatch, argv, section,
                                              key):
        """Every hidden block has batchnorm, a selective model always has h
        (``loss.alpha`` sets its weight) and every epoch shuffles, so these
        switches are gone: each fails as an unknown key before any data or
        checkpoint (here one that does not exist) is read."""
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(
            {"dataset": self.SYNTHETIC, section: {key: True}}))
        calls = _count_reads(monkeypatch)
        assert main(argv + ["--config", str(cfg_path),
                            "--out", str(tmp_path / "run")]) == 1
        assert (capsys.readouterr().err
                == f"error: unknown config key {section}.{key}\n")
        assert calls == {"csv": 0, "synthetic": 0}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key", [
        ("split", "stratified"), ("dataset", "header"),
        ("dataset", "standardize_target"),
    ])
    def test_non_boolean_switch_is_named(self, tmp_path, capsys, section,
                                         key):
        """A quoted "false" would read as true; it fails instead."""
        dataset = (TestDatasetConfig.CSV if section == "dataset"
                   else self.SYNTHETIC)
        cfg = {"dataset": dataset, "train": {"epochs": 1}}
        cfg[section] = dict(cfg.get(section, {}), **{key: "false"})
        assert self._train(tmp_path, cfg) == 1
        assert (capsys.readouterr().err
                == f"error: {key}: 'false' is not a boolean\n")

    @pytest.mark.parametrize("section, key, value", [
        ("train", "learning_rate", "1e-3"), ("train", "weight_decay", "0"),
        ("train", "momentum", "0.9"), ("loss", "target_coverage", "0.5"),
        ("loss", "penalty_weight", "32"), ("loss", "alpha", "0.5"),
        ("loss", "alpha", True), ("split", "train", "0.6"),
        ("split", "calibration", "0.2"), ("split", "test", "0.2"),
        ("architecture", "dropout_rate", "0.1"),
        ("architecture", "dropout_rate", None),
        ("dataset", "noise_fraction", "0.1"),
    ])
    def test_non_real_number_is_named(self, tmp_path, capsys, section, key,
                                      value):
        cfg = {"dataset": self.SYNTHETIC, "train": {"epochs": 1}}
        cfg[section] = dict(cfg.get(section, {}), **{key: value})
        assert self._train(tmp_path, cfg) == 1
        assert (capsys.readouterr().err
                == f"error: {key}: {value!r} is not a real number\n")

    @pytest.mark.parametrize("section, key, value, message", [
        ("train", "learning_rate", float("inf"),
         "learning_rate: inf is not finite"),
        ("train", "learning_rate", float("nan"),
         "learning_rate: nan is not finite"),
        ("train", "weight_decay", -50.0,
         "weight_decay must lie in [0, inf), got -50.0"),
        ("train", "momentum", 1.0, "momentum must lie in [0, 1), got 1.0"),
        ("loss", "penalty_weight", float("inf"),
         "penalty_weight: inf is not finite"),
        ("split", "seed", "1", "seed: '1' is not an integer"),
        ("split", "seed", -1, "seed must be >= 0, got -1"),
        ("dataset", "seed", "7", "seed: '7' is not an integer"),
        ("dataset", "seed", -7, "seed must be >= 0, got -7"),
    ], ids=["lr-inf", "lr-nan", "weight-decay", "momentum", "penalty-inf",
            "split-seed-string", "split-seed-negative",
            "dataset-seed-string", "dataset-seed-negative"])
    def test_bad_number_is_named(self, tmp_path, capsys, section, key, value,
                                 message):
        """``learning_rate: .inf`` would otherwise exit 0 with a NaN
        checkpoint, and a string seed fail inside numpy's SeedSequence."""
        cfg = {"dataset": self.SYNTHETIC, "train": {"epochs": 1}}
        cfg[section] = dict(cfg.get(section, {}), **{key: value})
        assert self._train(tmp_path, cfg) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("train", "epochs", 0, "epochs must be >= 1, got 0"),
        ("train", "learning_rate", -1,
         "learning_rate must lie in (0, inf), got -1"),
        ("loss", "alpha", 7, "alpha must lie in [0, 1], got 7"),
        ("loss", "task_loss", "hinge", "unknown task loss 'hinge'"),
        ("architecture", "body_widths", [], "invalid body widths []"),
        ("architecture", "dropout_rate", 1.5,
         "dropout_rate must lie in [0, 1), got 1.5"),
        ("split", "train", 0.9,
         "split fractions must sum to 1, got (0.9, 0.2, 0.2)"),
    ], ids=["epochs", "learning-rate", "alpha", "task-loss", "body-widths",
            "dropout-rate", "split-sum"])
    @pytest.mark.parametrize("argv", [
        ["train"],
        ["calibrate", "--model", "{run}/model.ckpt", "--coverage", "0.8"],
        ["evaluate", "--model", "{run}/model_calibrated.ckpt"],
        ["curve", "--model", "{run}/model.ckpt", "--coverages", "1.0,0.8"],
        ["grid", "--models", "{run}/model.ckpt", "--coverages", "1.0,0.8"],
        ["compare", "--coverages", "1.0"],
    ], ids=lambda argv: argv[0])
    def test_bad_value_fails_before_any_read(self, workdir, tmp_path, capsys,
                                             monkeypatch, argv, section, key,
                                             value, message):
        """The whole config is checked when it resolves, also the sections
        a command does not use: no data is read and no file written."""
        root, cfg_path = workdir
        cfg = yaml.safe_load(cfg_path.read_text())
        cfg[section] = dict(cfg[section], **{key: value})
        bad = tmp_path / "config.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        calls = _count_reads(monkeypatch)
        out = tmp_path / "out"
        argv = [a.format(run=root / "run") for a in argv]
        assert main(argv + ["--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == {"csv": 0, "synthetic": 0}
        assert not out.exists()

    @pytest.mark.parametrize("value, message", [
        ("1.5", "--coverage must lie in (0, 1], got 1.5"),
        ("0", "--coverage must lie in (0, 1], got 0.0"),
        ("nan", "--coverage: nan is not finite"),
        ("-inf", "--coverage: -inf is not finite"),
    ], ids=["above-one", "zero", "nan", "minus-inf"])
    def test_train_coverage_flag_is_named_before_any_read(
            self, tmp_path, capsys, monkeypatch, value, message):
        cfg_path = _regression_config(tmp_path)
        calls = _count_reads(monkeypatch)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--coverage", value,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == {"csv": 0, "synthetic": 0}
        assert not out.exists()

    def test_readme_config_block_is_resolved(self):
        """The README's config schema block takes only keys the code takes,
        and shows each default as the code has it: it resolves to itself."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        [block] = re.findall(r"^```yaml\n(.*?)^```$", readme,
                             re.MULTILINE | re.DOTALL)
        block = yaml.safe_load(block)
        assert _resolve(block) == block

    def test_readme_command_line_names_every_subcommand_and_flag(self):
        """The README's "Command line" section names each subcommand and
        each ``--flag`` that ``build_parser`` defines, as a whole word:
        ``--seed`` is not found inside ``--seeds``."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        [section] = re.findall(r"^## Command line\n(.*?)(?=^## |\Z)", readme,
                               re.MULTILINE | re.DOTALL)
        [subparsers] = [a for a in build_parser()._actions
                        if a.dest == "command"]
        names = set(subparsers.choices)
        for sub in subparsers.choices.values():
            names.update(flag for a in sub._actions if a.dest != "help"
                         for flag in a.option_strings)
        missing = sorted(n for n in names if not re.search(
            rf"(?<![\w-]){re.escape(n)}(?![\w-])", section))
        assert missing == []

    def test_effective_config_holds_the_resolved_defaults(self, tmp_path):
        cfg = {"dataset": self.SYNTHETIC, "train": {"epochs": 1}}
        assert self._train(tmp_path, cfg) == 0
        eff = yaml.safe_load(
            (tmp_path / "run" / "effective_config.yaml").read_text())
        assert eff["train"]["learning_rate"] == 0.0005
        train_fields = asdict(TrainConfig(epochs=1))
        del train_fields["seed"], train_fields["loss"]
        arch_fields = asdict(ArchitectureConfig(input_dim=4))
        for derived in ("input_dim", "task", "n_classes"):
            del arch_fields[derived]
        assert eff == {
            "dataset": dict(self.SYNTHETIC, seed=0, noise_fraction=0.0),
            "split": asdict(SplitSpec()),
            "architecture": arch_fields,
            "loss": asdict(LossConfig(task_loss="cross-entropy")),
            "train": train_fields,
            "seeds": [0],
        }

    def test_compare_reruns_from_its_effective_config(self, workdir,
                                                      tmp_path):
        _, cfg_path = workdir
        argv = ["compare", "--coverages", "1.0,0.8", "--seeds", "0"]
        assert main(argv + ["--config", str(cfg_path),
                            "--out", str(tmp_path / "a")]) == 0
        effective = tmp_path / "a" / "effective_config.yaml"
        assert main(argv + ["--config", str(effective),
                            "--out", str(tmp_path / "b")]) == 0
        _, first = _read_csv(tmp_path / "a" / "compare.csv")
        _, again = _read_csv(tmp_path / "b" / "compare.csv")
        assert again == first


    def test_train_reruns_from_its_effective_config(self, workdir, tmp_path):
        """``--seed`` and ``--coverage`` land in effective_config.yaml, so a
        flagless run on it trains the same checkpoint, byte for byte."""
        _, cfg_path = workdir
        assert main(["train", "--config", str(cfg_path), "--seed", "3",
                     "--coverage", "0.7", "--out", str(tmp_path / "a")]) == 0
        effective = tmp_path / "a" / "effective_config.yaml"
        eff = yaml.safe_load(effective.read_text())
        assert eff["seeds"] == [3]
        assert eff["loss"]["target_coverage"] == 0.7
        assert main(["train", "--config", str(effective),
                     "--out", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "model.ckpt").read_bytes()
        assert (tmp_path / "b" / "model.ckpt").read_bytes() == first

    def test_compare_seeds_flag_is_recorded(self, tmp_path):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(
            {"dataset": self.SYNTHETIC, "train": {"epochs": 1},
             "seeds": [5]}))
        assert main(["compare", "--config", str(cfg_path), "--coverages",
                     "1.0", "--seeds", "2,4", "--out", str(tmp_path)]) == 0
        eff = yaml.safe_load((tmp_path / "effective_config.yaml").read_text())
        assert eff["seeds"] == [2, 4]
        comments, _ = _read_csv(tmp_path / "compare.csv")
        assert "# seeds=2,4" in comments

    @pytest.mark.parametrize("argv, seeds, repeated", [
        (["train"], [0, 0], "seeds: 0"),
        (["compare", "--coverages", "1.0"], [0, 0], "seeds: 0"),
        (["compare", "--coverages", "1.0"], [3, 1, 1, 3], "seeds: 1"),
        (["compare", "--coverages", "1.0", "--seeds", "0,1,0"], [5],
         "--seeds: 0"),
    ], ids=["train-config", "compare-config", "compare-config-first",
            "compare-flag"])
    def test_repeated_seed_is_named_before_any_read(
            self, tmp_path, capsys, monkeypatch, argv, seeds, repeated):
        """One run counted twice would give a wrong standard error."""
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(
            {"dataset": self.SYNTHETIC, "seeds": seeds}))
        calls = _count_reads(monkeypatch)
        out = tmp_path / "run"
        assert main(argv + ["--config", str(cfg_path),
                            "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == f"error: {repeated} is repeated\n")
        assert calls == {"csv": 0, "synthetic": 0}
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train"],
    ["calibrate", "--model", "{run}/model.ckpt", "--coverage", "0.8"],
    ["evaluate", "--model", "{run}/model_calibrated.ckpt"],
    ["curve", "--model", "{run}/model.ckpt", "--coverages", "1.0,0.8"],
    ["grid", "--models", "{run}/model.ckpt", "--coverages", "1.0,0.8"],
    ["compare", "--coverages", "1.0"],
], ids=lambda argv: argv[0])
def test_every_command_writes_its_resolved_config(workdir, tmp_path, argv):
    """Each command that writes files writes effective_config.yaml next to
    them: its config with every default filled in."""
    root, cfg_path = workdir
    argv = [a.format(run=root / "run") for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 0
    eff = yaml.safe_load((out / "effective_config.yaml").read_text())
    assert eff == _resolve(yaml.safe_load(cfg_path.read_text()))


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["train", "--no-such-flag"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--config", "c", "--out", "o", "--coverage"], "coverage"),
        (["calibrate", "--model", "m", "--config", "c", "--out", "o",
          "--coverage", "0.8", "--delta"], "delta"),
        (["calibrate", "--model", "m", "--config", "c", "--out", "o",
          "--coverage"], "coverage"),
        (["evaluate", "--model", "m", "--config", "c", "--tau"], "tau"),
    ], ids=["train-coverage", "calibrate-delta", "calibrate-coverage",
            "evaluate-tau"])
    @pytest.mark.parametrize("value", ["-inf", "-1e-3", "-0.5"])
    def test_float_flag_takes_a_leading_dash_value(self, argv, flag, value):
        """A dash-led float literal parses as the flag's value, not as an
        unknown option; the command's own checks then judge it."""
        got = getattr(build_parser().parse_args(argv + [value]), flag)
        np.testing.assert_equal(got, float(value))

    def test_runtime_failure_is_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        rc = main(["train", "--config", str(missing), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["curve-sr-on-regression",
                                      "train-zero-epochs"])
    def test_runtime_failure_leaves_no_out_directory(self, tmp_path, capsys,
                                                     case):
        """A command that fails after its flags and config are read creates
        no ``--out`` directory, nor any missing parent of it."""
        cfg_path = _regression_config(tmp_path)
        if case == "train-zero-epochs":
            cfg = yaml.safe_load(cfg_path.read_text())
            cfg["train"]["epochs"] = 0
            cfg_path.write_text(yaml.safe_dump(cfg))
            argv = ["train", "--config", str(cfg_path)]
            message = "epochs must be >= 1, got 0"
        else:
            run = tmp_path / "run"
            assert main(["train", "--config", str(cfg_path),
                         "--out", str(run)]) == 0
            argv = ["curve", "--model", str(run / "model.ckpt"),
                    "--config", str(cfg_path), "--coverages", "1.0,0.8",
                    "--score", "sr"]
            message = "score kind 'sr' does not apply to this regression model"
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out / "nested")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_config_that_is_not_utf8_is_one_line(self, tmp_path, capsys):
        """PyYAML decodes the file itself, so a bad byte is a YAML error
        that names the file."""
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_bytes(b"dataset: {kind: synthetic}\n# \xff\n")
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert f'in "{cfg_path}"' in err

    @pytest.mark.parametrize("error", [
        ConfigurationError("bad"), DomainError("bad"), ParseError("bad"),
        IntegrityError("bad"), TrainingDivergedError("bad"),
        GradCheckError("bad"), FileNotFoundError("bad"), MemoryError("bad"),
        yaml.YAMLError("bad")], ids=lambda e: type(e).__name__)
    def test_bad_input_is_one_line(self, monkeypatch, capsys, error):
        def failing(args):
            raise error
        monkeypatch.setattr(cli, "cmd_train", failing)
        assert main(["train", "--config", "c", "--out", "o"]) == 1
        assert capsys.readouterr().err == "error: bad\n"

    @pytest.mark.parametrize("error", [
        AttributeError, TypeError, KeyError, IndexError, ValueError,
        RuntimeError, ZeroDivisionError], ids=lambda e: e.__name__)
    def test_bug_propagates(self, monkeypatch, capsys, error):
        """An error that is not bad input is a bug: ``main`` does not turn
        it into ``error: ...`` and exit 1."""
        def failing(args):
            raise error("bug")
        monkeypatch.setattr(cli, "cmd_train", failing)
        with pytest.raises(error, match="bug"):
            main(["train", "--config", "c", "--out", "o"])
        assert capsys.readouterr().err == ""

    def test_corrupt_checkpoint_is_one(self, workdir, tmp_path, capsys):
        _, cfg_path = workdir
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        rc = main(["evaluate", "--model", str(bad), "--config", str(cfg_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
