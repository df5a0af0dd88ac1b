"""End-to-end CLI: configs, artifacts, determinism, exit codes."""

import copy
import csv
import dataclasses
import importlib
import json
import os
import shutil
import struct
import typing
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    coincident_surface_points,
    cylinder_dataset,
    first_inlet_doubled,
    two_surface_points,
    zero_inlet_speed,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from packedflow import cli
from packedflow.bench import BenchCase
from packedflow.cli import run_cli
from packedflow.data import CylinderFlowConfig, Dataset, ScalerPair, Simulation, load_dataset, write_dataset
from packedflow.formats import ConfigError, _read
from packedflow.metrics import coefficient_table, evaluate, predict_simulation
from packedflow.packed_net import PackedSpec, init_params, load_params, plan_layers, save_params
from packedflow.training import GridRow, TrainConfig


def write_config(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def directory_snapshot(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()
    }


NOT_CANONICAL = "header differs from the one save_params writes for its spec"


def corrupt_model(blob, kind):
    """A damaged copy of a model file, the byte offset its fault is reported at and the message's start."""
    (h,) = struct.unpack_from("<I", blob, 8)
    header, params = blob[12 : 12 + h], blob[12 + h :]

    def edited(old, new):
        """The file with the header's first ``old`` replaced by ``new``, and the offset of the first changed byte."""
        changed = header.replace(old, new, 1)
        at = header.index(old) + len(os.path.commonprefix([old, new]))
        return blob[:8] + struct.pack("<I", len(changed)) + changed + params, 12 + at

    return {
        "under-12-bytes": (blob[:10], 10, "file ends inside the 12-byte magic and header length"),
        "long-header": (blob[:8] + struct.pack("<I", 10**6) + blob[12:], 8, "header length 1000000 runs past"),
        "header-not-utf8": (blob[:12] + b"\xff" + blob[13:], 12, "header: invalid JSON ('utf-8' codec can't decode"),
        "array": (blob[:12] + b"[" + b" " * (h - 2) + b"]" + params, 12, "header: top level must be a JSON object"),
        "no-plans": (*edited(b'"plans"', b'"plan_"'), NOT_CANONICAL),
        "repeated-key": (
            edited(b'{"format_version":1,', b'{"format_version":1,"format_version":1,')[0],
            12,
            "header: invalid JSON (repeated key 'format_version')",
        ),
        "short-parameters": (blob[:-8], 12 + h, "parameter data holds"),
        "format-version-2": (
            edited(b'"format_version":1', b'"format_version":2')[0],
            12,
            "unsupported format version 2",
        ),
        "plans-disagree-with-spec": (*edited(b'"role":"first"', b'"role":"final"'), NOT_CANONICAL),
        # Each of these decodes to the same spec and plans, so only the byte comparison refuses it.
        "format-version-true": (*edited(b'"format_version":1', b'"format_version":true'), NOT_CANONICAL),
        "format-version-1.0": (*edited(b'"format_version":1', b'"format_version":1.0'), NOT_CANONICAL),
        "plan-value-2.0": (*edited(b'"groups":2', b'"groups":2.0'), NOT_CANONICAL),
        "unknown-header-key": (*edited(b'{"format_version"', b'{"comment":0,"format_version"'), NOT_CANONICAL),
        "dropout-p-with-dropout-off": (*edited(b'"dropout_p":0.2', b'"dropout_p":0.5'), NOT_CANONICAL),
    }[kind]


def with_spec(blob, edit):
    """A copy of a model file whose header stores ``edit(spec)`` as its spec."""
    (h,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + h])
    header["spec"] = edit(header["spec"])
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return blob[:8] + struct.pack("<I", len(encoded)) + encoded + blob[12 + h :]


def eval_far_point(workspace, tmp_path, x):
    """Run ``eval`` on the test split with one field point moved to ``x``; return its simulation."""
    dataset = load_dataset(workspace / "data" / "test")
    sim = dataset.simulations[1]
    points = sim.points.copy()
    points[np.flatnonzero(~sim.surface_mask)[0], 0] = x
    far = Simulation(sim.name, points, sim.targets)
    write_dataset(Dataset((dataset.simulations[0], far), split_label="test"), tmp_path / "data")
    config = write_config(
        tmp_path / "eval.json",
        {
            "model": str(workspace / "run" / "model.pkmlp"),
            "scaler": str(workspace / "run" / "scaler.json"),
            "data": {"dir": str(tmp_path / "data")},
        },
    )
    assert run_cli(["eval", "--config", config, "--out", str(tmp_path / "report")]) == 1
    assert not (tmp_path / "report").exists()
    return sim


GEN_SPLITS = {
    "train": {
        "num_sims": 4,
        "surface_points": 24,
        "field_points": 24,
        "radius_range": [0.5, 1.0],
        "inlet_speed_range": [5.0, 15.0],
        "circulation_range": [-4.0, 4.0],
    },
    "test": {
        "num_sims": 3,
        "surface_points": 24,
        "field_points": 24,
        "radius_range": [0.5, 1.0],
        "inlet_speed_range": [5.0, 15.0],
        "circulation_range": [-4.0, 4.0],
    },
    "test_ood": {
        "num_sims": 2,
        "surface_points": 24,
        "field_points": 24,
        "radius_range": [0.5, 1.0],
        "inlet_speed_range": [5.0, 15.0],
        "circulation_range": [-4.0, 4.0],
    },
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    gen_config = write_config(root / "gen.json", {"splits": GEN_SPLITS})
    assert run_cli(["gen", "--config", gen_config, "--seed", "7", "--out", str(root / "data")]) == 0

    train_config = write_config(
        root / "train.json",
        {
            "spec": {"num_estimators": 2, "alpha": 2, "gamma": 1, "hidden_widths": [8]},
            "train": {"learning_rate": 0.01, "max_epochs": 2, "batch_points": 64},
            "data": {"train_dir": "data/train"},
        },
    )
    assert run_cli(["train", "--config", train_config, "--seed", "3", "--out", str(root / "run")]) == 0
    return root


class TestGen:
    def test_writes_every_split(self, workspace):
        for split in ("train", "test", "test_ood"):
            dataset = load_dataset(workspace / "data" / split)
            assert dataset.split_label == split
            assert len(dataset) == GEN_SPLITS[split]["num_sims"]

    def test_byte_identical_repeat(self, workspace, tmp_path):
        gen_config = str(workspace / "gen.json")
        assert run_cli(["gen", "--config", gen_config, "--seed", "7", "--out", str(tmp_path / "a")]) == 0
        assert run_cli(["gen", "--config", gen_config, "--seed", "7", "--out", str(tmp_path / "b")]) == 0
        assert directory_snapshot(tmp_path / "a") == directory_snapshot(tmp_path / "b")
        assert directory_snapshot(tmp_path / "a") == directory_snapshot(workspace / "data")

    def test_only_the_test_ood_split_is_shifted(self, workspace):
        # The shift follows from the split name: test_ood's inlet speeds lie above the configured range.
        for split in ("train", "test", "test_ood"):
            sims = load_dataset(workspace / "data" / split).simulations
            speeds = np.concatenate([sim.points[:, 2] for sim in sims])
            lo, hi = GEN_SPLITS[split]["inlet_speed_range"]
            assert (speeds > hi).all() if split == "test_ood" else ((lo <= speeds) & (speeds <= hi)).all()

    @pytest.mark.parametrize("listed", [("test_ood",), ("train",), ("test", "train")])
    def test_a_split_has_the_same_bytes_whatever_else_is_listed(self, workspace, tmp_path, listed):
        config = write_config(tmp_path / "gen.json", {"splits": {name: GEN_SPLITS[name] for name in listed}})
        assert run_cli(["gen", "--config", config, "--seed", "7", "--out", str(tmp_path / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(listed)
        for name in listed:
            assert directory_snapshot(tmp_path / "out" / name) == directory_snapshot(workspace / "data" / name)

    def test_other_seed_differs(self, workspace, tmp_path):
        gen_config = str(workspace / "gen.json")
        assert run_cli(["gen", "--config", gen_config, "--seed", "8", "--out", str(tmp_path / "c")]) == 0
        assert directory_snapshot(tmp_path / "c") != directory_snapshot(workspace / "data")


class TestTrainCommand:
    def test_artifacts_exist(self, workspace):
        for name in ("model.pkmlp", "scaler.json", "history.csv"):
            assert (workspace / "run" / name).exists()
        with open(workspace / "run" / "history.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "wall_seconds"]
        assert len(rows) == 3  # header + 2 epochs

    def test_inputs_not_mutated(self, workspace, tmp_path):
        before = directory_snapshot(workspace / "data" / "train")
        config = write_config(
            tmp_path / "train2.json",
            {
                "spec": {"num_estimators": 2, "alpha": 1, "gamma": 1, "hidden_widths": [8]},
                "train": {"learning_rate": 0.01, "max_epochs": 1, "batch_points": 64},
                "data": {"train_dir": str(workspace / "data" / "train")},
            },
        )
        assert run_cli(["train", "--config", config, "--seed", "0", "--out", str(tmp_path / "run")]) == 0
        assert directory_snapshot(workspace / "data" / "train") == before

    def test_zero_epochs_write_initial_model(self, workspace, tmp_path, capsys):
        config = write_config(
            tmp_path / "train.json",
            {
                "spec": {"num_estimators": 2, "alpha": 1, "gamma": 1, "hidden_widths": [8]},
                "train": {"learning_rate": 0.01, "max_epochs": 0},
                "data": {"train_dir": str(workspace / "data" / "train")},
            },
        )
        assert run_cli(["train", "--config", config, "--seed", "0", "--out", str(tmp_path / "run")]) == 0
        assert "trained 0 epochs;" in capsys.readouterr().out
        history = (tmp_path / "run" / "history.csv").read_bytes()
        assert history == b"epoch,train_loss,val_loss,wall_seconds\r\n"
        assert (tmp_path / "run" / "model.pkmlp").exists() and (tmp_path / "run" / "scaler.json").exists()

    def test_validation_split_fills_the_val_loss_column(self, workspace, tmp_path):
        # The workspace's training run again, now with a validation split: its losses fill
        # val_loss, and validating changes neither the training losses nor the model.
        config = json.loads((workspace / "train.json").read_text())
        config["data"] = {"train_dir": str(workspace / "data" / "train"), "val_dir": str(workspace / "data" / "test")}
        config_path = write_config(tmp_path / "train.json", config)
        assert run_cli(["train", "--config", config_path, "--seed", "3", "--out", str(tmp_path / "run")]) == 0
        runs = []
        for run in (workspace / "run", tmp_path / "run"):
            with open(run / "history.csv", newline="") as fh:
                runs.append(list(csv.DictReader(fh)))
        alone, validated = runs
        assert [r["train_loss"] for r in validated] == [r["train_loss"] for r in alone]
        assert [r["val_loss"] for r in alone] == ["", ""]
        val_loss = [float(r["val_loss"]) for r in validated]
        assert len(val_loss) == 2 and all(np.isfinite(v) and v > 0 for v in val_loss)
        assert (tmp_path / "run" / "model.pkmlp").read_bytes() == (workspace / "run" / "model.pkmlp").read_bytes()

    def test_input_column_whose_std_overflows_exits_1_naming_it(self, workspace, tmp_path, capsys):
        # x = 1e200 is a valid cell, but its square overflows the std; under the suite's
        # warnings-as-errors that overflow must not surface as a RuntimeWarning.
        dataset = load_dataset(workspace / "data" / "train")
        sim = dataset.simulations[0]
        points = sim.points.copy()
        points[np.flatnonzero(~sim.surface_mask)[0], 0] = 1e200
        far = Dataset((Simulation(sim.name, points, sim.targets), *dataset.simulations[1:]), split_label="train")
        write_dataset(far, tmp_path / "data")
        config = valid_configs(workspace)["train"]
        config["data"]["train_dir"] = str(tmp_path / "data")
        config_path = write_config(tmp_path / "train.json", config)
        assert run_cli(["train", "--config", config_path, "--seed", "0", "--out", str(tmp_path / "run")]) == 1
        message = "error: ValueError: cannot standardize input column 'x': its std overflows float64\n"
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "run").exists()

    def test_validation_mse_that_overflows_float64_exits_1_naming_the_epoch(self, workspace, tmp_path, capsys):
        # x = 1e307 is a valid cell of the validation split, but its squared error overflows;
        # an inf val_loss in history.csv would hide that.
        dataset = load_dataset(workspace / "data" / "test")
        sim = dataset.simulations[1]
        points = sim.points.copy()
        points[np.flatnonzero(~sim.surface_mask)[0], 0] = 1e307
        far = Dataset((dataset.simulations[0], Simulation(sim.name, points, sim.targets)), split_label="test")
        write_dataset(far, tmp_path / "val")
        config = valid_configs(workspace)["train"]
        config["data"]["val_dir"] = str(tmp_path / "val")
        config_path = write_config(tmp_path / "train.json", config)
        assert run_cli(["train", "--config", config_path, "--seed", "0", "--out", str(tmp_path / "run")]) == 1
        message = "error: ValueError: validation at epoch 0: held-out MSE is inf, not finite in float64\n"
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "run").exists()

    def test_validation_target_that_overflows_its_standardization_exits_1(self, workspace, tmp_path, capsys):
        # nut = 1e308 is a valid cell, but divided by the training split's small nut std it
        # overflows; the run must name the validation data, not blame an infinite MSE.
        dataset = load_dataset(workspace / "data" / "test")
        sim = dataset.simulations[1]
        targets = sim.targets.copy()
        targets[np.flatnonzero(~sim.surface_mask)[0], 3] = 1e308
        far = Dataset((dataset.simulations[0], Simulation(sim.name, sim.points, targets)), split_label="test")
        write_dataset(far, tmp_path / "val")
        config = valid_configs(workspace)["train"]
        config["data"]["val_dir"] = str(tmp_path / "val")
        config_path = write_config(tmp_path / "train.json", config)
        assert run_cli(["train", "--config", config_path, "--seed", "0", "--out", str(tmp_path / "run")]) == 1
        message = "error: ValueError: validation data: targets are too large for float64 once standardized\n"
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "run").exists()

    def test_gradient_whose_square_overflows_exits_1_naming_the_layer(self, workspace, tmp_path, capsys):
        # At learning rate 1e10 a deep net's gradients grow until their squares overflow
        # Adam's second moment; the run must stop there rather than exit 0 with inf moments.
        config = valid_configs(workspace)["train"]
        shipped = json.loads((Path(__file__).resolve().parents[1] / "configs" / "train.json").read_text())
        config["spec"] = shipped["spec"]
        config["train"] = {"learning_rate": 1e10, "max_epochs": 10, "batch_points": 64}
        config_path = write_config(tmp_path / "train.json", config)
        assert run_cli(["train", "--config", config_path, "--seed", "0", "--out", str(tmp_path / "run")]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == (
            "error: TrainingDivergedError: training diverged at epoch 0: "
            "gradient in layer 0 is too large to square in float64\n"
        )
        assert not (tmp_path / "run").exists()


class TestEvalCommand:
    def test_saved_model_reproduces_in_process_evaluation(self, workspace):
        eval_config = write_config(
            workspace / "eval.json",
            {
                "model": "run/model.pkmlp",
                "scaler": "run/scaler.json",
                "data": {"dir": "data/test"},
            },
        )
        argv = ["eval", "--config", eval_config, "--out", str(workspace / "report")]
        assert run_cli(argv) == 0
        with open(workspace / "report" / "eval_report.json") as fh:
            report_from_cli = json.load(fh)

        spec, plans, params = load_params(workspace / "run" / "model.pkmlp")
        scaler = ScalerPair.from_dict(json.loads((workspace / "run" / "scaler.json").read_text()))
        dataset = load_dataset(workspace / "data" / "test")
        in_process = evaluate(params, plans, scaler, dataset)
        assert report_from_cli == in_process.to_dict()

    def test_predictions_as_ground_truth_give_perfect_report(self, workspace, tmp_path):
        spec, plans, params = load_params(workspace / "run" / "model.pkmlp")
        scaler = ScalerPair.from_dict(json.loads((workspace / "run" / "scaler.json").read_text()))
        dataset = load_dataset(workspace / "data" / "test")
        echoed = Dataset(
            tuple(
                Simulation(sim.name, sim.points, predict_simulation(params, plans, scaler, sim))
                for sim in dataset.simulations
            ),
            split_label="test",
        )
        write_dataset(echoed, tmp_path / "echo")
        eval_config = write_config(
            tmp_path / "eval.json",
            {
                "model": str(workspace / "run" / "model.pkmlp"),
                "scaler": str(workspace / "run" / "scaler.json"),
                "data": {"dir": str(tmp_path / "echo")},
            },
        )
        argv = ["eval", "--config", eval_config, "--out", str(tmp_path / "report")]
        assert run_cli(argv) == 0
        with open(tmp_path / "report" / "eval_report.json") as fh:
            report = json.load(fh)
        for key, value in report.items():
            if key.startswith("spearman"):
                assert value == 1.0, key
            else:
                assert value == 0.0, key

    def test_coefficients_csv_is_the_coefficient_table(self, workspace, tmp_path):
        config = write_config(
            workspace / "eval_table.json",
            {"model": "run/model.pkmlp", "scaler": "run/scaler.json", "data": {"dir": "data/test"}},
        )
        assert run_cli(["eval", "--config", config, "--out", str(tmp_path / "report")]) == 0
        dataset = load_dataset(workspace / "data" / "test")
        spec, plans, params = load_params(workspace / "run" / "model.pkmlp")
        scaler = ScalerPair.from_dict(json.loads((workspace / "run" / "scaler.json").read_text()))
        predictions = [predict_simulation(params, plans, scaler, sim) for sim in dataset.simulations]
        with open(tmp_path / "report" / "coefficients.csv", newline="") as fh:
            written = [(r[0], *map(float, r[1:])) for r in list(csv.reader(fh))[1:]]
        assert written == coefficient_table(predictions, dataset)

    def test_zero_reference_drag_gives_null_drag_metrics(self, workspace, tmp_path, capsys):
        # Drag-free potential flow: generator seed 7 gives test_0004 a reference drag of exactly 0.0.
        split = cylinder_dataset(6, surface_points=64, field_points=96, seed=7, split_label="test")
        write_dataset(split, tmp_path / "data")
        config = write_config(
            tmp_path / "eval.json",
            {
                "model": str(workspace / "run" / "model.pkmlp"),
                "scaler": str(workspace / "run" / "scaler.json"),
                "data": {"dir": str(tmp_path / "data")},
            },
        )
        assert run_cli(["eval", "--config", config, "--out", str(tmp_path / "report")]) == 0
        report = json.loads((tmp_path / "report" / "eval_report.json").read_text())
        assert report["mean_relative_drag"] is None and report["spearman_drag"] is None
        assert isinstance(report["mean_relative_lift"], float) and isinstance(report["spearman_lift"], float)
        assert capsys.readouterr().err.splitlines() == [
            "mean_relative_drag is null: reference drag is exactly 0.0 at: test_0004",
            "spearman_drag is null: reference drag is exactly 0.0 at: test_0004",
        ]

    def test_tied_coefficients_give_null_rank_correlations(self, workspace, tmp_path, capsys):
        # Two copies of one flow: each coefficient, referenced or predicted, is tied.
        sim = load_dataset(workspace / "data" / "test").simulations[0]
        copies = Dataset((sim, Simulation("copy", sim.points, sim.targets)), split_label="test")
        write_dataset(copies, tmp_path / "data")
        config = write_config(
            tmp_path / "eval.json",
            {
                "model": str(workspace / "run" / "model.pkmlp"),
                "scaler": str(workspace / "run" / "scaler.json"),
                "data": {"dir": str(tmp_path / "data")},
            },
        )
        assert run_cli(["eval", "--config", config, "--out", str(tmp_path / "report")]) == 0
        report = json.loads((tmp_path / "report" / "eval_report.json").read_text())
        assert report["spearman_drag"] is None and report["spearman_lift"] is None
        assert isinstance(report["mean_relative_drag"], float) and isinstance(report["mean_relative_lift"], float)
        with open(tmp_path / "report" / "coefficients.csv", newline="") as fh:
            rows = [tuple(map(float, r[1:])) for r in list(csv.reader(fh))[1:]]
        assert rows[0] == rows[1]
        drag_pred, drag_true, lift_pred, lift_true = rows[0]
        assert capsys.readouterr().err.splitlines() == [
            f"spearman_drag is null: reference drag is {drag_true!r} at every simulation; "
            f"predicted drag is {drag_pred!r} at every simulation",
            f"spearman_lift is null: reference lift is {lift_true!r} at every simulation; "
            f"predicted lift is {lift_pred!r} at every simulation",
        ]

    def test_coefficient_csv_schema(self, workspace):
        with open(workspace / "report" / "coefficients.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["sim", "drag_pred", "drag_true", "lift_pred", "lift_true"]


class TestCvCommand:
    def cv_config(self, workspace, path, k=2):
        return write_config(
            path,
            {
                "base_spec": {"num_estimators": 2, "alpha": 1, "gamma": 1, "hidden_widths": [8]},
                "train": {"learning_rate": 0.01, "max_epochs": 2, "batch_points": 64},
                "grid": [
                    {"dropout": False, "alpha": 1, "gamma": 1, "learning_rate": 0.01},
                    {"dropout": True, "alpha": 2, "gamma": 2, "learning_rate": 0.001},
                ],
                "k": k,
                "data": {"train_dir": str(workspace / "data" / "train")},
            },
        )

    def test_table_schema_and_fold_means(self, workspace, tmp_path):
        config = self.cv_config(workspace, tmp_path / "cv.json")
        assert run_cli(["cv", "--config", config, "--seed", "1", "--out", str(tmp_path / "cv_out")]) == 0
        with open(tmp_path / "cv_out" / "cv_results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dropout", "alpha", "gamma", "learning_rate", "validation_loss"]
        assert [r[:4] for r in rows[1:]] == [
            ["False", "1", "1", "0.01"],
            ["True", "2", "2", "0.001"],
        ]
        with open(tmp_path / "cv_out" / "cv_fold_losses.csv", newline="") as fh:
            fold_rows = list(csv.reader(fh))[1:]
        for row_index, summary in enumerate(rows[1:]):
            folds = [float(r[6]) for r in fold_rows if int(r[0]) == row_index]
            assert len(folds) == 2
            assert abs(float(summary[4]) - sum(folds) / len(folds)) <= 1e-12

    def test_deterministic_and_parallel_equivalent(self, workspace, tmp_path):
        config = self.cv_config(workspace, tmp_path / "cv.json")
        for name, jobs in (("one", "1"), ("two", "1"), ("par", "2")):
            argv = ["cv", "--config", config, "--seed", "5", "--jobs", jobs, "--out", str(tmp_path / name)]
            assert run_cli(argv) == 0
        for table in ("cv_results.csv", "cv_fold_losses.csv"):
            one = (tmp_path / "one" / table).read_bytes()
            assert one == (tmp_path / "two" / table).read_bytes()
            assert one == (tmp_path / "par" / table).read_bytes()

    @pytest.mark.parametrize(
        "k, fraction, where",
        [
            pytest.param(5, None, "the 4 training simulations, got 5", id="k-over-train-split"),
            pytest.param(5, 1.0, "the 4 training simulations, got 5", id="k-over-whole-subsample"),
            pytest.param(
                3, 0.5, "the 2 training simulations left by 'subsample_fraction' 0.5, got 3", id="k-over-subsample"
            ),
        ],
    )
    def test_k_over_simulation_count_is_validation_error(
        self, workspace, tmp_path, capsys, monkeypatch, k, fraction, where
    ):
        path = Path(self.cv_config(workspace, tmp_path / "cv.json", k=k))
        if fraction is not None:
            config = json.loads(path.read_text())
            config["subsample_fraction"] = fraction
            path.write_text(json.dumps(config))
        trained = []
        monkeypatch.setattr(cli, "cross_validate", lambda *args, **kwargs: trained.append(args))
        assert run_cli(["cv", "--config", str(path), "--out", str(tmp_path / "cv_out")]) == 2
        assert f"error: cv config: 'k' must not exceed {where}" in capsys.readouterr().err
        assert not (tmp_path / "cv_out").exists()
        assert trained == []

    def test_manifest_entry_outside_the_split_is_validation_error(self, workspace, tmp_path, capsys, monkeypatch):
        train_dir = tmp_path / "train"
        for split in ("train", "test"):
            shutil.copytree(workspace / "data" / split, tmp_path / split)
        manifest = json.loads((train_dir / "manifest.json").read_text())
        manifest["simulations"][0] = "../test/test_0000.csv"
        (train_dir / "manifest.json").write_text(json.dumps(manifest))
        path = Path(self.cv_config(workspace, tmp_path / "cv.json"))
        config = json.loads(path.read_text())
        config["data"]["train_dir"] = str(train_dir)
        path.write_text(json.dumps(config))
        monkeypatch.setattr(cli, "cross_validate", lambda *args, **kwargs: pytest.fail("trained"))
        assert run_cli(["cv", "--config", str(path), "--out", str(tmp_path / "cv_out")]) == 2
        err = capsys.readouterr().err
        assert f"{train_dir / 'manifest.json'}: entry '../test/test_0000.csv' must be one" in err
        assert not (tmp_path / "cv_out").exists()

    @pytest.mark.parametrize(
        "row, key, value, where",
        [
            pytest.param(0, "alpha", "two", "cv config: grid[0]: 'alpha'", id="alpha-word"),
            pytest.param(1, "gamma", None, "cv config: grid[1]: 'gamma'", id="gamma-null"),
            pytest.param(1, "learning_rate", "fast", "cv config: grid[1]: 'learning_rate'", id="lr-word"),
            pytest.param(1, "dropout", "false", "cv config: grid[1]: 'dropout'", id="dropout-string"),
            pytest.param(0, "dropout", 0, "cv config: grid[0]: 'dropout'", id="dropout-number"),
            pytest.param(None, "k", "four", "cv config: 'k'", id="k"),
            pytest.param(None, "subsample_fraction", [0.5], "cv config: 'subsample_fraction'", id="fraction"),
            pytest.param(0, "alpha", 0, "cv config: grid[0]: alpha must be >= 1", id="alpha-zero"),
            pytest.param(1, "gamma", 0, "cv config: grid[1]: gamma must be >= 1", id="gamma-zero"),
            pytest.param(1, "learning_rate", 0, "cv config: grid[1]: learning_rate must be", id="lr-zero"),
            pytest.param(None, "k", 1, "cv config: 'k' must be >= 2", id="k-one"),
            pytest.param(
                None, "subsample_fraction", 0, "cv config: 'subsample_fraction' must be in", id="fraction-0"
            ),
            pytest.param(
                None, "subsample_fraction", 1.5, "cv config: 'subsample_fraction' must be in", id="fraction>1"
            ),
        ],
    )
    def test_bad_grid_value_is_validation_error(
        self, workspace, tmp_path, capsys, monkeypatch, row, key, value, where
    ):
        path = Path(self.cv_config(workspace, tmp_path / "cv.json"))
        config = json.loads(path.read_text())
        (config if row is None else config["grid"][row])[key] = value
        path.write_text(json.dumps(config))
        loaded = []
        monkeypatch.setattr(cli, "load_dataset", loaded.append)
        assert run_cli(["cv", "--config", str(path), "--out", str(tmp_path / "cv_out")]) == 2
        assert f"error: {where}" in capsys.readouterr().err
        assert not (tmp_path / "cv_out").exists()
        assert loaded == []


class TestBenchCommand:
    def test_outputs_per_split(self, workspace, tmp_path):
        config = write_config(
            tmp_path / "bench.json",
            {
                "cases": [
                    {
                        "name": "packed",
                        "spec": {"num_estimators": 2, "alpha": 1, "gamma": 1, "hidden_widths": [8]},
                    },
                    {
                        "name": "ensemble",
                        "spec": {"num_estimators": 2, "alpha": 2, "gamma": 1, "hidden_widths": [8]},
                        "weight_decay": 1e-5,
                    },
                ],
                "train": {"learning_rate": 0.01, "max_epochs": 2, "batch_points": 64},
                "data": {
                    "train_dir": str(workspace / "data" / "train"),
                    "test_dir": str(workspace / "data" / "test"),
                    "test_ood_dir": str(workspace / "data" / "test_ood"),
                },
            },
        )
        argv = ["bench", "--config", config, "--seed", "2", "--out", str(tmp_path / "bench_out")]
        assert run_cli(argv) == 0
        for split in ("test", "test_ood"):
            assert (tmp_path / "bench_out" / f"bench_{split}.csv").exists()
            assert (tmp_path / "bench_out" / f"bench_{split}.txt").exists()
        with open(tmp_path / "bench_out" / "bench_test.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["packed", "ensemble"]

    def test_diverging_case_exits_1_and_keeps_the_other_rows(self, workspace, tmp_path, capsys):
        config = valid_configs(workspace)["bench"]
        config["cases"].append({"name": "diverges", "spec": SPEC, "learning_rate": 1e100})
        config["train"] = {**TRAIN, "max_epochs": 3}
        config_path = write_config(tmp_path / "bench.json", config)
        out = tmp_path / "bench_out"
        assert run_cli(["bench", "--config", config_path, "--seed", "2", "--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert printed.out == f"benchmarked 2 cases over splits ['test']; outputs in {out}\n"
        assert printed.err == "failed cases: ['diverges']\n"
        with open(out / "bench_test.csv", newline="") as fh:
            packed, diverges = csv.DictReader(fh)
        assert (packed["name"], packed["error"]) == ("packed", "")
        assert float(packed["mse_pressure"]) >= 0.0 and float(packed["final_train_loss"]) >= 0.0
        assert diverges["name"] == "diverges" and diverges["error"].startswith("TrainingDivergedError: ")
        assert diverges["mse_pressure"] == diverges["final_train_loss"] == ""


class TestExitCodes:
    def eval_with_scaler(self, workspace, tmp_path, text):
        scaler_path = tmp_path / "scaler.json"
        scaler_path.write_text(text)
        config = write_config(
            tmp_path / "eval.json",
            {
                "model": str(workspace / "run" / "model.pkmlp"),
                "scaler": str(scaler_path),
                "data": {"dir": str(workspace / "data" / "test")},
            },
        )
        code = run_cli(["eval", "--config", config, "--out", str(tmp_path / "report")])
        return code, scaler_path

    def test_nan_scaler_std_is_validation_error(self, workspace, tmp_path, capsys):
        scaler = json.loads((workspace / "run" / "scaler.json").read_text())
        scaler["target_std"][2] = float("nan")
        code, scaler_path = self.eval_with_scaler(workspace, tmp_path, json.dumps(scaler))
        assert code == 2
        err = capsys.readouterr().err
        assert str(scaler_path) in err and "target_std" in err
        assert not (tmp_path / "report").exists()

    def test_missing_scaler_key_is_validation_error(self, workspace, tmp_path, capsys):
        scaler = json.loads((workspace / "run" / "scaler.json").read_text())
        del scaler["target_std"]
        code, scaler_path = self.eval_with_scaler(workspace, tmp_path, json.dumps(scaler))
        assert code == 2
        err = capsys.readouterr().err
        assert str(scaler_path) in err and "'target_std'" in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("input_std", ["1.0"] * 7, id="string"),
            pytest.param("input_std", [True] * 7, id="boolean"),
            pytest.param("target_mean", [0.0, 0.0, False, 0.0], id="one-boolean"),
        ],
    )
    def test_mistyped_scaler_entry_is_validation_error(self, workspace, tmp_path, capsys, field, value):
        scaler = json.loads((workspace / "run" / "scaler.json").read_text())
        scaler[field] = value
        code, scaler_path = self.eval_with_scaler(workspace, tmp_path, json.dumps(scaler))
        assert code == 2
        assert f"error: {scaler_path}: '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_scaler_entry_of_the_wrong_length_is_validation_error(self, workspace, tmp_path, capsys):
        scaler = json.loads((workspace / "run" / "scaler.json").read_text())
        scaler["input_mean"] = scaler["input_mean"][:6]
        code, scaler_path = self.eval_with_scaler(workspace, tmp_path, json.dumps(scaler))
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {scaler_path}: input_mean must have shape (7,), got (6,)\n")
        assert not (tmp_path / "report").exists()

    def test_repeated_scaler_key_is_validation_error(self, workspace, tmp_path, capsys):
        text = (workspace / "run" / "scaler.json").read_text()
        repeated = text.replace("{", '{"target_std": [1.0, 1.0, 1.0, 1.0],', 1)
        code, scaler_path = self.eval_with_scaler(workspace, tmp_path, repeated)
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {scaler_path}: invalid JSON (repeated key 'target_std')\n")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "key, value", [("alpha", 2.9), ("dropout_enabled", "false"), ("hidden_widths", ["8"])]
    )
    def test_mistyped_model_spec_is_validation_error(self, workspace, tmp_path, capsys, key, value):
        model_path = tmp_path / "model.pkmlp"
        blob = (workspace / "run" / "model.pkmlp").read_bytes()
        model_path.write_bytes(with_spec(blob, lambda spec: {**spec, key: value}))
        config = write_config(
            tmp_path / "eval.json",
            {
                "model": str(model_path),
                "scaler": str(workspace / "run" / "scaler.json"),
                "data": {"dir": str(workspace / "data" / "test")},
            },
        )
        assert run_cli(["eval", "--config", config, "--out", str(tmp_path / "report")]) == 2
        assert f"error: {model_path}: byte 12: spec: '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda spec: list(spec), "spec: expected a JSON object", id="list"),
            pytest.param(
                lambda spec: {**spec, "in_features": 0},
                "spec: in_features and out_features must be positive",
                id="zero-in-features",
            ),
        ],
    )
    def test_model_spec_that_is_not_a_spec_is_validation_error(self, workspace, tmp_path, capsys, edit, message):
        model_path = tmp_path / "model.pkmlp"
        model_path.write_bytes(with_spec((workspace / "run" / "model.pkmlp").read_bytes(), edit))
        config = write_config(
            tmp_path / "eval.json",
            {
                "model": str(model_path),
                "scaler": str(workspace / "run" / "scaler.json"),
                "data": {"dir": str(workspace / "data" / "test")},
            },
        )
        assert run_cli(["eval", "--config", config, "--out", str(tmp_path / "report")]) == 2
        assert capsys.readouterr() == ("", f"error: {model_path}: byte 12: {message}\n")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "kind",
        [
            "under-12-bytes",
            "long-header",
            "header-not-utf8",
            "array",
            "no-plans",
            "repeated-key",
            "short-parameters",
            "format-version-2",
            "plans-disagree-with-spec",
            "format-version-true",
            "format-version-1.0",
            "plan-value-2.0",
            "unknown-header-key",
            "dropout-p-with-dropout-off",
        ],
    )
    def test_corrupt_model_file_is_validation_error(self, workspace, tmp_path, capsys, kind):
        corrupted, offset, message = corrupt_model((workspace / "run" / "model.pkmlp").read_bytes(), kind)
        model_path = tmp_path / "model.pkmlp"
        model_path.write_bytes(corrupted)
        config = write_config(
            tmp_path / "eval.json",
            {
                "model": str(model_path),
                "scaler": str(workspace / "run" / "scaler.json"),
                "data": {"dir": str(workspace / "data" / "test")},
            },
        )
        assert run_cli(["eval", "--config", config, "--out", str(tmp_path / "report")]) == 2
        assert f"error: {model_path}: byte {offset}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "manifest, message",
        [
            pytest.param(b"{not json", "invalid JSON (Expecting property name", id="invalid-json"),
            pytest.param(
                b'{"split_label": "test\xff", "simulations": ["sim.csv"]}',
                "invalid JSON ('utf-8' codec can't decode byte 0xff",
                id="not-utf8",
            ),
            pytest.param(b"[]", "top level must be a JSON object", id="not-object"),
            pytest.param(b'{"split_label": "test"}', "missing keys ['simulations']", id="missing-key"),
            pytest.param(
                b'{"split_label": "test", "simulations": ["sim.csv"], "simulation": ["sim.csv"]}',
                "unknown keys ['simulation']",
                id="unknown-key",
            ),
            pytest.param(
                b'{"split_label": "val", "simulations": ["sim.csv"]}', "split_label must be one of", id="unknown-split"
            ),
            pytest.param(b'{"split_label": "test", "simulations": []}', "'simulations' must be", id="empty-list"),
            pytest.param(b'{"split_label": "test", "simulations": 5}', "'simulations' must be", id="not-a-list"),
            pytest.param(
                b'{"split_label": "test", "simulations": ["sim.csv", "sim.csv"]}',
                "entry 'sim.csv' repeats the simulation name 'sim'",
                id="repeated",
            ),
            pytest.param(
                b'{"split_label": "test", "simulations": ["../sim.csv"]}',
                "entry '../sim.csv' must be one file-name component",
                id="parent-dir",
            ),
            pytest.param(
                b'{"split_label": "test", "simulations": ["DATA_DIR/sim.csv"]}',
                "entry 'DATA_DIR/sim.csv' must be one file-name component",
                id="absolute",
            ),
            pytest.param(
                b'{"split_label": "test", "split_label": "train", "simulations": ["sim.csv"]}',
                "invalid JSON (repeated key 'split_label')",
                id="repeated-key",
            ),
        ],
    )
    def test_malformed_manifest_is_validation_error(self, workspace, tmp_path, capsys, manifest, message):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        test_dir = workspace / "data" / "test"
        first = json.loads((test_dir / "manifest.json").read_text())["simulations"][0]
        shutil.copy(test_dir / first, data_dir / "sim.csv")
        shutil.copy(test_dir / first, tmp_path / "sim.csv")  # so an entry outside data_dir would load
        (data_dir / "manifest.json").write_bytes(manifest.replace(b"DATA_DIR", str(data_dir).encode()))
        config = write_config(
            tmp_path / "eval.json",
            {
                "model": str(workspace / "run" / "model.pkmlp"),
                "scaler": str(workspace / "run" / "scaler.json"),
                "data": {"dir": str(data_dir)},
            },
        )
        assert run_cli(["eval", "--config", config, "--out", str(tmp_path / "report")]) == 2
        message = message.replace("DATA_DIR", str(data_dir))
        assert f"error: {data_dir / 'manifest.json'}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "argv",
        [["train", "--jobs", "2"], ["gen", "--jobs", "1"], ["bench", "--jobs", "1"], ["eval", "--jobs", "1"],
         ["eval", "--seed", "0"]],
        ids=["train-jobs", "gen-jobs", "bench-jobs", "eval-jobs", "eval-seed"],
    )
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, tmp_path, capsys, argv):
        config = write_config(tmp_path / "config.json", {})
        assert run_cli([*argv, "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, error",
        [
            pytest.param("model", "Is a directory", id="model-is-directory"),
            pytest.param("scaler", "Is a directory", id="scaler-is-directory"),
            pytest.param("data", "Not a directory", id="data-dir-is-file"),
            pytest.param(None, "Is a directory", id="config-is-directory"),
        ],
    )
    def test_path_of_the_wrong_kind_is_validation_error(self, workspace, tmp_path, capsys, key, error):
        config = valid_configs(workspace)["eval"]
        if key == "data":
            config["data"]["dir"] = config["scaler"]
        elif key is not None:
            config[key] = str(tmp_path)
        config_path = str(tmp_path) if key is None else write_config(tmp_path / "eval.json", config)
        assert run_cli(["eval", "--config", config_path, "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and error in err
        assert (config["scaler"] if key == "data" else str(tmp_path)) in err
        assert not (tmp_path / "report").exists()

    def test_unscorable_prediction_exits_1_naming_the_simulation(self, workspace, tmp_path, capsys):
        # A finite field point far outside the training data: its squared error overflows float64.
        sim = eval_far_point(workspace, tmp_path, 1e300)
        error = capsys.readouterr().err
        assert f"error: ValueError: simulation '{sim.name}': prediction is non-finite" in error

    def test_prediction_overflowing_its_inverse_scaling_exits_1_naming_the_simulation(
        self, workspace, tmp_path, capsys
    ):
        # Farther still, the prediction overflows when scaled back to physical units; under
        # the suite's warnings-as-errors that overflow must not surface as a RuntimeWarning.
        sim = eval_far_point(workspace, tmp_path, 1e308)
        error = capsys.readouterr().err
        assert f"error: ValueError: simulation '{sim.name}': prediction is non-finite" in error

    def test_input_overflowing_its_standardization_exits_1_naming_the_simulation(self, workspace, tmp_path, capsys):
        # A tiny but positive input_std is a valid scaler; dividing by it overflows, and under
        # the suite's warnings-as-errors that overflow must not surface as a RuntimeWarning.
        scaler = json.loads((workspace / "run" / "scaler.json").read_text())
        scaler["input_std"][0] = 1e-320
        code, _ = self.eval_with_scaler(workspace, tmp_path, json.dumps(scaler))
        assert code == 1
        name = load_dataset(workspace / "data" / "test").simulations[0].name
        message = f"error: ValueError: simulation '{name}': inputs are too large for float64 once standardized\n"
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("split", ["sample", "two-row-blocks"])
    def test_model_whose_activations_overflow_exits_1_naming_the_simulation(
        self, workspace, tmp_path, capsys, pool_width, split
    ):
        # Finite weights scaled by 1e120 overflow float64 by the third layer, with inf - inf
        # in the same GEMM; no RuntimeWarning may surface, from a pool worker either.
        spec = PackedSpec(2, 2, 1, (8, 8))
        params = init_params(plan_layers(spec), 0)
        params.flat *= 1e120
        save_params(tmp_path / "model.pkmlp", spec, params)
        data_dir = workspace / "data" / "test"
        if split == "two-row-blocks":  # 2064 rows: forward deals two row blocks to two workers
            pool_width(2)
            data_dir = tmp_path / "data"
            large = cylinder_dataset(1, surface_points=64, field_points=2000, seed=5, split_label="test")
            write_dataset(large, data_dir)
        config = valid_configs(workspace)["eval"]
        config["model"], config["data"]["dir"] = str(tmp_path / "model.pkmlp"), str(data_dir)
        config_path = write_config(tmp_path / "eval.json", config)
        assert run_cli(["eval", "--config", config_path, "--out", str(tmp_path / "report")]) == 1
        name = load_dataset(data_dir).simulations[0].name
        message = f"error: ValueError: simulation '{name}': prediction is non-finite or too large to score\n"
        assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "report").exists()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_file(self, tmp_path, capsys):
        # Reported as a missing model, scaler or manifest is: by the OSError's own text.
        config = tmp_path / "absent.json"
        assert run_cli(["gen", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{config}'\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "gen.json", {"splits": GEN_SPLITS, "bogus": 1})
        assert run_cli(["gen", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_config_not_utf8_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        path.write_bytes(b'{"splits": "\xff"}')
        assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {path}: invalid JSON" in capsys.readouterr().err

    def test_runtime_failure_returns_one(self, workspace, tmp_path, capsys):
        config = write_config(
            tmp_path / "train.json",
            {
                "spec": {"num_estimators": 2, "alpha": 1, "gamma": 1, "hidden_widths": [8]},
                "train": {"learning_rate": 1e100, "max_epochs": 50, "batch_points": 16},
                "data": {"train_dir": str(workspace / "data" / "train")},
            },
        )
        assert run_cli(["train", "--config", config, "--seed", "0", "--out", str(tmp_path / "run")]) == 1
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.count("\n") == 1
        assert printed.err.startswith("error: TrainingDivergedError: training diverged at epoch ")
        assert not (tmp_path / "run").exists()

    def test_malformed_dataset_is_validation_error(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "manifest.json").write_text('{"split_label": "train", "simulations": ["bad.csv"]}')
        (data_dir / "bad.csv").write_text("x,y\n1,2\n")
        config = write_config(
            tmp_path / "train.json",
            {
                "spec": {"num_estimators": 2, "alpha": 1, "gamma": 1, "hidden_widths": [8]},
                "train": {"learning_rate": 0.01, "max_epochs": 1},
                "data": {"train_dir": str(data_dir)},
            },
        )
        assert run_cli(["train", "--config", config, "--seed", "0", "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            pytest.param(b"x,y,inlet_vx,inlet_vy,distance,nx,ny,vx,vy,p,nut\n0.\xe9", ": not UTF-8 at byte 51", id="not-utf8"),
            pytest.param(
                b"x,y,inlet_vx,inlet_vy,distance,nx,ny,vx,vy,p,nut,x\n" + b"0," * 11 + b"0\n",
                ", row 1, column 'x': duplicate column 'x'",
                id="duplicate-column",
            ),
            pytest.param(
                b"x,y,inlet_vx,inlet_vy,distance,nx,ny,vx,vy,p,nut\n" + b"1," * 3 + b'"1",' + b"1," * 6 + b"1\n",
                ", row 2, column 'inlet_vy': not a number: '\"1\"'",
                id="quoted-cell",
            ),
            pytest.param(
                b"x,y,inlet_vx,inlet_vy,distance,nx,ny,vx,vy,p,nut\n" + b"1," * 10 + b"1\r" + b"1," * 10 + b"1\r",
                ", row 2, column 'nut': not a number: '1\\r1'",
                id="lone-cr",
            ),
        ],
    )
    def test_malformed_simulation_csv_names_the_file(self, tmp_path, capsys, content, message):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "manifest.json").write_text('{"split_label": "train", "simulations": ["bad.csv"]}')
        (data_dir / "bad.csv").write_bytes(content)
        config = write_config(
            tmp_path / "train.json",
            {
                "spec": {"num_estimators": 2, "alpha": 1, "gamma": 1, "hidden_widths": [8]},
                "train": {"learning_rate": 0.01, "max_epochs": 1},
                "data": {"train_dir": str(data_dir)},
            },
        )
        assert run_cli(["train", "--config", config, "--seed", "0", "--out", str(tmp_path / "run")]) == 2
        assert f"error: {data_dir / 'bad.csv'}{message}" in capsys.readouterr().err


SPEC = {"num_estimators": 2, "alpha": 1, "gamma": 1, "hidden_widths": [8]}
TRAIN = {"learning_rate": 0.01, "max_epochs": 1, "batch_points": 64}


def valid_configs(workspace):
    """One valid config per subcommand, over the workspace's data and model."""
    data = workspace / "data"
    return {
        "gen": {"splits": GEN_SPLITS},
        "train": {"spec": SPEC, "train": TRAIN, "data": {"train_dir": str(data / "train")}},
        "cv": {
            "base_spec": SPEC,
            "train": TRAIN,
            "grid": [{"dropout": False, "alpha": 1, "gamma": 1, "learning_rate": 0.01}],
            "k": 2,
            "data": {"train_dir": str(data / "train")},
        },
        "eval": {
            "model": str(workspace / "run" / "model.pkmlp"),
            "scaler": str(workspace / "run" / "scaler.json"),
            "data": {"dir": str(data / "test")},
        },
        "bench": {
            "cases": [{"name": "packed", "spec": SPEC}],
            "train": TRAIN,
            "data": {"train_dir": str(data / "train"), "test_dir": str(data / "test")},
        },
    }


def fault(command, path, value, where):
    return pytest.param(command, path, value, where, id=f"{command}-{'.'.join(map(str, path))}-{value!r}")


@pytest.mark.parametrize(
    "command, path, value, where",
    [
        fault("gen", ("splits", "train", "num_sims"), None, "gen config: splits.train: 'num_sims'"),
        fault("gen", ("splits", "train", "num_sims"), 2.7, "gen config: splits.train: 'num_sims'"),
        fault("train", ("spec", "hidden_widths"), "64", "train config: spec: 'hidden_widths'"),
        fault("train", ("spec", "alpha"), 2.9, "train config: spec: 'alpha'"),
        fault("train", ("spec", "dropout_enabled"), "false", "train config: spec: 'dropout_enabled'"),
        fault("train", ("train", "max_epochs"), 1.5, "train config: train: 'max_epochs'"),
        fault("train", ("train", "early_stop_enabled"), "false", "train config: train: 'early_stop_enabled'"),
        fault("train", ("train", "learning_rate"), True, "train config: train: 'learning_rate'"),
        fault("train", ("train", "learning_rate"), "0.001", "train config: train: 'learning_rate'"),
        fault("cv", ("grid", 0, "alpha"), 2.5, "cv config: grid[0]: 'alpha'"),
        fault("bench", ("cases", 0, "learning_rate"), "fast", "bench config: cases[0]: 'learning_rate'"),
        fault("bench", ("cases", 0, "name"), 5, "bench config: cases[0]: 'name'"),
        fault("train", ("data", "train_dir"), 5, "train config: data: 'train_dir'"),
        fault("eval", ("data", "dir"), 5, "eval config: data: 'dir'"),
    ],
)
def test_wrong_json_type_is_validation_error(workspace, tmp_path, capsys, command, path, value, where):
    config = copy.deepcopy(valid_configs(workspace)[command])
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    config_path = write_config(tmp_path / f"{command}.json", config)
    assert run_cli([command, "--config", config_path, "--out", str(tmp_path / "out")]) == 2
    assert f"error: {where}: expected " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
VALID_SECTIONS = {
    PackedSpec: {**SPEC, "in_features": 7, "out_features": 4, "dropout_enabled": False},
    TrainConfig: {
        "learning_rate": 0.01,
        "weight_decay": 0.0,
        "max_epochs": 3,
        "batch_points": 64,
        "early_stop_enabled": True,
    },
    CylinderFlowConfig: {**GEN_SPLITS["test_ood"]},
    GridRow: {"dropout": True, "alpha": 2, "gamma": 2, "learning_rate": 0.001},
    BenchCase: {"name": "packed", "learning_rate": 0.01, "weight_decay": 0.0},
    ScalerPair: {
        "input_mean": [0.5] * 7,
        "input_std": [1.0] * 7,
        "target_mean": [0] * 4,  # JSON integers are numbers too
        "target_std": [2] * 4,
    },
}
# A bench case's spec is read by its own _read call, as _cmd_bench reads it, and given.
GIVEN = {
    TrainConfig: {"seed": 0},
    CylinderFlowConfig: {"seed": 0, "ood": False},
    BenchCase: {"spec": cli._read_spec(SPEC, "spec")},
}


def has_json_type(kind, value):
    """Whether ``value`` is a JSON value of the type the field annotation ``kind`` names."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:
        return number
    if kind is int:
        return number and isinstance(value, int)
    if kind in (bool, str):
        return isinstance(value, kind)
    return isinstance(value, list)


@pytest.mark.parametrize("cls", list(VALID_SECTIONS), ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_wrong_json_type_names_its_key(cls, data):
    section = VALID_SECTIONS[cls]
    assert set(section) == {f.name for f in dataclasses.fields(cls)} - set(GIVEN.get(cls, {}))
    assert isinstance(_read(cls, section, "section", **GIVEN.get(cls, {})), cls)
    name = data.draw(st.sampled_from(sorted(section)), label="key")
    kind = typing.get_type_hints(cls)[name]
    value = data.draw(JSON_VALUES.filter(lambda v: not has_json_type(kind, v)), label="value")
    with pytest.raises(ConfigError, match=f"^section: '{name}'"):
        _read(cls, {**section, name: value}, "section", **GIVEN.get(cls, {}))


class Reached(Exception):
    """Raised by a stub of a ``cli`` step: the checks before that step passed."""


def stub_reads(monkeypatch, *names):
    """Make each named ``cli`` step raise ``Reached``: a first read of data, flow or model, or a run."""

    def reached(*args, **kwargs):
        raise Reached(args)

    for name in names:
        monkeypatch.setattr(cli, name, reached)


@pytest.mark.parametrize("command", ["gen", "train", "eval", "cv", "bench"])
def test_shipped_config_is_accepted(tmp_path, monkeypatch, capsys, command):
    config = str(Path(__file__).resolve().parents[1] / "configs" / f"{command}.json")
    out = tmp_path / "out"
    if command == "gen":
        assert run_cli(["gen", "--config", config, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["test", "test_ood", "train"]
        return

    stub_reads(monkeypatch, "load_params" if command == "eval" else "load_dataset")
    assert run_cli([command, "--config", config, "--out", str(out)]) == 1
    assert "error: Reached: " in capsys.readouterr().err
    assert not out.exists()


def json_objects(value, path=()):
    """The path of every non-empty JSON object inside ``value``, ``value`` itself included."""
    if isinstance(value, dict) and value:
        yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for step, item in items:
        yield from json_objects(item, (*path, step))


def with_repeated_key(config, path, key, other, other_first):
    """JSON text of ``config`` whose object at ``path`` holds ``key`` twice: once with ``other``."""
    config = copy.deepcopy(config)
    obj = config
    for step in path:
        obj = obj[step]
    marker = "\0repeated"  # a key no config holds, renamed to ``key`` once dumped
    pairs = [(key, obj.pop(key)), (marker, other)]
    obj.update(pairs[::-1] if other_first else pairs)
    return json.dumps(config).replace(json.dumps(marker), json.dumps(key))


@pytest.mark.parametrize("command", ["gen", "train", "eval", "cv", "bench"])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_repeated_key_in_a_shipped_config_is_validation_error(tmp_path, monkeypatch, capsys, command, data):
    config = json.loads((Path(__file__).resolve().parents[1] / "configs" / f"{command}.json").read_text())
    path = data.draw(st.sampled_from(list(json_objects(config))), label="object")
    obj = config
    for step in path:
        obj = obj[step]
    key = data.draw(st.sampled_from(sorted(obj)), label="key")
    other = data.draw(st.just(obj[key]) | JSON_VALUES, label="other value")
    config_path = tmp_path / f"{command}.json"
    config_path.write_text(with_repeated_key(config, path, key, other, data.draw(st.booleans(), label="other first")))
    stub_reads(monkeypatch, "generate_cylinder_flow", "load_dataset", "load_params")
    assert run_cli([command, "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {config_path}: invalid JSON (repeated key {key!r})\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", [("-5.0", "1e-3"), ("1e-3", "-5.0")], ids=["valid-last", "valid-first"])
def test_repeated_config_key_is_validation_error(workspace, tmp_path, monkeypatch, capsys, values):
    # json keeps the last of repeated keys: either order would run on one value and ignore the other.
    text = json.dumps(valid_configs(workspace)["train"])
    repeated = text.replace('"learning_rate": 0.01', ", ".join(f'"learning_rate": {v}' for v in values))
    config_path = tmp_path / "train.json"
    config_path.write_text(repeated)
    stub_reads(monkeypatch, "load_dataset")
    assert run_cli(["train", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {config_path}: invalid JSON (repeated key 'learning_rate')\n")
    assert not (tmp_path / "out").exists()


def removed(command, path, key, value, where):
    return pytest.param(command, path, key, value, where, id=f"{command}-{'.'.join(map(str, path))}-{key}")


@pytest.mark.parametrize(
    "command, path, key, value, where",
    [
        removed("train", ("train",), "early_stop_threshold", 0.01, "train config: train"),
        removed("train", ("train",), "early_stop_window", 5, "train config: train"),
        removed("cv", ("train",), "early_stop_threshold", 0.01, "cv config: train"),
        removed("cv", ("train",), "early_stop_window", 5, "cv config: train"),
        removed("bench", ("train",), "early_stop_threshold", 0.01, "bench config: train"),
        removed("bench", ("train",), "early_stop_window", 5, "bench config: train"),
        removed("bench", ("train",), "early_stop_enabled", False, "bench config: train"),
        removed("train", ("spec",), "in_features", 7, "train config: spec"),
        removed("train", ("spec",), "out_features", 4, "train config: spec"),
        removed("cv", ("base_spec",), "in_features", 7, "cv config: base_spec"),
        removed("cv", ("base_spec",), "out_features", 4, "cv config: base_spec"),
        removed("cv", ("base_spec",), "dropout_enabled", False, "cv config: base_spec"),
        removed("bench", ("cases", 0, "spec"), "in_features", 7, "bench config: cases[0]: 'spec'"),
        removed("bench", ("cases", 0, "spec"), "out_features", 4, "bench config: cases[0]: 'spec'"),
        removed("gen", ("splits", "test_ood"), "ood", True, "gen config: splits.test_ood"),
    ],
)
def test_fixed_rule_is_not_a_config_key(workspace, tmp_path, monkeypatch, capsys, command, path, key, value, where):
    # Even the fixed value itself is rejected: the early-stop rule, bench's every-epoch runs,
    # the point schema's widths, cv's dropout (set by each grid row) and a gen split's shift
    # (from its name) are not settable.
    config = copy.deepcopy(valid_configs(workspace)[command])
    section = config
    for step in path:
        section = section[step]
    section[key] = value
    config_path = write_config(tmp_path / f"{command}.json", config)
    stub_reads(monkeypatch, "generate_cylinder_flow", "load_dataset")
    assert run_cli([command, "--config", config_path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {where}: unknown keys [{key!r}]\n")
    assert not (tmp_path / "out").exists()


def gen_split(**values):
    return {"splits": {"train": {**GEN_SPLITS["train"], **values}}}


def config_fault(command, edit, message, flags=()):
    return pytest.param(command, edit, message, flags, id=f"{command}-{message}")


@pytest.mark.parametrize(
    "command, edit, message, flags",
    [
        config_fault("train", {}, "--seed must be non-negative", ("--seed", "-1")),
        config_fault("cv", {}, "--jobs must be >= 1", ("--jobs", "0")),
        config_fault("gen", {"splits": {}}, "gen config: 'splits' must be a non-empty object"),
        config_fault(
            "gen",
            {"splits": {"val": GEN_SPLITS["test"]}},
            "gen config: splits.val: split name must be one of ('train', 'test', 'test_ood')",
        ),
        config_fault("gen", gen_split(num_sims=0), "gen config: splits.train: num_sims must be >= 1"),
        config_fault(
            "gen",
            gen_split(surface_points=2),
            "gen config: splits.train: surface_points and field_points must be >= 3",
        ),
        config_fault("gen", gen_split(radius_range=[0, 1]), "gen config: splits.train: radius_range must be positive"),
        config_fault(
            "gen",
            gen_split(radius_range=[2, 1]),
            "gen config: splits.train: radius_range must be a finite (lo, hi) pair with lo <= hi",
        ),
        config_fault(
            "gen",
            gen_split(radius_range=[0.5, 1.0, 2.0]),
            "gen config: splits.train: 'radius_range': expected a list of 2, got [0.5, 1.0, 2.0]",
        ),
        config_fault(
            "bench",
            {"cases": [{"name": "packed", "spec": SPEC}, {"name": "packed", "spec": SPEC}]},
            "bench config: case names must be unique",
        ),
        config_fault(
            "bench",
            {"cases": [{"name": "packed", "spec": SPEC}, ["packed"]]},
            "bench config: cases[1]: expected a JSON object",
        ),
        config_fault("cv", {"grid": []}, "cv config: 'grid' must be a non-empty list"),
        config_fault("train", {"data": ["data/train"]}, "train config: data: expected a JSON object"),
        config_fault("cv", {"train": 5}, "cv config: train: expected a JSON object"),
        config_fault("gen", {"splits": {"train": []}}, "gen config: splits.train: expected a JSON object"),
        # A path of the wrong type is found with its section's keys, before the spec and train sections,
        # and eval's scaler path with its model path, before the model file is opened.
        config_fault(
            "train",
            {"spec": {**SPEC, "alpha": 2.9}, "data": {"train_dir": 5}},
            "train config: data: 'train_dir': expected a string, got 5",
        ),
        config_fault(
            "cv",
            {"train": {**TRAIN, "max_epochs": -1}, "data": {"train_dir": [1]}},
            "cv config: data: 'train_dir': expected a string, got [1]",
        ),
        config_fault(
            "bench",
            {"train": {**TRAIN, "max_epochs": -1}, "data": {"train_dir": "data/train", "test_dir": None}},
            "bench config: data: 'test_dir': expected a string, got null",
        ),
        config_fault("eval", {"scaler": 5}, "eval config: 'scaler': expected a string, got 5"),
        config_fault("bench", {"cases": []}, "bench config: 'cases' must be a non-empty list"),
        config_fault(
            "gen",
            gen_split(inlet_speed_range=[0, 1]),
            "gen config: splits.train: inlet_speed_range must be positive",
        ),
        config_fault(
            "train",
            {"train": {**TRAIN, "max_epochs": -1}},
            "train config: train: max_epochs must be non-negative, got -1",
        ),
        config_fault(
            "train",
            {"train": {**TRAIN, "batch_points": 0}},
            "train config: train: batch_points must be positive, got 0",
        ),
    ],
)
def test_config_fault_exits_2_before_any_output(workspace, tmp_path, monkeypatch, capsys, command, edit, message, flags):
    config_path = write_config(tmp_path / f"{command}.json", {**valid_configs(workspace)[command], **edit})
    stub_reads(monkeypatch, "generate_cylinder_flow", "load_dataset", "load_params")
    before = directory_snapshot(tmp_path)
    assert run_cli([command, "--config", config_path, *flags, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert directory_snapshot(tmp_path) == before and not (tmp_path / "out").exists()


def test_bench_case_without_spec_names_the_missing_key(workspace, tmp_path, capsys):
    config = valid_configs(workspace)["bench"]
    config["cases"] = [{"name": "packed"}]
    config_path = write_config(tmp_path / "bench.json", config)
    assert run_cli(["bench", "--config", config_path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: bench config: cases[0]: missing keys ['spec']\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "out, named",
    [
        ("afile", "afile"),
        ("afile/sub", "afile"),
        ("dangling", "dangling"),
        ("dangling/sub", "dangling"),
        ("loop", "loop"),
        ("loop/sub", "loop"),
    ],
    ids=["file", "below-a-file", "dangling-link", "below-a-dangling-link", "link-loop", "below-a-link-loop"],
)
@pytest.mark.parametrize("command", ["gen", "train", "eval", "cv", "bench"])
def test_out_that_cannot_be_a_directory_is_validation_error(
    workspace, tmp_path, monkeypatch, capsys, command, out, named
):
    # A link that leads to no directory names the link, as mkdir would find it.
    config_path = write_config(tmp_path / f"{command}.json", valid_configs(workspace)[command])
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    stub_reads(monkeypatch, "generate_cylinder_flow", "load_dataset", "load_params")
    before = directory_snapshot(tmp_path), sorted(tmp_path.iterdir())
    assert run_cli([command, "--config", config_path, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr() == ("", f"error: --out {tmp_path / out}: {tmp_path / named} is not a directory\n")
    assert (directory_snapshot(tmp_path), sorted(tmp_path.iterdir())) == before
    assert not (tmp_path / "missing").exists()


def test_out_that_is_a_link_to_a_directory_is_accepted(workspace, tmp_path):
    (tmp_path / "target").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "target")
    config_path = write_config(tmp_path / "gen.json", {"splits": {"test": GEN_SPLITS["test"]}})
    assert run_cli(["gen", "--config", config_path, "--seed", "7", "--out", str(tmp_path / "link")]) == 0
    assert directory_snapshot(tmp_path / "target" / "test") == directory_snapshot(workspace / "data" / "test")


def test_out_below_new_directories_is_accepted(workspace, tmp_path, monkeypatch, capsys):
    config_path = write_config(tmp_path / "train.json", valid_configs(workspace)["train"])
    stub_reads(monkeypatch, "load_dataset")
    assert run_cli(["train", "--config", config_path, "--out", str(tmp_path / "new" / "deeper")]) == 1
    assert "error: Reached: " in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("name", ["", ".", "..", "../../escaped", "sub/dir", "sub\\dir", "nul\0"])
def test_bench_case_name_that_is_not_one_file_name_component_is_validation_error(
    workspace, tmp_path, monkeypatch, capsys, name
):
    config = valid_configs(workspace)["bench"]
    config["cases"].append({"name": name, "spec": SPEC})
    config_path = write_config(tmp_path / "bench.json", config)
    stub_reads(monkeypatch, "load_dataset")
    before = directory_snapshot(tmp_path)
    assert run_cli(["bench", "--config", config_path, "--out", str(tmp_path / "a" / "b")]) == 2
    message = f"error: bench config: cases[1]: name {name!r} must be one file-name component\n"
    assert capsys.readouterr() == ("", message)
    assert directory_snapshot(tmp_path) == before and not (tmp_path / "a").exists()


@pytest.mark.parametrize("setting, value, message", [
    ("learning_rate", 0, "learning_rate must be positive, got 0.0"),
    ("weight_decay", -1e-05, "weight_decay must be non-negative, got -1e-05"),
])
def test_bench_case_optimizer_setting_is_checked_when_the_config_is_read(
    workspace, tmp_path, monkeypatch, capsys, setting, value, message
):
    config = valid_configs(workspace)["bench"]
    config["cases"].append({"name": "bad", "spec": SPEC, setting: value})
    config_path = write_config(tmp_path / "bench.json", config)
    stub_reads(monkeypatch, "load_dataset")
    before = directory_snapshot(tmp_path)
    assert run_cli(["bench", "--config", config_path, "--seed", "0", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: bench config: cases[1]: {message}\n")
    assert directory_snapshot(tmp_path) == before and not (tmp_path / "out").exists()


@pytest.mark.parametrize("in_features, out_features", [(5, 4), (7, 3)])
def test_model_of_other_widths_than_the_point_schema_is_validation_error(
    workspace, tmp_path, monkeypatch, capsys, in_features, out_features
):
    spec = PackedSpec(2, 1, 1, (8,), in_features=in_features, out_features=out_features)
    model_path = tmp_path / "model.pkmlp"
    save_params(model_path, spec, init_params(plan_layers(spec), 0))
    config = valid_configs(workspace)["eval"]
    config["model"] = str(model_path)
    config_path = write_config(tmp_path / "eval.json", config)
    stub_reads(monkeypatch, "load_dataset")
    before = directory_snapshot(tmp_path)
    assert run_cli(["eval", "--config", config_path, "--out", str(tmp_path / "report")]) == 2
    message = (
        f"error: {model_path}: the model maps {in_features} inputs to {out_features} targets, "
        "the point schema has 7 inputs and 4 targets\n"
    )
    assert capsys.readouterr() == ("", message)
    assert directory_snapshot(tmp_path) == before and not (tmp_path / "report").exists()


def test_model_with_a_non_finite_parameter_is_validation_error(workspace, tmp_path, monkeypatch, capsys):
    blob = bytearray((workspace / "run" / "model.pkmlp").read_bytes())
    (h,) = struct.unpack_from("<I", blob, 8)
    offset = 12 + h + 8 * 5  # the 6th parameter value, a layer 0 weight
    blob[offset : offset + 8] = struct.pack("<d", float("nan"))
    model_path = tmp_path / "model.pkmlp"
    model_path.write_bytes(bytes(blob))
    config = valid_configs(workspace)["eval"]
    config["model"] = str(model_path)
    config_path = write_config(tmp_path / "eval.json", config)
    stub_reads(monkeypatch, "load_dataset")
    before = directory_snapshot(tmp_path)
    assert run_cli(["eval", "--config", config_path, "--out", str(tmp_path / "report")]) == 2
    message = f"error: {model_path}: byte {offset}: layer 0: non-finite parameter value\n"
    assert capsys.readouterr() == ("", message)
    assert directory_snapshot(tmp_path) == before and not (tmp_path / "report").exists()


def test_console_script_is_the_cli_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module_name, _, attr = pyproject["project"]["scripts"]["packedflow"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is run_cli


UNSCORABLE = {
    "two-surface-points": (two_surface_points, "need at least 3 surface points, have 2"),
    "coincident": (coincident_surface_points, "coincident surface points, segment lengths must be positive"),
    "zero-inlet-speed": (zero_inlet_speed, "zero inlet speed, coefficients undefined"),
    "inlet-velocity-differs": (first_inlet_doubled, "inlet velocity differs between points"),
}


@pytest.mark.parametrize("fault", list(UNSCORABLE))
@pytest.mark.parametrize(
    "command, key, first_run",
    [("eval", "dir", "predict_simulation"), ("bench", "test_dir", "run_benchmark")],
    ids=["eval", "bench"],
)
def test_split_that_cannot_be_scored_is_validation_error(
    workspace, tmp_path, monkeypatch, capsys, command, key, first_run, fault
):
    # Checked as soon as the split is read: no model runs, no case trains, nothing is written.
    make, message = UNSCORABLE[fault]
    dataset = load_dataset(workspace / "data" / "test")
    sim = make(dataset.simulations[1])
    split_dir = tmp_path / "split"
    write_dataset(Dataset((dataset.simulations[0], sim), split_label="test"), split_dir)
    config = valid_configs(workspace)[command]
    config["data"][key] = str(split_dir)
    config_path = write_config(tmp_path / f"{command}.json", config)
    stub_reads(monkeypatch, first_run)
    before = directory_snapshot(tmp_path)
    assert run_cli([command, "--config", config_path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {split_dir}: simulation '{sim.name}': {message}\n")
    assert directory_snapshot(tmp_path) == before and not (tmp_path / "out").exists()


def test_gen_ranges_that_make_a_flow_non_finite_are_validation_error(tmp_path, monkeypatch, capsys):
    # Under this suite's warnings-as-errors, a numpy overflow warning would fail the run too.
    splits = copy.deepcopy(GEN_SPLITS)
    splits["train"].update(radius_range=[1e200, 1e200], inlet_speed_range=[1e200, 1e200])
    config_path = write_config(tmp_path / "gen.json", {"splits": splits})
    stub_reads(monkeypatch, "write_dataset")
    before = directory_snapshot(tmp_path)
    assert run_cli(["gen", "--config", config_path, "--seed", "7", "--out", str(tmp_path / "out")]) == 2
    message = "error: gen config: splits.train: simulation 'train_0000' contains non-finite values\n"
    assert capsys.readouterr() == ("", message)
    assert directory_snapshot(tmp_path) == before and not (tmp_path / "out").exists()
