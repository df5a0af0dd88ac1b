"""Benchmark harness: timing contract, parameter-count structure, report files."""

import csv
import os
import re

import pytest
from helpers import cylinder_dataset, field_dataset

from packedflow import bench as bench_module
from packedflow.bench import BenchCase, machine_descriptor, run_benchmark, time_training, write_benchmark
from packedflow.data import fit_scaler
from packedflow.metrics import EvalReport
from packedflow.packed_net import PackedSpec, param_count, plan_layers
from packedflow.training import TrainConfig, TrainHistory

DEEP_THIN = (64, 64, 8, 64, 64, 64, 8, 64, 64)

GOLDEN_CSV = (
    b"name,layers,num_estimators,alpha,gamma,dropout,learning_rate,weight_decay,param_count,"
    b"train_seconds,final_train_loss,mse_x_velocity,mse_y_velocity,mse_pressure,"
    b"mse_surface_pressure,mse_turbulent_viscosity,mean_relative_drag,mean_relative_lift,"
    b"spearman_drag,spearman_lift,error\r\n"
    b"tiny,(8),2,1,1,False,0.01,0.0,104,0.75,0.5,0.5,0.25,0.3333333333333333,2e-07,0.30000000000000004,"
    b"12.5,0.03125,0.8,-0.4,\r\n"
    b'wide,"(8,4)",2,2,1,True,0.001,1e-05,240,1.125,0.30000000000000004,1e-05,3.0,0.125,4.0,0.0,'
    b"1234567.0,0.5,,1.0,\r\n"
    b'broken,(8),4,1,2,False,0.5,0.0,112,0.0,,,,,,,,,,,"ValueError: bad spec, no features"\r\n'
)
GOLDEN_TABLE = """\
evaluation split: test
model   layers  M  alpha  gamma  dropout  lr     weight decay  params  train seconds  mean relative drag  \
mean relative lift  Spearman's correlation for drag  Spearman's correlation for lift
tiny    (8)     2  1      1      False    0.01   0             104     0.750          12.5                \
0.03125             0.8                              -0.4
wide    (8,4)   2  2      1      True     0.001  1e-05         240     1.125          1.235e+06           \
0.5                 -                                1
broken  (8)     4  1      2      False    0.5    0             112     0.000          -                   \
-                   -                                -
"""


def hidden_weight_count(spec):
    return sum(
        p.groups * p.per_group_out * p.per_group_in
        for p in plan_layers(spec)
        if p.role == "hidden"
    )


class TestParamCountStructure:
    def test_deep_ensemble_equivalent_is_m_times_dense(self):
        dense = param_count(plan_layers(PackedSpec(1, 1, 1, DEEP_THIN)))
        packed = param_count(plan_layers(PackedSpec(8, 8, 1, DEEP_THIN)))
        assert packed == 8 * dense

    def test_half_capacity_hidden_weights_are_exactly_one_quarter(self):
        quarter = hidden_weight_count(PackedSpec(8, 4, 1, DEEP_THIN))
        full = hidden_weight_count(PackedSpec(8, 8, 1, DEEP_THIN))
        assert 4 * quarter == full

    def test_count_strictly_increasing_in_alpha(self):
        counts = [
            param_count(plan_layers(PackedSpec(4, alpha, 2, (48, 128, 48))))
            for alpha in (1, 2, 3, 4, 6)
        ]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_count_non_increasing_in_gamma(self):
        counts = [
            param_count(plan_layers(PackedSpec(4, 4, gamma, (48, 128, 48))))
            for gamma in (1, 2, 4)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestBenchCase:
    @pytest.mark.parametrize("name", ["", ".", "..", "../../escaped", "sub/dir", "sub\\dir", "nul\0"])
    def test_name_must_be_one_file_name_component(self, name):
        with pytest.raises(ValueError, match=f"^name {re.escape(repr(name))} must be one file-name component$"):
            BenchCase(name, PackedSpec(2, 1, 1, (8,)), learning_rate=0.01)

    @pytest.mark.parametrize("name", ["half_capacity", "deep_ensemble_equivalent", "pe.8", "...", "a b"])
    def test_one_file_name_component_is_a_name(self, name):
        assert BenchCase(name, PackedSpec(2, 1, 1, (8,)), learning_rate=0.01).name == name


class TestTimeTraining:
    def test_contract(self):
        dataset = field_dataset(3, num_points=40, seed=0)
        spec = PackedSpec(2, 1, 1, (8,))
        cfg = TrainConfig(learning_rate=0.01, max_epochs=3, batch_points=64, seed=1)
        seconds, params, history = time_training(spec, cfg, dataset, fit_scaler(dataset))
        assert seconds > 0.0
        assert history.num_epochs == 3
        assert sum(history.wall_seconds) == seconds

    def test_losses_identical_across_repeats(self):
        dataset = field_dataset(3, num_points=40, seed=0)
        spec = PackedSpec(2, 1, 1, (8,))
        cfg = TrainConfig(learning_rate=0.01, max_epochs=3, batch_points=64, seed=1)
        _, _, first = time_training(spec, cfg, dataset, fit_scaler(dataset))
        _, _, second = time_training(spec, cfg, dataset, fit_scaler(dataset))
        assert first.train_loss == second.train_loss

    def test_early_stop_rejected(self):
        dataset = field_dataset(3, num_points=10, seed=0)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=2, seed=0, early_stop_enabled=True)
        with pytest.raises(ValueError, match="early_stop"):
            time_training(PackedSpec(2, 1, 1, (8,)), cfg, dataset, fit_scaler(dataset))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    train_split = cylinder_dataset(3, surface_points=16, field_points=16, seed=2)
    test_split = cylinder_dataset(4, surface_points=16, field_points=16, seed=9, split_label="test")
    cases = [
        BenchCase("tiny", PackedSpec(2, 1, 1, (8,)), learning_rate=0.01),
        BenchCase("wide", PackedSpec(2, 2, 1, (8,)), learning_rate=0.01, weight_decay=1e-5),
        BenchCase("broken", PackedSpec(2, 1, 1, (8,), in_features=6), learning_rate=0.01),
    ]
    cfg = TrainConfig(learning_rate=0.01, max_epochs=2, batch_points=64, seed=5)
    report = run_benchmark(cases, cfg, train_split, {"test": test_split})
    out_dir = tmp_path_factory.mktemp("bench")
    write_benchmark(report, out_dir)
    return report, out_dir


class TestRunBenchmark:

    def test_rows_in_case_order_with_metrics(self, outputs):
        report, _ = outputs
        assert [row.case.name for row in report.rows] == ["tiny", "wide", "broken"]
        for row in report.rows[:2]:
            assert row.error is None
            assert row.train_seconds > 0.0
            assert "test" in row.reports
        assert report.rows[1].param_count > report.rows[0].param_count

    def test_failed_row_recorded_and_rest_continue(self, outputs):
        report, _ = outputs
        broken = report.rows[2]
        assert broken.error is not None and "features" in broken.error
        assert report.rows[1].error is None

    def test_early_stopping_config_fails_every_row(self):
        split = cylinder_dataset(3, surface_points=16, field_points=16, seed=2)
        cases = [
            BenchCase("tiny", PackedSpec(2, 1, 1, (8,)), learning_rate=0.01),
            BenchCase("wide", PackedSpec(2, 2, 1, (8,)), learning_rate=0.01),
        ]
        cfg = TrainConfig(learning_rate=0.01, max_epochs=2, batch_points=64, seed=5, early_stop_enabled=True)
        report = run_benchmark(cases, cfg, split, {"test": split})
        expected = "ValueError: benchmark timing requires early_stop_enabled=False"
        assert [row.error for row in report.rows] == [expected, expected]
        assert all(row.history is None and not row.reports for row in report.rows)

    def test_csv_columns_include_physics_metrics(self, outputs):
        _, out_dir = outputs
        with open(out_dir / "bench_test.csv", newline="") as fh:
            header = next(csv.reader(fh))
        for column in (
            "param_count",
            "train_seconds",
            "mean_relative_drag",
            "mean_relative_lift",
            "spearman_drag",
            "spearman_lift",
        ):
            assert column in header

    def test_text_table_has_table_style_headers(self, outputs):
        _, out_dir = outputs
        text = (out_dir / "bench_test.txt").read_text()
        for name in (
            "mean relative drag",
            "mean relative lift",
            "Spearman's correlation for drag",
            "Spearman's correlation for lift",
        ):
            assert name in text

    def test_machine_and_logs_written(self, outputs):
        report, out_dir = outputs
        assert (out_dir / "machine.json").exists()
        assert (out_dir / "logs" / "tiny_history.csv").exists()
        assert not (out_dir / "logs" / "broken_history.csv").exists()
        descriptor = machine_descriptor()
        assert descriptor["cpu_count"] >= 1

    def test_machine_records_the_worker_threads(self, pool_width):
        assert machine_descriptor()["worker_threads"] == len(os.sched_getaffinity(0))
        pool_width(3)
        assert machine_descriptor()["worker_threads"] == 3

    def test_report_regeneration_is_bit_identical(self, outputs, tmp_path):
        report, out_dir = outputs
        write_benchmark(report, tmp_path / "again")
        original = (out_dir / "bench_test.csv").read_bytes()
        regenerated = (tmp_path / "again" / "bench_test.csv").read_bytes()
        assert original == regenerated


class TestWriteBenchmarkGolden:
    """Both report files, byte for byte, from fixed histories and fixed metric reports."""

    CASES = [
        BenchCase("tiny", PackedSpec(2, 1, 1, (8,)), learning_rate=0.01),
        BenchCase(
            "wide", PackedSpec(2, 2, 1, (8, 4), dropout_enabled=True), learning_rate=0.001, weight_decay=1e-5
        ),
        BenchCase("broken", PackedSpec(4, 1, 2, (8,)), learning_rate=0.5),
    ]
    HISTORIES = {
        "tiny": TrainHistory([0.75, 0.5], None, [0.25, 0.5]),
        "wide": TrainHistory([2.0, 0.1 + 0.2], [1.5, 0.25], [1.0, 0.125]),
    }
    REPORTS = {
        "tiny": EvalReport(0.5, 0.25, 1.0 / 3.0, 2e-07, 0.1 + 0.2, 12.5, 0.03125, 0.8, -0.4),
        "wide": EvalReport(1e-05, 3.0, 0.125, 4.0, 0.0, 1234567.0, 0.5, None, 1.0),
    }

    @pytest.fixture
    def out_dir(self, monkeypatch, tmp_path):
        names = {case.spec: case.name for case in self.CASES}

        def fake_time_training(spec, cfg, dataset, scaler):
            if names[spec] == "broken":
                raise ValueError("bad spec, no features")
            history = self.HISTORIES[names[spec]]
            return sum(history.wall_seconds), names[spec], history

        # The fake "params" is the case name, so evaluate can look up its report.
        monkeypatch.setattr(bench_module, "time_training", fake_time_training)
        monkeypatch.setattr(bench_module, "evaluate", lambda params, plans, scaler, ds: self.REPORTS[params])
        split = cylinder_dataset(3, surface_points=8, field_points=8, seed=2)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=2, batch_points=64, seed=5)
        write_benchmark(run_benchmark(self.CASES, cfg, split, {"test": split}), tmp_path)
        return tmp_path

    def test_csv(self, out_dir):
        assert (out_dir / "bench_test.csv").read_bytes() == GOLDEN_CSV

    def test_text_table(self, out_dir):
        assert (out_dir / "bench_test.txt").read_bytes().decode() == GOLDEN_TABLE
