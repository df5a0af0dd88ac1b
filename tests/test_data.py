"""Data layer: CSV parsing, scalers, folds, subsampling, and the flow generator."""

import json

import numpy as np
import pytest
from helpers import field_dataset, field_simulation
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from packedflow import data
from packedflow.data import (
    CylinderFlowConfig,
    Dataset,
    ScalerPair,
    Simulation,
    SimulationParseError,
    apply_scaler,
    bernoulli_pressure,
    cylinder_velocity,
    fit_scaler,
    generate_cylinder_flow,
    kfold_split,
    load_dataset,
    load_simulation,
    subsample,
    write_dataset,
    write_simulation,
)

HEADER = "x,y,inlet_vx,inlet_vy,distance,nx,ny,vx,vy,p,nut"


def small_flow_config(**overrides):
    base = dict(
        num_sims=3,
        surface_points=16,
        field_points=24,
        radius_range=(0.5, 1.0),
        inlet_speed_range=(5.0, 15.0),
        circulation_range=(-4.0, 4.0),
        seed=0,
        ood=False,
    )
    base.update(overrides)
    return CylinderFlowConfig(**base)


class TestSimulationInvariants:
    def test_accepts_valid(self):
        sim = field_simulation("ok", 5, 0)
        assert sim.num_points == 5
        assert not sim.surface_mask.any()

    def test_rejects_non_finite(self):
        sim = field_simulation("ok", 5, 0)
        points = sim.points.copy()
        points[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Simulation("bad", points, sim.targets)

    def test_rejects_negative_distance(self):
        sim = field_simulation("ok", 5, 0)
        points = sim.points.copy()
        points[2, 4] = -0.1
        with pytest.raises(ValueError, match="distance"):
            Simulation("bad", points, sim.targets)

    def test_rejects_surface_point_with_distance(self):
        sim = field_simulation("ok", 5, 0)
        points = sim.points.copy()
        points[1, 5:7] = (1.0, 0.0)  # on surface but distance stays > 0
        with pytest.raises(ValueError, match="surface"):
            Simulation("bad", points, sim.targets)

    def test_rejects_non_unit_normals(self):
        sim = field_simulation("ok", 5, 0)
        points = sim.points.copy()
        points[1, 4] = 0.0
        points[1, 5:7] = (0.5, 0.5)
        with pytest.raises(ValueError, match="unit norm"):
            Simulation("bad", points, sim.targets)

    def test_dataset_rejects_duplicate_names(self):
        sim = field_simulation("dup", 4, 0)
        with pytest.raises(ValueError, match="duplicate"):
            Dataset((sim, sim), split_label="train")


class TestSimulationCsv:
    def test_parses_two_rows(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            HEADER + "\n"
            "0.0,1.0,10.0,0.0,0.5,0.0,0.0,9.5,0.1,2.5,0.01\n"
            "1.0,0.0,10.0,0.0,0.0,1.0,0.0,0.0,0.0,50.0,0.0\n"
        )
        sim = load_simulation(path)
        assert sim.num_points == 2
        assert sim.name == "two"
        np.testing.assert_allclose(sim.points[0], [0.0, 1.0, 10.0, 0.0, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(sim.targets[1], [0.0, 0.0, 50.0, 0.0])
        assert sim.surface_mask.tolist() == [False, True]

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("x,y,inlet_vx,inlet_vy,distance,nx,ny,vx,vy,p\n" + "0," * 9 + "0\n")
        with pytest.raises(SimulationParseError, match="'nut'") as err:
            load_simulation(path)
        assert err.value.column == "nut"

    def test_extra_column_rejected(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(HEADER + ",bogus\n" + "0," * 11 + "0\n")
        with pytest.raises(SimulationParseError, match="bogus"):
            load_simulation(path)

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            HEADER + "\n"
            "0.0,1.0,10.0,0.0,0.5,0.0,0.0,9.5,0.1,2.5,0.01\n"
            "0.0,1.0,10.0,oops,0.5,0.0,0.0,9.5,0.1,2.5,0.01\n"
        )
        with pytest.raises(SimulationParseError, match="row 3") as err:
            load_simulation(path)
        assert err.value.row == 3
        assert err.value.column == "inlet_vy"

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text(HEADER + "\n0.0,1.0,inf,0.0,0.5,0.0,0.0,9.5,0.1,2.5,0.01\n")
        with pytest.raises(SimulationParseError, match="non-finite"):
            load_simulation(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SimulationParseError, match="empty"):
            load_simulation(path)

    def test_round_trip(self, tmp_path):
        source = field_simulation("round", 20, 3)
        write_simulation(source, tmp_path / "round.csv")
        loaded = load_simulation(tmp_path / "round.csv")
        np.testing.assert_allclose(loaded.points, source.points, rtol=0, atol=1e-12)
        np.testing.assert_allclose(loaded.targets, source.targets, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_round_trip_bit_exact_property(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 12), label="points")
        values = data.draw(arrays(np.float64, (n, 11), elements=st.floats(allow_nan=False, allow_infinity=False)))
        on_surface = data.draw(arrays(np.bool_, n), label="on_surface")
        angle = data.draw(arrays(np.float64, n, elements=st.floats(-np.pi, np.pi)), label="angle")
        points = values[:, :7].copy()
        points[:, 4] = np.where(on_surface, 0.0, np.abs(points[:, 4]))
        points[:, 5] = np.where(on_surface, np.cos(angle), 0.0)
        points[:, 6] = np.where(on_surface, np.sin(angle), 0.0)
        source = Simulation("round", points, values[:, 7:])
        path = tmp_path_factory.mktemp("sim") / "round.csv"
        write_simulation(source, path)
        loaded = load_simulation(path)
        assert loaded.name == "round"
        assert loaded.points.tobytes() == source.points.tobytes()
        assert loaded.targets.tobytes() == source.targets.tobytes()

    def test_dataset_round_trip(self, tmp_path):
        dataset = field_dataset(3, num_points=6, seed=1, split_label="test")
        write_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.split_label == "test"
        assert [s.name for s in loaded.simulations] == [s.name for s in dataset.simulations]
        for a, b in zip(loaded.simulations, dataset.simulations):
            np.testing.assert_allclose(a.points, b.points, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "entries, repeated, stem",
        [
            (["test_000.csv", "test_001.csv", "test_000.csv"], "test_000.csv", "test_000"),
            (["test_001.csv", "copy/test_001.csv"], "copy/test_001.csv", "test_001"),
        ],
    )
    def test_repeated_manifest_entry_rejected_before_reading(
        self, tmp_path, monkeypatch, entries, repeated, stem
    ):
        write_dataset(field_dataset(2, num_points=6, split_label="test"), tmp_path / "ds")
        manifest_path = tmp_path / "ds" / "manifest.json"
        manifest_path.write_text(json.dumps({"split_label": "test", "simulations": entries}))

        def no_csv_reads(path):
            raise AssertionError(f"read {path} before the manifest was checked")

        monkeypatch.setattr(data, "load_simulation", no_csv_reads)
        with pytest.raises(SimulationParseError) as info:
            load_dataset(tmp_path / "ds")
        assert str(info.value).startswith(f"{manifest_path}: ")
        assert f"entry {repeated!r} repeats the simulation name {stem!r}" in str(info.value)


class TestScaler:
    def test_two_point_channel(self):
        points = np.zeros((2, 7))
        points[:, 0] = [0.0, 2.0]
        points[:, 2] = 10.0
        points[:, 4] = 1.0
        sim = Simulation("s", points, np.zeros((2, 4)))
        scaler = fit_scaler(Dataset((sim,), "train"))
        assert scaler.input_mean[0] == 1.0
        assert scaler.input_std[0] == 1.0  # population std of {0, 2}

    def test_constant_channel_clamped(self):
        dataset = field_dataset(2, num_points=5, seed=0)
        scaler = fit_scaler(dataset)
        assert scaler.input_mean[2] == 10.0  # constant inlet_vx channel
        assert scaler.input_std[2] == 1.0
        transformed = apply_scaler(scaler, dataset.simulations[0].points, "forward", "inputs")
        assert np.all(transformed[:, 2] == 0.0)

    def test_pooled_statistics_match_concatenation(self):
        dataset = field_dataset(2, num_points=7, seed=5)
        scaler = fit_scaler(dataset)
        pooled = np.vstack([s.points for s in dataset.simulations])
        np.testing.assert_allclose(scaler.input_mean, pooled.mean(axis=0), rtol=0, atol=1e-15)
        np.testing.assert_allclose(scaler.input_std[:2], pooled.std(axis=0)[:2], rtol=0, atol=1e-15)

    def test_forward_then_inverse_is_identity(self):
        dataset = field_dataset(2, num_points=9, seed=2)
        scaler = fit_scaler(dataset)
        rng = np.random.default_rng(0)
        data = rng.normal(scale=100.0, size=(11, 4))
        back = apply_scaler(
            scaler, apply_scaler(scaler, data, "forward", "targets"), "inverse", "targets"
        )
        np.testing.assert_allclose(back, data, rtol=0, atol=1e-9)

    def test_transformed_training_data_standardized(self):
        dataset = field_dataset(3, num_points=50, seed=4)
        scaler = fit_scaler(dataset)
        pooled = np.vstack([s.points for s in dataset.simulations])
        transformed = apply_scaler(scaler, pooled, "forward", "inputs")
        varying = [0, 1, 4]  # position and distance channels carry spread
        np.testing.assert_allclose(transformed[:, varying].mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(transformed[:, varying].std(axis=0), 1.0, atol=1e-9)

    def test_zero_output_inverts_to_target_mean(self):
        dataset = field_dataset(2, num_points=9, seed=6)
        scaler = fit_scaler(dataset)
        restored = apply_scaler(scaler, np.zeros((1, 4)), "inverse", "targets")
        np.testing.assert_allclose(restored[0], scaler.target_mean, rtol=0, atol=0)

    def test_channel_mismatch_rejected(self):
        dataset = field_dataset(1, num_points=4, seed=0)
        scaler = fit_scaler(dataset)
        with pytest.raises(ValueError, match="channels"):
            apply_scaler(scaler, np.zeros((3, 7)), "forward", "targets")

    def test_requires_positive_std(self):
        with pytest.raises(ValueError, match="positive"):
            ScalerPair(np.zeros(7), np.zeros(7), np.zeros(4), np.ones(4))

    @pytest.mark.parametrize("field,index", [("target_std", 2), ("input_mean", 0)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, field, index, value):
        fields = {
            "input_mean": np.zeros(7),
            "input_std": np.ones(7),
            "target_mean": np.zeros(4),
            "target_std": np.ones(4),
        }
        fields[field][index] = value
        with pytest.raises(ValueError, match=field):
            ScalerPair(**fields)

    def test_from_dict_names_missing_key(self):
        obj = ScalerPair(np.zeros(7), np.ones(7), np.zeros(4), np.ones(4)).to_dict()
        del obj["target_std"]
        with pytest.raises(ValueError, match="missing key 'target_std'"):
            ScalerPair.from_dict(obj)


class TestKfold:
    def test_partition_property(self):
        dataset = field_dataset(8, num_points=3, seed=0)
        folds = kfold_split(dataset, 4, seed=3)
        assert len(folds) == 4
        seen = []
        for train, val in folds:
            assert len(val) == 2 and len(train) == 6
            assert not set(s.name for s in val.simulations) & set(s.name for s in train.simulations)
            seen.extend(s.name for s in val.simulations)
        assert sorted(seen) == sorted(s.name for s in dataset.simulations)

    def test_deterministic(self):
        dataset = field_dataset(7, num_points=3, seed=0)
        a = kfold_split(dataset, 3, seed=11)
        b = kfold_split(dataset, 3, seed=11)
        for (_, va), (_, vb) in zip(a, b):
            assert [s.name for s in va.simulations] == [s.name for s in vb.simulations]

    def test_balanced_sizes_for_103_simulations(self):
        dataset = field_dataset(103, num_points=1, seed=0)
        folds = kfold_split(dataset, 4, seed=0)
        sizes = sorted(len(val) for _, val in folds)
        assert sizes == [25, 26,26, 26]

    def test_too_few_simulations(self):
        dataset = field_dataset(3, num_points=2, seed=0)
        with pytest.raises(ValueError):
            kfold_split(dataset, 4, seed=0)
        with pytest.raises(ValueError):
            kfold_split(dataset, 1, seed=0)


class TestSubsample:
    def test_fraction_one_is_identity(self):
        dataset = field_dataset(5, num_points=2, seed=0)
        kept = subsample(dataset, 1.0, seed=9)
        assert [s.name for s in kept.simulations] == [s.name for s in dataset.simulations]

    def test_one_third_of_103(self):
        dataset = field_dataset(103, num_points=1, seed=0)
        kept = subsample(dataset, 1.0 / 3.0, seed=1)
        assert len(kept) == 35

    def test_deterministic(self):
        dataset = field_dataset(10, num_points=2, seed=0)
        a = subsample(dataset, 0.4, seed=5)
        b = subsample(dataset, 0.4, seed=5)
        assert [s.name for s in a.simulations] == [s.name for s in b.simulations]

    def test_invalid_fraction(self):
        dataset = field_dataset(3, num_points=2, seed=0)
        with pytest.raises(ValueError):
            subsample(dataset, 0.0, seed=0)
        with pytest.raises(ValueError):
            subsample(dataset, 1.5, seed=0)


class TestCylinderFlow:
    def test_surface_points_have_zero_distance_and_radial_normals(self):
        dataset = generate_cylinder_flow(small_flow_config())
        for sim in dataset.simulations:
            mask = sim.surface_mask
            assert mask.sum() == 16
            assert np.all(sim.points[mask, 4] == 0.0)
            xy = sim.points[mask, :2]
            radius = np.hypot(xy[:, 0], xy[:, 1])
            np.testing.assert_allclose(
                sim.points[mask, 5:7], xy / radius[:, None], rtol=0, atol=1e-12
            )

    def test_far_field_velocity(self):
        radius, speed = 0.7, 12.0
        xy = np.array([[100.0 * radius, 0.0], [0.0, 100.0 * radius], [-70.0 * radius, 70.0 * radius]])
        vel = cylinder_velocity(xy, radius, speed, circulation=0.0)
        np.testing.assert_allclose(vel[:, 0], speed, rtol=1e-3)
        np.testing.assert_allclose(vel[:, 1], 0.0, atol=1e-3 * speed)

    def test_stagnation_point_pressure(self):
        radius, speed = 1.0, 10.0
        vel = cylinder_velocity(np.array([[-radius, 0.0]]), radius, speed, circulation=0.0)
        np.testing.assert_allclose(vel, 0.0, atol=1e-12)
        pressure = bernoulli_pressure(vel, speed)
        np.testing.assert_allclose(pressure, 0.5 * speed**2, rtol=1e-12)

    def test_inside_cylinder_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            cylinder_velocity(np.array([[0.1, 0.0]]), 1.0, 10.0, 0.0)

    @pytest.mark.parametrize("circulation", [0.0, 3.0])
    def test_incompressibility_by_central_differences(self, circulation):
        radius, speed = 0.8, 9.0
        h = 1e-3 * radius
        grid = np.linspace(2.0 * radius, 3.0 * radius, 11)
        worst = 0.0
        for x in grid:
            for y in grid:
                right = cylinder_velocity(np.array([[x + h, y]]), radius, speed, circulation)[0]
                left = cylinder_velocity(np.array([[x - h, y]]), radius, speed, circulation)[0]
                up = cylinder_velocity(np.array([[x, y + h]]), radius, speed, circulation)[0]
                down = cylinder_velocity(np.array([[x, y - h]]), radius, speed, circulation)[0]
                divergence = (right[0] - left[0]) / (2 * h) + (up[1] - down[1]) / (2 * h)
                worst = max(worst, abs(divergence))
        assert worst < 1e-6 * speed / radius

    def test_nu_t_surrogate_field(self):
        dataset = generate_cylinder_flow(small_flow_config())
        sim = dataset.simulations[0]
        speed = np.hypot(sim.targets[:, 0], sim.targets[:, 1])
        np.testing.assert_allclose(
            sim.targets[:, 3], 0.01 * sim.points[:, 4] * speed, rtol=0, atol=1e-12
        )
        assert np.all(sim.targets[sim.surface_mask, 3] == 0.0)

    def test_deterministic_generation(self):
        a = generate_cylinder_flow(small_flow_config())
        b = generate_cylinder_flow(small_flow_config())
        for sa, sb in zip(a.simulations, b.simulations):
            assert np.array_equal(sa.points, sb.points)
            assert np.array_equal(sa.targets, sb.targets)

    def test_ood_parameters_outside_training_ranges(self):
        config = small_flow_config(num_sims=6, ood=True)
        dataset = generate_cylinder_flow(config)
        assert dataset.split_label == "test_ood"
        for sim in dataset.simulations:
            inlet_speed = sim.points[0, 2]
            assert inlet_speed > config.inlet_speed_range[1]
            surface_xy = sim.points[sim.surface_mask, :2]
            radius = np.hypot(surface_xy[:, 0], surface_xy[:, 1]).mean()
            assert radius > config.radius_range[1]

    def test_pressure_is_bernoulli(self):
        dataset = generate_cylinder_flow(small_flow_config(seed=5))
        sim = dataset.simulations[0]
        speed_sq = (sim.targets[:, 0] ** 2 + sim.targets[:, 1] ** 2)
        inlet_speed = sim.points[0, 2]
        np.testing.assert_allclose(
            sim.targets[:, 2], 0.5 * inlet_speed**2 - 0.5 * speed_sq, rtol=0, atol=1e-10
        )
