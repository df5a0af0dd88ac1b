"""Metric suite: MSEs, surface ordering, force integration, rank statistics."""

import numpy as np
import pytest
from helpers import (
    block_diagonal_forward,
    coincident_surface_points,
    cylinder_dataset,
    field_simulation,
    first_inlet_doubled,
    naive_average_ranks,
    naive_spearman,
    two_surface_points,
    zero_inlet_speed,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from packedflow.data import Dataset, Simulation, fit_scaler
from packedflow.formats import ConfigError
from packedflow.metrics import (
    CoefficientRow,
    EvalReport,
    _average_ranks,
    check_scorable,
    coefficient_table,
    evaluate,
    evaluate_predictions,
    force_coefficients,
    mean_relative_error,
    null_reasons,
    order_surface,
    predict_simulation,
    spearman,
)
from packedflow.packed_net import PackedSpec, init_params, plan_layers


def rows(*values):
    """A coefficient table of the given (sim, drag_pred, drag_true, lift_pred, lift_true) values."""
    return [CoefficientRow(*v) for v in values]


def surface_polygon_simulation(xy, normals=None, inlet=(10.0, 0.0)):
    """All-surface simulation from explicit coordinates (normals default radial)."""
    n = len(xy)
    xy = np.asarray(xy, dtype=np.float64)
    if normals is None:
        radius = np.hypot(xy[:, 0], xy[:, 1])
        normals = xy / radius[:, None]
    points = np.zeros((n, 7))
    points[:, :2] = xy
    points[:, 2] = inlet[0]
    points[:, 3] = inlet[1]
    points[:, 5:7] = normals
    return Simulation("poly", points, np.zeros((n, 4)))


def ring_dataset(num_sims, surface_points, circulation, seed, speed=10.0):
    return cylinder_dataset(
        num_sims,
        surface_points=surface_points,
        field_points=10,
        seed=seed,
        circulation=circulation,
        radius=0.8,
        speed=speed,
    )


class TestOrderSurface:
    def test_circle_perimeter_from_shuffled_points(self):
        radius = 1.7
        theta = 2.0 * np.pi * np.arange(1000) / 1000
        xy = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        xy = xy[np.random.default_rng(3).permutation(1000)]
        sim = surface_polygon_simulation(xy)
        poly = order_surface(sim)
        assert abs(poly.segment_lengths.sum() - 2.0 * np.pi * radius) < 1e-3 * 2.0 * np.pi * radius
        assert sorted(poly.indices.tolist()) == np.flatnonzero(sim.surface_mask).tolist()

    def test_lengths_sum_to_polygon_perimeter(self):
        # half-edge lengths telescope to the edge total of the ordered polygon
        rng = np.random.default_rng(8)
        theta = np.sort(rng.uniform(0, 2 * np.pi, size=50))
        xy = np.stack([np.cos(theta), np.sin(theta)], axis=1) * rng.uniform(1.0, 1.3, size=(50, 1))
        sim = surface_polygon_simulation(xy)
        poly = order_surface(sim)
        coords = sim.points[poly.indices, :2]
        edges = np.hypot(*(np.roll(coords, -1, axis=0) - coords).T)
        np.testing.assert_allclose(poly.segment_lengths.sum(), edges.sum(), rtol=1e-12)

    def test_triangle_half_edge_lengths(self):
        # 3-4-5 right triangle: each point gets half the sum of its two sides
        xy = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        normals = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        poly = order_surface(surface_polygon_simulation(xy, normals))
        by_point = dict(zip(poly.indices.tolist(), poly.segment_lengths))
        assert by_point[0] == pytest.approx(0.5 * (4.0 + 3.0))
        assert by_point[1] == pytest.approx(0.5 * (4.0 + 5.0))
        assert by_point[2] == pytest.approx(0.5 * (5.0 + 3.0))

    def test_closed_curve_normal_sum_vanishes(self):
        theta = 2.0 * np.pi * np.arange(1000) / 1000
        xy = 2.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        sim = surface_polygon_simulation(xy)
        poly = order_surface(sim)
        normals = sim.points[poly.indices, 5:7]
        total = (normals * poly.segment_lengths[:, None]).sum(axis=0)
        assert np.abs(total).max() < 1e-6 * poly.segment_lengths.sum()

    def test_requires_three_surface_points(self):
        xy = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="3 surface points"):
            order_surface(surface_polygon_simulation(xy))


class TestForceCoefficients:
    def test_constant_pressure_gives_zero_force(self):
        theta = 2.0 * np.pi * (np.arange(400) + 0.3) / 400
        xy = 1.4 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        sim = surface_polygon_simulation(xy[np.random.default_rng(5).permutation(400)])
        poly = order_surface(sim)
        pressure_level = 7.5
        fc = force_coefficients(sim, np.full((400, 4), pressure_level))
        scale = pressure_level * poly.segment_lengths.sum() / (0.5 * 10.0**2)
        assert abs(fc.drag) < 1e-10 * scale
        assert abs(fc.lift) < 1e-10 * scale

    def test_dalembert_zero_drag_and_lift(self):
        sim = ring_dataset(1, 2000, circulation=0.0, seed=1).simulations[0]
        fc = force_coefficients(sim, sim.targets)
        assert abs(fc.drag) < 1e-3
        assert abs(fc.lift) < 1e-3

    def test_kutta_joukowski_lift(self):
        speed, circulation = 10.0, 5.0
        sim = ring_dataset(1, 2000, circulation, seed=2, speed=speed).simulations[0]
        fc = force_coefficients(sim, sim.targets)
        lift_force_per_rho = fc.lift * 0.5 * speed**2
        # counterclockwise-positive circulation pushes the cylinder downward
        assert lift_force_per_rho == pytest.approx(-speed * circulation, rel=0.01)
        assert abs(fc.drag) < 1e-3

    def test_zero_inlet_speed_rejected(self):
        xy = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        sim = surface_polygon_simulation(xy, inlet=(0.0, 0.0))
        with pytest.raises(ValueError, match="inlet"):
            force_coefficients(sim, np.zeros((4, 4)))

    def test_inlet_velocity_must_be_one_per_simulation(self):
        sim = first_inlet_doubled(ring_dataset(1, 32, 0.0, seed=3).simulations[0])
        with pytest.raises(ValueError) as err:
            force_coefficients(sim, sim.targets)
        assert str(err.value) == f"simulation {sim.name!r}: inlet velocity differs between points"

    @pytest.mark.parametrize("shape", [(41, 4), (42, 3), (32,)], ids=["short", "narrow", "surface-only"])
    def test_field_must_have_the_targets_shape(self, shape):
        sim = ring_dataset(1, 32, 0.0, seed=3).simulations[0]  # 32 surface and 10 field points
        with pytest.raises(ValueError) as err:
            force_coefficients(sim, np.zeros(shape))
        assert str(err.value) == f"simulation {sim.name!r}: field shape {shape} vs targets (42, 4)"


class TestSpearman:
    def test_monotone_increasing_is_exactly_one(self):
        assert spearman([1.0, 2.0, 3.0], [3.0, 6.0, 9.0]) == 1.0

    def test_monotone_decreasing_is_exactly_minus_one(self):
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_tie_case_against_hand_value(self):
        # ranks x = (1, 2.5, 2.5, 4), y = (1, 2, 3, 4) -> 3/sqrt(10)
        value = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert value == pytest.approx(0.9486832980505138, abs=1e-12)
        assert round(value, 4) == 0.9487

    def test_matches_naive_oracle_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 40)
            xs = rng.integers(0, 6, size=n).astype(float)
            ys = rng.integers(0, 6, size=n).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert abs(spearman(xs, ys) - naive_spearman(xs, ys)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-np.inf, -2.0, -0.0, 0.0, 0.5, 1.0, 1e300, np.inf]), min_size=1, max_size=40))
    def test_ranks_equal_naive_oracle_bit_for_bit(self, values):
        # Ties (including -0.0 == 0.0 and repeated infinities) share the mean of their rank range.
        values = np.array(values)
        assert _average_ranks(values).tobytes() == naive_average_ranks(values).tobytes()

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        xs, ys = rng.normal(size=30), rng.normal(size=30)
        assert spearman(xs, ys) == spearman(ys, xs)

    def test_invariant_under_strictly_increasing_map(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=25)
        assert spearman(xs, np.exp(xs)) == 1.0
        assert spearman(xs, xs**3 + 5.0) == 1.0

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="2 samples"):
            spearman([1.0], [2.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            spearman([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(
            lambda: spearman([1.0, 2.0, 3.0], [1.0, 2.0]),
            "inputs must be equal-length 1-D, got (3,) and (2,)",
            id="spearman-of-unequal-lengths",
        ),
        pytest.param(
            lambda: spearman([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]),
            "inputs must be equal-length 1-D, got (2, 2) and (2, 2)",
            id="spearman-of-2-d-inputs",
        ),
        pytest.param(
            lambda: mean_relative_error([1.0, 2.0], [1.0, 2.0, 3.0]),
            "shape mismatch: pred (2,) vs truth (3,)",
            id="relative-error-of-other-shapes",
        ),
    ],
)
def test_argument_fault_is_named(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError and str(info.value) == message


class TestMeanRelativeError:
    def test_zero_for_equal(self):
        assert mean_relative_error([1.0, -2.0], [1.0, -2.0]) == 0.0

    def test_double_is_one(self):
        truth = np.array([1.0, -3.0, 0.5])
        assert mean_relative_error(2.0 * truth, truth) == 1.0

    def test_hand_example(self):
        assert mean_relative_error([1.5, 0.5], [1.0, 1.0]) == 0.5

    def test_zero_truth_names_its_index(self):
        with pytest.raises(ValueError, match="zero reference values at: 1$"):
            mean_relative_error([1.0, 2.0], [1.0, 0.0])

    def test_invariant_under_common_normalization(self):
        # changing the dynamic-pressure convention rescales both sides equally
        rng = np.random.default_rng(31)
        pred, truth = rng.normal(size=20), rng.normal(size=20) + 3.0
        base = mean_relative_error(pred, truth)
        for factor in (0.5, 4.0, 1024.0):  # powers of two keep the scaling exact
            assert mean_relative_error(factor * pred, factor * truth) == base


# What a drawn split's simulation becomes: unchanged or degenerate. A coincident pair of
# surface points still scores; a coincident triple gives its middle point length 0.
FAULTS = [
    lambda sim: sim,
    two_surface_points,
    lambda sim: coincident_surface_points(sim, 2),
    coincident_surface_points,
    zero_inlet_speed,
    first_inlet_doubled,
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    surface_points=st.integers(3, 24),
    faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=4),
)
def test_check_scorable_fails_exactly_where_the_coefficient_table_does(seed, surface_points, faults):
    flows = cylinder_dataset(len(faults), surface_points=surface_points, field_points=5, seed=seed)
    split = Dataset(tuple(fault(sim) for fault, sim in zip(faults, flows.simulations)), split_label="test")
    try:
        coefficient_table([sim.targets for sim in split.simulations], split)
    except ValueError as exc:
        with pytest.raises(ConfigError) as checked:
            check_scorable(split, "split dir")
        assert str(checked.value) == f"split dir: {exc}"
    else:
        assert check_scorable(split, "split dir") is None


@pytest.fixture(scope="module")
def split():
    return ring_dataset(10, 64, circulation=0.0, seed=7)


class TestEvaluate:
    def test_perfect_predictor(self, split):
        report, _ = evaluate_predictions([sim.targets for sim in split.simulations], split)
        assert report.mse_x_velocity == 0.0
        assert report.mse_y_velocity == 0.0
        assert report.mse_pressure == 0.0
        assert report.mse_surface_pressure == 0.0
        assert report.mse_turbulent_viscosity == 0.0
        assert report.mean_relative_drag == 0.0
        assert report.mean_relative_lift == 0.0
        assert report.spearman_drag == 1.0
        assert report.spearman_lift == 1.0

    def test_report_has_exactly_nine_metrics(self, split):
        report, _ = evaluate_predictions([sim.targets for sim in split.simulations], split)
        expected = {
            "mse_x_velocity",
            "mse_y_velocity",
            "mse_pressure",
            "mse_surface_pressure",
            "mse_turbulent_viscosity",
            "mean_relative_drag",
            "mean_relative_lift",
            "spearman_drag",
            "spearman_lift",
        }
        assert set(report.to_dict()) == expected

    def test_spearman_matches_recomputed_coefficients(self, split):
        rng = np.random.default_rng(15)
        predictions = [
            sim.targets + rng.normal(scale=0.5, size=sim.targets.shape)
            for sim in split.simulations
        ]
        report, _ = evaluate_predictions(predictions, split)
        drag_pred, drag_true = [], []
        for pred, sim in zip(predictions, split.simulations):
            drag_pred.append(force_coefficients(sim, pred).drag)
            drag_true.append(force_coefficients(sim, sim.targets).drag)
        assert report.spearman_drag == spearman(drag_pred, drag_true)

    def test_rank_metrics_scale_invariant(self, split):
        # scaling every predicted pressure by a positive constant scales all
        # coefficients by it, which cannot move rank statistics
        rng = np.random.default_rng(21)
        noise = [rng.normal(scale=0.5, size=s.targets.shape) for s in split.simulations]
        base = [s.targets + e for s, e in zip(split.simulations, noise)]
        scaled = []
        for arr in base:
            out = arr.copy()
            out[:, 2] *= 37.0
            scaled.append(out)
        a, _ = evaluate_predictions(base, split)
        b, _ = evaluate_predictions(scaled, split)
        assert a.spearman_drag == b.spearman_drag
        assert a.spearman_lift == b.spearman_lift

    def test_surface_mse_equals_pressure_mse_when_all_surface(self):
        theta = 2.0 * np.pi * np.arange(12) / 12
        xy = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        sims = []
        rng = np.random.default_rng(2)
        for i in range(2):
            sim = surface_polygon_simulation(xy * (1.0 + 0.1 * i))
            targets = rng.normal(size=(12, 4))
            sims.append(Simulation(f"ring_{i}", sim.points, targets))
        dataset = Dataset(tuple(sims), split_label="test")
        predictions = [s.targets + rng.normal(size=(12, 4)) for s in sims]
        report, _ = evaluate_predictions(predictions, dataset)
        assert report.mse_surface_pressure == pytest.approx(report.mse_pressure, rel=1e-12)

    def test_single_simulation_leaves_spearman_undefined(self):
        split = ring_dataset(1, 32, circulation=1.0, seed=4)
        report, _ = evaluate_predictions([split.simulations[0].targets], split)
        assert report.spearman_drag is None
        assert report.spearman_lift is None
        assert report.mse_pressure == 0.0

    def test_zero_reference_drag_nulls_the_drag_metrics(self):
        # Drag-free potential flow: generator seed 7 gives test_0004 a reference drag of exactly 0.0.
        split = cylinder_dataset(6, surface_points=64, field_points=96, seed=7, split_label="test")
        report, table = evaluate_predictions([sim.targets for sim in split.simulations], split)
        assert [row.sim for row in table if row.drag_true == 0.0] == ["test_0004"]
        assert report.mean_relative_drag is None and report.spearman_drag is None
        assert report.mean_relative_lift == 0.0 and report.spearman_lift == 1.0
        reason = "reference drag is exactly 0.0 at: test_0004"
        assert null_reasons(table) == {"mean_relative_drag": reason, "spearman_drag": reason}

    def test_null_reasons_name_the_simulations(self):
        table = rows(("a", 0.1, 0.0, 0.2, 0.5), ("b", 0.1, 0.0, 0.2, 0.0), ("c", 0.1, 0.3, 0.2, 0.4))
        drag, lift = "reference drag is exactly 0.0 at: a, b", "reference lift is exactly 0.0 at: b"
        assert null_reasons(table) == {
            "mean_relative_drag": drag, "spearman_drag": drag, "mean_relative_lift": lift, "spearman_lift": lift
        }
        alone = "needs two simulations, the split has one: c"
        assert null_reasons(table[2:]) == {"spearman_drag": alone, "spearman_lift": alone}
        assert null_reasons(table[2:] * 2) == {
            "spearman_drag": "reference drag is 0.3 at every simulation; predicted drag is 0.1 at every simulation",
            "spearman_lift": "reference lift is 0.4 at every simulation; predicted lift is 0.2 at every simulation",
        }

    def test_tied_values_null_the_rank_correlation_and_name_their_side(self):
        table = rows(("a", 0.1, 0.3, 0.2, 0.5), ("b", 0.2, 0.3, 0.2, 0.4), ("c", 0.5, 0.3, 0.2, 0.6))
        assert null_reasons(table) == {
            "spearman_drag": "reference drag is 0.3 at every simulation",
            "spearman_lift": "predicted lift is 0.2 at every simulation",
        }
        # A zero reference keeps its precedence; distinct values on both sides leave the fields defined.
        zero = "reference drag is exactly 0.0 at: a, b"
        tied_zero = [row._replace(drag_true=0.0) for row in table[:2]]
        assert null_reasons(tied_zero) == {
            "mean_relative_drag": zero, "spearman_drag": zero, "spearman_lift": "predicted lift is 0.2 at every simulation"
        }
        assert null_reasons(rows(("a", 0.1, 0.3, 0.2, 0.5), ("b", 0.2, 0.4, 0.3, 0.4))) == {}

    def test_identical_simulations_give_null_rank_correlations(self, split):
        # Two copies of one flow: every coefficient, referenced or predicted, is tied.
        sim = split.simulations[0]
        copies = Dataset((sim, Simulation("copy", sim.points, sim.targets)), split_label="test")
        plans = plan_layers(PackedSpec(2, 1, 1, (8,)))
        report = evaluate(init_params(plans, 3), plans, fit_scaler(split), copies)
        assert report.spearman_drag is None and report.spearman_lift is None
        assert isinstance(report.mean_relative_drag, float) and isinstance(report.mean_relative_lift, float)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "overflows"])
    def test_unscorable_prediction_names_the_simulation(self, split, value):
        predictions = [sim.targets.copy() for sim in split.simulations]
        predictions[3][5, 0] = value
        name = split.simulations[3].name
        with pytest.raises(ValueError, match=f"^simulation '{name}': prediction is non-finite or too large to score$"):
            evaluate_predictions(predictions, split)

    @pytest.mark.parametrize("shape", [(64, 3), (63, 4)], ids=["narrow", "short"])
    def test_misshapen_prediction_gives_the_field_shape_message(self, split, shape):
        # One shape rule, force_coefficients', names the simulation for every scorer.
        predictions = [sim.targets for sim in split.simulations]
        predictions[4] = np.zeros(shape)
        sim = split.simulations[4]
        with pytest.raises(ValueError) as err:
            evaluate_predictions(predictions, split)
        assert str(err.value) == f"simulation {sim.name!r}: field shape {shape} vs targets {sim.targets.shape}"

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate_predictions([], Dataset((), split_label="test"))

    @pytest.mark.parametrize("score", [coefficient_table, evaluate_predictions])
    @pytest.mark.parametrize("count", [9, 11], ids=["one-short", "one-over"])
    def test_prediction_list_of_another_length_than_the_split_rejected(self, split, score, count):
        targets = [sim.targets for sim in split.simulations]
        with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer) than argument 1$"):
            score((targets * 2)[:count], split)

    def test_report_json_round_trip(self, split, tmp_path):
        import json

        from packedflow.metrics import write_report_json

        report, _ = evaluate_predictions([sim.targets for sim in split.simulations], split)
        write_report_json(report, tmp_path / "report.json")
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert EvalReport(**loaded) == report


def test_predict_simulation_spanning_row_blocks_matches_block_diagonal_matrices():
    sim = field_simulation("large", 3001, seed=5)
    scaler = fit_scaler(Dataset((sim,), split_label="train"))
    plans = plan_layers(PackedSpec(4, 2, 2, (16, 32, 16)))
    params = init_params(plans, 9)
    scaled = (sim.points - scaler.input_mean) / scaler.input_std
    mean_output = block_diagonal_forward(plans, params, scaled).mean(axis=0)
    expected = mean_output * scaler.target_std + scaler.target_mean
    predicted = predict_simulation(params, plans, scaler, sim)
    np.testing.assert_allclose(predicted, expected, rtol=1e-12, atol=1e-12)
