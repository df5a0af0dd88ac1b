"""Optimizer, early stopping, training loop, and cross-validation harness."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from helpers import cylinder_dataset, field_dataset, linear_target_dataset

from packedflow import packed_net, training
from packedflow.data import Dataset, Simulation, fit_scaler
from packedflow.packed_net import PackedSpec, Params, init_params, plan_layers
from packedflow.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    GridRow,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    cross_validate,
    early_stop,
    init_adam_state,
    scaled_mse,
    train,
)


def scalar_params(weight=1.0, bias=0.0):
    return Params(np.array([weight, bias]), [((1, 1, 1), (1,))])


def scalar_grads(weight_grad, bias_grad=0.0):
    return scalar_params(weight_grad, bias_grad)


class TestAdamStep:
    def test_first_step_moves_by_learning_rate(self):
        params = scalar_params(1.0)
        state = init_adam_state(params)
        new_params, new_state = adam_step(params, scalar_grads(0.5), state, lr=0.01)
        assert new_state.step_count == 1
        assert abs(float(new_params.weights[0][0, 0, 0]) - 0.99) < 1e-6

    def test_two_steps_match_hand_trace(self):
        # Hand-executed Adam on a scalar, gradient 1 at both steps.
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        w, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            g = 1.0
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * (g * g)
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            w = w - lr * m_hat / (math.sqrt(v_hat) + eps)

        params = scalar_params(1.0)
        state = init_adam_state(params)
        for _ in range(2):
            params, state = adam_step(params, scalar_grads(1.0), state, lr=lr)
        assert float(params.weights[0][0, 0, 0]) == w

    def test_weight_decay_shrinks_weights_on_zero_gradient(self):
        params = scalar_params(1.0)
        state = init_adam_state(params)
        new_params, _ = adam_step(params, scalar_grads(0.0), state, lr=0.01, weight_decay=1e-5)
        assert float(new_params.weights[0][0, 0, 0]) < 1.0

    def test_biases_exempt_from_weight_decay(self):
        grads = scalar_grads(0.3, bias_grad=0.7)
        no_decay, _ = adam_step(
            scalar_params(1.0, 2.0), grads, init_adam_state(scalar_params()), lr=0.01
        )
        with_decay, _ = adam_step(
            scalar_params(1.0, 2.0), grads, init_adam_state(scalar_params()), lr=0.01, weight_decay=0.5
        )
        assert float(no_decay.biases[0][0]) == float(with_decay.biases[0][0])
        assert float(no_decay.weights[0][0, 0, 0]) != float(with_decay.weights[0][0, 0, 0])

    def test_non_finite_gradients_rejected(self):
        params = scalar_params(1.0)
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(params, scalar_grads(float("nan")), init_adam_state(params), lr=0.01)


def reference_adam_step(flat, grads, m, v, t, lr, weight_decay, decayed):
    """The pure Adam formula: fresh arrays, weight decay where ``decayed`` is set."""
    g = grads.copy()
    g[decayed] += weight_decay * flat[decayed]
    t += 1
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), m, v, t


class TestAdamInPlace:
    """``adam_step`` updates ``params`` and ``state`` in its own buffers, with the pure formula's bits."""

    SPEC = PackedSpec(3, 2, 2, (9, 13, 5))

    def case(self, seed=0):
        plans = plan_layers(self.SPEC)
        params = init_params(plans, seed)
        decayed = Params(np.zeros_like(params.flat), params.shapes)
        for w in decayed.weights:
            w[...] = 1.0
        return params, decayed.flat == 1.0, np.random.default_rng(seed + 1)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_200_steps_match_the_pure_formula(self, weight_decay):
        params, decayed, rng = self.case()
        state = init_adam_state(params)
        flat, m, v, t = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat), 0
        for step in range(200):
            grads = Params(np.zeros_like(params.flat), params.shapes)
            grads.flat[:] = rng.normal(size=grads.flat.size) * (1e-3 if step % 2 else 10.0)
            grads.flat[step % 5 :: 5] = -0.0 if step % 3 else 0.0
            new_params, new_state = adam_step(params, grads, state, 0.01, weight_decay)
            assert new_params is params and new_state is state
            flat, m, v, t = reference_adam_step(flat, grads.flat, m, v, t, 0.01, weight_decay, decayed)
        assert state.step_count == t == 200
        for got, want in ((params.flat, flat), (state.first_moment, m), (state.second_moment, v)):
            assert sha256(got) == sha256(want)

    def test_gradients_are_left_unchanged(self):
        params, _, rng = self.case(1)
        state = init_adam_state(params)
        grads = Params(np.zeros_like(params.flat), params.shapes)
        grads.flat[:] = rng.normal(size=grads.flat.size)
        before = grads.flat.copy()
        for _ in range(2):
            adam_step(params, grads, state, 0.01, weight_decay=0.5)
        assert grads.flat.tobytes() == before.tobytes()

    def test_rejected_step_writes_nothing(self):
        params, _, rng = self.case(2)
        state = init_adam_state(params)
        grads = Params(np.zeros_like(params.flat), params.shapes)
        grads.flat[:] = rng.normal(size=grads.flat.size)
        adam_step(params, grads, state, 0.01, weight_decay=1e-3)
        saved = [a.tobytes() for a in (params.flat, state.first_moment, state.second_moment)]
        grads.weights[-1][0, 0, 0] = float("nan")
        with pytest.raises(ValueError, match="non-finite gradient in layer 3"):
            adam_step(params, grads, state, 0.01, weight_decay=1e-3)
        assert [a.tobytes() for a in (params.flat, state.first_moment, state.second_moment)] == saved
        assert state.step_count == 1

    @pytest.mark.parametrize(
        "nan_layer, message",
        [(None, "gradient in layer 1 is too large to square in float64"), (3, "non-finite gradient in layer 3")],
        ids=["square-overflows", "nan-elsewhere"],
    )
    def test_gradient_whose_square_overflows_writes_nothing(self, nan_layer, message):
        # 1e200 is finite, but its square is not; a non-finite gradient elsewhere keeps its message.
        params, _, rng = self.case(3)
        state = init_adam_state(params)
        grads = Params(np.zeros_like(params.flat), params.shapes)
        grads.flat[:] = rng.normal(size=grads.flat.size)
        adam_step(params, grads, state, 0.01)
        saved = [a.tobytes() for a in (params.flat, state.first_moment, state.second_moment)]
        grads.biases[1][0] = 1e200
        if nan_layer is not None:
            grads.weights[nan_layer][0, 0, 0] = float("nan")
        with pytest.raises(ValueError) as err:
            adam_step(params, grads, state, 0.01)
        assert str(err.value) == message
        assert [a.tobytes() for a in (params.flat, state.first_moment, state.second_moment)] == saved
        assert state.step_count == 1


class TestEarlyStop:
    def test_insufficient_history(self):
        assert early_stop([]) is False
        assert early_stop([1.0, 0.999, 0.998, 0.997, 0.996]) is False  # length 5 < window+1

    def test_five_small_changes_fire(self):
        assert early_stop([1.0, 0.995, 0.991, 0.987, 0.983, 0.979]) is True

    def test_large_change_inside_window_blocks(self):
        assert early_stop([1.0, 0.995, 0.90, 0.897, 0.894, 0.891]) is False

    def test_large_change_outside_window_ignored(self):
        history = [10.0, 1.0, 0.999, 0.998, 0.997, 0.996, 0.995]
        assert early_stop(history) is True

    def test_zero_previous_loss_counts_as_converged(self):
        assert early_stop([0.0] * 6) is True


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: TrainConfig(0.01, seed=-1), "seed must be non-negative, got -1", id="negative-seed"),
    ],
)
def test_argument_fault_is_named(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError and str(info.value) == message


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        dataset = field_dataset(2, num_points=10, seed=0)
        spec = PackedSpec(2, 1, 1, (8,))
        cfg = TrainConfig(learning_rate=0.01, max_epochs=0, seed=4)
        params, history = train(spec, dataset, None, fit_scaler(dataset), cfg)
        reference = init_params(plan_layers(spec), 4)
        for a, b in zip(params.weights, reference.weights):
            assert np.array_equal(a, b)
        assert history.num_epochs == 0

    def test_same_seed_gives_identical_history(self):
        dataset = field_dataset(3, num_points=30, seed=1)
        spec = PackedSpec(2, 2, 1, (12,), dropout_enabled=True)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=4, batch_points=32, seed=7)
        scaler = fit_scaler(dataset)
        _, first = train(spec, dataset, None, scaler, cfg)
        _, second = train(spec, dataset, None, scaler, cfg)
        assert first.train_loss == second.train_loss

    def test_fits_linear_targets(self):
        dataset = linear_target_dataset(num_sims=4, num_points=200, seed=0)
        spec = PackedSpec(2, 2, 1, (16,))
        cfg = TrainConfig(learning_rate=0.01, max_epochs=200, batch_points=256, seed=0)
        _, history = train(spec, dataset, None, fit_scaler(dataset), cfg)
        assert min(history.train_loss) < 0.1 * history.train_loss[0]
        assert min(history.train_loss) < history.train_loss[0]

    def test_validation_losses_recorded(self):
        train_data = field_dataset(3, num_points=20, seed=2)
        val_data = field_dataset(2, num_points=10, seed=9, split_label="test")
        spec = PackedSpec(2, 1, 1, (8,))
        cfg = TrainConfig(learning_rate=0.01, max_epochs=3, seed=0)
        scaler = fit_scaler(train_data)
        params, history = train(spec, train_data, val_data, scaler, cfg)
        assert history.val_loss is not None and len(history.val_loss) == 3
        final = scaled_mse(params, plan_layers(spec), scaler, val_data)
        assert history.val_loss[-1] == final

    def test_divergence_raises_with_epoch(self):
        dataset = linear_target_dataset(num_sims=2, num_points=50, seed=3)
        spec = PackedSpec(2, 1, 1, (8,))
        # Adam updates are scale-normalized, so the rate must be absurd enough
        # that squared outputs overflow float64.
        cfg = TrainConfig(learning_rate=1e100, max_epochs=50, batch_points=16, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train(spec, dataset, None, fit_scaler(dataset), cfg)
        assert err.value.epoch >= 0

    def test_divergence_on_pool_workers_raises_with_epoch(self, monkeypatch, pool_width):
        # Four one-estimator blocks on two workers, each long enough that the pool thread takes
        # some: a matmul there overflows, and it must run under train's errstate (numpy keeps
        # that in a context variable), or the suite's warnings-as-errors would raise it.
        pool_width(2)
        monkeypatch.setattr(packed_net, "_estimator_block", lambda plans, rows: 1)
        dataset = linear_target_dataset(num_sims=2, num_points=1024, seed=3)
        spec = PackedSpec(4, 1, 1, (64, 64))
        cfg = TrainConfig(learning_rate=1e100, max_epochs=50, batch_points=2048, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train(spec, dataset, None, fit_scaler(dataset), cfg)
        assert err.value.epoch >= 0

    def test_finite_loss_with_a_nan_gradient_diverges_naming_the_layer(self, monkeypatch):
        dataset = field_dataset(2, num_points=20, seed=4)

        def nan_in_layer_1(params, plans, x, y, masks, ws):
            grads = Params(np.zeros_like(params.flat), params.shapes)
            grads.weights[1][0, 0, 0] = float("nan")
            return 0.5, grads

        monkeypatch.setattr(training, "loss_and_grad", nan_in_layer_1)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=3, batch_points=16, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train(PackedSpec(2, 1, 1, (8, 8)), dataset, None, fit_scaler(dataset), cfg)
        assert str(err.value) == "training diverged at epoch 0: non-finite gradient in layer 1"
        assert err.value.epoch == 0

    def test_held_out_mse_that_overflows_float64_raises(self):
        dataset = field_dataset(2, num_points=20, seed=4)
        sim = dataset.simulations[0]
        points = sim.points.copy()
        points[0, 0] = 1e307
        far = Dataset((Simulation(sim.name, points, sim.targets),), split_label="test")
        plans = plan_layers(PackedSpec(2, 1, 1, (8,)))
        with pytest.raises(ValueError, match=r"^held-out MSE is inf, not finite in float64$"):
            scaled_mse(init_params(plans, 0), plans, fit_scaler(dataset), far)

    @pytest.mark.parametrize("which, column", [("inputs", 4), ("targets", 3)])
    def test_fold_that_overflows_its_standardization_raises_naming_it(self, which, column):
        # A cell at float64's largest value overflows once divided by a std below 1.
        dataset = field_dataset(2, num_points=20, seed=4)
        train_data = Dataset(
            tuple(Simulation(s.name, s.points, 0.01 * s.targets) for s in dataset.simulations), split_label="train"
        )
        scaler = fit_scaler(train_data)
        assert scaler.input_std[4] < 1 and scaler.target_std[3] < 1
        sim = dataset.simulations[0]
        points, targets = sim.points.copy(), sim.targets.copy()
        (points if which == "inputs" else targets)[0, column] = np.finfo(np.float64).max
        fold = Dataset((Simulation(sim.name, points, targets),), split_label="test")
        plans = plan_layers(PackedSpec(2, 1, 1, (8,)))
        with pytest.raises(ValueError, match=f"^{which} are too large for float64 once standardized$"):
            scaled_mse(init_params(plans, 0), plans, scaler, fold)

    def test_early_stop_fires_at_window_plus_one(self):
        dataset = field_dataset(2, num_points=20, seed=4)
        spec = PackedSpec(2, 1, 1, (8,))
        # negligible learning rate => every relative change is tiny from epoch 1
        cfg = TrainConfig(
            learning_rate=1e-9, max_epochs=50, seed=0, early_stop_enabled=True
        )
        _, history = train(spec, dataset, None, fit_scaler(dataset), cfg)
        assert history.num_epochs == 5 + 1  # the fixed 5-epoch window

    def test_validation_set_is_pooled_and_scaled_once(self, monkeypatch):
        train_data = field_dataset(3, num_points=20, seed=2)
        val_data = field_dataset(2, num_points=10, seed=9, split_label="test")
        spec = PackedSpec(2, 1, 1, (8,))
        cfg = TrainConfig(learning_rate=0.01, max_epochs=4, batch_points=16, seed=0)
        scaler = fit_scaler(train_data)
        original, pooled = training.pooled_scaled_arrays, []

        def counting(dataset, scaler):
            pooled.append(dataset.split_label)
            return original(dataset, scaler)

        monkeypatch.setattr(training, "pooled_scaled_arrays", counting)
        train(spec, train_data, val_data, scaler, cfg)
        assert pooled == ["train", "test"]

    def test_one_workspace_per_call(self, monkeypatch):
        # Three epochs of three steps each (the last one short), all in one set of buffers.
        dataset = field_dataset(2, num_points=20, seed=4)
        spec = PackedSpec(2, 2, 3, (12, 12), dropout_enabled=True)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=3, batch_points=16, seed=0)
        built = []
        init = packed_net._Workspace.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(packed_net._Workspace, "__init__", counting_init)
        train(spec, dataset, None, fit_scaler(dataset), cfg)
        assert [rows for _, rows in built] == [16]
        train(spec, dataset, None, fit_scaler(dataset), cfg)
        assert len(built) == 2

    def test_early_stop_disabled_runs_all_epochs(self):
        dataset = field_dataset(2, num_points=20, seed=4)
        spec = PackedSpec(2, 1, 1, (8,))
        cfg = TrainConfig(learning_rate=1e-9, max_epochs=8, seed=0)
        _, history = train(spec, dataset, None, fit_scaler(dataset), cfg)
        assert history.num_epochs == 8


def sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


class TestTrainGolden:
    """Trained parameters and loss histories, pinned bit for bit.

    300 points in batches of 128 leave a short last batch of 44.  The digests
    were recorded with fresh arrays for every step, so they also show that
    reusing one workspace across steps changes no bit.
    """

    DIGESTS = {
        (1, False): (
            "69ca5beb967fe26cf32fcee37ed4610faa6acd671c2a9494d689974cc6205e40",
            "48a3d1256fad9558d1b1c0693695a68804ddc88edb31beb58b8af7629b2e7754",
            "5df9f5272f03c59bab812e03e1c4ca52cf544e1e03652376c0a9272c52b5615e",
        ),
        (1, True): (
            "344402da5cb4ec9cb662d826ccda3191adc934bcaa87f981867e84cacfd7d24b",
            "68d98000ed9db393e9baad76cd19172590fdf3447dcf14f76937def9b98facd9",
            "8290830f1a900a89c473d171fff80bc3e7fe0e263ad6b7d80d7e8180125d02fb",
        ),
        (3, False): (
            "372e818bf0d40bca800682c0a86ee16f0936d4eef16a5a309d5d31a181b3676c",
            "c590e8819bd8d26a0df5fa2740bd6191b2ed4bd2ca1180999de2bf0e98a62e5a",
            "64e2b2d140680a30459926701679b36a917a87ccbb514643a562b7d5c38dfb37",
        ),
        (3, True): (
            "07934e48ac55901624f71cc47067ec1aafc935c615661d157c3d8c5741600498",
            "b5fe542b78eb905b867ecc59d22689c00a20bf88153bd55b73e8ae909edcd6f4",
            "d31b9fcf61dbc8d6b0c16db460119b5e23187bc4c349638fc3f6bde6be765c49",
        ),
    }

    @pytest.mark.parametrize("gamma, dropout", DIGESTS)
    def test_params_and_losses_match_recorded_digests(self, gamma, dropout):
        data = cylinder_dataset(3, surface_points=40, field_points=60, seed=21)
        val = cylinder_dataset(2, surface_points=24, field_points=24, seed=22, split_label="test")
        spec = PackedSpec(2, 2, gamma, (12, 18, 12), dropout_enabled=dropout)
        cfg = TrainConfig(learning_rate=0.003, weight_decay=1e-4, max_epochs=3, batch_points=128, seed=5)
        params, history = train(spec, data, val, fit_scaler(data), cfg)
        digests = (sha256(params.flat), sha256(history.train_loss), sha256(history.val_loss))
        assert digests == self.DIGESTS[gamma, dropout]


class TestCrossValidateGolden:
    """``cross_validate``'s fold losses with ``configs/cv.json``'s base spec and grid, pinned bit for bit.

    The grid has two dropout rows, gamma = 2 and gamma = 4.  Each fold trains on
    128 points in batches of 100, so every epoch ends with a short batch of 28.
    The digests were recorded with float dropout masks and regroup copies, so
    they also show that keep masks and regrouping by view change no bit.
    """

    DIGESTS = [
        "43c07a23bb9761c52acd8ec012382ba3a4458fe468bf3f95d6f83dd95e480ffc",
        "5f95957135e5f40cc99d9c0e06ae22a0078903797d14fb96683a7010d8e34203",
        "12bf232c24ba0caf44bc6861cef1044d3e277fbd6427da7dcd29adf274d6835b",
        "5ffcb1fae402cbc6ef541d19954901527bdb52dc6e0c1d7e171fc67b6ab85cdf",
    ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fold_losses_match_recorded_digests(self, jobs):
        config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "cv.json").read_text())
        base = PackedSpec(**config["base_spec"])
        grid = [GridRow(**row) for row in config["grid"]]
        assert {(row.dropout, row.gamma) for row in grid} == {(True, 2), (False, 2), (False, 4)}
        cfg = TrainConfig(learning_rate=0.01, max_epochs=2, batch_points=100, seed=9)
        data = cylinder_dataset(4, surface_points=24, field_points=40, seed=23)
        rows = cross_validate(data, grid, base, cfg, k=2, jobs=jobs)
        assert [sha256(row.fold_losses) for row in rows] == self.DIGESTS


@pytest.fixture(scope="module")
def cv_setup():
    dataset = field_dataset(6, num_points=25, seed=5)
    base = PackedSpec(4, 1, 1, (8,))
    grid = [
        GridRow(dropout=False, alpha=1, gamma=1, learning_rate=0.01),
        GridRow(dropout=True, alpha=2, gamma=2, learning_rate=0.001),
    ]
    cfg = TrainConfig(learning_rate=0.01, max_epochs=2, batch_points=64, seed=3)
    result = cross_validate(dataset, grid, base, cfg, k=3)
    return dataset, base, grid, cfg, result


class TestCrossValidate:

    def test_rows_keep_grid_order(self, cv_setup):
        _, _, grid, _, result = cv_setup
        assert [(r.dropout, r.alpha, r.gamma, r.learning_rate) for r in result] == [
            (g.dropout, g.alpha, g.gamma, g.learning_rate) for g in grid
        ]

    def test_mean_equals_recomputed_fold_mean(self, cv_setup):
        _, _, _, _, result = cv_setup
        for row in result:
            assert len(row.fold_losses) == 3
            assert abs(row.validation_loss - sum(row.fold_losses) / 3) <= 1e-12

    def test_deterministic(self, cv_setup):
        dataset, base, grid, cfg, result = cv_setup
        again = cross_validate(dataset, grid, base, cfg, k=3)
        for a, b in zip(result, again):
            assert a == b

    def test_fold_losses_recomputable_from_parts(self, cv_setup):
        # Recompute one fold's loss end to end and compare against the stored value.
        dataset, base, grid, cfg, result = cv_setup
        from dataclasses import replace

        from packedflow.data import kfold_split

        folds = kfold_split(dataset, 3, cfg.seed)
        row = grid[0]
        spec = replace(base, alpha=row.alpha, gamma=row.gamma, dropout_enabled=row.dropout)
        row_cfg = replace(cfg, learning_rate=row.learning_rate)
        fold_train, fold_val = folds[1]
        scaler = fit_scaler(fold_train)
        params, _ = train(spec, fold_train, None, scaler, row_cfg)
        loss = scaled_mse(params, plan_layers(spec), scaler, fold_val)
        assert loss == result[0].fold_losses[1]

    def test_empty_grid_rejected(self, cv_setup):
        dataset, base, _, cfg, _ = cv_setup
        with pytest.raises(ValueError, match="grid"):
            cross_validate(dataset, [], base, cfg, k=3)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failures_annotate_the_row(self, cv_setup, jobs):
        dataset, _, grid, cfg, _ = cv_setup
        mismatched = PackedSpec(4, 1, 1, (8,), in_features=5)
        with pytest.raises(RuntimeError, match="cv row 0 .* fold 0: layer 0: .* network expects 5"):
            cross_validate(dataset, grid, mismatched, cfg, k=3, jobs=jobs)

    def test_pool_has_at_most_one_worker_per_task(self, cv_setup, monkeypatch):
        dataset, base, grid, cfg, result = cv_setup
        workers = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(training, "ProcessPoolExecutor", InProcessPool)
        assert cross_validate(dataset, grid, base, cfg, k=3, jobs=5000) == result
        assert workers == [len(grid) * 3]

    def test_used_pool_survives_forks_and_cv_workers_run_one_thread(self):
        # In a fresh interpreter: a used two-thread pool, then cv processes and a forked step.
        # A forked copy of a used pool would hang, so the scenario runs under a timeout.
        script = textwrap.dedent(
            """
            import multiprocessing
            import os
            import threading

            import numpy as np
            from helpers import field_dataset
            from packedflow import packed_net, training
            from packedflow.packed_net import PackedSpec, init_params, loss_and_grad, plan_layers
            from packedflow.training import GridRow, TrainConfig, cross_validate

            packed_net._set_pool_width(2)
            packed_net._estimator_block = lambda plans, rows: 1
            spec = PackedSpec(4, 1, 1, (8,))
            plans = plan_layers(spec)
            params = init_params(plans, 0)
            rng = np.random.default_rng(0)
            x, y = rng.normal(size=(64, 7)), rng.normal(size=(64, 4))
            _, grads = loss_and_grad(params, plans, x, y)
            assert packed_net._pool is not None

            def step(conn):
                conn.send(loss_and_grad(params, plans, x, y)[1].flat.tobytes())

            fork = multiprocessing.get_context("fork")
            reader, writer = fork.Pipe(duplex=False)
            child = fork.Process(target=step, args=(writer,))
            child.start()
            print(reader.recv() == grads.flat.tobytes())
            child.join(10)
            assert child.exitcode == 0

            # Forked cv workers see this stand-in; each fold reports its process's pool width.
            training.scaled_mse = lambda *args: float(packed_net._pool_width())
            cfg = TrainConfig(learning_rate=0.01, max_epochs=1, batch_points=64, seed=3)
            grid = [GridRow(dropout=False, alpha=1, gamma=1, learning_rate=0.01)]
            # The threads alive at each of cv's forks: the used pool's must be gone.
            forks = []
            os.register_at_fork(before=lambda: forks.append(sorted(t.name for t in threading.enumerate())))
            rows = cross_validate(field_dataset(6, num_points=25, seed=5), grid, spec, cfg, k=3, jobs=2)
            print(sorted(set(rows[0].fold_losses)))
            print(forks)
            """
        )
        path = os.pathsep.join([str(Path(__file__).parent), *sys.path])
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a forked process hung on the pool")
        assert proc.returncode == 0, err
        assert out.split("\n") == ["True", "[1.0]", "[['MainThread'], ['MainThread']]", ""]

    def test_in_process_folds_call_the_module_train(self, cv_setup, monkeypatch):
        # Tracing that patches ``training.train`` must see every fold of a one-job run.
        dataset, base, grid, cfg, result = cv_setup
        calls = []

        def counting_train(*args, **kwargs):
            calls.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(training, "train", counting_train)
        assert cross_validate(dataset, grid, base, cfg, k=3, jobs=1) == result
        assert len(calls) == len(grid) * 3
