"""Acceptance gates for the full pipeline, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the gate at its stated tolerance.  Expected values come from
independent oracles: a from-scratch dense MLP, central finite differences,
closed-form potential-flow results, and an O(n^2) rank implementation.
"""

import csv
import json

import numpy as np
from helpers import (
    cylinder_dataset,
    dense_forward,
    dense_loss_and_grads,
    fd_gradients,
    naive_spearman,
    nudge_biases_off_kinks,
    relative_error,
)

from packedflow.bench import time_training
from packedflow.cli import run_cli
from packedflow.data import fit_scaler, write_dataset
from packedflow.metrics import evaluate, evaluate_predictions, force_coefficients
from packedflow.packed_net import (
    PackedSpec,
    forward,
    init_params,
    load_params,
    loss_and_grad,
    param_count,
    plan_layers,
    save_params,
)
from packedflow.metrics import spearman
from packedflow.training import GridRow, TrainConfig, cross_validate, early_stop, train

DEEP_THIN = (64, 64, 8, 64, 64, 64, 8, 64, 64)
CV_BASE = (48, 128, 48)


def gate(number, description, ok):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_c1_degenerate_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        hidden = tuple(int(rng.integers(3, 24)) for _ in range(depth))
        in_features = int(rng.integers(2, 9))
        out_features = int(rng.integers(1, 6))
        spec = PackedSpec(1, 1, 1, hidden, in_features=in_features, out_features=out_features)
        plans = plan_layers(spec)
        params = init_params(plans, int(rng.integers(0, 2**31)))
        n = int(rng.integers(1, 9))
        x = rng.normal(size=(n, in_features))
        y = rng.normal(size=(n, out_features))

        dense_weights = [w[0] for w in params.weights]
        out = forward(params, plans, x)
        ref_out = dense_forward(dense_weights, params.biases, x)
        loss, grads = loss_and_grad(params, plans, x, y)
        ref_loss, ref_w, ref_b = dense_loss_and_grads(dense_weights, params.biases, x, y)

        worst = max(worst, np.abs(out.mean_output - ref_out).max())
        worst = max(worst, abs(loss - ref_loss))
        for i in range(len(plans)):
            worst = max(worst, np.abs(grads.weights[i][0] - ref_w[i]).max())
            worst = max(worst, np.abs(grads.biases[i] - ref_b[i]).max())
    gate(1, f"PE(1,1,1) equals dense reference on 100 cases (worst |diff| = {worst:.2e})", worst <= 1e-12)


def test_c2_gradient_correctness():
    spec = PackedSpec(4, 2, 2, CV_BASE)
    plans = plan_layers(spec)
    params = init_params(plans, 2)
    rng = np.random.default_rng(202)
    x = rng.normal(size=(4, 7))
    y = rng.normal(size=(4, 4))
    # keep every pre-activation away from zero so the +-1e-3 sweeps stay smooth
    nudge_biases_off_kinks(params, plans, x)
    _, grads = loss_and_grad(params, plans, x, y)
    fd_w, fd_b = fd_gradients(params, plans, x, y, step=1e-3)
    worst = 0.0
    for i in range(len(plans)):
        worst = max(worst, relative_error(grads.weights[i], fd_w[i]).max())
        worst = max(worst, relative_error(grads.biases[i], fd_b[i]).max())
    total = param_count(plans)
    gate(
        2,
        f"all {total} gradients of PE(4,2,2) on (48,128,48) match finite differences "
        f"(worst rel err = {worst:.2e})",
        worst < 1e-4,
    )


def test_c3_ensemble_identities():
    dense = param_count(plan_layers(PackedSpec(1, 1, 1, DEEP_THIN)))
    multiples_ok = all(
        param_count(plan_layers(PackedSpec(m, m, 1, DEEP_THIN))) == m * dense for m in (2, 4, 8)
    )

    def hidden_weights(spec):
        return sum(
            p.groups * p.per_group_out * p.per_group_in
            for p in plan_layers(spec)
            if p.role == "hidden"
        )

    quarter = hidden_weights(PackedSpec(8, 4, 1, DEEP_THIN))
    full = hidden_weights(PackedSpec(8, 8, 1, DEEP_THIN))
    quarter_ok = 4 * quarter == full
    gate(
        3,
        f"PE(M,M,1) = M x dense count for M in (2,4,8); PE(8,4,1) hidden weights "
        f"{quarter} = 0.25 x {full}",
        multiples_ok and quarter_ok,
    )


def test_c4_speed_direction():
    dataset = cylinder_dataset(20, surface_points=100, field_points=150, seed=3)
    scaler = fit_scaler(dataset)
    cfg = TrainConfig(learning_rate=2e-4, weight_decay=1e-5, max_epochs=4, batch_points=2048, seed=0)
    seconds_half, _, _ = time_training(PackedSpec(8, 4, 1, DEEP_THIN), cfg, dataset, scaler)
    seconds_full, _, _ = time_training(PackedSpec(8, 8, 1, DEEP_THIN), cfg, dataset, scaler)
    gate(
        4,
        f"PE(8,4,1) trains faster than PE(8,8,1)/1.1 on equal work "
        f"({seconds_half:.2f} s vs {seconds_full:.2f} s, ratio {seconds_full / seconds_half:.2f})",
        seconds_half <= seconds_full / 1.1,
    )


def test_c5_analytic_force_oracles():
    speed, circulation = 10.0, 5.0
    still = cylinder_dataset(
        1, surface_points=2000, field_points=10, seed=1, circulation=0.0, radius=0.8, speed=speed
    ).simulations[0]
    fc0 = force_coefficients(still, still.targets)

    spinning = cylinder_dataset(
        1, surface_points=2000, field_points=10, seed=2, circulation=circulation, radius=0.8, speed=speed
    ).simulations[0]
    fc1 = force_coefficients(spinning, spinning.targets)
    lift_force = fc1.lift * 0.5 * speed**2
    expected = -speed * circulation  # counterclockwise circulation pushes down
    lift_err = abs(lift_force - expected) / abs(expected)
    gate(
        5,
        f"zero-circulation drag/lift ({fc0.drag:.1e}, {fc0.lift:.1e}) < 1e-3; circulating lift "
        f"within {lift_err:.1e} of U*Gamma with drag {fc1.drag:.1e} still < 1e-3",
        abs(fc0.drag) < 1e-3 and abs(fc0.lift) < 1e-3 and lift_err < 0.01 and abs(fc1.drag) < 1e-3,
    )


def test_c6_rank_statistics_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        xs = rng.integers(0, 8, size=n).astype(float)  # small alphabet forces ties
        ys = rng.integers(0, 8, size=n).astype(float)
        if len(set(xs.tolist())) < 2 or len(set(ys.tolist())) < 2:
            continue
        worst = max(worst, abs(spearman(xs, ys) - naive_spearman(xs, ys)))
    monotone_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 30))
        xs = rng.normal(size=n)
        if len(set(xs.tolist())) < 2:
            continue
        monotone_ok &= spearman(xs, np.exp(xs)) == 1.0
        monotone_ok &= spearman(xs, -(xs**3)) == -1.0
    gate(
        6,
        f"spearman matches the independent average-rank oracle (worst diff = {worst:.2e}) "
        f"and returns exactly +-1 on monotone data",
        worst <= 1e-12 and monotone_ok,
    )


def test_c7_learning_sanity():
    dataset = cylinder_dataset(12, surface_points=100, field_points=200, seed=11)
    scaler = fit_scaler(dataset)
    spec = PackedSpec(8, 4, 1, DEEP_THIN)
    cfg = TrainConfig(learning_rate=2e-4, weight_decay=1e-5, max_epochs=200, batch_points=512, seed=0)
    _, history = train(spec, dataset, None, scaler, cfg)
    ratio = min(history.train_loss) / history.train_loss[0]

    report, _ = evaluate_predictions([sim.targets for sim in dataset.simulations], dataset)
    perfect_ok = (
        report.mse_x_velocity == 0.0
        and report.mse_y_velocity == 0.0
        and report.mse_pressure == 0.0
        and report.mse_surface_pressure == 0.0
        and report.mse_turbulent_viscosity == 0.0
        and report.mean_relative_drag == 0.0
        and report.mean_relative_lift == 0.0
        and report.spearman_drag == 1.0
        and report.spearman_lift == 1.0
    )
    gate(
        7,
        f"train loss falls to {100 * ratio:.1f}% of epoch 1 within 200 epochs (< 10%); "
        f"perfect predictor scores zero MSEs and Spearman 1.0",
        ratio < 0.1 and perfect_ok,
    )


def test_c8_protocol_fidelity(tmp_path):
    dataset = cylinder_dataset(4, surface_points=16, field_points=24, seed=8)
    write_dataset(dataset, tmp_path / "train")
    config = tmp_path / "cv.json"
    config.write_text(
        json.dumps(
            {
                "base_spec": {"num_estimators": 4, "alpha": 1, "gamma": 1, "hidden_widths": [48]},
                "train": {"learning_rate": 0.01, "max_epochs": 2, "batch_points": 128},
                "grid": [
                    {"dropout": False, "alpha": 1, "gamma": 1, "learning_rate": 0.01},
                    {"dropout": True, "alpha": 2, "gamma": 2, "learning_rate": 0.001},
                ],
                "k": 2,
                "data": {"train_dir": "train"},
            }
        )
    )
    out = tmp_path / "out"
    cli_ok = run_cli(["cv", "--config", str(config), "--seed", "4", "--out", str(out)]) == 0
    with open(out / "cv_results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    schema_ok = rows[0] == ["dropout", "alpha", "gamma", "learning_rate", "validation_loss"]
    with open(out / "cv_fold_losses.csv", newline="") as fh:
        fold_rows = list(csv.reader(fh))[1:]
    means_ok = True
    for row_index, summary in enumerate(rows[1:]):
        folds = [float(r[6]) for r in fold_rows if int(r[0]) == row_index]
        means_ok &= len(folds) == 2
        means_ok &= abs(float(summary[4]) - sum(folds) / len(folds)) <= 1e-12
    stops_ok = (
        early_stop([1.0, 0.995, 0.991, 0.987, 0.983, 0.979]) is True
        and early_stop([1.0, 0.995, 0.90, 0.897, 0.894, 0.891]) is False
        and early_stop([1.0, 0.995, 0.991, 0.987, 0.983]) is False
    )
    gate(
        8,
        "cv emits the dropout/alpha/gamma/learning_rate/validation_loss schema, "
        "row losses equal fold means, and early_stop follows the 1%-for-5-epochs rule",
        cli_ok and schema_ok and means_ok and stops_ok,
    )


def test_c9_determinism_and_serialization(tmp_path):
    dataset = cylinder_dataset(4, surface_points=16, field_points=24, seed=9)
    scaler = fit_scaler(dataset)
    spec = PackedSpec(4, 2, 1, (16,), dropout_enabled=True)
    cfg = TrainConfig(learning_rate=0.01, max_epochs=3, batch_points=128, seed=6)
    params_a, hist_a = train(spec, dataset, None, scaler, cfg)
    params_b, hist_b = train(spec, dataset, None, scaler, cfg)
    history_ok = hist_a.train_loss == hist_b.train_loss
    params_ok = all(
        np.array_equal(a, b)
        for a, b in zip(params_a.weights + params_a.biases, params_b.weights + params_b.biases)
    )

    grid = [GridRow(dropout=False, alpha=1, gamma=1, learning_rate=0.01)]
    cv_a = cross_validate(dataset, grid, spec, cfg, k=2)
    cv_b = cross_validate(dataset, grid, spec, cfg, k=2)
    cv_ok = cv_a == cv_b

    model_path = tmp_path / "model.pkmlp"
    save_params(model_path, spec, params_a)
    loaded_spec, loaded_plans, loaded = load_params(model_path)
    bits_ok = loaded_spec == spec and all(
        np.array_equal(a, b)
        for a, b in zip(params_a.weights + params_a.biases, loaded.weights + loaded.biases)
    )
    eval_ok = (
        evaluate(params_a, plan_layers(spec), scaler, dataset).to_dict()
        == evaluate(loaded, loaded_plans, scaler, dataset).to_dict()
    )
    gate(
        9,
        "seeded reruns reproduce training histories and CV tables; model files "
        "round-trip bit-exactly and evaluate identically",
        history_ok and params_ok and cv_ok and bits_ok and eval_ok,
    )
