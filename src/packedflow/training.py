"""Optimization loop (Adam with weight decay), early stopping, and CV harness."""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, ScalerPair, _pooled, apply_scaler, fit_scaler, kfold_split
from .packed_net import (
    DROPOUT_P,
    PackedSpec,
    Params,
    forward,
    init_params,
    loss_and_grad,
    make_dropout_masks,
    plan_layers,
)

__all__ = [
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPSILON",
    "TrainConfig",
    "AdamState",
    "TrainHistory",
    "GridRow",
    "CVRow",
    "CVResult",
    "TrainingDivergedError",
    "init_adam_state",
    "adam_step",
    "early_stop",
    "pooled_scaled_arrays",
    "scaled_mse",
    "train",
    "cross_validate",
    "write_history_csv",
    "write_cv_csv",
    "write_cv_fold_csv",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

CV_CSV_HEADER = ("dropout", "alpha", "gamma", "learning_rate", "validation_loss")


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss; carries the epoch index."""

    def __init__(self, epoch: int, detail: str):
        super().__init__(f"training diverged at epoch {epoch}: {detail}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    weight_decay: float = 0.0
    max_epochs: int = 100
    batch_points: int = 4096
    seed: int = 0
    early_stop_enabled: bool = False
    early_stop_threshold: float = 0.01
    early_stop_window: int = 5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be non-negative, got {self.max_epochs}")
        if self.batch_points < 1:
            raise ValueError(f"batch_points must be positive, got {self.batch_points}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.early_stop_threshold < 1.0:
            raise ValueError(f"early_stop_threshold must be in (0, 1), got {self.early_stop_threshold}")
        if self.early_stop_window < 1:
            raise ValueError(f"early_stop_window must be >= 1, got {self.early_stop_window}")


@dataclass
class AdamState:
    """Exponential moment estimates, aligned with the ``Params.flat`` they track."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


@dataclass
class TrainHistory:
    """Per-epoch log: training loss, optional validation loss, wall seconds."""

    train_loss: list[float]
    val_loss: list[float] | None
    wall_seconds: list[float]

    @property
    def num_epochs(self) -> int:
        return len(self.train_loss)


@dataclass(frozen=True)
class GridRow:
    """One hyperparameter combination of the CV grid."""

    dropout: bool
    alpha: int
    gamma: int
    learning_rate: float


@dataclass(frozen=True)
class CVRow:
    dropout: bool
    alpha: int
    gamma: int
    learning_rate: float
    validation_loss: float
    fold_losses: tuple[float, ...]


@dataclass(frozen=True)
class CVResult:
    rows: tuple[CVRow, ...]


def init_adam_state(params: Params) -> AdamState:
    return AdamState(first_moment=np.zeros_like(params.flat), second_moment=np.zeros_like(params.flat))


def adam_step(
    params: Params,
    grads: Params,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[Params, AdamState]:
    """One bias-corrected Adam update over the whole parameter vector.

    Weight decay enters as coupled L2 (gradient += weight_decay * param)
    before the moment updates, and never touches biases.
    """
    bad = grads.non_finite_layer()
    if bad is not None:
        raise ValueError(f"non-finite gradient in layer {bad}")

    t = state.step_count + 1
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t

    decayed = grads.copy()
    for g, w in zip(decayed.weights, params.weights):
        g += weight_decay * w
    g = decayed.flat
    m_new = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * g
    v_new = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * (g * g)
    m_hat = m_new / correction1
    v_hat = v_new / correction2
    flat = params.flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return Params.from_flat(flat, params.shapes), AdamState(m_new, v_new, t)


def early_stop(history: list[float], threshold: float = 0.01, window: int = 5) -> bool:
    """True iff the last ``window`` relative loss changes are all below threshold.

    A zero previous loss counts as converged (relative change 0).  Needs at
    least ``window + 1`` entries to fire.
    """
    if len(history) < window + 1:
        return False
    for prev, cur in zip(history[-window - 1 : -1], history[-window:]):
        change = 0.0 if prev == 0.0 else abs(cur - prev) / abs(prev)
        if change >= threshold:
            return False
    return True


def pooled_scaled_arrays(dataset: Dataset, scaler: ScalerPair) -> tuple[np.ndarray, np.ndarray]:
    """Standardized (inputs, targets) pooled over all points of all simulations."""
    points, targets = _pooled(dataset)
    return (
        apply_scaler(scaler, points, "forward", "inputs"),
        apply_scaler(scaler, targets, "forward", "targets"),
    )


def scaled_mse(params: Params, plans, scaler: ScalerPair, dataset: Dataset) -> float:
    """MSE of the ensemble mean, without dropout, on standardized targets."""
    x, y = pooled_scaled_arrays(dataset, scaler)
    out = forward(params, plans, x)
    diff = out.mean_output - y
    return float(np.mean(diff * diff))


def train(
    spec: PackedSpec,
    train_data: Dataset,
    val_data: Dataset | None,
    scaler: ScalerPair,
    cfg: TrainConfig,
) -> tuple[Params, TrainHistory]:
    """Mini-batch Adam training on standardized pooled points.

    Points of all simulations are pooled and reshuffled each epoch with a
    seeded generator; the loss is the MSE of the ensemble mean against
    standardized targets.  Deterministic given (spec, data, cfg.seed) in
    single-threaded execution.
    """
    if len(train_data) == 0:
        raise ValueError("train_data is empty")
    plans = plan_layers(spec)
    params = init_params(plans, cfg.seed)
    state = init_adam_state(params)
    x, y = pooled_scaled_arrays(train_data, scaler)
    n = len(x)
    rng = np.random.default_rng([cfg.seed, 1])

    losses: list[float] = []
    val_losses: list[float] | None = [] if val_data is not None else None
    wall: list[float] = []
    for epoch in range(cfg.max_epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        weighted = 0.0
        for start in range(0, n, cfg.batch_points):
            idx = order[start : start + cfg.batch_points]
            masks = None
            if spec.dropout_enabled:
                masks = make_dropout_masks(plans, len(idx), DROPOUT_P, rng)
            loss, grads = loss_and_grad(params, plans, x[idx], y[idx], masks)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, f"loss = {loss}")
            try:
                params, state = adam_step(params, grads, state, cfg.learning_rate, cfg.weight_decay)
            except ValueError as exc:
                raise TrainingDivergedError(epoch, str(exc)) from exc
            weighted += loss * len(idx)
        losses.append(weighted / n)
        if val_losses is not None:
            val_losses.append(scaled_mse(params, plans, scaler, val_data))
        wall.append(time.perf_counter() - started)
        if cfg.early_stop_enabled and early_stop(
            losses, cfg.early_stop_threshold, cfg.early_stop_window
        ):
            break
    return params, TrainHistory(train_loss=losses, val_loss=val_losses, wall_seconds=wall)


def _fold_loss(spec: PackedSpec, cfg: TrainConfig, fold_train: Dataset, fold_val: Dataset) -> float:
    scaler = fit_scaler(fold_train)
    params, _ = train(spec, fold_train, None, scaler, cfg)
    return scaled_mse(params, plan_layers(spec), scaler, fold_val)


def _cv_task(args):
    row_index, fold_index, spec, cfg, fold_train, fold_val = args
    return row_index, fold_index, _fold_loss(spec, cfg, fold_train, fold_val)


def cross_validate(
    dataset: Dataset,
    grid: list[GridRow],
    base_spec: PackedSpec,
    cfg: TrainConfig,
    k: int = 4,
    jobs: int = 1,
) -> CVResult:
    """k-fold cross-validation over a hyperparameter grid.

    For each grid row the base spec's alpha/gamma/dropout and the learning
    rate are overridden, the scaler is refit on each fold's training portion,
    and the row's validation loss is the mean of the k held-out standardized
    MSEs.  Rows keep grid order.
    """
    if not grid:
        raise ValueError("grid is empty")
    folds = kfold_split(dataset, k, cfg.seed)

    tasks = []
    for row_index, row in enumerate(grid):
        spec = replace(
            base_spec,
            alpha=row.alpha,
            gamma=row.gamma,
            dropout_enabled=row.dropout,
        )
        row_cfg = replace(cfg, learning_rate=row.learning_rate)
        for fold_index, (fold_train, fold_val) in enumerate(folds):
            tasks.append((row_index, fold_index, spec, row_cfg, fold_train, fold_val))

    def annotate(task, exc):
        row_index, fold_index = task[0], task[1]
        raise RuntimeError(
            f"cv row {row_index} ({grid[row_index]}) failed on fold {fold_index}: {exc}"
        ) from exc

    fold_losses = [[math.nan] * k for _ in grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_cv_task, task) for task in tasks]
            for task, future in zip(tasks, futures):
                try:
                    row_index, fold_index, loss = future.result()
                except Exception as exc:
                    annotate(task, exc)
                fold_losses[row_index][fold_index] = loss
    else:
        for task in tasks:
            try:
                row_index, fold_index, loss = _cv_task(task)
            except Exception as exc:
                annotate(task, exc)
            fold_losses[row_index][fold_index] = loss

    rows = tuple(
        CVRow(
            dropout=row.dropout,
            alpha=row.alpha,
            gamma=row.gamma,
            learning_rate=row.learning_rate,
            validation_loss=sum(fold_losses[i]) / k,
            fold_losses=tuple(fold_losses[i]),
        )
        for i, row in enumerate(grid)
    )
    return CVResult(rows=rows)


def write_history_csv(history: TrainHistory, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "train_loss", "val_loss", "wall_seconds"))
        for epoch in range(history.num_epochs):
            val = "" if history.val_loss is None else repr(history.val_loss[epoch])
            writer.writerow(
                (epoch, repr(history.train_loss[epoch]), val, repr(history.wall_seconds[epoch]))
            )


def write_cv_csv(result: CVResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CV_CSV_HEADER)
        for row in result.rows:
            writer.writerow(
                (row.dropout, row.alpha, row.gamma, repr(row.learning_rate), repr(row.validation_loss))
            )


def write_cv_fold_csv(result: CVResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("row", "dropout", "alpha", "gamma", "learning_rate", "fold", "validation_loss"))
        for i, row in enumerate(result.rows):
            for fold_index, loss in enumerate(row.fold_losses):
                writer.writerow(
                    (i, row.dropout, row.alpha, row.gamma, repr(row.learning_rate), fold_index, repr(loss))
                )
