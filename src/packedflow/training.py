"""Optimization loop (Adam with weight decay), early stopping, and CV harness."""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Dataset, ScalerPair, _pooled, apply_scaler, fit_scaler, kfold_split
from .formats import write_csv
from .packed_net import (
    PackedSpec,
    Params,
    _set_pool_width,
    _shutdown_pool,
    _Workspace,
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


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss; carries the epoch index."""

    def __init__(self, epoch: int, detail: str):
        super().__init__(f"training diverged at epoch {epoch}: {detail}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings; early stopping, where enabled, is ``early_stop``'s fixed 1%-for-5-epochs rule."""

    learning_rate: float
    weight_decay: float = 0.0
    max_epochs: int = 100
    batch_points: int = 4096
    seed: int = 0
    early_stop_enabled: bool = False

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


@dataclass
class AdamState:
    """Exponential moment estimates, aligned with the ``Params.flat`` they track.

    ``adam_step`` updates the moments in place and computes in ``scratch``,
    two more rows of that length, so a step allocates no array.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty((2, self.first_moment.size))


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

    def __post_init__(self):
        for key in ("alpha", "gamma"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        TrainConfig(self.learning_rate)  # its check rejects a bad learning rate


@dataclass(frozen=True)
class CVRow(GridRow):
    """A grid row with its held-out loss on each of the k folds."""

    fold_losses: tuple[float, ...]

    @property
    def validation_loss(self) -> float:
        return sum(self.fold_losses) / len(self.fold_losses)


_GRID_COLUMNS = tuple(f.name for f in fields(GridRow))


def _grid_values(row: GridRow) -> tuple:
    return tuple(getattr(row, name) for name in _GRID_COLUMNS)


def init_adam_state(params: Params) -> AdamState:
    return AdamState(first_moment=np.zeros_like(params.flat), second_moment=np.zeros_like(params.flat))


def adam_step(
    params: Params,
    grads: Params,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[Params, AdamState]:
    """One bias-corrected Adam update over the whole parameter vector, in place.

    Weight decay enters as coupled L2 (gradient += weight_decay * param)
    before the moment updates, and never touches biases.  ``params`` and
    ``state`` are updated in place and returned; ``grads`` is left unchanged.
    A gradient that is not finite, or whose square overflows float64, raises
    ``ValueError`` naming its layer before anything is written: the update
    first computes ``(1 - beta2) * g**2`` into its scratch and checks it.
    The values are those of the textbook formula, evaluated in the same order.
    """
    g, tmp = state.scratch
    with np.errstate(over="ignore", invalid="ignore"):
        np.copyto(g, grads.flat)
        for g_w, w in zip(Params(g, params.shapes).weights, params.weights):
            g_w += np.multiply(weight_decay, w, out=tmp[: w.size].reshape(w.shape))
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
    if not np.isfinite(tmp).all():
        bad = grads.non_finite_layer()
        if bad is not None:
            raise ValueError(f"non-finite gradient in layer {bad}")
        bad = Params(tmp, params.shapes).non_finite_layer()
        raise ValueError(f"gradient in layer {bad} is too large to square in float64")

    t = state.step_count + 1
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    m, v = state.first_moment, state.second_moment
    v *= ADAM_BETA2
    v += tmp
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
    m_hat = np.divide(m, correction1, out=tmp)
    sqrt_v_hat = np.sqrt(np.divide(v, correction2, out=g), out=g)
    sqrt_v_hat += ADAM_EPSILON
    m_hat *= lr
    m_hat /= sqrt_v_hat
    params.flat -= m_hat
    state.step_count = t
    return params, state


def early_stop(history: list[float]) -> bool:
    """True iff each of the last 5 relative loss changes is below 1%; the rule is fixed, not configured.

    A zero previous loss counts as converged (relative change 0).  Needs at
    least 6 entries to fire.
    """
    last = history[-6:]
    changes = [0.0 if prev == 0.0 else abs(cur - prev) / abs(prev) for prev, cur in zip(last, last[1:])]
    return len(changes) == 5 and not any(change >= 0.01 for change in changes)


def pooled_scaled_arrays(dataset: Dataset, scaler: ScalerPair) -> tuple[np.ndarray, np.ndarray]:
    """Standardized (inputs, targets) pooled over all points of all simulations.

    Either one too large for float64 once standardized raises ``ValueError`` naming it.
    """
    points, targets = _pooled(dataset)
    with np.errstate(over="ignore"):
        x = apply_scaler(scaler, points, "forward", "inputs")
        y = apply_scaler(scaler, targets, "forward", "targets")
    for which, values in (("inputs", x), ("targets", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"{which} are too large for float64 once standardized")
    return x, y


def scaled_mse(params: Params, plans, scaler: ScalerPair, dataset: Dataset) -> float:
    """MSE of the ensemble mean, without dropout, on standardized targets; a non-finite one raises ``ValueError``."""
    return _mse(params, plans, *pooled_scaled_arrays(dataset, scaler))


def _mse(params: Params, plans, x: np.ndarray, y: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        diff = forward(params, plans, x).mean_output - y
        mse = float(np.mean(diff * diff))
    if not math.isfinite(mse):
        raise ValueError(f"held-out MSE is {mse}, not finite in float64")
    return mse


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
    standardized targets.  With dropout, each step draws fresh keep masks from
    the same generator, into one set of bool buffers.  Deterministic given
    (spec, data, cfg.seed), bit for bit whatever the number of workers the
    passes run on.
    """
    if len(train_data) == 0:
        raise ValueError("train_data is empty")
    plans = plan_layers(spec)
    params = init_params(plans, cfg.seed)
    state = init_adam_state(params)
    x, y = pooled_scaled_arrays(train_data, scaler)
    try:
        val = pooled_scaled_arrays(val_data, scaler) if val_data is not None else None
    except ValueError as exc:
        raise ValueError(f"validation data: {exc}") from None
    n = len(x)
    rng = np.random.default_rng([cfg.seed, 1])
    # One set of buffers for every step; a short last batch uses their leading rows.
    ws = _Workspace(plans, min(n, cfg.batch_points))
    mask_bufs = [np.empty((ws.rows, p.out_width), dtype=bool) for p in plans[:-1]] if spec.dropout_enabled else None

    losses: list[float] = []
    val_losses: list[float] | None = [] if val is not None else None
    wall: list[float] = []
    for epoch in range(cfg.max_epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        weighted = 0.0
        for start in range(0, n, cfg.batch_points):
            idx = order[start : start + cfg.batch_points]
            masks = None
            if mask_bufs is not None:
                masks = make_dropout_masks(plans, len(idx), rng, out=[buf[: len(idx)] for buf in mask_bufs])
            with np.errstate(over="ignore", invalid="ignore"):  # a diverging step is caught below
                loss, grads = loss_and_grad(params, plans, x[idx], y[idx], masks, ws)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, f"loss = {loss}")
            try:
                params, state = adam_step(params, grads, state, cfg.learning_rate, cfg.weight_decay)
            except ValueError as exc:
                raise TrainingDivergedError(epoch, str(exc)) from exc
            weighted += loss * len(idx)
        losses.append(weighted / n)
        if val_losses is not None:
            try:
                val_losses.append(_mse(params, plans, *val))
            except ValueError as exc:
                raise ValueError(f"validation at epoch {epoch}: {exc}") from None
        wall.append(time.perf_counter() - started)
        if cfg.early_stop_enabled and early_stop(losses):
            break
    return params, TrainHistory(train_loss=losses, val_loss=val_losses, wall_seconds=wall)


def _fold_loss(task) -> float:
    """Held-out standardized MSE of one (grid row, fold) task.

    A failure is re-raised as a ``RuntimeError`` naming the row and the fold;
    its one-string message survives the trip back from a pool worker.
    """
    row_index, row, fold_index, spec, cfg, fold_train, fold_val = task
    try:
        scaler = fit_scaler(fold_train)
        params, _ = train(spec, fold_train, None, scaler, cfg)
        return scaled_mse(params, plan_layers(spec), scaler, fold_val)
    except Exception as exc:
        raise RuntimeError(f"cv row {row_index} ({row}) failed on fold {fold_index}: {exc}") from exc


def cross_validate(
    dataset: Dataset,
    grid: list[GridRow],
    base_spec: PackedSpec,
    cfg: TrainConfig,
    k: int = 4,
    jobs: int = 1,
) -> tuple[CVRow, ...]:
    """k-fold cross-validation over a hyperparameter grid.

    For each grid row the base spec's alpha/gamma/dropout and the learning
    rate are overridden, the scaler is refit on each fold's training portion,
    and the row's validation loss is the mean of the k held-out standardized
    MSEs.  Rows keep grid order.  With ``jobs > 1`` the fold tasks run in a
    process pool of at most one worker per task, each worker process running
    its network passes on one thread.  The pass pool's threads are joined
    first, so each worker is forked from a process with one thread.
    """
    if not grid:
        raise ValueError("grid is empty")
    folds = kfold_split(dataset, k, cfg.seed)
    tasks = []
    for row_index, row in enumerate(grid):
        spec = replace(base_spec, alpha=row.alpha, gamma=row.gamma, dropout_enabled=row.dropout)
        row_cfg = replace(cfg, learning_rate=row.learning_rate)
        tasks += [(row_index, row, f, spec, row_cfg, *fold) for f, fold in enumerate(folds)]
    if jobs > 1:
        _shutdown_pool()
        # The processes take the cores, so each runs its network passes on one thread.
        with ProcessPoolExecutor(min(jobs, len(tasks)), initializer=_set_pool_width, initargs=(1,)) as pool:
            losses = list(pool.map(_fold_loss, tasks))
    else:
        losses = list(map(_fold_loss, tasks))
    return tuple(
        CVRow(*_grid_values(row), fold_losses=tuple(losses[i * k : (i + 1) * k]))
        for i, row in enumerate(grid)
    )


def write_history_csv(history: TrainHistory, path) -> None:
    val_loss = history.val_loss or [None] * history.num_epochs
    write_csv(
        path,
        ("epoch", "train_loss", "val_loss", "wall_seconds"),
        zip(range(history.num_epochs), history.train_loss, val_loss, history.wall_seconds),
    )


def write_cv_csv(rows: tuple[CVRow, ...], path) -> None:
    write_csv(
        path,
        (*_GRID_COLUMNS, "validation_loss"),
        ((*_grid_values(row), row.validation_loss) for row in rows),
    )


def write_cv_fold_csv(rows: tuple[CVRow, ...], path) -> None:
    write_csv(
        path,
        ("row", *_GRID_COLUMNS, "fold", "validation_loss"),
        (
            (i, *_grid_values(row), fold, loss)
            for i, row in enumerate(rows)
            for fold, loss in enumerate(row.fold_losses)
        ),
    )
