"""Evaluation suite: per-channel MSE, surface-pressure extraction, pressure
force coefficients, mean relative drag/lift, and Spearman rank correlations
across simulations.

Forces are pressure-only: F/rho = -sum_i (p/rho)_i * n_i * l_i over the
ordered surface polygon, normalized by the dynamic pressure |v_inlet|^2 / 2.
Skin friction is not part of the point schema, so relative and rank metrics
are the meaningful cross-simulation quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .data import TARGET_COLUMNS, Dataset, ScalerPair, Simulation, apply_scaler
from .formats import ConfigError, write_csv, write_json
from .packed_net import Params, forward

__all__ = [
    "SurfacePolyline",
    "ForceCoefficients",
    "EvalReport",
    "CoefficientRow",
    "order_surface",
    "force_coefficients",
    "check_scorable",
    "spearman",
    "mean_relative_error",
    "predict_simulation",
    "evaluate",
    "evaluate_predictions",
    "coefficient_table",
    "null_reasons",
    "write_report_json",
    "write_coefficients_csv",
]


class SurfacePolyline(NamedTuple):
    """Surface points in closed-polygon order with per-point arc lengths."""

    indices: np.ndarray  # (S,) indices into the simulation's points
    segment_lengths: np.ndarray  # (S,) half-sum of the two incident edges, all positive


@dataclass(frozen=True)
class ForceCoefficients:
    """Pressure force per density, normalized by dynamic pressure |v_inlet|^2/2."""

    drag: float
    lift: float


class CoefficientRow(NamedTuple):
    """One simulation's predicted and reference pressure force coefficients."""

    sim: str
    drag_pred: float
    drag_true: float
    lift_pred: float
    lift_true: float


@dataclass(frozen=True)
class EvalReport:
    """The metric suite for one model on one dataset split.

    MSEs are in physical units (after inverse scaling).  A drag or lift
    entry is None where the split cannot support it (see :func:`null_reasons`).
    """

    mse_x_velocity: float
    mse_y_velocity: float
    mse_pressure: float
    mse_surface_pressure: float
    mse_turbulent_viscosity: float
    mean_relative_drag: float | None
    mean_relative_lift: float | None
    spearman_drag: float | None
    spearman_lift: float | None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def order_surface(sim: Simulation) -> SurfacePolyline:
    """Order the surface points by angle around their centroid (ties by radius).

    The result is treated as a closed polygon; each point's effective arc
    length is half the sum of its two incident edge lengths, so the lengths
    sum to the polygon perimeter.  Valid for star-shaped sections with no
    three coincident points, whose middle one would get length 0.
    """
    surface_indices = np.flatnonzero(sim.surface_mask)
    if len(surface_indices) < 3:
        raise ValueError(
            f"simulation {sim.name!r}: need at least 3 surface points, have {len(surface_indices)}"
        )
    xy = sim.points[surface_indices, :2]
    centered = xy - xy.mean(axis=0)
    angles = np.arctan2(centered[:, 1], centered[:, 0])
    radii = np.hypot(centered[:, 0], centered[:, 1])
    order = np.lexsort((radii, angles))
    ordered = surface_indices[order]
    coords = xy[order]
    edges = np.hypot(*(np.roll(coords, -1, axis=0) - coords).T)  # edge i -> i+1, cyclic
    lengths = 0.5 * (edges + np.roll(edges, 1))
    if (lengths <= 0).any():
        raise ValueError(f"simulation {sim.name!r}: coincident surface points, segment lengths must be positive")
    return SurfacePolyline(indices=ordered, segment_lengths=lengths)


def force_coefficients(sim: Simulation, field: np.ndarray) -> ForceCoefficients:
    """Integrate the surface pressure of a per-point field into drag and lift coefficients.

    ``field`` is shaped like ``sim.targets`` (a prediction, or the targets); its p/rho
    column is read on the :func:`order_surface` polygon.  The force F/rho = -sum p n l
    with outward unit normals; drag and lift are its x and y components over the dynamic
    pressure from the inlet velocity, which every point must state alike.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.shape != sim.targets.shape:
        raise ValueError(f"simulation {sim.name!r}: field shape {field.shape} vs targets {sim.targets.shape}")
    polyline = order_surface(sim)
    p = field[polyline.indices, 2]
    normals = sim.points[polyline.indices, 5:7]
    force = -(p[:, None] * normals * polyline.segment_lengths[:, None]).sum(axis=0)

    inlet = sim.points[0, 2:4]
    if (sim.points[:, 2:4] != inlet).any():
        raise ValueError(f"simulation {sim.name!r}: inlet velocity differs between points")
    dynamic_pressure = 0.5 * float(inlet @ inlet)
    if dynamic_pressure == 0.0:
        raise ValueError(f"simulation {sim.name!r}: zero inlet speed, coefficients undefined")
    return ForceCoefficients(
        drag=float(force[0] / dynamic_pressure), lift=float(force[1] / dynamic_pressure)
    )


def check_scorable(dataset: Dataset, where) -> None:
    """Raise ``ConfigError`` unless every simulation of the split can be scored.

    Runs :func:`force_coefficients` on each simulation's ``targets``, so a split fails
    here exactly where :func:`coefficient_table` would on it: fewer than 3 surface points,
    coincident surface points, an inlet velocity that differs between points, or zero
    inlet speed.  The message names ``where`` and the simulation.
    """
    for sim in dataset.simulations:
        try:
            force_coefficients(sim, sim.targets)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values get the mean of their rank range."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the 1-based rank of each distinct value's last copy
    return (last - 0.5 * (counts - 1))[inverse]


def spearman(xs, ys) -> float:
    """Spearman rank correlation: Pearson correlation of fractional ranks."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"inputs must be equal-length 1-D, got {xs.shape} and {ys.shape}")
    if len(xs) < 2:
        raise ValueError("need at least 2 samples")
    if np.isnan(xs).any() or np.isnan(ys).any():
        raise ValueError("cannot rank NaN values")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    var_x = float(dx @ dx)
    var_y = float(dy @ dy)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("rank correlation undefined for constant input")
    return float((dx @ dy) / math.sqrt(var_x * var_y))


def mean_relative_error(pred, truth) -> float:
    """Mean over entries of |pred - truth| / |truth|; a zero reference raises, naming its indices."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    zero = np.flatnonzero(truth == 0.0)
    if len(zero):
        raise ValueError(f"relative error undefined for zero reference values at: {', '.join(map(str, zero))}")
    return float(np.mean(np.abs(pred - truth) / np.abs(truth)))


def predict_simulation(params: Params, plans, scaler: ScalerPair, sim: Simulation) -> np.ndarray:
    """Model prediction for one simulation in physical units, under one error state that hides overflow.

    Inputs too large for float64 once standardized (a tiny ``input_std``, say)
    raise ``ValueError`` naming the simulation.  A prediction that overflows,
    in the network or in physical units, is non-finite, and
    :func:`evaluate_predictions` rejects it naming the simulation.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = apply_scaler(scaler, sim.points, "forward", "inputs")
        if not np.isfinite(scaled).all():
            raise ValueError(f"simulation {sim.name!r}: inputs are too large for float64 once standardized")
        out = forward(params, plans, scaled)
        return apply_scaler(scaler, out.mean_output, "inverse", "targets")


def coefficient_table(predictions: list[np.ndarray], dataset: Dataset) -> list[CoefficientRow]:
    """One :class:`CoefficientRow` per simulation, in the split's order.

    A simulation that cannot be scored, or a list of another length than the split, raises ``ValueError``.
    """
    rows = []
    for pred, sim in zip(predictions, dataset.simulations, strict=True):
        predicted = force_coefficients(sim, pred)
        actual = force_coefficients(sim, sim.targets)
        rows.append(CoefficientRow(sim.name, predicted.drag, actual.drag, predicted.lift, actual.lift))
    return rows


def null_reasons(table) -> dict[str, str]:
    """Why the None drag and lift fields of the ``EvalReport`` on a :func:`coefficient_table` are None.

    By field name: a reference coefficient of exactly 0.0 (drag-free potential
    flow) leaves that quantity's relative error and rank correlation undefined,
    and a rank correlation needs two simulations and two distinct values on each
    side: it is undefined when every reference value, or every predicted value,
    of its quantity is the same.
    """
    reasons = {}
    for quantity in ("drag", "lift"):
        zero = [row.sim for row in table if getattr(row, f"{quantity}_true") == 0.0]
        tied = [
            f"{side} {quantity} is {getattr(table[0], field)!r} at every simulation"
            for side, field in (("reference", f"{quantity}_true"), ("predicted", f"{quantity}_pred"))
            if len({getattr(row, field) for row in table}) == 1
        ]
        if zero:
            reason = f"reference {quantity} is exactly 0.0 at: {', '.join(zero)}"
            reasons[f"mean_relative_{quantity}"] = reasons[f"spearman_{quantity}"] = reason
        elif len(table) < 2:
            reasons[f"spearman_{quantity}"] = f"needs two simulations, the split has one: {table[0].sim}"
        elif tied:
            reasons[f"spearman_{quantity}"] = "; ".join(tied)
    return reasons


def evaluate_predictions(predictions: list[np.ndarray], dataset: Dataset) -> tuple[EvalReport, list[CoefficientRow]]:
    """Score precomputed physical-unit predictions, one per simulation.

    Returns the metric suite and the :func:`coefficient_table` it built first,
    which rejects a list of another length than the split and a misshapen
    prediction; one non-finite or too large to score then raises ``ValueError``.
    """
    if not dataset.simulations:
        raise ValueError("cannot evaluate an empty dataset")
    sq_sum = np.zeros(len(TARGET_COLUMNS))
    count = 0
    surface_sq_sum = 0.0
    surface_count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        table = coefficient_table(predictions, dataset)
        for pred, sim in zip(predictions, dataset.simulations, strict=True):
            diff = pred - sim.targets
            sq = (diff * diff).sum(axis=0)
            if not np.isfinite(sq).all():
                raise ValueError(f"simulation {sim.name!r}: prediction is non-finite or too large to score")
            sq_sum += sq
            count += sim.num_points
            surface_diff = diff[sim.surface_mask, 2]
            surface_sq_sum += float(surface_diff @ surface_diff)
            surface_count += len(surface_diff)
    mse = sq_sum / count
    undefined = null_reasons(table)  # null at every zero reference, so no relative error meets one

    def unless_null(field, score, quantity):
        pred, true = (np.array([getattr(row, f"{quantity}_{side}") for row in table]) for side in ("pred", "true"))
        return None if field in undefined else score(pred, true)

    report = EvalReport(
        mse_x_velocity=float(mse[0]),
        mse_y_velocity=float(mse[1]),
        mse_pressure=float(mse[2]),
        mse_surface_pressure=surface_sq_sum / surface_count,
        mse_turbulent_viscosity=float(mse[3]),
        mean_relative_drag=unless_null("mean_relative_drag", mean_relative_error, "drag"),
        mean_relative_lift=unless_null("mean_relative_lift", mean_relative_error, "lift"),
        spearman_drag=unless_null("spearman_drag", spearman, "drag"),
        spearman_lift=unless_null("spearman_lift", spearman, "lift"),
    )
    return report, table


def evaluate(params: Params, plans, scaler: ScalerPair, dataset: Dataset) -> EvalReport:
    """Predict every simulation (scale, forward, inverse-scale) and score it."""
    predictions = [predict_simulation(params, plans, scaler, sim) for sim in dataset.simulations]
    return evaluate_predictions(predictions, dataset)[0]


def write_report_json(report: EvalReport, path) -> None:
    write_json(path, report.to_dict())


def write_coefficients_csv(rows, path) -> None:
    write_csv(path, CoefficientRow._fields, rows)
