"""Cost benchmarking: parameter counts and wall-clock training time per spec.

Timings cover the epoch loop only (dataset loading and scaler work are
excluded) and are recorded next to a machine descriptor, since absolute
seconds are not comparable across machines.  The descriptor names the
worker threads the network passes run on: a training step shares its
estimator blocks among them, so ``train_seconds`` depends on that count, while
the outputs do not (threads split blocks, never a GEMM).  Rows run
sequentially so the numbers within one report are comparable.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .data import Dataset, ScalerPair, fit_scaler
from .formats import is_file_name, write_csv, write_json
from .metrics import EvalReport, evaluate
from .packed_net import PackedSpec, Params, _pool_width, param_count, plan_layers
from .training import TrainConfig, TrainHistory, train, write_history_csv

__all__ = [
    "BenchCase",
    "BenchRow",
    "BenchReport",
    "machine_descriptor",
    "time_training",
    "run_benchmark",
    "write_benchmark",
]


@dataclass(frozen=True)
class BenchCase:
    """One benchmark row: a name that is one file-name component, a spec and its optimizer settings."""

    name: str
    spec: PackedSpec
    learning_rate: float
    weight_decay: float = 0.0

    def __post_init__(self):
        if not is_file_name(self.name):
            raise ValueError(f"name {self.name!r} must be one file-name component")
        TrainConfig(self.learning_rate, self.weight_decay)  # its checks reject a bad optimizer setting


@dataclass
class BenchRow:
    """One case's outcome: its training history and a metric report per split."""

    case: BenchCase
    reports: dict[str, EvalReport] = field(default_factory=dict)
    history: TrainHistory | None = None
    error: str | None = None

    @property
    def param_count(self) -> int:
        return param_count(plan_layers(self.case.spec))

    @property
    def train_seconds(self) -> float:
        """Seconds spent in the epoch loop; 0.0 when training failed."""
        return 0.0 if self.history is None else sum(self.history.wall_seconds)

    @property
    def final_train_loss(self) -> float | None:
        """The last epoch's training loss; None (an empty CSV cell) when training failed or ran no epoch."""
        if self.history is None or not self.history.train_loss:
            return None
        return self.history.train_loss[-1]


@dataclass
class BenchReport:
    rows: list[BenchRow]
    machine: dict
    split_names: tuple[str, ...]


def machine_descriptor() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "worker_threads": _pool_width(),
    }


def time_training(
    spec: PackedSpec, cfg: TrainConfig, dataset: Dataset, scaler: ScalerPair
) -> tuple[float, Params, TrainHistory]:
    """Train once and report the wall-clock seconds spent in the epoch loop.

    Early stopping must be disabled so compared runs do equal epochs.
    """
    if cfg.early_stop_enabled:
        raise ValueError("benchmark timing requires early_stop_enabled=False")
    params, history = train(spec, dataset, None, scaler, cfg)
    return sum(history.wall_seconds), params, history


def run_benchmark(
    cases: list[BenchCase],
    cfg: TrainConfig,
    train_split: Dataset,
    eval_splits: dict[str, Dataset],
) -> BenchReport:
    """Train each case once, evaluate on every split, and collect a report.

    Every case trains all of ``cfg``'s epochs with its own optimizer settings;
    with early stopping on, each row records ``time_training``'s error.  A
    failing case is recorded with its error and the remaining cases run.
    """
    if not cases:
        raise ValueError("no benchmark cases")
    scaler = fit_scaler(train_split)
    rows = []
    for case in cases:
        plans = plan_layers(case.spec)
        row = BenchRow(case)
        try:
            case_cfg = replace(cfg, learning_rate=case.learning_rate, weight_decay=case.weight_decay)
            _, params, row.history = time_training(case.spec, case_cfg, train_split, scaler)
            for split_name, split in eval_splits.items():
                row.reports[split_name] = evaluate(params, plans, scaler, split)
        except Exception as exc:  # keep remaining rows running
            row.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return BenchReport(rows=rows, machine=machine_descriptor(), split_names=tuple(eval_splits))


class _Column(NamedTuple):
    name: str  # CSV header
    value: Callable[[BenchRow, EvalReport | None], object]  # from a row and its report on one split
    header: str | None = None  # text-table header; None keeps the column out of the table
    fmt: str = ""  # text-table format spec


def _metric(name: str) -> Callable[[BenchRow, EvalReport | None], object]:
    return lambda row, report: None if report is None else getattr(report, name)


_TABLE_METRICS = {
    "mean_relative_drag": "mean relative drag",
    "mean_relative_lift": "mean relative lift",
    "spearman_drag": "Spearman's correlation for drag",
    "spearman_lift": "Spearman's correlation for lift",
}

# The one column list of bench_<split>.csv, in order; the columns with a header
# also form bench_<split>.txt.  A None value is an empty CSV cell and a "-" table cell.
_COLUMNS = (
    _Column("name", lambda row, _: row.case.name, "model"),
    _Column("layers", lambda row, _: "(" + ",".join(map(str, row.case.spec.hidden_widths)) + ")", "layers"),
    _Column("num_estimators", lambda row, _: row.case.spec.num_estimators, "M"),
    _Column("alpha", lambda row, _: row.case.spec.alpha, "alpha"),
    _Column("gamma", lambda row, _: row.case.spec.gamma, "gamma"),
    _Column("dropout", lambda row, _: row.case.spec.dropout_enabled, "dropout"),
    _Column("learning_rate", lambda row, _: row.case.learning_rate, "lr", "g"),
    _Column("weight_decay", lambda row, _: row.case.weight_decay, "weight decay", "g"),
    _Column("param_count", lambda row, _: row.param_count, "params"),
    _Column("train_seconds", lambda row, _: row.train_seconds, "train seconds", ".3f"),
    _Column("final_train_loss", lambda row, _: row.final_train_loss),
    *(_Column(f.name, _metric(f.name), _TABLE_METRICS.get(f.name), ".4g") for f in fields(EvalReport)),
    _Column("error", lambda row, _: row.error),
)


def write_benchmark(report: BenchReport, out_dir) -> None:
    """Emit one CSV and one aligned text table per split, raw per-epoch logs, and machine info."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "machine.json", report.machine)

    logs_dir = out_dir / "logs"
    logs_dir.mkdir(exist_ok=True)
    for row in report.rows:
        if row.history is not None:
            write_history_csv(row.history, logs_dir / f"{row.case.name}_history.csv")

    for split_name in report.split_names:
        values = [[col.value(row, row.reports.get(split_name)) for col in _COLUMNS] for row in report.rows]
        write_csv(out_dir / f"bench_{split_name}.csv", [col.name for col in _COLUMNS], values)
        _write_text_table(split_name, values, out_dir / f"bench_{split_name}.txt")


def _write_text_table(split_name: str, values: list[list], path: Path) -> None:
    shown = [i for i, col in enumerate(_COLUMNS) if col.header]
    table = [[_COLUMNS[i].header for i in shown]]
    table += [["-" if row[i] is None else format(row[i], _COLUMNS[i].fmt) for i in shown] for row in values]
    widths = [max(len(cells[i]) for cells in table) for i in range(len(shown))]
    lines = [f"evaluation split: {split_name}"]
    lines += ["  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip() for cells in table]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
