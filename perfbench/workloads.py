"""The three benchmark workloads: inputs made from a seed, one operation, output checks.

Each operation is one real ``packedflow`` subcommand run in-process through
``packedflow.cli.run_cli``.  The specs are copies of ``configs/bench.json``,
``configs/cv.json`` and ``configs/train.json`` at the commit that defined the
benchmark, so later edits to the sample configs do not change what is measured.
The inputs are the library's analytic cylinder flows with a wake term added
(see ``_with_drag``), written as CSV datasets.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from packedflow import cli
from packedflow import data as data_layer
from packedflow.data import CylinderFlowConfig, Dataset, ScalerPair, Simulation, load_dataset
from packedflow.metrics import evaluate, write_report_json
from packedflow.packed_net import PackedSpec, load_params

BENCH_CASES = (
    {
        "name": "half_capacity",
        "spec": {"num_estimators": 8, "alpha": 4, "gamma": 1, "hidden_widths": [64, 64, 8, 64, 64, 64, 8, 64, 64]},
        "weight_decay": 1e-5,
    },
    {
        "name": "deep_ensemble_equivalent",
        "spec": {"num_estimators": 8, "alpha": 8, "gamma": 1, "hidden_widths": [64, 64, 8, 64, 64, 64, 8, 64, 64]},
        "weight_decay": 1e-5,
    },
)
CV_BASE_SPEC = {"num_estimators": 4, "alpha": 2, "gamma": 2, "hidden_widths": [48, 128, 48]}
CV_GRID = (
    {"dropout": True, "alpha": 2, "gamma": 2, "learning_rate": 0.01},
    {"dropout": True, "alpha": 2, "gamma": 2, "learning_rate": 0.001},
    {"dropout": False, "alpha": 2, "gamma": 2, "learning_rate": 0.01},
    {"dropout": False, "alpha": 4, "gamma": 4, "learning_rate": 0.001},
)
EVAL_SPEC = BENCH_CASES[0]["spec"]  # configs/train.json: PE(8,4,1)

# Every spec the benchmark trains, by the case name its per-layer counts use.
CASES = {
    "half_capacity": BENCH_CASES[0]["spec"],
    "deep_ensemble_equivalent": BENCH_CASES[1]["spec"],
    "cv_a2g2": {**CV_BASE_SPEC, "alpha": 2, "gamma": 2},
    "cv_a4g4": {**CV_BASE_SPEC, "alpha": 4, "gamma": 4},
}

BATCH_POINTS = 1024


def case_of_spec(spec: PackedSpec) -> str:
    """The case name of a spec the benchmark trains, or "" for any other spec."""
    for name, case in CASES.items():
        if PackedSpec.from_dict(case) == spec:
            return name
    return ""


def _split(num_sims: int, surface: int, field_points: int, ood: bool = False) -> dict:
    """One split of the sample generator config (configs/gen.json ranges)."""
    return {
        "num_sims": num_sims,
        "surface_points": surface,
        "field_points": field_points,
        "radius_range": (0.5, 1.0),
        "inlet_speed_range": (5.0, 15.0),
        "circulation_range": (-4.0, 4.0),
        "ood": ood,
    }


def _rows(splits: dict, name: str) -> int:
    s = splits[name]
    return s["num_sims"] * (s["surface_points"] + s["field_points"])


# Fore-aft pressure asymmetry added to every generated flow, as a share of U^2.
WAKE = 0.25


def _with_drag(sim: Simulation) -> Simulation:
    """The flow with a smooth wake-like pressure term, so that it has genuine drag.

    Ideal potential flow has zero drag: the generator's reference drag is
    quadrature noise, exactly 0.0 on about 2-3% of 64-point rings, and relative
    drag is then undefined, which fails the whole bench row or eval run.  Flows
    that real users evaluate (viscous CFD) have drag.  The term is
    ``-WAKE * U^2 * cos(theta) * exp(-distance / radius)``: on the surface it
    integrates to a drag of ``WAKE * U^2 * pi * radius`` per unit density.
    """
    x, y, inlet_speed, distance = (sim.points[:, i] for i in (0, 1, 2, 4))
    r = np.hypot(x, y)
    targets = sim.targets.copy()
    targets[:, 2] -= WAKE * inlet_speed**2 * (x / r) * np.exp(-distance / (r - distance))
    return Simulation(sim.name, sim.points, targets)


def _write_json(path: Path, payload: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _without_column(path: Path, column: str) -> str:
    """CSV text with one column dropped: timings fall outside the determinism contract."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index(column)
    out = io.StringIO()
    csv.writer(out).writerows([r[:drop] + r[drop + 1 :] for r in rows])
    return out.getvalue()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def run_cli(argv: list[str]) -> tuple[int, float]:
    """Run one subcommand; its progress lines go to stderr so stdout ends with the result."""
    started = time.perf_counter()
    with redirect_stdout(sys.stderr):
        # Looked up at call time, so that a tracer's wrapper is the one called.
        rc = cli.run_cli(argv)
    return rc, time.perf_counter() - started


@dataclass
class Op:
    """One invocation of the workload's subcommand and what its outputs showed."""

    rc: int
    wall: float
    out: Path
    problems: list[str] = field(default_factory=list)
    fingerprint: object = None

    @property
    def ok(self) -> bool:
        return not self.problems


class Workload:
    name = ""
    jobs = 1

    def __init__(self, seed: int):
        self.seed = seed

    def _gen(self, data: Path, splits: dict) -> None:
        """Generate and write each split, seeded from the workload seed."""
        for index, (label, split) in enumerate(sorted(splits.items())):
            split_seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
            # Looked up at call time, like cli.run_cli, so a tracer sees these calls.
            flows = data_layer.generate_cylinder_flow(
                CylinderFlowConfig(seed=split_seed, **split), split_label=label
            )
            dataset = Dataset(tuple(_with_drag(sim) for sim in flows.simulations), label)
            data_layer.write_dataset(dataset, data / label)

    def setup(self, data: Path) -> None:
        raise NotImplementedError

    def _argv(self, data: Path, out: Path, jobs: int) -> list[str]:
        raise NotImplementedError

    def run(self, data: Path, out: Path, jobs: int | None = None) -> Op:
        rc, wall = run_cli(self._argv(data, out, self.jobs if jobs is None else jobs))
        op = Op(rc=rc, wall=wall, out=out)
        if rc != 0:
            op.problems.append(f"exit code {rc}")
        try:
            self._inspect(op)
        except (OSError, ValueError, KeyError) as exc:
            op.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return op

    def _inspect(self, op: Op) -> None:
        """Check the outputs of an operation and record their fingerprint."""
        raise NotImplementedError

    def compare(self, op: Op, reference: Op) -> None:
        if op.ok and reference.ok and op.fingerprint != reference.fingerprint:
            op.problems.append("outputs differ from the reference operation")

    def points(self, op: Op) -> int:
        """Points processed by one operation (the throughput numerator)."""
        raise NotImplementedError

    def finish(self, tracer, data: Path, reference: Op, work: Path) -> None:
        """Last step of a run: read the traced operation's spans, or check the reference further."""


class BenchPair(Workload):
    """``packedflow bench`` on the two bench specs, fixed epochs, early stop off."""

    name = "bench_pair"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        # The train split is larger than the sample one, so the epoch loop dominates.
        self.splits = {
            "train": _split(2, 32, 96) if tiny else _split(8, 64, 448),
            "test": _split(2, 64, 16) if tiny else _split(4, 64, 96),
            "test_ood": _split(2, 64, 16, ood=True) if tiny else _split(4, 64, 96, ood=True),
        }
        self.epochs = 2 if tiny else 3
        self.train_rows = _rows(self.splits, "train")

    def setup(self, data: Path) -> None:
        self._gen(data, self.splits)
        _write_json(
            data / "bench.json",
            {
                "cases": list(BENCH_CASES),
                "train": {"learning_rate": 2e-4, "max_epochs": self.epochs, "batch_points": BATCH_POINTS},
                "data": {"train_dir": "train", "test_dir": "test", "test_ood_dir": "test_ood"},
            },
        )

    def _argv(self, data, out, jobs):
        return ["bench", "--config", str(data / "bench.json"), "--seed", str(self.seed), "--out", str(out)]

    def _inspect(self, op: Op) -> None:
        names = [c["name"] for c in BENCH_CASES]
        fingerprint = {}
        for split in ("test", "test_ood"):
            path = op.out / f"bench_{split}.csv"
            rows = _read_csv(path)
            if [r["name"] for r in rows] != names:
                op.problems.append(f"bench_{split}.csv: rows {[r['name'] for r in rows]}, expected {names}")
            op.problems += [f"bench_{split}.csv: {r['name']} failed: {r['error']}" for r in rows if r["error"]]
            fingerprint[path.name] = _without_column(path, "train_seconds")
        for name in names:
            path = op.out / "logs" / f"{name}_history.csv"
            losses = [r["train_loss"] for r in _read_csv(path)]
            if len(losses) != self.epochs:
                op.problems.append(f"{path.name}: {len(losses)} epochs, expected {self.epochs}")
            elif not all(_finite(v) for v in losses):
                op.problems.append(f"{path.name}: non-finite loss")
            elif any(float(b) >= float(a) for a, b in zip(losses, losses[1:])):
                op.problems.append(f"{path.name}: loss did not decrease every epoch: {losses}")
            fingerprint[path.name] = _without_column(path, "wall_seconds")
        op.fingerprint = fingerprint

    def points(self, op: Op) -> int:
        return len(BENCH_CASES) * self.epochs * self.train_rows

    def epoch_loop_seconds(self, op: Op) -> dict[str, float]:
        return {r["name"]: float(r["train_seconds"]) for r in _read_csv(op.out / "bench_test.csv")}

    def steps(self) -> int:
        return self.epochs * -(-self.train_rows // BATCH_POINTS)


class CvGrid(Workload):
    """``packedflow cv --jobs 2`` over the sample grid: dropout, early stopping, k=4."""

    name = "cv_grid"
    jobs = 2

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.splits = {"train": _split(4, 16, 48) if tiny else _split(8, 64, 192)}
        # Early stopping makes the epoch count data-dependent; the traced
        # one-worker run of the same inputs counts it, and its outputs must
        # equal those of every untraced operation.
        self.point_epochs = 0

    def setup(self, data: Path) -> None:
        self._gen(data, self.splits)
        _write_json(
            data / "cv.json",
            {
                "base_spec": CV_BASE_SPEC,
                "train": {
                    "learning_rate": 0.01,
                    "max_epochs": 10,
                    "batch_points": BATCH_POINTS,
                    "early_stop_enabled": True,
                },
                "grid": list(CV_GRID),
                "k": 4,
                "subsample_fraction": 1.0,
                "data": {"train_dir": "train"},
            },
        )

    def _argv(self, data, out, jobs):
        config = str(data / "cv.json")
        return ["cv", "--config", config, "--seed", str(self.seed), "--jobs", str(jobs), "--out", str(out)]

    def _inspect(self, op: Op) -> None:
        results = _read_csv(op.out / "cv_results.csv")
        folds = _read_csv(op.out / "cv_fold_losses.csv")
        if len(results) != len(CV_GRID) or len(folds) != 4 * len(CV_GRID):
            op.problems.append(f"cv outputs have {len(results)} rows and {len(folds)} fold rows")
        if not all(_finite(r["validation_loss"]) for r in results + folds):
            op.problems.append("non-finite validation loss")
        op.fingerprint = {
            name: (op.out / name).read_bytes() for name in ("cv_results.csv", "cv_fold_losses.csv")
        }

    def points(self, op: Op) -> int:
        return self.point_epochs

    def finish(self, tracer, data, reference, work):
        self.point_epochs = sum(
            s.work["epochs"] * s.work["rows"]
            for s in tracer.spans
            if s.name == "training.train" and s.run == "op"
        )


class EvalLarge(Workload):
    """``packedflow eval`` of a saved PE(8,4,1) on large simulations read from CSV."""

    name = "eval_large"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.splits = {
            "train": _split(2, 32, 96) if tiny else _split(4, 64, 448),
            "test": _split(3, 64, 436) if tiny else _split(3, 400, 19600),
        }
        self.test_rows = _rows(self.splits, "test")

    def setup(self, data: Path) -> None:
        self._gen(data, self.splits)
        config = _write_json(
            data / "train.json",
            {
                "spec": EVAL_SPEC,
                "train": {
                    "learning_rate": 2e-4,
                    "weight_decay": 1e-5,
                    "max_epochs": 3,
                    "batch_points": BATCH_POINTS,
                },
                "data": {"train_dir": "train"},
            },
        )
        rc, _ = run_cli(["train", "--config", config, "--seed", str(self.seed), "--out", str(data / "model")])
        if rc != 0:
            raise RuntimeError(f"{self.name} set-up: train exited {rc}")
        _write_json(
            data / "eval.json",
            {"model": "model/model.pkmlp", "scaler": "model/scaler.json", "data": {"dir": "test"}},
        )

    def _argv(self, data, out, jobs):
        return ["eval", "--config", str(data / "eval.json"), "--out", str(out)]

    def _inspect(self, op: Op) -> None:
        report = json.loads((op.out / "eval_report.json").read_text(encoding="utf-8"))
        bad = [k for k, v in report.items() if not (isinstance(v, float) and math.isfinite(v))]
        if bad:
            op.problems.append(f"eval_report.json: not a finite number: {bad}")
        op.fingerprint = {
            name: (op.out / name).read_bytes() for name in ("eval_report.json", "coefficients.csv")
        }

    def points(self, op: Op) -> int:
        return self.test_rows

    def finish(self, tracer, data, reference, work):
        """The report must equal an in-process ``evaluate`` of the reloaded model."""
        if not reference.ok:
            return
        _, plans, params = load_params(data / "model" / "model.pkmlp")
        scaler = ScalerPair.from_dict(json.loads((data / "model" / "scaler.json").read_text(encoding="utf-8")))
        path = work / "in_process_report.json"
        write_report_json(evaluate(params, plans, scaler, load_dataset(data / "test")), path)
        if path.read_bytes() != reference.fingerprint["eval_report.json"]:
            reference.problems.append("eval_report.json differs from an in-process evaluate")


WORKLOADS = {w.name: w for w in (BenchPair, CvGrid, EvalLarge)}
