"""Spans around the public functions of every packedflow layer, recorded from outside.

The tracer replaces each traced function by a wrapper in every ``packedflow``
module that binds it, because callers look names up in their own module
(``packedflow.training.loss_and_grad``, ``packedflow.cli.evaluate``).  Spans
stay in memory as (name, start, end, parent, run) records and are written out
when the benchmark ends.  No file of the program changes.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Layer -> public functions traced in it.  The layer names are the module names.
TRACED = {
    "cli": ("run_cli",),
    "bench": ("run_benchmark", "time_training", "write_benchmark"),
    "training": ("train", "adam_step", "scaled_mse", "cross_validate"),
    "packed_net": ("loss_and_grad", "forward", "load_params", "save_params"),
    "metrics": (
        "evaluate",
        "predict_simulation",
        "evaluate_predictions",
        "coefficient_table",
        "order_surface",
    ),
    "data": (
        "load_dataset",
        "fit_scaler",
        "apply_scaler",
        "kfold_split",
        "generate_cylinder_flow",
        "write_dataset",
    ),
}


@dataclass
class Span:
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    label: str = ""  # bench case of a time_training span
    work: dict = field(default_factory=dict)  # counts measured at this boundary


def fwd_flops_per_row(plans) -> int:
    """Multiply-add FLOPs of one forward row: 2 per stored weight."""
    return sum(2 * p.groups * p.per_group_out * p.per_group_in for p in plans)


def _rows(dataset) -> int:
    return sum(sim.num_points for sim in dataset.simulations)


def _work(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Counts for one call, read from its arguments and result."""
    args = bound.arguments
    if name == "packed_net.loss_and_grad":
        # Backward costs twice the forward pass.
        return {"flops": 3 * fwd_flops_per_row(args["plans"]) * len(args["batch"])}
    if name == "packed_net.forward":
        return {"flops": fwd_flops_per_row(args["plans"]) * len(args["batch"])}
    if name == "training.adam_step":
        params = args["params"]
        return {"params": sum(w.size for w in params.weights) + sum(b.size for b in params.biases)}
    if name == "training.train":
        return {"epochs": result[1].num_epochs, "rows": _rows(args["train_data"])}
    if name == "data.load_dataset":
        return {"rows": _rows(result)}
    return {}


class Tracer:
    """Installs wrappers, records spans, and restores the original functions."""

    def __init__(self, case_of_spec):
        """``case_of_spec`` names the bench case of a spec, to label time_training spans."""
        self.spans: list[Span] = []
        self.run = "run"
        self._stack: list[int] = []
        self._case_of_spec = case_of_spec

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, self.run, stack[-1] if stack else None, time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            bound = signature.bind(*args, **kwargs)
            span.work = _work(name, bound, result)
            if name == "bench.time_training":
                span.label = self._case_of_spec(bound.arguments["spec"])
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function wherever a packedflow module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "packedflow"]
        patched = []
        try:
            for layer, names in TRACED.items():
                home = sys.modules[f"packedflow.{layer}"]
                for fn_name in names:
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(f"{layer}.{fn_name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    @contextmanager
    def running(self, run: str):
        """Tag the spans recorded inside the block with a run id."""
        previous, self.run = self.run, run
        try:
            yield
        finally:
            self.run = previous

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}, sort_keys=True) + "\n")
