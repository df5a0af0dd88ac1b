"""Package surface: each module's public names, a package root that re-exports nothing, and
the names the benchmark harness under ``perfbench/`` binds."""

import importlib
import inspect
import runpy
import types
from pathlib import Path

import pytest

import packedflow
from packedflow import metrics
from packedflow.data import Simulation
from packedflow.packed_net import PackedSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MODULES = ["bench", "cli", "data", "formats", "metrics", "packed_net", "training"]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"packedflow.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_root_holds_only_the_version():
    for name in MODULES:
        importlib.import_module(f"packedflow.{name}")
    # Importing a submodule binds it on the package; nothing else may be there.
    names = {n for n, value in vars(packedflow).items() if not isinstance(value, types.ModuleType)}
    assert {n for n in names if not (n.startswith("__") and n.endswith("__"))} == set()
    assert isinstance(packedflow.__version__, str)


def test_every_name_the_benchmark_binds_resolves():
    # perfbench patches these functions and reads these arguments by name; without this
    # check a rename shows only when the benchmark runs.
    tracer = runpy.run_path(str(PERFBENCH / "tracer.py"))
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    traced = {f"{layer}.{name}" for layer, names in tracer["TRACED"].items() for name in names}
    read = {
        "packed_net.forward": {"plans", "batch"},
        "packed_net.loss_and_grad": {"plans", "batch"},
        "training.adam_step": {"params"},
        "training.train": {"train_data"},
        "bench.time_training": {"spec"},
    }
    assert set(read) <= traced
    for qualified in sorted(traced):
        layer, name = qualified.split(".")
        fn = getattr(importlib.import_module(f"packedflow.{layer}"), name, None)
        assert callable(fn), qualified
        assert read.get(qualified, set()) <= set(inspect.signature(fn).parameters), qualified
    # The eval_large check calls these positionally.
    inspect.signature(metrics.evaluate).bind("params", "plans", "scaler", "dataset")
    inspect.signature(Simulation).bind("name", "points", "targets")
    cases = workloads["CASES"]
    assert [workloads["case_of_spec"](PackedSpec.from_dict(spec)) for spec in cases.values()] == list(cases)
