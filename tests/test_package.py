"""Package surface: each module's public names, a package root that re-exports nothing, and
the names the benchmark harness under ``perfbench/`` binds and the results it reads."""

import importlib
import inspect
import json
import runpy
import types
from pathlib import Path

import numpy as np
import pytest
from helpers import cylinder_dataset, field_dataset

import packedflow
from packedflow import data, metrics, packed_net, training
from packedflow.cli import run_cli
from packedflow.data import Simulation
from packedflow.formats import write_json
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


def test_the_results_the_benchmark_reads_have_their_shape(tmp_path):
    # tracer._work reads counts from these calls' arguments and results, and EvalLarge.finish
    # compares an in-process evaluate with eval's report; a change there shows only in perfbench.
    tracer = runpy.run_path(str(PERFBENCH / "tracer.py"))

    def work(name, fn, *args):
        result = fn(*args)
        return result, tracer["_work"](name, inspect.signature(fn).bind(*args), result)

    spec = PackedSpec(2, 1, 1, (8,))
    plans = packed_net.plan_layers(spec)
    params = packed_net.init_params(plans, 0)
    per_row = tracer["fwd_flops_per_row"](plans)
    dataset = field_dataset(3, num_points=20)
    data.write_dataset(dataset, tmp_path / "train")
    loaded, counts = work("data.load_dataset", data.load_dataset, tmp_path / "train")
    assert counts == {"rows": 60}
    scaler = data.fit_scaler(loaded)
    batch, targets = np.ones((16, 7)), np.zeros((16, 4))
    assert work("packed_net.forward", packed_net.forward, params, plans, batch)[1] == {"flops": per_row * 16}
    (_, grads), counts = work("packed_net.loss_and_grad", packed_net.loss_and_grad, params, plans, batch, targets)
    assert counts == {"flops": 3 * per_row * 16}
    state = training.init_adam_state(params)
    counts = work("training.adam_step", training.adam_step, params, grads, state, 0.01)[1]
    assert counts == {"params": packed_net.param_count(plans)}
    cfg = training.TrainConfig(0.01, max_epochs=2, batch_points=32)
    (params, _), counts = work("training.train", training.train, spec, loaded, None, scaler, cfg)
    assert counts == {"epochs": 2, "rows": 60}

    data.write_dataset(cylinder_dataset(2, surface_points=16, field_points=16, split_label="test"), tmp_path / "test")
    packed_net.save_params(tmp_path / "model.pkmlp", spec, params)
    write_json(tmp_path / "scaler.json", scaler.to_dict())
    config = {"model": "model.pkmlp", "scaler": "scaler.json", "data": {"dir": "test"}}
    (tmp_path / "eval.json").write_text(json.dumps(config))
    assert run_cli(["eval", "--config", str(tmp_path / "eval.json"), "--out", str(tmp_path / "eval")]) == 0
    _, plans, params = packed_net.load_params(tmp_path / "model.pkmlp")
    scaler = data.ScalerPair.from_dict(json.loads((tmp_path / "scaler.json").read_text(encoding="utf-8")))
    report = metrics.evaluate(params, plans, scaler, data.load_dataset(tmp_path / "test"))
    metrics.write_report_json(report, tmp_path / "in_process_report.json")
    assert (tmp_path / "in_process_report.json").read_bytes() == (tmp_path / "eval" / "eval_report.json").read_bytes()
