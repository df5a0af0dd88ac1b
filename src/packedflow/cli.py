"""Command-line pipeline: dataset generation, training, CV, evaluation, benchmarking.

Each subcommand takes a strict JSON config (unknown keys and values of the
wrong JSON type rejected, nothing coerced), a single ``--seed`` that feeds all
randomness, ``--jobs`` for CV parallelism, and an output directory that
receives every artifact.  Relative paths inside a config resolve against the
config file's directory.

Exit codes: 0 success, 2 config/validation error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .bench import BenchCase, run_benchmark, write_benchmark
from .data import (
    SPLIT_LABELS,
    CylinderFlowConfig,
    ScalerPair,
    SimulationParseError,
    fit_scaler,
    generate_cylinder_flow,
    load_dataset,
    subsample,
    write_dataset,
)
from .metrics import evaluate_predictions, predict_simulation, write_coefficients_csv, write_report_json
from .packed_net import PackedSpec, load_params, save_params
from .training import (
    GridRow,
    TrainConfig,
    cross_validate,
    train,
    write_cv_csv,
    write_cv_fold_csv,
    write_history_csv,
)

__all__ = ["run_cli", "ConfigError"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _check_keys(obj: dict, where: str, required, optional=()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _read(cls, obj: dict, where: str, **given):
    """A ``cls`` built from the JSON object ``obj``, or a ConfigError naming ``where``.

    The keys of ``obj`` are the fields of ``cls`` other than those in
    ``given``: a field with a default may be left out, one without must be set.
    Each value must have exactly its field's JSON type (see ``_value``).
    """
    settable = [f for f in fields(cls) if f.name not in given]
    required = [f.name for f in settable if f.default is MISSING and f.default_factory is MISSING]
    _check_keys(obj, where, required, [f.name for f in settable])
    kinds = get_type_hints(cls)
    values = {name: _value(kinds[name], value, f"{where}: {name!r}") for name, value in obj.items()}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _value(kind, value, where: str):
    """``value`` checked against the field annotation ``kind``, never coerced.

    ``tuple[T, ...]`` takes a list of ``T`` and ``tuple[T, T]`` a list of two;
    a dataclass takes an object, read by ``_read``.  A float field takes any
    finite JSON number and returns it as a float.
    """
    if is_dataclass(kind):
        return _read(kind, value, where)
    if get_origin(kind) is tuple:
        items = get_args(kind)
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {json.dumps(value)}")
        if items[1:] == (Ellipsis,):
            items = items[:1] * len(value)
        elif len(value) != len(items):
            raise ConfigError(f"{where}: expected a list of {len(items)}, got {json.dumps(value)}")
        return tuple(_value(item, v, f"{where}[{i}]") for i, (item, v) in enumerate(zip(items, value)))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    valid, expected = {
        bool: (isinstance(value, bool), "true or false"),
        int: (number and isinstance(value, int), "an integer"),
        float: (number and abs(value) <= sys.float_info.max, "a finite number"),
        str: (isinstance(value, str), "a string"),
    }[kind]
    if not valid:
        raise ConfigError(f"{where}: expected {expected}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def _split_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _load_config(path: str) -> tuple[dict, Path]:
    config_path = Path(path)
    try:
        with open(config_path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {config_path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{config_path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{config_path}: top level must be a JSON object")
    return config, config_path.parent


def _path(base: Path, obj: dict, key: str, where: str) -> Path:
    """The path string ``obj[key]``, relative paths resolved against ``base``."""
    path = Path(_value(str, obj[key], f"{where}: {key!r}"))
    return path if path.is_absolute() else base / path


def _cmd_gen(args) -> int:
    config, _ = _load_config(args.config)
    _check_keys(config, "gen config", required=("splits",))
    splits = config["splits"]
    if not isinstance(splits, dict) or not splits:
        raise ConfigError("gen config: 'splits' must be a non-empty object")
    gen_cfgs = {}
    for index, (split_name, split_cfg) in enumerate(sorted(splits.items())):
        where = f"gen config: splits.{split_name}"
        if split_name not in SPLIT_LABELS:
            raise ConfigError(f"{where}: split name must be one of {SPLIT_LABELS}")
        gen_cfgs[split_name] = _read(CylinderFlowConfig, split_cfg, where, seed=_split_seed(args.seed, index))
    out = Path(args.out)
    for split_name, gen_cfg in gen_cfgs.items():
        dataset = generate_cylinder_flow(gen_cfg, split_label=split_name)
        write_dataset(dataset, out / split_name)
        print(f"wrote {len(dataset)} simulations to {out / split_name}")
    return 0


def _cmd_train(args) -> int:
    config, base = _load_config(args.config)
    _check_keys(config, "train config", required=("spec", "train", "data"))
    _check_keys(config["data"], "train config: data", required=("train_dir",), optional=("val_dir",))
    spec = _read(PackedSpec, config["spec"], "train config: spec")
    cfg = _read(TrainConfig, config["train"], "train config: train", seed=args.seed)

    train_data = load_dataset(_path(base, config["data"], "train_dir", "train config: data"))
    val_data = None
    if "val_dir" in config["data"]:
        val_data = load_dataset(_path(base, config["data"], "val_dir", "train config: data"))
    scaler = fit_scaler(train_data)
    params, history = train(spec, train_data, val_data, scaler, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_params(out / "model.pkmlp", spec, params)
    with open(out / "scaler.json", "w", encoding="utf-8") as fh:
        json.dump(scaler.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_history_csv(history, out / "history.csv")
    print(
        f"trained {history.num_epochs} epochs, final train loss {history.train_loss[-1]:.6g}; "
        f"artifacts in {out}"
    )
    return 0


def _cmd_cv(args) -> int:
    config, base = _load_config(args.config)
    _check_keys(
        config,
        "cv config",
        required=("base_spec", "train", "grid", "data"),
        optional=("k", "subsample_fraction"),
    )
    _check_keys(config["data"], "cv config: data", required=("train_dir",))
    base_spec = _read(PackedSpec, config["base_spec"], "cv config: base_spec")
    cfg = _read(TrainConfig, config["train"], "cv config: train", seed=args.seed)
    if not isinstance(config["grid"], list) or not config["grid"]:
        raise ConfigError("cv config: 'grid' must be a non-empty list")
    grid = [_read(GridRow, row, f"cv config: grid[{i}]") for i, row in enumerate(config["grid"])]
    k = _value(int, config.get("k", 4), "cv config: 'k'")
    fraction = None
    if "subsample_fraction" in config:
        fraction = _value(float, config["subsample_fraction"], "cv config: 'subsample_fraction'")

    dataset = load_dataset(_path(base, config["data"], "train_dir", "cv config: data"))
    if fraction is not None:
        dataset = subsample(dataset, fraction, args.seed)
    result = cross_validate(dataset, grid, base_spec, cfg, k=k, jobs=args.jobs)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_cv_csv(result, out / "cv_results.csv")
    write_cv_fold_csv(result, out / "cv_fold_losses.csv")
    best = min(result.rows, key=lambda r: r.validation_loss)
    print(
        f"cross-validated {len(result.rows)} grid rows over {k} folds; best "
        f"(dropout={best.dropout}, alpha={best.alpha}, gamma={best.gamma}, "
        f"lr={best.learning_rate:g}) with validation loss {best.validation_loss:.6g}"
    )
    return 0


def _cmd_eval(args) -> int:
    config, base = _load_config(args.config)
    _check_keys(config, "eval config", required=("model", "scaler", "data"))
    _check_keys(config["data"], "eval config: data", required=("dir",))
    try:
        spec, plans, params = load_params(_path(base, config, "model", "eval config"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    scaler_path = _path(base, config, "scaler", "eval config")
    with open(scaler_path, encoding="utf-8") as fh:
        try:
            scaler = ScalerPair.from_dict(json.load(fh))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{scaler_path}: invalid scaler ({exc})") from exc
    dataset = load_dataset(_path(base, config["data"], "dir", "eval config: data"))

    predictions = [predict_simulation(params, plans, scaler, sim) for sim in dataset.simulations]
    report, rows = evaluate_predictions(predictions, dataset)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(report, out / "eval_report.json")
    write_coefficients_csv(rows, out / "coefficients.csv")
    print(f"evaluated {len(dataset)} simulations; report in {out / 'eval_report.json'}")
    return 0


def _cmd_bench(args) -> int:
    config, base = _load_config(args.config)
    _check_keys(config, "bench config", required=("cases", "train", "data"))
    data = config["data"]
    _check_keys(data, "bench config: data", required=("train_dir", "test_dir"), optional=("test_ood_dir",))
    cfg = _read(TrainConfig, config["train"], "bench config: train", seed=args.seed)
    if not isinstance(config["cases"], list) or not config["cases"]:
        raise ConfigError("bench config: 'cases' must be a non-empty list")
    # A case's optimizer settings default to the train section's.
    defaults = {"learning_rate": cfg.learning_rate, "weight_decay": cfg.weight_decay}
    cases = []
    for i, case_cfg in enumerate(config["cases"]):
        where = f"bench config: cases[{i}]"
        if not isinstance(case_cfg, dict):
            raise ConfigError(f"{where}: expected a JSON object")
        cases.append(_read(BenchCase, {**defaults, **case_cfg}, where))
    if len({c.name for c in cases}) != len(cases):
        raise ConfigError("bench config: case names must be unique")
    dirs = {key: _path(base, data, key, "bench config: data") for key in data}

    train_split = load_dataset(dirs["train_dir"])
    eval_splits = {"test": load_dataset(dirs["test_dir"])}
    if "test_ood_dir" in dirs:
        eval_splits["test_ood"] = load_dataset(dirs["test_ood_dir"])

    report = run_benchmark(cases, cfg, train_split, eval_splits)
    write_benchmark(report, args.out)
    failures = [row.case.name for row in report.rows if row.error]
    print(f"benchmarked {len(report.rows)} cases over splits {list(report.split_names)}; outputs in {args.out}")
    if failures:
        print(f"failed cases: {failures}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "gen": (_cmd_gen, "generate synthetic cylinder-flow datasets"),
    "train": (_cmd_train, "train one model and save model/scaler/history"),
    "cv": (_cmd_cv, "cross-validate a hyperparameter grid"),
    "eval": (_cmd_eval, "evaluate a saved model on a dataset split"),
    "bench": (_cmd_bench, "train and evaluate a list of specs with timing"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packedflow",
        description="Packed-ensemble MLP pipeline for 2-D flow-field regression.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="path to the JSON run config")
        sub.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        sub.add_argument("--jobs", type=int, default=1, help="parallel workers for cv folds")
        sub.add_argument("--out", default="out", help="output directory")
    return parser


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        handler, _ = _COMMANDS[args.command]
        return handler(args)
    except (ConfigError, SimulationParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run_cli())
