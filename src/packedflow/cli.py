"""Command-line pipeline: dataset generation, training, CV, evaluation, benchmarking.

Each subcommand takes a strict JSON config (unknown keys and values of the
wrong JSON type rejected, nothing coerced) and an output directory that
receives every artifact, plus only the flags it reads: a single ``--seed``
that feeds all randomness (every subcommand but ``eval``) and ``--jobs`` for
CV parallelism (``cv`` only).  Relative paths inside a config resolve against
the config file's directory.

Exit codes: 0 success, 2 input fault (any ``ConfigError``, or a bad input path), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bench import BenchCase, run_benchmark, write_benchmark
from .data import (
    INPUT_COLUMNS,
    SPLIT_LABELS,
    TARGET_COLUMNS,
    CylinderFlowConfig,
    ScalerPair,
    fit_scaler,
    generate_cylinder_flow,
    load_dataset,
    subsample,
    write_dataset,
)
from .formats import ConfigError, _check_keys, _read, _value, read_json, write_json
from .metrics import (
    check_scorable,
    evaluate_predictions,
    null_reasons,
    predict_simulation,
    write_coefficients_csv,
    write_report_json,
)
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

__all__ = ["run_cli"]


def _load_config(path: str) -> tuple[dict, Path]:
    return read_json(path), Path(path).parent


def _path(base: Path, obj: dict, key: str, where: str) -> Path:
    """The path string ``obj[key]``, relative paths resolved against ``base``."""
    path = Path(_value(str, obj[key], f"{where}: {key!r}"))
    return path if path.is_absolute() else base / path


def _read_spec(obj, where: str) -> PackedSpec:
    """A config's spec section; its widths are the point schema's, not keys."""
    return _read(PackedSpec, obj, where, in_features=len(INPUT_COLUMNS), out_features=len(TARGET_COLUMNS))


def _cmd_gen(args) -> int:
    config, _ = _load_config(args.config)
    _check_keys(config, "gen config", required=("splits",))
    splits = config["splits"]
    if not isinstance(splits, dict) or not splits:
        raise ConfigError("gen config: 'splits' must be a non-empty object")
    gen_cfgs = {}
    for split_name, split_cfg in sorted(splits.items()):
        where = f"gen config: splits.{split_name}"
        if split_name not in SPLIT_LABELS:
            raise ConfigError(f"{where}: split name must be one of {SPLIT_LABELS}")
        # A split's seed and shift follow from its name alone, not from the other splits listed.
        seed = int(np.random.SeedSequence([args.seed, sorted(SPLIT_LABELS).index(split_name)]).generate_state(1)[0])
        gen_cfgs[split_name] = _read(CylinderFlowConfig, split_cfg, where, seed=seed, ood=split_name == "test_ood")
    datasets = {}
    for split_name, gen_cfg in gen_cfgs.items():
        try:
            datasets[split_name] = generate_cylinder_flow(gen_cfg, split_label=split_name)
        except ValueError as exc:  # ranges so wide that a flow leaves float64
            raise ConfigError(f"gen config: splits.{split_name}: {exc}") from None
    for split_name, dataset in datasets.items():
        write_dataset(dataset, args.out / split_name)
        print(f"wrote {len(dataset)} simulations to {args.out / split_name}")
    return 0


def _cmd_train(args) -> int:
    config, base = _load_config(args.config)
    _check_keys(config, "train config", required=("spec", "train", "data"))
    _check_keys(config["data"], "train config: data", required=("train_dir",), optional=("val_dir",))
    spec = _read_spec(config["spec"], "train config: spec")
    cfg = _read(TrainConfig, config["train"], "train config: train", seed=args.seed)

    train_data = load_dataset(_path(base, config["data"], "train_dir", "train config: data"))
    val_data = None
    if "val_dir" in config["data"]:
        val_data = load_dataset(_path(base, config["data"], "val_dir", "train config: data"))
    scaler = fit_scaler(train_data)
    params, history = train(spec, train_data, val_data, scaler, cfg)

    args.out.mkdir(parents=True, exist_ok=True)
    save_params(args.out / "model.pkmlp", spec, params)
    write_json(args.out / "scaler.json", scaler.to_dict())
    write_history_csv(history, args.out / "history.csv")
    final = f", final train loss {history.train_loss[-1]:.6g}" if history.num_epochs else ""
    print(f"trained {history.num_epochs} epochs{final}; artifacts in {args.out}")
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
    base_spec = _read_spec(config["base_spec"], "cv config: base_spec")
    cfg = _read(TrainConfig, config["train"], "cv config: train", seed=args.seed)
    if not isinstance(config["grid"], list) or not config["grid"]:
        raise ConfigError("cv config: 'grid' must be a non-empty list")
    grid = [_read(GridRow, row, f"cv config: grid[{i}]") for i, row in enumerate(config["grid"])]
    k = _value(int, config.get("k", 4), "cv config: 'k'")
    if k < 2:
        raise ConfigError(f"cv config: 'k' must be >= 2, got {k}")
    fraction = _value(float, config.get("subsample_fraction", 1.0), "cv config: 'subsample_fraction'")
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"cv config: 'subsample_fraction' must be in (0, 1], got {fraction}")

    dataset = load_dataset(_path(base, config["data"], "train_dir", "cv config: data"))
    dataset = subsample(dataset, fraction, args.seed)
    if len(dataset) < k:
        kept = f" left by 'subsample_fraction' {fraction}" if fraction < 1.0 else ""
        raise ConfigError(
            f"cv config: 'k' must not exceed the {len(dataset)} training simulations{kept}, got {k}"
        )
    rows = cross_validate(dataset, grid, base_spec, cfg, k=k, jobs=args.jobs)

    args.out.mkdir(parents=True, exist_ok=True)
    write_cv_csv(rows, args.out / "cv_results.csv")
    write_cv_fold_csv(rows, args.out / "cv_fold_losses.csv")
    best = min(rows, key=lambda r: r.validation_loss)
    setting = ", ".join(f"{f.name}={getattr(best, f.name)}" for f in fields(GridRow))
    print(
        f"cross-validated {len(rows)} grid rows over {k} folds; "
        f"best ({setting}) with validation loss {best.validation_loss:.6g}"
    )
    return 0


def _cmd_eval(args) -> int:
    config, base = _load_config(args.config)
    _check_keys(config, "eval config", required=("model", "scaler", "data"))
    _check_keys(config["data"], "eval config: data", required=("dir",))
    model_path = _path(base, config, "model", "eval config")
    spec, plans, params = load_params(model_path)
    if (spec.in_features, spec.out_features) != (len(INPUT_COLUMNS), len(TARGET_COLUMNS)):
        raise ConfigError(
            f"{model_path}: the model maps {spec.in_features} inputs to {spec.out_features} targets, "
            f"the point schema has {len(INPUT_COLUMNS)} inputs and {len(TARGET_COLUMNS)} targets"
        )
    scaler_path = _path(base, config, "scaler", "eval config")
    scaler = ScalerPair.from_dict(read_json(scaler_path), str(scaler_path))
    data_dir = _path(base, config["data"], "dir", "eval config: data")
    dataset = load_dataset(data_dir)
    check_scorable(dataset, data_dir)

    predictions = [predict_simulation(params, plans, scaler, sim) for sim in dataset.simulations]
    report, rows = evaluate_predictions(predictions, dataset)

    args.out.mkdir(parents=True, exist_ok=True)
    write_report_json(report, args.out / "eval_report.json")
    write_coefficients_csv(rows, args.out / "coefficients.csv")
    for field, reason in null_reasons(rows).items():
        print(f"{field} is null: {reason}", file=sys.stderr)
    print(f"evaluated {len(dataset)} simulations; report in {args.out / 'eval_report.json'}")
    return 0


def _cmd_bench(args) -> int:
    config, base = _load_config(args.config)
    _check_keys(config, "bench config", required=("cases", "train", "data"))
    data = config["data"]
    _check_keys(data, "bench config: data", required=("train_dir", "test_dir"), optional=("test_ood_dir",))
    # Compared runs train every epoch.
    cfg = _read(TrainConfig, config["train"], "bench config: train", seed=args.seed, early_stop_enabled=False)
    if not isinstance(config["cases"], list) or not config["cases"]:
        raise ConfigError("bench config: 'cases' must be a non-empty list")
    # A case's optimizer settings default to the train section's.
    defaults = {"learning_rate": cfg.learning_rate, "weight_decay": cfg.weight_decay}
    cases = []
    for i, case_cfg in enumerate(config["cases"]):
        where = f"bench config: cases[{i}]"
        if not isinstance(case_cfg, dict):
            raise ConfigError(f"{where}: expected a JSON object")
        case_cfg = {**defaults, **case_cfg}
        # A case without a spec is left to _read, which names the missing key.
        given = {"spec": _read_spec(case_cfg.pop("spec"), f"{where}: 'spec'")} if "spec" in case_cfg else {}
        cases.append(_read(BenchCase, case_cfg, where, **given))
    if len({c.name for c in cases}) != len(cases):
        raise ConfigError("bench config: case names must be unique")
    dirs = {key: _path(base, data, key, "bench config: data") for key in data}

    train_split = load_dataset(dirs["train_dir"])
    eval_splits = {"test": load_dataset(dirs["test_dir"])}
    if "test_ood_dir" in dirs:
        eval_splits["test_ood"] = load_dataset(dirs["test_ood_dir"])
    for split_name, split in eval_splits.items():
        check_scorable(split, dirs[f"{split_name}_dir"])

    report = run_benchmark(cases, cfg, train_split, eval_splits)
    write_benchmark(report, args.out)
    failures = [row.case.name for row in report.rows if row.error]
    print(f"benchmarked {len(report.rows)} cases over splits {list(report.split_names)}; outputs in {args.out}")
    if failures:
        print(f"failed cases: {failures}", file=sys.stderr)
        return 1
    return 0


# Subcommand -> (handler, help, the optional flags it reads besides --config and --out).
_COMMANDS = {
    "gen": (_cmd_gen, "generate synthetic cylinder-flow datasets", ("--seed",)),
    "train": (_cmd_train, "train one model and save model/scaler/history", ("--seed",)),
    "cv": (_cmd_cv, "cross-validate a hyperparameter grid", ("--seed", "--jobs")),
    "eval": (_cmd_eval, "evaluate a saved model on a dataset split", ()),
    "bench": (_cmd_bench, "train and evaluate a list of specs with timing", ("--seed",)),
}
_FLAGS = {
    "--seed": {"type": int, "default": 0, "help": "seed for all randomness"},
    "--jobs": {"type": int, "default": 1, "help": "parallel workers for cv folds"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packedflow",
        description="Packed-ensemble MLP pipeline for 2-D flow-field regression.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="path to the JSON run config")
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    return parser


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError("--seed must be non-negative")
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError("--jobs must be >= 1")
        # The nearest path that exists, --out itself or an ancestor, must be a directory.
        existing = next(p for p in (args.out, *args.out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out {args.out}: {existing} is not a directory")
        handler, _, _ = _COMMANDS[args.command]
        return handler(args)
    except (ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run_cli())
