"""packedflow benchmark: one workload per invocation, result as the last stdout line.

Usage (from the repository root):

    python3 perfbench/run.py --workload bench_pair --seed 1 --seconds 20 --trace 0

One run sets the workload up from ``--seed``, runs one warm-up operation, then
runs operations back to back (a closed loop, one client) until they have taken
``--seconds``, checking every output against the warm-up's.  After every
operation it times further set-ups, which it discards; set-up time is the
median.  A fixed probe timed next to every set-up and operation scales its
wall time to a reference host speed (see probe.py).  ``--trace 0`` prints the
end-to-end metrics of those untraced operations.  ``--trace 1`` then traces
one more set-up and one operation from outside the program (see tracer.py)
and prints the per-layer metrics.  A run record with the machine, BLAS and
timing samples, and the spans of a traced run, are written to
``.perfbench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracer import TRACED, Tracer, fwd_flops_per_row

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLE_S = 0.5  # set-up time sampled after each operation, at least one set-up
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("bench_pair", "cv_grid", "eval_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (the cv pool workers)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _run_record(args, numpy, packedflow) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": packedflow.bench.machine_descriptor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "packedflow": packedflow.__version__,
    }


def _layer_metrics(tracer, wl, spans_wall: float, untraced_wall: float, ops) -> dict:
    """Per-layer metrics from the traced set-up and operation; 0 for a layer not run."""
    from workloads import BENCH_CASES, CASES, BenchPair, CvGrid

    from packedflow.packed_net import PackedSpec, param_count, plan_layers

    own = tracer.self_seconds()
    calls, busy, selfs, work = Counter(), Counter(), Counter(), defaultdict(Counter)
    for span, self_s in zip(tracer.spans, own):
        for key in [span.name] + ([f"{span.name}.{span.label}"] if span.label else []):
            calls[key] += 1
            busy[key] += span.end - span.start
            selfs[key] += self_s
            work[key].update(span.work)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def put_fn(key):
        put(f"{key}.calls", calls[key], "count")
        put(f"{key}.busy_s", float(busy[key]), "s")
        put(f"{key}.self_s", float(selfs[key]), "s")

    for layer, names in TRACED.items():
        if layer == "cli":
            put("cli.run_cli.self_s", float(selfs["cli.run_cli"]), "s")
            continue
        for fn in names:
            put_fn(f"{layer}.{fn}")
            if layer == "bench" and fn == "time_training":
                for case in BENCH_CASES:
                    put_fn(f"bench.time_training.{case['name']}")
        put(f"{layer}.self_s", float(sum(selfs[f"{layer}.{fn}"] for fn in names)), "s")

    for fn in ("loss_and_grad", "forward"):
        key = f"packed_net.{fn}"
        put(f"{key}.gflops", ratio(work[key]["flops"], busy[key]) / 1e9, "GFLOP/s")
    flops = {}
    for case, spec in CASES.items():
        plans = plan_layers(PackedSpec.from_dict(spec))
        flops[case] = fwd_flops_per_row(plans)
        put(f"packed_net.fwd_flops_per_row.{case}", flops[case], "flop")
        put(f"packed_net.param_count.{case}", param_count(plans), "count")

    adam = "training.adam_step"
    put(f"{adam}.ns_per_param", ratio(busy[adam] * 1e9, work[adam]["params"]), "ns")
    put("training.train.epochs", work["training.train"]["epochs"], "count")
    efficiency = 0.0
    if isinstance(wl, CvGrid):
        fold_work = busy["training.cross_validate"] - busy["data.kfold_split"]
        efficiency = fold_work / (statistics.median(op.wall for op in ops) * wl.jobs)
    put("training.cv.parallel_efficiency", efficiency, "frac")
    load = "data.load_dataset"
    put(f"{load}.rows_per_s", ratio(work[load]["rows"], busy[load]), "1/s")

    half, full = (c["name"] for c in BENCH_CASES)
    # FLOPs per row are 2 per stored weight, so their ratio is the weight ratio.
    put("bench.hidden_weight_ratio", flops[full] / flops[half], "ratio")
    cost_ratio, step_ms = 0.0, {half: 0.0, full: 0.0}
    if isinstance(wl, BenchPair):
        # From the untraced operations: epoch-loop seconds as bench reports them.
        loops = [wl.epoch_loop_seconds(op) for op in ops]
        cost_ratio = statistics.median(s[full] / s[half] for s in loops)
        step_ms = {name: statistics.median(s[name] for s in loops) * 1e3 / wl.steps() for name in step_ms}
    put("bench.cost_ratio", cost_ratio, "ratio")
    for name, value in step_ms.items():
        put(f"bench.step_ms.{name}", value, "ms")

    put("trace.wall_s", spans_wall, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead_s", spans_wall - untraced_wall, "s")
    put("trace.self_share", ratio(sum(own), spans_wall), "frac")
    return metrics


def measure(args, work: Path):
    """Run one workload; returns the result, the tracer and the timing samples."""
    # Imported here, after main() has pinned the BLAS threads: both load numpy.
    import probe
    from workloads import WORKLOADS, case_of_spec

    wl = WORKLOADS[args.workload](args.seed, args.tiny)

    setup_walls, setup_probes, op_probes = [], [], []

    def timed_setup(path: Path) -> None:
        def setup():
            started = time.perf_counter()
            wl.setup(path)
            return time.perf_counter() - started

        wall, probe_s = probe.around("python", setup)
        setup_walls.append(wall)
        setup_probes.append(probe_s)

    data = work / "setup"
    timed_setup(data)
    # The warm-up operation is also the reference every later output must equal.
    reference = wl.run(data, work / "op0")
    checked = [reference]
    ops = []
    while sum(op.wall for op in ops) < args.seconds:
        op, probe_s = probe.around("gemm", lambda: wl.run(data, work / f"op{len(ops) + 1}"))
        wl.compare(op, reference)
        ops.append(op)
        op_probes.append(probe_s)
        # Set-up samples after every operation spread over the whole run, so
        # that their median does not hang on one moment's load.
        sampled = time.perf_counter()
        while True:
            timed_setup(work / "setup_sample")
            shutil.rmtree(work / "setup_sample")
            if time.perf_counter() - sampled >= SETUP_SAMPLE_S:
                break
    checked += ops

    serial_wall = None
    if args.trace and wl.jobs > 1:
        # Untraced one-worker baseline for the tracing overhead of the one-worker traced run.
        serial = wl.run(data, work / "serial", jobs=1)
        wl.compare(serial, reference)
        checked.append(serial)
        serial_wall = serial.wall

    # The traced one-worker run is also the reference of a pooled workload,
    # whose untraced operations cannot be counted in-process.
    tracer = Tracer(case_of_spec)
    if args.trace or wl.jobs > 1:
        traced_data = work / "traced_setup" if args.trace else data
        spans_wall = 0.0
        with tracer.installed():
            if args.trace:
                with tracer.running("setup"):
                    started = time.perf_counter()
                    wl.setup(traced_data)
                    spans_wall += time.perf_counter() - started
            with tracer.running("op"):
                # One worker, so that every span stays in this process.
                traced = wl.run(traced_data, work / "traced_op", jobs=1)
                spans_wall += traced.wall
        wl.compare(traced, reference)
        checked.append(traced)
    wl.finish(tracer, data, reference, work)

    failed = sum(not op.ok for op in checked)
    for op in checked:
        for problem in op.problems:
            print(f"{wl.name}: {op.out.name}: {problem}", file=sys.stderr)
    good = [(op, probe_s) for op, probe_s in zip(ops, op_probes) if op.ok]

    if args.trace:
        untraced_wall = statistics.median(setup_walls) + (
            serial_wall if serial_wall is not None else statistics.median(op.wall for op in ops)
        )
        metrics = _layer_metrics(tracer, wl, spans_wall, untraced_wall, [op for op, _ in good] or ops)
    else:
        setup_s = [w * probe.REFERENCE_S["python"] / p for w, p in zip(setup_walls, setup_probes)]
        op_s = [(op, op.wall * probe.REFERENCE_S["gemm"] / p) for op, p in good]
        values = {
            "setup_s": statistics.median(setup_s),
            "points_per_s": statistics.median(wl.points(op) / s for op, s in op_s) if good else 0.0,
            "peak_rss_mb": _peak_rss_mb(),
            "ok_frac": 1.0 - failed / len(checked),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    result = {"correct": failed == 0, "attempted": len(checked), "failed": failed, "metrics": metrics}
    samples = {
        "setup_walls_s": setup_walls,
        "setup_probe_s": setup_probes,
        "op_probe_s": op_probes,
        "op_walls_s": [op.wall for op in ops],
        "op_points": [wl.points(op) for op in ops],
    }
    return result, tracer, samples


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "packedflow" / "__init__.py").is_file():
        print(f"error: no packedflow sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread per process, as tests/conftest.py pins it; set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy

    import packedflow
    import packedflow.bench

    if Path(packedflow.__file__).resolve().parent != (src / "packedflow").resolve():
        print(f"error: packedflow imported from {packedflow.__file__}, not {src}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, tracer, samples = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = _run_record(args, numpy, packedflow)
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{stem}.json").write_text(json.dumps({"record": record, "samples": samples, "result": result}, indent=2) + "\n")
    if args.trace:
        tracer.write(runs / f"{stem}.spans.jsonl")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
