"""Packed-ensemble MLPs: layer planning, parameters, forward pass, exact gradients.

A packed network embeds ``num_estimators`` sub-networks ("estimators") in a
single MLP by making every affine layer block-diagonal.  Hidden widths are
scaled by the capacity factor ``alpha`` and partitioned into
``num_estimators * gamma`` groups, so each estimator is further sliced into
``gamma`` independent strands.  The first and last layers use one group per
estimator: every estimator sees the full input and emits a complete
prediction, and the network output is the arithmetic mean over estimators.

All parameters live in one contiguous float64 vector, ``Params.flat``, in
model-file order (layer 0 weights, layer 0 biases, layer 1 weights, ...).
``Params.weights[i]`` views it with shape ``(groups, per_group_out,
per_group_in)``: the blocks, in group order, of a block-diagonal dense matrix.
``Params.biases[i]`` views it with shape ``(out_width,)``.  Group channel
ranges are contiguous, so estimator ``j`` owns channels
``[j * width // M, (j + 1) * width // M)`` of every layer.

Activations are viewed group-major, ``(groups, batch, per_group_width)``, so
each layer is one batched GEMM.  The batch is broadcast to the first layer's
groups as ``batch[None]``, and the last layer emits ``(num_estimators, batch,
out_features)``.  A layer followed by another group count (``gamma > 1``)
writes channel-major ``(batch, width)`` rows, which the next layer views in
its own groups: no pass copies to regroup.  Dropout masks are bool keep masks
``(batch, out_width)``, viewed group-major.  All math is float64.

``forward`` runs a batch in fixed row blocks of 1024 to 2047 rows (one block
if it is shorter), so inference memory is bounded by the block, and every
output equals that of a one-batch pass.  Estimators share nothing before the
final mean, so both passes run them in blocks of :func:`_estimator_block`
estimators, whose hidden activations fit in 4 MiB, each block through every
layer before the next starts: a layer's output is still in cache when the
bias add, the ReLU and the next layer read it.  A forward workspace holds one
block's slabs.  A training workspace holds every estimator's, which the
backward pass reads; its channel-major buffers keep the full width, each
block in its own columns, so every GEMM gets the input operands of a
one-block pass, and whatever the block the outputs keep their bits (an
output's strides change none).  ReLU and dropout run in place, so each layer
keeps one activation buffer, and the backward pass writes each layer's
gradient over the activation it no longer needs, in its layout.  These
buffers live in a ``_Workspace`` made once per call and reused: by every
block of ``forward``, and by every step of ``training.train``, whose short
last batch uses the leading rows.  So each page is touched once per call,
not per block or step, no result returned to a caller shares memory with a
workspace, and every output has the bits it would have with fresh buffers.

Independent blocks run in parallel, one worker per core of the process's
affinity mask: the calling thread and the threads of one module-level pool,
made on first use.  A training step shares its estimator blocks among the
workers, ``forward`` its row blocks, each worker with its own workspace.
numpy's GEMMs and ufuncs release the GIL, BLAS runs on one thread meanwhile,
and each block writes only its own buffers and outputs.  Threads split
blocks, never a GEMM, so every operand, stride and summation order is that of
a serial pass and the bits depend neither on the core count nor on which
worker runs a block.  A pass with one block runs on the calling thread and
never touches the pool.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .formats import ConfigError, _read, decode_json

__all__ = [
    "DROPOUT_P",
    "PackedSpec",
    "LayerPlan",
    "Params",
    "PerEstimatorOutput",
    "ShapeMismatchError",
    "plan_layers",
    "init_params",
    "forward",
    "loss_and_grad",
    "param_count",
    "make_dropout_masks",
    "save_params",
    "load_params",
]

MODEL_FORMAT_VERSION = 1
DROPOUT_P = 0.2  # the only dropout probability; model headers still store it as "dropout_p"
_ROW_BLOCK = 1024  # inference rows per block; below ~384 rows BLAS may round differently
_BLOCK_BYTES = 4 << 20  # hidden activations one training block of estimators may hold
_DRAW_VALUES = 1 << 15  # uniform draws per chunk of a dropout mask
_KEEP_SCALE = 1.0 / (1.0 - DROPOUT_P)  # a kept unit's inverted-dropout scale, exactly 1.25
_MODEL_MAGIC = b"PKMLP1\x00\x00"


class ShapeMismatchError(ValueError):
    """An array does not match its layer plan; carries the offending layer index."""

    def __init__(self, layer: int, message: str):
        super().__init__(f"layer {layer}: {message}")
        self.layer = layer


@dataclass(frozen=True)
class PackedSpec:
    """Architecture descriptor from which layer plans are derived."""

    num_estimators: int
    alpha: int
    gamma: int
    hidden_widths: tuple[int, ...]
    in_features: int = 7
    out_features: int = 4
    dropout_enabled: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.num_estimators < 1 or self.alpha < 1 or self.gamma < 1:
            raise ValueError(
                f"num_estimators, alpha, gamma must all be >= 1, got "
                f"({self.num_estimators}, {self.alpha}, {self.gamma})"
            )
        if not self.hidden_widths:
            raise ValueError("hidden_widths must be non-empty")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"hidden widths must be positive, got {self.hidden_widths}")
        if self.in_features < 1 or self.out_features < 1:
            raise ValueError("in_features and out_features must be positive")

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden_widths": list(self.hidden_widths), "dropout_p": DROPOUT_P}

    @classmethod
    def from_dict(cls, obj, where: str = "spec") -> "PackedSpec":
        """Read a spec as ``to_dict`` writes it, strictly typed (a fault names ``where``).

        A stored ``dropout_p`` is ignored with dropout off and must be ``DROPOUT_P`` with it on.
        """
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected a JSON object")
        spec = _read(cls, {k: v for k, v in obj.items() if k != "dropout_p"}, where)
        if spec.dropout_enabled and obj.get("dropout_p", DROPOUT_P) != DROPOUT_P:
            raise ConfigError(f"{where}: dropout probability is fixed at {DROPOUT_P} when dropout is enabled")
        return spec


@dataclass(frozen=True)
class LayerPlan:
    """One grouped affine layer: total widths plus the per-group block shape."""

    role: str  # "first" | "hidden" | "last"
    in_width: int
    out_width: int
    groups: int
    per_group_in: int
    per_group_out: int

    def __post_init__(self):
        if self.role not in ("first", "hidden", "last"):
            raise ValueError(f"unknown layer role {self.role!r}")
        if self.in_width != self.groups * self.per_group_in:
            raise ValueError(f"in_width {self.in_width} != groups*per_group_in")
        if self.out_width != self.groups * self.per_group_out:
            raise ValueError(f"out_width {self.out_width} != groups*per_group_out")

    def to_dict(self) -> dict:
        return asdict(self)


class Params:
    """Per-layer weights and biases, stored as views into one contiguous float64 vector.

    ``Params(flat, shapes)`` wraps ``flat`` without copying, given each layer's (weight
    shape, bias shape), and raises ``ValueError`` unless they cover it exactly.  ``flat``
    holds every layer's weights then biases, in layer order, as the model file stores
    them; ``weights[i]`` has shape ``(groups, per_group_out, per_group_in)`` and
    ``biases[i]`` shape ``(out_width,)``.  Change values in place: a list item rebound
    to a new array no longer reaches ``flat``, which is what ``save_params`` writes.
    """

    def __init__(self, flat: np.ndarray, shapes):
        count = sum(math.prod(w_shape) + math.prod(b_shape) for w_shape, b_shape in shapes)
        if count != flat.size:
            raise ValueError(f"layer shapes cover {count} values, buffer holds {flat.size}")
        self.flat = flat
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        offset = 0
        for w_shape, b_shape in shapes:
            for views, shape in ((self.weights, w_shape), (self.biases, b_shape)):
                size = math.prod(shape)
                views.append(flat[offset : offset + size].reshape(shape))
                offset += size

    @property
    def shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [(w.shape, b.shape) for w, b in zip(self.weights, self.biases)]

    def non_finite_layer(self) -> int | None:
        """Index of the first layer holding a NaN or an infinity; None if all are finite."""
        if np.isfinite(self.flat).all():
            return None
        finite = [np.isfinite(w).all() and np.isfinite(b).all() for w, b in zip(self.weights, self.biases)]
        return finite.index(False)


@dataclass(frozen=True)
class PerEstimatorOutput:
    """Stacked estimator predictions and their arithmetic mean."""

    estimator_outputs: np.ndarray  # (num_estimators, batch, out_features)
    mean_output: np.ndarray  # (batch, out_features)


def _widened_width(spec: PackedSpec, base: int) -> int:
    # Smallest multiple of num_estimators*gamma that is >= alpha*base (and >= the step itself).
    step = spec.num_estimators * spec.gamma
    return max(step, -(-(spec.alpha * base) // step) * step)


def plan_layers(spec: PackedSpec) -> list[LayerPlan]:
    """Derive the grouped layer stack for a spec.

    Hidden widths are widened to multiples of ``num_estimators * gamma`` so no
    group is ever empty.  First and last layers group per estimator (gamma is
    not applied there); interior layers use ``num_estimators * gamma`` groups.
    """
    m = spec.num_estimators
    hidden = [_widened_width(spec, h) for h in spec.hidden_widths]
    widths = [m * spec.in_features, *hidden, m * spec.out_features]
    roles = ["first", *["hidden"] * (len(hidden) - 1), "last"]
    groups = [m, *[m * spec.gamma] * (len(hidden) - 1), m]
    return [
        LayerPlan(role, w_in, w_out, g, w_in // g, w_out // g)
        for role, w_in, w_out, g in zip(roles, widths[:-1], widths[1:], groups)
    ]


def param_count(plans: list[LayerPlan]) -> int:
    """Total number of stored weights and biases."""
    return sum(p.groups * p.per_group_out * p.per_group_in + p.out_width for p in plans)


def init_params(plans: list[LayerPlan], seed: int) -> Params:
    """He-style uniform init with fan-in = per-group input width; biases zero."""
    rng = np.random.default_rng(seed)
    params = Params(np.zeros(param_count(plans)), _layer_shapes(plans))
    for plan, weights in zip(plans, params.weights):
        bound = np.sqrt(6.0 / plan.per_group_in)
        weights[...] = rng.uniform(-bound, bound, size=weights.shape)
    return params


def make_dropout_masks(
    plans: list[LayerPlan], batch_size: int, rng: np.random.Generator, out: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Dropout keep masks for every activation layer: bool, True where a unit is kept.

    Units drop with probability ``DROPOUT_P``.  One ``(batch_size, out_width)``
    mask per layer except the last, True where ``rng.random()`` is below
    ``1 - DROPOUT_P``, one draw per unit in C order, through a float64 scratch of
    ``_DRAW_VALUES`` draws.  A training step scales kept units by
    ``1 / (1 - DROPOUT_P)``, so evaluation needs no rescaling.  Given ``out``,
    C-contiguous bool arrays of those shapes, the masks are drawn into them and
    ``out`` is returned; the rng stream and the values are the same either way.
    """
    if out is None:
        out = [np.empty((batch_size, plan.out_width), dtype=bool) for plan in plans[:-1]]
    scratch = np.empty(_DRAW_VALUES)  # pages past the largest mask are never touched
    for mask in out:
        if mask.dtype != bool or not mask.flags.c_contiguous:  # else reshape would draw into a copy
            raise ValueError("dropout masks are drawn into C-contiguous bool arrays")
        flat = mask.reshape(-1)
        for lo in range(0, flat.size, scratch.size):
            draws = rng.random(out=scratch[: flat.size - lo])
            np.less(draws, 1.0 - DROPOUT_P, out=flat[lo : lo + draws.size])
    return out


def _layer_shapes(plans: list[LayerPlan]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [((p.groups, p.per_group_out, p.per_group_in), (p.out_width,)) for p in plans]


def _check_layers(params: Params, plans: list[LayerPlan]) -> None:
    if len(params.weights) != len(plans):
        raise ShapeMismatchError(0, f"params hold {len(params.weights)} layers, plans {len(plans)}")
    for i, (plan, (w_shape, b_shape)) in enumerate(zip(plans, _layer_shapes(plans))):
        if params.weights[i].shape != w_shape:
            raise ShapeMismatchError(i, f"weights shape {params.weights[i].shape}, plan expects {w_shape}")
        if params.biases[i].shape != b_shape:
            raise ShapeMismatchError(i, f"biases shape {params.biases[i].shape}, plan expects {b_shape}")
        if i and plans[i - 1].out_width != plan.in_width:
            raise ShapeMismatchError(
                i, f"input width {plans[i - 1].out_width}, plan expects {plan.in_width}"
            )


def _group_major(a: np.ndarray, groups: int) -> np.ndarray:
    """View channel-major rows ``(batch, width)`` as ``(groups, batch, width // groups)``."""
    return a.reshape(len(a), groups, a.shape[1] // groups).transpose(1, 0, 2)


class _Workspace:
    """The buffers of network passes over at most ``rows`` rows, reused by every pass given it.

    The workspace holds slabs for ``estimators`` estimators (all of them by
    default; ``forward`` makes one per worker, with one block's).  Each activation
    buffer is flat: group-major, ``rows`` rows of those estimators' share of
    the layer width, estimator by estimator; or, where the next layer's group
    count differs, channel-major, ``(rows, width)`` with each estimator in its
    own columns (see :func:`_block_view`).  A pass over fewer rows uses their
    leading values (see :func:`_leading`).  Per hidden layer, ``acts`` holds
    the kept activation, which the next layer reads as its input, then in the
    backward pass its gradient.  For training, ``out`` holds the last layer's
    output and ``gate`` each block's ReLU gate of one layer, in the block's
    own slice and the activation's layout, so blocks on different threads
    share no buffer; ``forward`` leaves them untouched.
    """

    def __init__(self, plans: list[LayerPlan], rows: int, *, estimators: int | None = None):
        m = plans[-1].groups
        self.rows = rows
        self.estimators = m if estimators is None else estimators
        slabs = [rows * (plan.out_width // m) * self.estimators for plan in plans[:-1]]
        self.acts = [np.empty(size) for size in slabs]
        self.out = np.empty(rows * plans[-1].per_group_out * self.estimators)
        self.gate = np.empty(max(slabs, default=0), dtype=bool)


def _leading(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading values of a flat workspace buffer, as a C-contiguous array of ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


def _block_view(buf: np.ndarray, shape: tuple[int, int, int], slabs: int, slab: int, channel_major: bool):
    """Block ``slab``'s group-major ``(groups, rows, width)`` view of a flat activation buffer.

    Group-major, each block's values are contiguous: ``(slabs, groups, rows,
    width)``.  Channel-major, the buffer holds ``(rows, slabs, groups, width)``,
    each block in its own columns, so views of any group count re-partition the
    same channels, and the row stride is the whole width, whichever the block:
    every GEMM reading such a view gets the operands of a one-block pass.
    """
    groups, rows, width = shape
    if channel_major:
        return _leading(buf, (rows, slabs, groups, width))[:, slab].transpose(1, 0, 2)
    return _leading(buf, (slabs, *shape))[slab]


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Bounds of ``max(1, n // _ROW_BLOCK)`` nearly equal row blocks covering ``[0, n)``."""
    count = max(1, n // _ROW_BLOCK)
    edges = [n * j // count for j in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _estimator_block(plans: list[LayerPlan], rows: int) -> int:
    """Estimators per block of either pass: the largest divisor of M whose block's hidden
    activations over ``rows`` rows fit in ``_BLOCK_BYTES`` (at least 1)."""
    m = plans[-1].groups
    per_estimator = 8 * rows * sum(plan.out_width for plan in plans[:-1]) // m
    return max([b for b in range(1, m + 1) if m % b == 0 and b * per_estimator <= _BLOCK_BYTES], default=1)


_pool: ThreadPoolExecutor | None = None  # made on first use, by _deal
_width: int | None = None  # workers of a pass; None: one per core of this process's affinity mask


def _pool_width() -> int:
    """Workers a pass runs its blocks on: the calling thread and one fewer pool threads."""
    if _width is None:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return _width


def _set_pool_width(width: int | None) -> None:
    """Run passes on ``width`` workers (None: one per core); shuts the current pool down."""
    global _width
    _shutdown_pool()
    _width = width


def _shutdown_pool() -> None:
    """Join the pool's threads, so that this process may fork; the next pass makes a new pool."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
    _pool = None


def _forget_pool() -> None:
    # A forked child has none of its parent's threads, so a copy of a used pool would hang.
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS numpy loaded; None if none is found.

    The library is looked up in this process's memory map, so on another
    system or another BLAS there is none and passes leave BLAS as it is.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({f[5].strip() for f in (line.split(maxsplit=5) for line in maps) if len(f) == 6})
    except OSError:
        return None
    for path in (p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)  # already loaded: the same library, not a second copy
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its count.

    Blocks on several workers each run their own GEMMs; a multi-threaded BLAS
    would put more threads than cores on them.
    """
    blas = _openblas_threads()
    threads = blas[0]() if blas else 1
    if threads != 1:
        blas[1](1)
    try:
        yield
    finally:
        if threads != 1:
            blas[1](threads)


def _workers_for(items: int) -> int:
    """Workers a pass over ``items`` independent items runs on: ``_pool_width()``, at most one per item."""
    return max(1, min(_pool_width(), items))


def _deal(workers: int, items: int, run: Callable[[int, int], None]) -> None:
    """Call ``run(worker, item)`` once for every item, on ``workers`` workers.

    Worker 0 is this thread, the others are pool threads.  Each worker claims
    the lowest item not yet claimed until none is left, so a worker on a
    slower core simply runs fewer; which worker runs an item changes no bit
    of its result.  A pool thread runs in its own copy of the caller's
    context, where numpy keeps its error state and buffer size, and while
    several workers run, BLAS runs on one thread (see
    :func:`_one_blas_thread`).  With one worker the pool is untouched.
    Returns once every worker has, then raises the first error.
    """
    global _pool
    unclaimed = iter(range(items))
    lock = threading.Lock()

    def claim(worker: int) -> None:
        while True:
            with lock:
                item = next(unclaimed, None)
            if item is None:
                return
            run(worker, item)

    if workers == 1:
        claim(0)
        return
    if _pool is None:
        _pool = ThreadPoolExecutor(_pool_width() - 1, thread_name_prefix="packedflow")
    with _one_blas_thread():
        futures = [_pool.submit(contextvars.copy_context().run, claim, w) for w in range(1, workers)]
        try:
            claim(0)
        finally:
            wait(futures)
    for future in futures:
        future.result()


def _checked_inputs(params: Params, plans: list[LayerPlan], batch) -> np.ndarray:
    """Validate the layers and the batch; return the batch as float64."""
    _check_layers(params, plans)
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ShapeMismatchError(0, f"batch must be 2-D, got shape {batch.shape}")
    if batch.shape[1] != plans[0].per_group_in:
        raise ShapeMismatchError(
            0, f"batch has {batch.shape[1]} features, network expects {plans[0].per_group_in}"
        )
    if not np.isfinite(batch).all():
        raise ValueError("batch contains non-finite values")
    return batch


def _run_block(
    params: Params,
    plans: list[LayerPlan],
    batch: np.ndarray,
    dropout_masks,
    ws: _Workspace,
    y: np.ndarray,
    first: int,
    block: int,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The group-major forward pass shared by inference and training, on checked inputs.

    Runs estimators ``[first, first + block)`` through every layer, in their own
    slab of each workspace buffer: the only one of a workspace that holds one
    block, their own range of one that holds them all.  Writes each hidden
    layer's kept activation (ReLU then dropout, in place) into ``ws.acts`` and
    the last layer's output into their rows of ``y``, ``(num_estimators,
    len(batch), out_features)``.  Returns the block's group-major layer inputs
    and kept hidden activations, which the backward pass reads.
    """
    m, n = plans[-1].groups, len(batch)
    slabs = ws.estimators // block
    slab = first // block % slabs
    x = batch[None]  # one input group, broadcast to every estimator of the first layer
    inputs, acts = [], []
    for i, plan in enumerate(plans):
        per_estimator = plan.groups // m
        own = slice(first * per_estimator, (first + block) * per_estimator)
        inputs.append(x)
        last = i == len(plans) - 1
        layout = (slabs, slab, not last and plans[i + 1].groups != plan.groups)  # channel-major?
        shape = (block * per_estimator, n, plan.per_group_out)
        z = y[first : first + block] if last else _block_view(ws.acts[i], shape, *layout)
        np.matmul(x, params.weights[i][own].transpose(0, 2, 1), out=z)
        z += params.biases[i].reshape(plan.groups, 1, plan.per_group_out)[own]
        if last:
            break
        np.maximum(z, 0.0, out=z)
        if dropout_masks is not None:
            z *= _group_major(dropout_masks[i], plan.groups)[own]
            z *= _KEEP_SCALE
        acts.append(z)
        above = plans[i + 1]
        x = _block_view(ws.acts[i], (block * above.groups // m, n, above.per_group_in), *layout) if layout[2] else z
    return inputs, acts


def forward(params: Params, plans: list[LayerPlan], batch: np.ndarray) -> PerEstimatorOutput:
    """Evaluate the packed network on a batch of raw feature rows: a pure function.

    Every estimator sees the whole batch, and every layer except the last is
    followed by ReLU; dropout is a training step's input, so no unit drops
    here.  Rows run in blocks of :func:`_row_blocks`, shared out among the
    workers (see :func:`_deal`; a lone row block runs here).  Each worker
    has its own workspace of one estimator block's slabs, the block taken by
    :func:`_estimator_block` over its largest row block times the workers, so
    all of them hold what one worker's would.  The last layer writes straight
    into the returned array.  Threads split row blocks, never a GEMM, so the
    bits do not depend on the worker count.
    """
    batch = _checked_inputs(params, plans, batch)
    m = plans[-1].groups
    y = np.empty((m, len(batch), plans[-1].per_group_out))
    blocks = _row_blocks(len(batch))
    rows = max(hi - lo for lo, hi in blocks)
    workers = _workers_for(len(blocks))
    block = _estimator_block(plans, rows * workers)
    workspaces = [_Workspace(plans, rows, estimators=block) for _ in range(workers)]

    def run(worker: int, j: int) -> None:
        lo, hi = blocks[j]
        for first in range(0, m, block):
            _run_block(params, plans, batch[lo:hi], None, workspaces[worker], y[:, lo:hi], first, block)

    _deal(workers, len(blocks), run)
    return PerEstimatorOutput(estimator_outputs=y, mean_output=y.sum(axis=0) / len(y))


def loss_and_grad(
    params: Params,
    plans: list[LayerPlan],
    batch: np.ndarray,
    targets: np.ndarray,
    dropout_masks: list[np.ndarray] | None = None,
    workspace: _Workspace | None = None,
) -> tuple[float, Params]:
    """MSE of the ensemble-mean prediction and its exact parameter gradients.

    loss = mean over batch rows and output channels of (mean_output - target)^2.
    Given ``dropout_masks``, bool keep masks (see :func:`make_dropout_masks`),
    each hidden activation and its gradient are zeroed where a unit dropped and
    scaled by ``1 / (1 - DROPOUT_P)`` where it is kept, with the bits of a
    0-or-1.25 float mask; the ReLU gate zeroes a dropped unit's gradient.  The pass
    runs in ``workspace``, made for at least ``len(batch)`` rows of all
    estimators, or in a fresh one.  The estimators run in blocks of
    :func:`_estimator_block`, shared out among the workers (see :func:`_deal`;
    a lone block runs here): every block's forward pass, then the loss from
    all outputs on this thread, then every block's backward pass, each
    writing only its own estimators' gradients.  Threads split blocks, never a
    GEMM, so the bits do not depend on the worker count.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if len(batch) == 0:
        raise ValueError("empty batch")
    if targets.shape != (len(batch), plans[-1].per_group_out):
        raise ShapeMismatchError(
            len(plans) - 1,
            f"targets shape {targets.shape}, expected ({len(batch)}, {plans[-1].per_group_out})",
        )
    if not np.isfinite(targets).all():
        raise ValueError("targets contain non-finite values")

    batch = _checked_inputs(params, plans, batch)
    n = len(batch)
    shapes = [(n, plan.out_width) for plan in plans[:-1]]
    if dropout_masks is not None:
        if [(np.shape(k), getattr(k, "dtype", None)) for k in dropout_masks] != [(s, bool) for s in shapes]:
            raise ValueError(f"dropout masks must have shapes {shapes} and dtype bool (keep masks)")
    m, out_features = plans[-1].groups, plans[-1].per_group_out
    ws = _Workspace(plans, n) if workspace is None else workspace
    if ws.rows < n or ws.estimators != m:
        raise ValueError(
            f"workspace holds {ws.rows} rows for {ws.estimators} of {m} estimators; "
            f"the batch needs {n} rows for all {m}"
        )
    block = _estimator_block(plans, n)
    slabs = m // block
    workers = _workers_for(slabs)
    y = _leading(ws.out, (m, n, out_features))
    passes = [None] * slabs

    def run_forward(worker: int, slab: int) -> None:
        passes[slab] = _run_block(params, plans, batch, dropout_masks, ws, y, slab * block, block)

    _deal(workers, slabs, run_forward)
    diff = y.sum(axis=0) / m - targets
    loss = float(np.mean(diff * diff))

    # d loss / d mean_output, then split equally across estimators.
    dy = (2.0 / (n * out_features)) * diff / m
    grads = Params(np.empty(param_count(plans)), _layer_shapes(plans))

    # Walking down, the gradient of each hidden activation overwrites that activation,
    # in the layout of the next layer's input, once its ReLU gate is taken (in the
    # block's own slice of the gate buffer); each block touches only its own slabs and
    # gradients.  The gate is False wherever a unit dropped, so no mask is read.
    def run_backward(worker: int, slab: int) -> None:
        inputs, acts = passes[slab]
        dz = np.broadcast_to(dy, (block, n, out_features))
        for i in range(len(plans) - 1, -1, -1):
            plan = plans[i]
            groups = block * (plan.groups // m)
            own = slice(slab * groups, (slab + 1) * groups)
            if i < len(plans) - 1:
                dz = acts[i]  # the gradient written over inputs[i + 1], viewed in this layer's groups
                if dropout_masks is not None:
                    dz *= _KEEP_SCALE
                dz *= gate
            np.matmul(dz.transpose(0, 2, 1), inputs[i], out=grads.weights[i][own])
            bias_grad = grads.biases[i].reshape(plan.groups, plan.per_group_out)[own]
            if plan.per_group_out > 1:
                # Adds the rows in order, as np.sum does over a non-contiguous axis, so the
                # bits agree; at width 1 np.sum adds pairwise, so it stays there.
                np.einsum("gnd->gd", dz, out=bias_grad)
            else:
                np.sum(dz, axis=1, out=bias_grad)
            if i:
                # Kept and active units, relu(z) * keep > 0, in the activation's layout.
                gate_buf = ws.gate.reshape(slabs, -1)[slab]
                layout = (1, 0, plans[i - 1].groups != plan.groups)
                gate = np.greater(acts[i - 1], 0.0, out=_block_view(gate_buf, acts[i - 1].shape, *layout))
                np.matmul(dz, params.weights[i][own], out=inputs[i])

    _deal(workers, slabs, run_backward)
    return loss, grads


def _header_bytes(spec: PackedSpec, plans: list[LayerPlan]) -> bytes:
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": spec.to_dict(),
        "plans": [p.to_dict() for p in plans],
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_params(path, spec: PackedSpec, params: Params) -> None:
    """Write a model file: magic, header length, JSON header, raw float64 data.

    Layout (little-endian): 8-byte magic ``PKMLP1\\x00\\x00``, uint32 header
    length, UTF-8 JSON header (format version, spec fields, layer plan
    table), then ``params.flat``: per layer in order, weights in C order,
    then biases.  Round-trips are bit-exact.
    """
    plans = plan_layers(spec)
    _check_layers(params, plans)
    bad = params.non_finite_layer()
    if bad is not None:
        raise ValueError(f"layer {bad}: non-finite parameter values cannot be saved")
    header = _header_bytes(spec, plans)
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_params(path) -> tuple[PackedSpec, list[LayerPlan], Params]:
    """Read a model file written by :func:`save_params` (bit-exact).

    A malformed file raises ``ConfigError`` naming the path and the byte offset
    of the fault; every length is checked before the bytes are read.  A NaN or an
    infinity among the parameters (``save_params`` writes none) is such a fault.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def fault(offset: int, message: str) -> ConfigError:
        return ConfigError(f"{path}: byte {offset}: {message}")

    start = len(_MODEL_MAGIC) + 4
    if len(blob) < start:
        raise fault(len(blob), f"file ends inside the {start}-byte magic and header length")
    if blob[: len(_MODEL_MAGIC)] != _MODEL_MAGIC:
        raise fault(0, "not a packed model file (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, len(_MODEL_MAGIC))
    offset = start + header_len
    if offset > len(blob):
        raise fault(len(_MODEL_MAGIC), f"header length {header_len} runs past the end of the file")
    header = decode_json(blob[start:offset], f"{path}: byte {start}: header")
    if "spec" not in header or "plans" not in header:
        raise fault(start, "header must hold 'spec' and 'plans'")
    if header.get("format_version") != MODEL_FORMAT_VERSION:
        raise fault(start, f"unsupported format version {header.get('format_version')}")
    spec = PackedSpec.from_dict(header["spec"], f"{path}: byte {start}: spec")
    plans = plan_layers(spec)
    if [p.to_dict() for p in plans] != header["plans"]:
        raise fault(start, "layer plan table does not match the stored spec")
    expected = 8 * param_count(plans)
    if len(blob) - offset < expected:
        raise fault(offset, f"parameter data holds {len(blob) - offset} bytes, the spec needs {expected}")
    if len(blob) - offset > expected:
        raise fault(offset + expected, f"{len(blob) - offset - expected} trailing bytes after parameter data")
    flat = np.frombuffer(blob, dtype="<f8", count=param_count(plans), offset=offset)
    params = Params(flat.astype(np.float64), _layer_shapes(plans))
    bad = params.non_finite_layer()
    if bad is not None:
        first = int(np.argmin(np.isfinite(params.flat)))
        raise fault(offset + 8 * first, f"layer {bad}: non-finite parameter value")
    return spec, plans, params
