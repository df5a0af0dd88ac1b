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

Activations stay group-major, ``(groups, batch, per_group_width)``, so each
layer is one batched GEMM.  The batch is broadcast to the first layer's
groups as ``batch[None]``, activations are regrouped only where the group
count changes (``gamma > 1``), and the last layer emits
``(num_estimators, batch, out_features)``.  Dropout masks keep the public
layout ``(batch, out_width)`` and are viewed group-major.  All math is float64.

``forward`` runs a batch in fixed row blocks of 1024 to 2047 rows (one block
if it is shorter), so inference memory is bounded by the block, and every
output equals that of a one-batch pass.  ReLU and dropout run in place, so
each layer keeps one activation array, in training and in inference.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

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
    def from_dict(cls, obj: dict) -> "PackedSpec":
        """Read a spec from a model header; a stored ``dropout_p`` must be ``DROPOUT_P`` if dropout is on."""
        if obj.get("dropout_enabled") and obj.get("dropout_p", DROPOUT_P) != DROPOUT_P:
            raise ValueError(f"dropout probability is fixed at {DROPOUT_P} when dropout is enabled")
        return cls(
            num_estimators=int(obj["num_estimators"]),
            alpha=int(obj["alpha"]),
            gamma=int(obj["gamma"]),
            hidden_widths=tuple(int(w) for w in obj["hidden_widths"]),
            in_features=int(obj.get("in_features", 7)),
            out_features=int(obj.get("out_features", 4)),
            dropout_enabled=bool(obj.get("dropout_enabled", False)),
        )


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

    ``flat`` holds every layer's weights then biases, in layer order, exactly
    as the model file stores them.  ``weights[i]`` has shape ``(groups,
    per_group_out, per_group_in)`` and ``biases[i]`` shape ``(out_width,)``.
    The constructor copies the given arrays into a new ``flat``.  Change values
    in place (``weights[i][...] = ...``): a list item rebound to a new array no
    longer reaches ``flat``, which is what ``save_params`` writes.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        pairs = list(zip(weights, biases, strict=True))
        flat = np.concatenate([np.ravel(a) for pair in pairs for a in pair], dtype=np.float64)
        self._bind(flat, [(np.shape(w), np.shape(b)) for w, b in pairs])

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes) -> "Params":
        """Wrap ``flat`` without copying, given each layer's (weight shape, bias shape)."""
        params = cls.__new__(cls)
        params._bind(flat, shapes)
        return params

    def _bind(self, flat: np.ndarray, shapes) -> None:
        self.flat = flat
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        offset = 0
        for w_shape, b_shape in shapes:
            for views, shape in ((self.weights, w_shape), (self.biases, b_shape)):
                size = math.prod(shape)
                views.append(flat[offset : offset + size].reshape(shape))
                offset += size
        if offset != flat.size:
            raise ValueError(f"layer shapes cover {offset} values, buffer holds {flat.size}")

    @property
    def shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [(w.shape, b.shape) for w, b in zip(self.weights, self.biases)]

    def copy(self) -> "Params":
        return Params.from_flat(self.flat.copy(), self.shapes)

    def zeros_like(self) -> "Params":
        return Params.from_flat(np.zeros_like(self.flat), self.shapes)

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
    widths = [_widened_width(spec, h) for h in spec.hidden_widths]

    plans = [
        LayerPlan(
            role="first",
            in_width=m * spec.in_features,
            out_width=widths[0],
            groups=m,
            per_group_in=spec.in_features,
            per_group_out=widths[0] // m,
        )
    ]
    groups = m * spec.gamma
    for w_in, w_out in zip(widths[:-1], widths[1:]):
        plans.append(
            LayerPlan(
                role="hidden",
                in_width=w_in,
                out_width=w_out,
                groups=groups,
                per_group_in=w_in // groups,
                per_group_out=w_out // groups,
            )
        )
    plans.append(
        LayerPlan(
            role="last",
            in_width=widths[-1],
            out_width=m * spec.out_features,
            groups=m,
            per_group_in=widths[-1] // m,
            per_group_out=spec.out_features,
        )
    )
    return plans


def param_count(plans: list[LayerPlan]) -> int:
    """Total number of stored weights and biases."""
    return sum(p.groups * p.per_group_out * p.per_group_in + p.out_width for p in plans)


def init_params(plans: list[LayerPlan], seed: int) -> Params:
    """He-style uniform init with fan-in = per-group input width; biases zero."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for plan in plans:
        bound = np.sqrt(6.0 / plan.per_group_in)
        weights.append(rng.uniform(-bound, bound, size=(plan.groups, plan.per_group_out, plan.per_group_in)))
        biases.append(np.zeros(plan.out_width))
    return Params(weights, biases)


def make_dropout_masks(
    plans: list[LayerPlan], batch_size: int, dropout_p: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """Inverted-dropout masks (values 0 or 1/keep) for every activation layer.

    One mask per layer except the last; masks already carry the 1/(1-p)
    scaling so evaluation needs no rescaling.
    """
    if not 0.0 < dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in (0, 1), got {dropout_p}")
    keep = 1.0 - dropout_p
    return [
        (rng.random((batch_size, plan.out_width)) < keep) / keep
        for plan in plans[:-1]
    ]


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


def _regroup(a: np.ndarray, groups: int) -> np.ndarray:
    """Re-partition the channels of group-major ``a`` into ``groups`` contiguous groups."""
    if a.shape[0] == groups:
        return a
    return _group_major(a.transpose(1, 0, 2).reshape(a.shape[1], a.shape[0] * a.shape[2]), groups)


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Bounds of ``max(1, n // _ROW_BLOCK)`` nearly equal row blocks covering ``[0, n)``."""
    count = max(1, n // _ROW_BLOCK)
    edges = [n * j // count for j in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _checked_inputs(params: Params, plans: list[LayerPlan], batch, dropout_masks) -> np.ndarray:
    """Validate the layers, the batch and the dropout masks; return the batch as float64."""
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
    shapes = [(len(batch), plan.out_width) for plan in plans[:-1]]
    if dropout_masks is not None and [np.shape(m) for m in dropout_masks] != shapes:
        raise ValueError(f"dropout masks must have shapes {shapes}")
    return batch


def _run_layers(params: Params, plans: list[LayerPlan], batch: np.ndarray, dropout_masks) -> tuple:
    """The group-major forward pass shared by inference and training, on checked inputs.

    Returns the last layer's output ``(num_estimators, batch, out_features)``,
    each layer's group-major input and kept activation (ReLU then dropout, in
    place), and the dropout masks viewed group-major.
    """
    masks = None
    if dropout_masks is not None:
        masks = [_group_major(m, plan.groups) for m, plan in zip(dropout_masks, plans)]

    x = batch[None]  # one input group, broadcast to every estimator of the first layer
    inputs, acts = [], []
    for i, plan in enumerate(plans):
        z = x @ params.weights[i].transpose(0, 2, 1)
        z += params.biases[i].reshape(plan.groups, 1, plan.per_group_out)
        inputs.append(x)
        if i == len(plans) - 1:
            return z, inputs, acts, masks
        np.maximum(z, 0.0, out=z)
        if masks is not None:
            z *= masks[i]
        acts.append(z)
        x = _regroup(z, plans[i + 1].groups)


def forward(
    params: Params,
    plans: list[LayerPlan],
    batch: np.ndarray,
    dropout_masks: list[np.ndarray] | None = None,
) -> PerEstimatorOutput:
    """Evaluate the packed network on a batch of raw feature rows.

    Every estimator sees the whole batch, and every layer except the last is
    followed by ReLU.  Without ``dropout_masks`` the pass is deterministic;
    with them (see :func:`make_dropout_masks`), each activation is multiplied
    by its mask.  The rows run in blocks of :func:`_row_blocks`.
    """
    batch = _checked_inputs(params, plans, batch, dropout_masks)
    y = np.empty((plans[-1].groups, len(batch), plans[-1].per_group_out))
    for lo, hi in _row_blocks(len(batch)):
        masks = None if dropout_masks is None else [m[lo:hi] for m in dropout_masks]
        y[:, lo:hi] = _run_layers(params, plans, batch[lo:hi], masks)[0]
    return PerEstimatorOutput(estimator_outputs=y, mean_output=y.sum(axis=0) / len(y))


def loss_and_grad(
    params: Params,
    plans: list[LayerPlan],
    batch: np.ndarray,
    targets: np.ndarray,
    dropout_masks: list[np.ndarray] | None = None,
) -> tuple[float, Params]:
    """MSE of the ensemble-mean prediction and its exact parameter gradients.

    loss = mean over batch rows and output channels of (mean_output - target)^2.
    Gradients are computed by backpropagation through the same dropout masks
    as the forward pass.
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

    batch = _checked_inputs(params, plans, batch, dropout_masks)
    y, inputs, acts, masks = _run_layers(params, plans, batch, dropout_masks)
    m, n, out_features = y.shape
    diff = y.sum(axis=0) / m - targets
    loss = float(np.mean(diff * diff))

    # d loss / d mean_output, then split equally across estimators.
    dmean = (2.0 / (n * out_features)) * diff
    dz = np.broadcast_to(dmean / m, y.shape)

    grads = Params.from_flat(np.empty(param_count(plans)), _layer_shapes(plans))
    for i in range(len(plans) - 1, -1, -1):
        plan = plans[i]
        if i < len(plans) - 1:
            dz = _regroup(dz, plan.groups)  # a fresh array from the layer above, updated in place
            if masks is not None:
                dz *= masks[i]
            dz *= acts[i] > 0.0  # kept and active: relu(z) * mask > 0 exactly where z > 0
        np.matmul(dz.transpose(0, 2, 1), inputs[i], out=grads.weights[i])
        np.sum(dz, axis=1, out=grads.biases[i].reshape(plan.groups, plan.per_group_out))
        if i:
            dz = dz @ params.weights[i]
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

    A malformed file raises ``ValueError`` naming the path and the byte offset
    of the fault; every length is checked before the bytes are read.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def fault(offset: int, message: str) -> ValueError:
        return ValueError(f"{path}: byte {offset}: {message}")

    start = len(_MODEL_MAGIC) + 4
    if len(blob) < start:
        raise fault(len(blob), f"file ends inside the {start}-byte magic and header length")
    if blob[: len(_MODEL_MAGIC)] != _MODEL_MAGIC:
        raise fault(0, "not a packed model file (bad magic)")
    (header_len,) = struct.unpack_from("<I", blob, len(_MODEL_MAGIC))
    offset = start + header_len
    if offset > len(blob):
        raise fault(len(_MODEL_MAGIC), f"header length {header_len} runs past the end of the file")
    try:
        header = json.loads(blob[start:offset].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise fault(start, f"header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict) or "spec" not in header or "plans" not in header:
        raise fault(start, "header must be a JSON object with 'spec' and 'plans'")
    if header.get("format_version") != MODEL_FORMAT_VERSION:
        raise fault(start, f"unsupported format version {header.get('format_version')}")
    try:
        spec = PackedSpec.from_dict(header["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise fault(start, f"invalid spec ({exc!r})") from None
    plans = plan_layers(spec)
    if [p.to_dict() for p in plans] != header["plans"]:
        raise fault(start, "layer plan table does not match the stored spec")
    expected = 8 * param_count(plans)
    if len(blob) - offset < expected:
        raise fault(offset, f"parameter data holds {len(blob) - offset} bytes, the spec needs {expected}")
    if len(blob) - offset > expected:
        raise fault(offset + expected, f"{len(blob) - offset - expected} trailing bytes after parameter data")
    flat = np.frombuffer(blob, dtype="<f8", count=param_count(plans), offset=offset)
    return spec, plans, Params.from_flat(flat.astype(np.float64), _layer_shapes(plans))
