"""Shared test oracles: dense reference MLP, finite differences, naive ranks,
block-diagonal materialization, and small dataset builders.

Everything here is deliberately independent of the library's gradient and
rank code paths: the dense network is written from first principles, ranks
are computed by O(n^2) counting, and gradients come from central differences
of the loss value alone.
"""

import numpy as np

from packedflow.data import CylinderFlowConfig, Dataset, Simulation, generate_cylinder_flow
from packedflow.packed_net import DROPOUT_P, Params, _row_blocks, forward


def packed_params(weights, biases):
    """A ``Params`` over a new buffer holding copies of the per-layer arrays, in file order."""
    flat = np.concatenate([np.ravel(a) for pair in zip(weights, biases, strict=True) for a in pair])
    return Params(flat.astype(np.float64), [(np.shape(w), np.shape(b)) for w, b in zip(weights, biases)])


def float_masks(keep_masks):
    """Inverted-dropout float masks from keep masks: 1 / (1 - DROPOUT_P) where kept, else 0.

    The references multiply by these in both passes; ``None`` stays ``None``.
    """
    if keep_masks is None:
        return None
    return [np.where(keep, 1.0 / (1.0 - DROPOUT_P), 0.0) for keep in keep_masks]


# ---------------------------------------------------------------------------
# Dense reference MLP (plain matrices, ReLU, mean-squared loss)
# ---------------------------------------------------------------------------


def dense_forward(weights, biases, x):
    """Plain MLP forward: ReLU after every layer except the last."""
    a = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if i < len(weights) - 1 else z
    return a


def dense_loss_and_grads(weights, biases, x, y, masks=None):
    """Loss mean((out - y)^2) with hand-derived backprop for the dense MLP.

    ``masks``, keep masks if given, multiply each hidden activation after its
    ReLU as :func:`float_masks`, and its gradient too.
    """
    masks = float_masks(masks)
    acts = [x]
    preacts = []
    a = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        preacts.append(z)
        a = np.maximum(z, 0.0) if i < len(weights) - 1 else z
        if masks is not None and i < len(weights) - 1:
            a = a * masks[i]
        acts.append(a)
    n, c = y.shape
    diff = a - y
    loss = float(np.mean(diff * diff))
    dz = 2.0 * diff / (n * c)
    grad_w = [None] * len(weights)
    grad_b = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grad_w[i] = dz.T @ acts[i]
        grad_b[i] = dz.sum(axis=0)
        if i > 0:
            dz = dz @ weights[i]
            if masks is not None:
                dz = dz * masks[i - 1]
            dz = dz * (preacts[i - 1] > 0.0)
    return loss, grad_w, grad_b


def block_diagonal_matrix(plan, blocks):
    """Materialize a grouped layer's dense (out_width, in_width) matrix."""
    dense = np.zeros((plan.out_width, plan.in_width))
    for g in range(plan.groups):
        rows = slice(g * plan.per_group_out, (g + 1) * plan.per_group_out)
        cols = slice(g * plan.per_group_in, (g + 1) * plan.per_group_in)
        dense[rows, cols] = blocks[g]
    return dense


def block_diagonal_forward(plans, params, x, masks=None):
    """Packed forward pass through materialized dense block-diagonal matrices.

    ``masks``, keep masks if given, multiply each hidden activation after its
    ReLU as :func:`float_masks`.  Returns the per-estimator outputs,
    ``(num_estimators, batch, out_features)``.
    """
    masks = float_masks(masks)
    a = np.tile(x, (1, plans[0].groups))
    for i, plan in enumerate(plans):
        a = a @ block_diagonal_matrix(plan, params.weights[i]).T + params.biases[i]
        if i < len(plans) - 1:
            a = np.maximum(a, 0.0)
            if masks is not None:
                a = a * masks[i]
    return a.reshape(len(x), plans[-1].groups, -1).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# One-block passes (the bit-exact references for blocked and threaded passes)
# ---------------------------------------------------------------------------


def _by_group(rows, groups):
    """Channel-major ``(n, width)`` -> group-major ``(groups, n, width // groups)`` view."""
    return rows.reshape(len(rows), groups, -1).transpose(1, 0, 2)


def _regroup(a, groups):
    """A group-major array copied channel-major into a contiguous ``(n, width)`` array, viewed in ``groups``."""
    if len(a) == groups:
        return a
    return _by_group(np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(a.shape[1], -1), groups)


def _one_block_pass(params, plans, x, masks):
    """The grouped forward pass with all estimators in one block, in fresh arrays.

    ``masks``, float masks if given (see :func:`float_masks`), multiply each
    hidden activation after its ReLU.  Returns each layer's group-major input,
    each hidden layer's kept activation and the last layer's output,
    ``(num_estimators, len(x), out_features)``.
    """
    inputs, acts, a = [], [], x[None]
    for i, plan in enumerate(plans):
        inputs.append(a)
        z = np.matmul(a, params.weights[i].transpose(0, 2, 1))
        z += params.biases[i].reshape(plan.groups, 1, plan.per_group_out)
        if i == len(plans) - 1:
            return inputs, acts, z
        np.maximum(z, 0.0, out=z)
        if masks is not None:
            z *= _by_group(masks[i], plan.groups)
        acts.append(z)
        a = _regroup(z, plans[i + 1].groups)


def one_block_forward(params, plans, x):
    """``forward``'s estimator outputs from its row blocks, each a one-block pass in fresh arrays.

    Every GEMM gets the operands of the library's pass, so the outputs must
    equal ``forward``'s bit for bit.
    """
    y = np.empty((plans[-1].groups, len(x), plans[-1].per_group_out))
    for lo, hi in _row_blocks(len(x)):
        y[:, lo:hi] = _one_block_pass(params, plans, x[lo:hi], None)[2]
    return y


def one_block_loss_and_grad(params, plans, x, y, masks=None):
    """The grouped training step with all estimators in one block, in fresh arrays.

    Every GEMM gets the operands, with the strides, of the library's one-block
    pass: activations group-major and contiguous, a regroup copied channel-major
    into a contiguous ``(rows, width)`` array.  Reductions are the library's too,
    so the loss and gradients must equal ``loss_and_grad``'s bit for bit.  Keep
    ``masks`` become :func:`float_masks`, which multiply each hidden activation
    and its gradient, before the ReLU gate.
    """
    m, n, last = plans[-1].groups, len(x), len(plans) - 1
    masks = float_masks(masks)
    inputs, acts, z = _one_block_pass(params, plans, x, masks)
    diff = z.sum(axis=0) / m - y
    loss = float(np.mean(diff * diff))
    dz = np.broadcast_to((2.0 / (n * plans[-1].per_group_out)) * diff / m, z.shape)
    weights, biases = [None] * len(plans), [None] * len(plans)
    for i in range(last, -1, -1):
        plan = plans[i]
        if i < last:
            dz = _regroup(dz, plan.groups)  # in place from here on: its strides reach the GEMMs
            if masks is not None:
                dz *= _by_group(masks[i], plan.groups)
            dz *= acts[i] > 0.0
        weights[i] = np.matmul(dz.transpose(0, 2, 1), inputs[i])
        if plan.per_group_out > 1:
            biases[i] = np.einsum("gnd->gd", dz).ravel()
        else:
            biases[i] = np.sum(dz, axis=1).ravel()
        if i:
            dz = np.matmul(dz, params.weights[i])
    return loss, packed_params(weights, biases)


# ---------------------------------------------------------------------------
# Finite-difference gradients
# ---------------------------------------------------------------------------


def ensemble_loss(params, plans, x, y, masks=None):
    """Loss recomputed from a forward pass only (no backprop code involved).

    Without masks the pass is the library's ``forward``; with them, which only
    a training step takes, it is :func:`block_diagonal_forward`.
    """
    if masks is None:
        mean = forward(params, plans, x).mean_output
    else:
        mean = block_diagonal_forward(plans, params, x, masks).mean(axis=0)
    diff = mean - y
    return float(np.mean(diff * diff))


def fd_gradients(params, plans, x, y, masks=None, step=1e-3):
    """Central-difference gradients of the ensemble loss for every parameter."""
    grad_w, grad_b = [], []
    for layer in range(len(plans)):
        for store, arr in ((grad_w, params.weights[layer]), (grad_b, params.biases[layer])):
            grads = np.empty_like(arr)
            flat, gflat = arr.ravel(), grads.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                loss_plus = ensemble_loss(params, plans, x, y, masks)
                flat[i] = orig - step
                loss_minus = ensemble_loss(params, plans, x, y, masks)
                flat[i] = orig
                gflat[i] = (loss_plus - loss_minus) / (2.0 * step)
            store.append(grads)
    return grad_w, grad_b


def relative_error(a, b):
    """|a - b| / max(|a|, |b|, 1): relative for large entries, absolute near zero."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)


def nudge_biases_off_kinks(params, plans, batch, masks=None, margin=0.25):
    """Shift biases so every ReLU pre-activation sits >= margin away from zero.

    Finite differences with step 1e-3 are only valid where no pre-activation
    changes sign inside the sweep; this keeps the units genuinely mixed
    (active and inactive rows) while guaranteeing that margin.  Mutates and
    returns params.  ``masks`` are keep masks, applied as :func:`float_masks`.
    """
    masks = float_masks(masks)
    x = np.tile(batch, (1, plans[0].groups))
    for i, plan in enumerate(plans[:-1]):
        z = x @ block_diagonal_matrix(plan, params.weights[i]).T + params.biases[i]
        for unit in range(plan.out_width):
            col = np.sort(z[:, unit])
            gaps = np.diff(col)
            widest = int(np.argmax(gaps)) if len(gaps) else 0
            if len(gaps) and gaps[widest] >= 2.5 * margin:
                shift = -0.5 * (col[widest] + col[widest + 1])
            else:
                shift = margin - col[0]
            params.biases[i][unit] += shift
            z[:, unit] += shift
        assert np.abs(z).min() >= margin * 0.99
        x = np.maximum(z, 0.0)
        if masks is not None:
            x = x * masks[i]
    return params


# ---------------------------------------------------------------------------
# Naive rank statistics
# ---------------------------------------------------------------------------


def naive_average_ranks(values):
    """O(n^2) fractional ranks: 1 + #smaller + (#equal - 1) / 2."""
    values = np.asarray(values, dtype=np.float64)
    ranks = np.empty(len(values))
    for i, v in enumerate(values):
        smaller = int((values < v).sum())
        equal = int((values == v).sum())
        ranks[i] = 1.0 + smaller + 0.5 * (equal - 1)
    return ranks


def naive_spearman(xs, ys):
    rx = naive_average_ranks(xs)
    ry = naive_average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    return float((dx * dy).sum() / np.sqrt((dx * dx).sum() * (dy * dy).sum()))


# ---------------------------------------------------------------------------
# Small valid datasets
# ---------------------------------------------------------------------------


def field_simulation(name, num_points, seed, inlet=(10.0, 0.0)):
    """A valid off-surface simulation with random smooth-ish values."""
    rng = np.random.default_rng(seed)
    points = np.zeros((num_points, 7))
    points[:, 0:2] = rng.uniform(-2.0, 2.0, size=(num_points, 2))
    points[:, 2] = inlet[0]
    points[:, 3] = inlet[1]
    points[:, 4] = rng.uniform(0.1, 3.0, size=num_points)
    targets = rng.normal(size=(num_points, 4))
    return Simulation(name=name, points=points, targets=targets)


def field_dataset(num_sims, num_points=8, seed=0, split_label="train"):
    sims = tuple(
        field_simulation(f"{split_label}_{i:03d}", num_points, seed + i) for i in range(num_sims)
    )
    return Dataset(simulations=sims, split_label=split_label)


def cylinder_dataset(
    num_sims,
    surface_points=32,
    field_points=32,
    seed=0,
    circulation=(-4.0, 4.0),
    radius=(0.5, 1.0),
    speed=(5.0, 15.0),
    split_label="train",
):
    if isinstance(circulation, (int, float)):
        circulation = (float(circulation), float(circulation))
    if isinstance(radius, (int, float)):
        radius = (float(radius), float(radius))
    if isinstance(speed, (int, float)):
        speed = (float(speed), float(speed))
    config = CylinderFlowConfig(
        num_sims=num_sims,
        surface_points=surface_points,
        field_points=field_points,
        radius_range=radius,
        inlet_speed_range=speed,
        circulation_range=circulation,
        seed=seed,
    )
    return generate_cylinder_flow(config, split_label=split_label)


def linear_target_dataset(num_sims=4, num_points=200, seed=0):
    """Targets are a fixed affine map of the features: exactly learnable."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(4, 7))
    offset = rng.normal(size=4)
    sims = []
    for i in range(num_sims):
        base = field_simulation(f"linear_{i:03d}", num_points, seed + 10 + i)
        targets = base.points @ matrix.T + offset
        sims.append(Simulation(name=base.name, points=base.points, targets=targets))
    return Dataset(simulations=tuple(sims), split_label="train")
