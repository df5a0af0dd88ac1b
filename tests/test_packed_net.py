"""Packed network: plans, init, forward, gradients, counts, serialization.

The checks run against independent oracles from helpers.py: a from-scratch
dense MLP, materialized block-diagonal matrices, and central finite
differences of the loss value.
"""

import copy
import dataclasses
import json
import re
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from helpers import (
    block_diagonal_forward,
    block_diagonal_matrix,
    dense_forward,
    dense_loss_and_grads,
    fd_gradients,
    float_masks,
    nudge_biases_off_kinks,
    one_block_forward,
    one_block_loss_and_grad,
    packed_params,
    relative_error,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from packedflow import packed_net
from packedflow.formats import ConfigError
from packedflow.packed_net import (
    _ROW_BLOCK,
    DROPOUT_P,
    LayerPlan,
    PackedSpec,
    Params,
    ShapeMismatchError,
    _row_blocks,
    _Workspace,
    forward,
    init_params,
    load_params,
    loss_and_grad,
    make_dropout_masks,
    param_count,
    plan_layers,
    save_params,
)

DEEP_THIN = (64, 64, 8, 64, 64, 64, 8, 64, 64)
SPECS = st.builds(
    PackedSpec,
    num_estimators=st.integers(1, 4),
    alpha=st.integers(1, 3),
    gamma=st.integers(1, 3),
    hidden_widths=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
    in_features=st.integers(1, 8),
    out_features=st.integers(1, 5),
    dropout_enabled=st.booleans(),
)


def random_case(spec, seed, batch=6):
    plans = plan_layers(spec)
    params = init_params(plans, seed)
    rng = np.random.default_rng(seed + 1000)
    x = rng.normal(size=(batch, spec.in_features))
    y = rng.normal(size=(batch, spec.out_features))
    return plans, params, x, y


class TestSpecValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            PackedSpec(0, 1, 1, (8,))
        with pytest.raises(ValueError):
            PackedSpec(1, 1, 1, ())
        with pytest.raises(ValueError):
            PackedSpec(1, 1, 1, (8, 0))

    def test_dropout_probability_pinned(self):
        assert DROPOUT_P == 0.2
        with pytest.raises(TypeError):
            PackedSpec(1, 1, 1, (8,), dropout_p=0.2)
        off, on = (PackedSpec(1, 1, 1, (8,), dropout_enabled=enabled) for enabled in (False, True))
        for spec in (off, on):
            assert spec.to_dict()["dropout_p"] == 0.2
            assert PackedSpec.from_dict(spec.to_dict()) == spec
            assert PackedSpec.from_dict({k: v for k, v in spec.to_dict().items() if k != "dropout_p"}) == spec
        assert PackedSpec.from_dict({**off.to_dict(), "dropout_p": 0.5}) == off
        with pytest.raises(ValueError, match="fixed at 0.2"):
            PackedSpec.from_dict({**on.to_dict(), "dropout_p": 0.5})


class TestPlanLayers:
    def test_deep_thin_architecture(self):
        spec = PackedSpec(8, 4, 1, DEEP_THIN)
        plans = plan_layers(spec)
        first, last = plans[0], plans[-1]
        assert (first.groups, first.per_group_in, first.out_width) == (8, 7, 256)
        # the width-8 layers widen to 32
        assert [p.out_width for p in plans[:-1]] == [256, 256, 32, 256, 256, 256, 32, 256, 256]
        assert (last.in_width, last.out_width, last.per_group_out) == (256, 32, 4)

    def test_identity_configuration(self):
        plans = plan_layers(PackedSpec(1, 1, 1, (48, 128, 48)))
        assert [(p.in_width, p.out_width) for p in plans] == [(7, 48), (48, 128), (128, 48), (48, 4)]
        assert all(p.groups == 1 for p in plans)

    def test_width_rounding(self):
        # alpha*10 = 20, groups step 8 -> next multiple is 24
        plans = plan_layers(PackedSpec(4, 2, 2, (10,)))
        assert plans[0].out_width == 24

    def test_minimum_width_is_group_count(self):
        plans = plan_layers(PackedSpec(4, 1, 2, (1, 2)))
        assert all(p.out_width >= 8 for p in plans[:-1])

    @pytest.mark.parametrize("m,alpha,gamma", [(2, 1, 1), (3, 2, 2), (8, 4, 3), (5, 5, 1)])
    def test_roles_and_divisibility(self, m, alpha, gamma):
        spec = PackedSpec(m, alpha, gamma, (9, 17, 5))
        plans = plan_layers(spec)
        assert plans[0].role == "first" and plans[-1].role == "last"
        assert plans[0].groups == m and plans[-1].groups == m
        assert plans[0].per_group_in == spec.in_features
        assert plans[-1].per_group_out == spec.out_features
        for plan in plans[1:-1]:
            assert plan.role == "hidden"
            assert plan.groups == m * gamma
        for plan in plans:
            assert plan.in_width == plan.groups * plan.per_group_in
            assert plan.out_width == plan.groups * plan.per_group_out

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (  # configs/bench.json, half_capacity
                PackedSpec(8, 4, 1, DEEP_THIN),
                [("first", 56, 256, 8, 7, 32), ("hidden", 256, 256, 8, 32, 32), ("hidden", 256, 32, 8, 32, 4),
                 ("hidden", 32, 256, 8, 4, 32), ("hidden", 256, 256, 8, 32, 32), ("hidden", 256, 256, 8, 32, 32),
                 ("hidden", 256, 32, 8, 32, 4), ("hidden", 32, 256, 8, 4, 32), ("hidden", 256, 256, 8, 32, 32),
                 ("last", 256, 32, 8, 32, 4)],
            ),
            (  # configs/bench.json, deep_ensemble_equivalent
                PackedSpec(8, 8, 1, DEEP_THIN),
                [("first", 56, 512, 8, 7, 64), ("hidden", 512, 512, 8, 64, 64), ("hidden", 512, 64, 8, 64, 8),
                 ("hidden", 64, 512, 8, 8, 64), ("hidden", 512, 512, 8, 64, 64), ("hidden", 512, 512, 8, 64, 64),
                 ("hidden", 512, 64, 8, 64, 8), ("hidden", 64, 512, 8, 8, 64), ("hidden", 512, 512, 8, 64, 64),
                 ("last", 512, 32, 8, 64, 4)],
            ),
            (  # configs/cv.json, base_spec
                PackedSpec(4, 2, 2, (48, 128, 48)),
                [("first", 28, 96, 4, 7, 24), ("hidden", 96, 256, 8, 12, 32), ("hidden", 256, 96, 8, 32, 12),
                 ("last", 96, 16, 4, 24, 4)],
            ),
            (
                PackedSpec(2, 3, 3, (10, 7, 5), in_features=3, out_features=2),
                [("first", 6, 30, 2, 3, 15), ("hidden", 30, 24, 6, 5, 4), ("hidden", 24, 18, 6, 4, 3),
                 ("last", 18, 4, 2, 9, 2)],
            ),
        ],
        ids=["half_capacity", "deep_ensemble_equivalent", "cv_base", "gamma3"],
    )
    def test_golden_plan_tables(self, spec, expected):
        keys = ("role", "in_width", "out_width", "groups", "per_group_in", "per_group_out")
        assert [p.to_dict() for p in plan_layers(spec)] == [dict(zip(keys, row)) for row in expected]


    @settings(max_examples=100, deadline=None)
    @given(SPECS)
    def test_invariants_property(self, spec):
        plans = plan_layers(spec)
        m, step = spec.num_estimators, spec.num_estimators * spec.gamma
        assert [p.groups for p in plans] == [m] + [step] * (len(plans) - 2) + [m]
        assert [p.role for p in plans] == ["first"] + ["hidden"] * (len(plans) - 2) + ["last"]
        assert len(plans) == len(spec.hidden_widths) + 1
        assert plans[0].in_width == m * spec.in_features and plans[-1].out_width == m * spec.out_features
        for plan, base in zip(plans, spec.hidden_widths):
            assert plan.out_width % step == 0
            assert spec.alpha * base <= plan.out_width < spec.alpha * base + step
        for before, after in zip(plans, plans[1:]):
            assert before.out_width == after.in_width
        params = init_params(plans, 0)
        blocks = sum(w.size + b.size for w, b in zip(params.weights, params.biases))
        assert param_count(plans) == blocks == params.flat.size


class TestInitParams:
    def test_biases_zero(self):
        plans = plan_layers(PackedSpec(4, 2, 2, (16, 16)))
        params = init_params(plans, 123)
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_uniform_bound_from_group_fan_in(self):
        # per_group_in = 12 -> every weight within sqrt(6/12)
        spec = PackedSpec(4, 2, 2, (48, 128))
        plans = plan_layers(spec)
        assert plans[1].per_group_in == 12
        params = init_params(plans, 7)
        bound = np.sqrt(0.5)
        assert np.abs(params.weights[1]).max() <= bound
        assert np.abs(params.weights[1]).max() > 0.9 * bound  # distribution fills the range

    def test_deterministic_per_seed(self):
        plans = plan_layers(PackedSpec(2, 2, 1, (8, 8)))
        a = init_params(plans, 5)
        b = init_params(plans, 5)
        c = init_params(plans, 6)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


    @settings(max_examples=60, deadline=None)
    @given(SPECS, st.integers(0, 2**32 - 1))
    def test_bits_match_layer_by_layer_draws(self, spec, seed):
        # Each layer's weights drawn in layer order, then concatenated with zero biases.
        plans = plan_layers(spec)
        rng = np.random.default_rng(seed)
        pieces = []
        for plan in plans:
            bound = np.sqrt(6.0 / plan.per_group_in)
            weights = rng.uniform(-bound, bound, size=(plan.groups, plan.per_group_out, plan.per_group_in))
            pieces += [weights.ravel(), np.zeros(plan.out_width)]
        assert init_params(plans, seed).flat.tobytes() == np.concatenate(pieces).tobytes()


class TestParamsBuffer:
    def test_views_share_one_flat_buffer_in_file_order(self):
        plans = plan_layers(PackedSpec(3, 2, 3, (9, 13)))
        params = init_params(plans, 4)
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert params.flat.size == param_count(plans)
        for w, b in zip(params.weights, params.biases):
            assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
        params.flat[:] = np.arange(params.flat.size)
        in_order = np.concatenate([a.ravel() for pair in zip(params.weights, params.biases) for a in pair])
        assert np.array_equal(in_order, params.flat)

    def test_the_constructor_wraps_the_given_buffer(self):
        plans = plan_layers(PackedSpec(2, 1, 1, (6,)))  # weights 2x3x7 and 2x4x3, biases 6 and 8
        shapes = [((2, 3, 7), (6,)), ((2, 4, 3), (8,))]
        flat = np.zeros(param_count(plans))
        params = Params(flat, shapes)
        assert params.flat is flat and params.shapes == shapes == init_params(plans, 0).shapes
        params.weights[1][0, 0, 0] = 5.0
        params.biases[1][-1] = 6.0
        assert np.flatnonzero(flat).tolist() == [48, 79] and flat[[48, 79]].tolist() == [5.0, 6.0]
        for size in (79, 81):
            with pytest.raises(ValueError, match=f"^layer shapes cover 80 values, buffer holds {size}$"):
                Params(np.zeros(size), shapes)


class TestParamCount:
    def test_single_hidden_dense(self):
        assert param_count(plan_layers(PackedSpec(1, 1, 1, (48,)))) == 580

    def test_grouped_hidden_layer_example(self):
        # 48 -> 128 widened to 96 -> 256 with 8 groups: 8*32*12 + 256 = 3328
        plans = plan_layers(PackedSpec(4, 2, 2, (48, 128)))
        hidden = plans[1]
        assert (hidden.in_width, hidden.out_width, hidden.groups) == (96, 256, 8)
        count = hidden.groups * hidden.per_group_out * hidden.per_group_in + hidden.out_width
        assert count == 3328

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_deep_ensemble_count_identity(self, m):
        base = (48, 128, 48)
        dense = param_count(plan_layers(PackedSpec(1, 1, 1, base)))
        packed = param_count(plan_layers(PackedSpec(m, m, 1, base)))
        assert packed == m * dense

    def test_count_matches_materialized_blocks(self):
        spec = PackedSpec(3, 2, 2, (10, 14))
        plans = plan_layers(spec)
        params = init_params(plans, 11)
        nonzero = 0
        for plan, w in zip(plans, params.weights):
            dense = block_diagonal_matrix(plan, np.ones_like(w))
            nonzero += int(dense.sum()) + plan.out_width
        assert param_count(plans) == nonzero


class TestForward:
    def test_zero_params_zero_output(self):
        plans = plan_layers(PackedSpec(3, 2, 2, (8, 8)))
        params = init_params(plans, 0)
        params.flat[:] = 0.0
        x = np.random.default_rng(0).normal(size=(5, 7))
        out = forward(params, plans, x)
        assert np.all(out.estimator_outputs == 0.0)
        assert np.all(out.mean_output == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_configuration_matches_dense_reference(self, seed):
        spec = PackedSpec(1, 1, 1, (12, 9), in_features=5, out_features=3)
        plans, params, x, _ = random_case(spec, seed)
        dense = dense_forward([w[0] for w in params.weights], params.biases, x)
        out = forward(params, plans, x)
        np.testing.assert_allclose(out.mean_output, dense, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.estimator_outputs[0], dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m,alpha,gamma", [(2, 1, 1), (4, 2, 2), (8, 4, 1), (3, 3, 3)])
    def test_layers_match_block_diagonal_matrices(self, m, alpha, gamma):
        spec = PackedSpec(m, alpha, gamma, (11, 6))
        plans, params, x, _ = random_case(spec, 42)
        a = np.tile(x, (1, m))
        for i, plan in enumerate(plans):
            dense = block_diagonal_matrix(plan, params.weights[i])
            z = a @ dense.T + params.biases[i]
            a = np.maximum(z, 0.0) if i < len(plans) - 1 else z
        out = forward(params, plans, x)
        flat_mean = a.reshape(len(x), m, spec.out_features).mean(axis=1)
        np.testing.assert_allclose(out.mean_output, flat_mean, rtol=0, atol=1e-12)

    def test_mean_is_exact_estimator_average(self):
        spec = PackedSpec(8, 4, 2, (16, 16))
        plans, params, x, _ = random_case(spec, 3, batch=9)
        out = forward(params, plans, x)
        manual = out.estimator_outputs.sum(axis=0) / spec.num_estimators
        np.testing.assert_allclose(out.mean_output, manual, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gamma", [1, 2])
    def test_estimator_independence(self, gamma):
        spec = PackedSpec(4, 2, gamma, (8, 12, 8))
        plans, params, x, _ = random_case(spec, 17)
        baseline = forward(params, plans, x).estimator_outputs
        target = 2
        perturbed = Params(params.flat.copy(), params.shapes)
        rng = np.random.default_rng(99)
        for i, plan in enumerate(plans):
            groups_per_estimator = plan.groups // spec.num_estimators
            gsl = slice(target * groups_per_estimator, (target + 1) * groups_per_estimator)
            width_per_estimator = plan.out_width // spec.num_estimators
            bsl = slice(target * width_per_estimator, (target + 1) * width_per_estimator)
            perturbed.weights[i][gsl] += rng.normal(size=perturbed.weights[i][gsl].shape)
            perturbed.biases[i][bsl] += rng.normal(size=perturbed.biases[i][bsl].shape)
        changed = forward(perturbed, plans, x).estimator_outputs
        for j in range(spec.num_estimators):
            if j == target:
                assert not np.array_equal(changed[j], baseline[j])
            else:
                assert np.array_equal(changed[j], baseline[j])

    def test_eval_mode_is_pure(self):
        spec = PackedSpec(2, 2, 1, (8,), dropout_enabled=True)
        plans, params, x, _ = random_case(spec, 5)
        a = forward(params, plans, x)
        b = forward(params, plans, x)
        assert np.array_equal(a.mean_output, b.mean_output)
        assert np.array_equal(a.estimator_outputs, b.estimator_outputs)

    def test_shape_error_names_layer(self):
        spec = PackedSpec(2, 1, 1, (8, 8))
        plans, params, x, _ = random_case(spec, 0)
        params.weights[1] = params.weights[1][:, :, :-1]
        with pytest.raises(ShapeMismatchError) as err:
            forward(params, plans, x)
        assert err.value.layer == 1
        assert "layer 1" in str(err.value)

    def test_rejects_non_finite_batch(self):
        spec = PackedSpec(2, 1, 1, (8,))
        plans, params, x, _ = random_case(spec, 0)
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward(params, plans, x)


class TestDropout:
    @pytest.mark.parametrize("rows", [1, 64, 1000])
    def test_masks_keep_the_units_whose_draws_are_below_the_keep_probability(self, rows):
        plans = plan_layers(PackedSpec(2, 2, 1, (40, 8)))  # masks 80 and 16 units wide
        rng = np.random.default_rng(rows)
        twin = copy.deepcopy(rng)
        masks = make_dropout_masks(plans, rows, rng)
        assert [mask.shape for mask in masks] == [(rows, 80), (rows, 16)]
        if rows == 1000:  # the first mask spans two full draw chunks and part of a third
            assert 2 * packed_net._DRAW_VALUES < masks[0].size < 3 * packed_net._DRAW_VALUES
        for mask in masks:
            assert mask.dtype == bool
            assert np.array_equal(mask, twin.random(mask.shape) < 1.0 - DROPOUT_P)
        assert rng.random() == twin.random()

    def test_masks_are_drawn_only_into_contiguous_bool_arrays(self):
        plans = plan_layers(PackedSpec(2, 2, 1, (40, 8)))
        float_bufs = [np.empty((5, 80)), np.empty((5, 16))]
        strided_bufs = [np.empty((5, 160), dtype=bool)[:, ::2], np.empty((5, 16), dtype=bool)]
        for bufs in (float_bufs, strided_bufs):
            with pytest.raises(ValueError, match="^dropout masks are drawn into C-contiguous bool arrays$"):
                make_dropout_masks(plans, 5, np.random.default_rng(0), out=bufs)

    def test_explicit_masks_reproduce_manual_computation(self):
        spec = PackedSpec(2, 1, 1, (6,), in_features=3, out_features=2)
        plans, params, x, y = random_case(spec, 8)
        masks = make_dropout_masks(plans, len(x), np.random.default_rng(4))
        loss, _ = loss_and_grad(params, plans, x, y, masks)
        a = np.tile(x, (1, 2))
        dense0 = block_diagonal_matrix(plans[0], params.weights[0])
        a = np.maximum(a @ dense0.T + params.biases[0], 0.0) * float_masks(masks)[0]
        dense1 = block_diagonal_matrix(plans[1], params.weights[1])
        z = a @ dense1.T + params.biases[1]
        diff = z.reshape(len(x), 2, 2).mean(axis=1) - y
        assert abs(loss - float(np.mean(diff * diff))) <= 1e-12


class TestWorkspace:
    """One set of buffers serves every row block and every step; no result lives in it."""

    SPEC = PackedSpec(2, 2, 3, (9, 13, 5), dropout_enabled=True)

    @staticmethod
    def arrays(ws):
        for value in vars(ws).values():
            for item in value if isinstance(value, (list, tuple)) else [value]:
                if isinstance(item, np.ndarray):
                    yield item

    def test_masks_drawn_in_place_equal_fresh_ones(self):
        # As training.train draws them: into the leading rows of buffers for a longer batch.
        plans = plan_layers(self.SPEC)
        bufs = [np.empty((50, plan.out_width), dtype=bool) for plan in plans[:-1]]
        fresh_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
        fresh = make_dropout_masks(plans, 40, fresh_rng)
        masks = make_dropout_masks(plans, 40, rng, out=[buf[:40] for buf in bufs])
        assert all(np.array_equal(a, b) for a, b in zip(fresh, masks))
        assert all(np.shares_memory(mask, buf) for mask, buf in zip(masks, bufs))
        assert fresh_rng.random() == rng.random()

    def test_forward_output_is_not_in_its_workspace(self, monkeypatch, pool_width):
        made = []

        class Recording(_Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(packed_net, "_Workspace", Recording)
        plans, params, x, _ = random_case(self.SPEC, 3, batch=2 * _ROW_BLOCK + 5)
        rows = max(hi - lo for lo, hi in _row_blocks(len(x)))
        training_ws = _Workspace(plans, rows)
        for width in (1, 2, 3):
            pool_width(width)
            made.clear()
            out = forward(params, plans, x)
            workers = min(width, 2)  # one workspace per worker, at most one per row block
            assert len(made) == workers
            # Each holds one estimator block's slabs, the block taken for the rows of every worker.
            in_flight = workers * packed_net._estimator_block(plans, rows * workers)
            slab_bytes = [
                sum(b.nbytes for w in ws for b in w.acts)
                for ws in (made, [training_ws])
            ]
            assert slab_bytes[0] * self.SPEC.num_estimators == slab_bytes[1] * in_flight
            for buf in (buf for ws in made for buf in self.arrays(ws)):
                assert not np.shares_memory(out.estimator_outputs, buf)
                assert not np.shares_memory(out.mean_output, buf)
            first = out.estimator_outputs.copy()
            forward(params, plans, -x)
            assert np.array_equal(out.estimator_outputs, first)

    def test_a_layer_that_changes_group_count_feeds_its_successor_by_view(self):
        plans, params, x, y = random_case(self.SPEC, 6, batch=30)
        assert [plan.groups for plan in plans] == [2, 6, 6, 2]
        ws, m = _Workspace(plans, 30), plans[-1].groups
        masks = make_dropout_masks(plans, 30, np.random.default_rng(6))
        out = np.empty((m, 30, plans[-1].per_group_out))
        inputs, acts = packed_net._run_block(params, plans, x, masks, ws, out, 0, m)
        # Regrouped from 2 groups into 6, kept at 6, regrouped into 2: each a view of the activation.
        assert [len(a) for a in acts] == [2, 6, 6] and [len(a) for a in inputs[1:]] == [6, 6, 2]
        for i in (1, 2, 3):
            assert np.shares_memory(inputs[i], acts[i - 1]) and np.shares_memory(inputs[i], ws.acts[i - 1])
        assert not hasattr(ws, "regrouped")

    def test_gradients_are_not_in_the_workspace_and_survive_its_reuse(self):
        plans, params, x, y = random_case(self.SPEC, 4, batch=60)
        ws = _Workspace(plans, 60)

        def step(n, seed, workspace):
            masks = make_dropout_masks(plans, n, np.random.default_rng(seed))
            loss, grads = loss_and_grad(params, plans, x[:n], y[:n], masks, workspace)
            return loss, grads.flat

        loss, grads = step(60, 2, ws)
        for buf in self.arrays(ws):
            assert not np.shares_memory(grads, buf)
        first = grads.copy()
        # A shorter batch runs in the workspace's leading rows.
        short = step(23, 5, ws)
        assert np.array_equal(grads, first)
        for (ws_loss, ws_grads), (n, seed) in [((loss, grads), (60, 2)), (short, (23, 5))]:
            fresh_loss, fresh_grads = step(n, seed, None)
            assert ws_loss == fresh_loss and np.array_equal(ws_grads, fresh_grads)


class TestEstimatorBlocks:
    """``forward`` runs the estimators in blocks; every block size gives the one-block bits."""

    BY_GAMMA = [PackedSpec(6, 2, gamma, (9, 13, 5)) for gamma in (1, 2, 3)]
    ONE_UNIT = PackedSpec(3, 1, 3, (1, 2, 1))  # 9 one-unit groups, regrouped from 3 and into 3

    @staticmethod
    def assert_same_bits(monkeypatch, spec, seed, n):
        plans, params, x, _ = random_case(spec, seed, batch=n)
        expected = one_block_forward(params, plans, x)
        mean = expected.sum(axis=0) / len(expected)
        m = plans[-1].groups
        for block in [b for b in range(1, m + 1) if m % b == 0]:
            monkeypatch.setattr(packed_net, "_estimator_block", lambda plans, rows: block)
            out = forward(params, plans, x)
            assert np.array_equal(out.estimator_outputs.view(np.int64), expected.view(np.int64)), block
            assert np.array_equal(out.mean_output.view(np.int64), mean.view(np.int64)), block

    @pytest.mark.parametrize("n", [1, 383, _ROW_BLOCK, 2 * _ROW_BLOCK + 5])
    @pytest.mark.parametrize("spec", [*BY_GAMMA, ONE_UNIT], ids=["gamma1", "gamma2", "gamma3", "one-unit"])
    def test_forward_equals_the_one_block_pass(self, monkeypatch, spec, n):
        plans = plan_layers(spec)
        if spec is self.ONE_UNIT:
            assert [(p.groups, p.per_group_out) for p in plans[:-1]] == [(3, 3), (9, 1), (9, 1)]
        self.assert_same_bits(monkeypatch, spec, 41, n)

    @settings(max_examples=40, deadline=None)
    @given(SPECS, st.sampled_from([1, 2, 383, _ROW_BLOCK + 1]), st.integers(0, 2**16))
    def test_forward_equals_the_one_block_pass_property(self, spec, n, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_same_bits(monkeypatch, spec, seed, n)


class TestWorkers:
    """Threads split estimator blocks and row blocks, never a GEMM: every worker count gives the same bits."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(SPECS, st.sampled_from([1, 3]), st.sampled_from([1, 383, 1024, 2100]), st.integers(0, 2**16))
    def test_every_worker_count_gives_the_one_block_bits(self, pool_width, spec, gamma, n, seed):
        plans, params, x, y = random_case(dataclasses.replace(spec, gamma=gamma), seed, batch=n)
        masks = make_dropout_masks(plans, n, np.random.default_rng(seed)) if spec.dropout_enabled else None
        expected = one_block_forward(params, plans, x)
        mean = expected.sum(axis=0) / len(expected)
        ref_loss, ref = one_block_loss_and_grad(params, plans, x, y, masks)
        with pytest.MonkeyPatch.context() as monkeypatch:
            # One estimator per block, so a step shares out M blocks; 2100 rows make two row blocks.
            monkeypatch.setattr(packed_net, "_estimator_block", lambda plans, rows: 1)
            for workers in (1, 2, 3):
                pool_width(workers)
                out = forward(params, plans, x)
                assert np.array_equal(out.estimator_outputs.view(np.int64), expected.view(np.int64)), workers
                assert np.array_equal(out.mean_output.view(np.int64), mean.view(np.int64)), workers
                loss, grads = loss_and_grad(params, plans, x, y, masks)
                assert np.float64(loss).view(np.int64) == np.float64(ref_loss).view(np.int64), workers
                assert np.array_equal(grads.flat.view(np.int64), ref.flat.view(np.int64)), workers

    def test_more_workers_than_cores_with_rapid_switching_keep_the_bits(self, pool_width):
        # Four workers on one-estimator blocks of a wide step and on three row blocks, with the
        # interpreter switching threads every microsecond: a block writing outside its own
        # buffers would show as changed bits.
        plans, params, x, y = random_case(PackedSpec(8, 2, 2, (24, 16), dropout_enabled=True), 5, batch=3100)
        masks = make_dropout_masks(plans, 700, np.random.default_rng(5))
        ref_loss, ref = one_block_loss_and_grad(params, plans, x[:700], y[:700], masks)
        expected = one_block_forward(params, plans, x)
        pool_width(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(packed_net, "_estimator_block", lambda plans, rows: 1)
                for _ in range(3):
                    loss, grads = loss_and_grad(params, plans, x[:700], y[:700], masks)
                    assert loss == ref_loss and np.array_equal(grads.flat.view(np.int64), ref.flat.view(np.int64))
                    out = forward(params, plans, x)
                    assert np.array_equal(out.estimator_outputs.view(np.int64), expected.view(np.int64))
        finally:
            sys.setswitchinterval(interval)

    def test_pool_threads_run_under_the_callers_errstate(self, pool_width):
        pool_width(2)
        both = threading.Barrier(2, timeout=10)  # so each item is claimed by its own worker
        threads = set()

        def run(worker, item):
            both.wait()
            threads.add(threading.get_ident())
            np.float64(1e308) * 10.0  # an overflow warning, an error in this suite, unless ignored

        with np.errstate(over="ignore"):
            packed_net._deal(2, 2, run)
        assert len(threads) == 2

    def test_workers_run_blas_on_one_thread(self, monkeypatch, pool_width):
        pool_width(2)
        threads, seen = [3], []
        monkeypatch.setattr(packed_net, "_openblas_threads", lambda: (lambda: threads[0], threads.append))
        packed_net._deal(2, 4, lambda worker, item: seen.append(threads[-1]))
        assert seen == [1] * 4 and threads[-1] == 3
        packed_net._deal(1, 2, lambda worker, item: seen.append(threads[-1]))  # one worker: BLAS as it is
        assert seen[4:] == [3, 3]

    def test_numpy_openblas_is_found_and_set_back(self, pool_width):
        blas = packed_net._openblas_threads()
        if blas is None:
            pytest.skip("numpy's BLAS here is not an OpenBLAS found in the memory map")
        get, set_ = blas
        before, seen = get(), []
        set_(2)
        try:
            pool_width(2)
            packed_net._deal(2, 2, lambda worker, item: seen.append(get()))
            assert seen == [1, 1] and get() == 2
        finally:
            set_(before)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_an_error_is_raised_once_every_worker_is_done(self, pool_width, failing):
        pool_width(2)
        started, done = threading.Event(), []

        def run(worker, item):
            if item == failing:
                assert started.wait(10)  # the other item is running on the other worker
                raise ValueError(f"item {item}")
            started.set()
            time.sleep(0.05)
            done.append(item)

        with pytest.raises(ValueError, match=f"^item {failing}$"):
            packed_net._deal(2, 2, run)
        assert done == [1 - failing]


class TestBlockedStep:
    """``loss_and_grad`` runs the estimators in blocks; every block size gives the one-block bits."""

    # Thin gamma = 3 layers: regroup copies laid out per block, not at the full width, change
    # the leading dimension of the weight-gradient GEMMs and with it the last layer's bits.
    THIN = PackedSpec(8, 1, 3, (30, 66, 69, 16), in_features=2, out_features=1)
    WIDE = PackedSpec(6, 2, 2, (40, 24))

    @staticmethod
    def assert_same_bits(monkeypatch, plans, params, x, y, masks):
        ref_loss, ref = one_block_loss_and_grad(params, plans, x, y, masks)
        m = plans[-1].groups
        for block in [b for b in range(1, m + 1) if m % b == 0]:
            monkeypatch.setattr(packed_net, "_estimator_block", lambda plans, rows: block)
            loss, grads = loss_and_grad(params, plans, x, y, masks)
            assert np.float64(loss).view(np.int64) == np.float64(ref_loss).view(np.int64), block
            assert np.array_equal(grads.flat.view(np.int64), ref.flat.view(np.int64)), block

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("n", [1, 383, 1024])
    @pytest.mark.parametrize("spec", [THIN, WIDE], ids=["thin-gamma3", "wide-gamma2"])
    def test_every_block_size_gives_the_one_block_bits(self, monkeypatch, spec, n, dropout):
        plans, params, x, y = random_case(dataclasses.replace(spec, dropout_enabled=dropout), 7, batch=n)
        masks = make_dropout_masks(plans, n, np.random.default_rng(8)) if dropout else None
        self.assert_same_bits(monkeypatch, plans, params, x, y, masks)

    @pytest.mark.parametrize("n", [1, 383])
    def test_single_linear_layer(self, monkeypatch, n):
        plans = [LayerPlan("last", 4 * 5, 4 * 3, 4, 5, 3)]
        rng = np.random.default_rng(n)
        params = packed_params([rng.normal(size=(4, 3, 5))], [rng.normal(size=12)])
        assert packed_net._estimator_block(plans, n) == 4  # no hidden activation to bound
        self.assert_same_bits(monkeypatch, plans, params, rng.normal(size=(n, 5)), rng.normal(size=(n, 3)), None)

    @settings(max_examples=40, deadline=None)
    @given(SPECS, st.sampled_from([1, 2, 383]), st.integers(0, 2**16))
    def test_every_block_size_gives_the_one_block_bits_property(self, spec, n, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            plans, params, x, y = random_case(spec, seed, batch=n)
            masks = make_dropout_masks(plans, n, np.random.default_rng(seed)) if spec.dropout_enabled else None
            self.assert_same_bits(monkeypatch, plans, params, x, y, masks)

    @pytest.mark.parametrize(
        "spec, rows, block",
        [
            (PackedSpec(8, 8, 1, DEEP_THIN), 1024, 1),
            (PackedSpec(8, 4, 1, DEEP_THIN), 1024, 2),
            (PackedSpec(8, 4, 1, DEEP_THIN), 512, 4),
            (PackedSpec(4, 2, 2, (48, 128, 48)), 1024, 4),
            (PackedSpec(4, 2, 2, (48, 128, 48)), 7, 4),
            (PackedSpec(4, 4, 4, (48, 128, 48)), 1024, 2),
            (PackedSpec(6, 1, 1, (4096,)), 1024, 1),  # one estimator's slab alone is over budget
            (PackedSpec(8, 4, 1, DEEP_THIN), 1053, 2),  # eval_large's row blocks of 20k rows
            (PackedSpec(4, 2, 2, (48, 128, 48)), 512, 4),  # cv_grid's fold validation
        ],
    )
    def test_block_is_the_largest_divisor_within_the_budget(self, spec, rows, block):
        assert packed_net._estimator_block(plan_layers(spec), rows) == block

    def test_workspace_too_small_is_named(self):
        plans, params, x, y = random_case(self.WIDE, 3, batch=50)
        for ws, holds in [
            (_Workspace(plans, 49), "49 rows for 6 of 6 estimators"),
            (_Workspace(plans, 50, estimators=1), "50 rows for 1 of 6 estimators"),
        ]:
            with pytest.raises(ValueError, match=f"^workspace holds {holds}; the batch needs 50 rows for all 6$"):
                loss_and_grad(params, plans, x, y, workspace=ws)


class TestRegroup:
    """gamma = 3: each estimator splits into 3 groups after the first layer and merges before the last."""

    SPEC = PackedSpec(2, 2, 3, (9, 13, 5), in_features=5, out_features=3)

    def case(self, dropout):
        plans, params, x, y = random_case(self.SPEC, 31, batch=7)
        assert [p.groups for p in plans] == [2, 6, 6, 2]
        masks = make_dropout_masks(plans, len(x), np.random.default_rng(5)) if dropout else None
        dense_w = [block_diagonal_matrix(plan, w) for plan, w in zip(plans, params.weights)]
        return plans, params, x, y, masks, dense_w

    @pytest.mark.parametrize("dropout", [False, True])
    def test_gradients_match_block_diagonal_matrices(self, dropout):
        plans, params, x, y, masks, dense_w = self.case(dropout)
        # Fold the ensemble mean into the last dense layer: mean = average @ (W a + b).
        average = np.tile(np.eye(3), (1, 2)) / 2
        weights = dense_w[:-1] + [average @ dense_w[-1]]
        biases = list(params.biases[:-1]) + [average @ params.biases[-1]]
        ref_loss, ref_w, ref_b = dense_loss_and_grads(weights, biases, np.tile(x, (1, 2)), y, masks)
        ref_w[-1] = average.T @ ref_w[-1]
        ref_b[-1] = average.T @ ref_b[-1]

        loss, grads = loss_and_grad(params, plans, x, y, dropout_masks=masks)
        assert abs(loss - ref_loss) <= 1e-12
        for i, plan in enumerate(plans):
            on_blocks = block_diagonal_matrix(plan, np.ones_like(params.weights[i]))
            np.testing.assert_allclose(
                block_diagonal_matrix(plan, grads.weights[i]), ref_w[i] * on_blocks, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(grads.biases[i], ref_b[i], rtol=0, atol=1e-12)


class TestRowBlocks:
    """Inference runs in row blocks; outputs must not depend on where the block edges fall."""

    SPEC = PackedSpec(2, 2, 3, (9, 13, 5))

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049, 5000])
    def test_forward_matches_block_diagonal_matrices(self, n):
        plans, params, x, _ = random_case(self.SPEC, 17, batch=n)
        expected = block_diagonal_forward(plans, params, x)
        out = forward(params, plans, x)
        np.testing.assert_allclose(out.estimator_outputs, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.mean_output, expected.mean(axis=0), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("gamma", [1, 3])
    def test_empty_batch(self, gamma):
        plans, params, _, _ = random_case(PackedSpec(2, 2, gamma, (9, 13, 5)), 0)
        out = forward(params, plans, np.empty((0, 7)))
        assert out.estimator_outputs.shape == (2, 0, 4)
        assert out.mean_output.shape == (0, 4)

    def test_forward_memory_is_bounded_by_the_block(self):
        plans, params, x, _ = random_case(PackedSpec(8, 4, 1, DEEP_THIN), 0, batch=20_000)
        tracemalloc.start()
        try:
            forward(params, plans, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"forward peaked at {peak / 2**20:.0f} MiB"

    @given(st.integers(min_value=0, max_value=20 * _ROW_BLOCK))
    def test_blocks_cover_the_batch_once_in_order(self, n):
        blocks = _row_blocks(n)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        assert min(hi - lo for lo, hi in blocks) >= min(n, _ROW_BLOCK)
        assert len(blocks) == 1 or max(hi - lo for lo, hi in blocks) < 2 * _ROW_BLOCK


class TestLossAndGrad:
    def test_loss_zero_at_targets(self):
        spec = PackedSpec(4, 2, 2, (8, 8))
        plans, params, x, _ = random_case(spec, 21)
        targets = forward(params, plans, x).mean_output
        loss, grads = loss_and_grad(params, plans, x, targets)
        assert loss == 0.0
        for g in grads.weights + grads.biases:
            assert np.all(g == 0.0)

    def test_single_linear_layer_closed_form(self):
        # one affine layer, one sample: dL/dW = 2 (Wx + b - t) x^T / out_features
        plan = [LayerPlan("last", 5, 3, 1, 5, 3)]
        rng = np.random.default_rng(2)
        params = packed_params([rng.normal(size=(1, 3, 5))], [rng.normal(size=3)])
        x = rng.normal(size=(1, 5))
        t = rng.normal(size=(1, 3))
        _, grads = loss_and_grad(params, plan, x, t)
        residual = x @ params.weights[0][0].T + params.biases[0] - t
        expected = 2.0 * residual.T @ x / 3.0
        np.testing.assert_allclose(grads.weights[0][0], expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(grads.biases[0], 2.0 * residual[0] / 3.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(3))
    def test_identity_configuration_grads_match_dense_reference(self, seed):
        spec = PackedSpec(1, 1, 1, (10, 7), in_features=4, out_features=3)
        plans, params, x, y = random_case(spec, seed)
        loss, grads = loss_and_grad(params, plans, x, y)
        ref_loss, ref_w, ref_b = dense_loss_and_grads(
            [w[0] for w in params.weights], params.biases, x, y
        )
        assert abs(loss - ref_loss) <= 1e-12
        for i in range(len(plans)):
            np.testing.assert_allclose(grads.weights[i][0], ref_w[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(grads.biases[i], ref_b[i], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dropout", [False, True])
    def test_finite_difference_agreement_small_net(self, dropout):
        spec = PackedSpec(4, 2, 2, (6, 8, 6), in_features=5, out_features=3)
        plans, params, x, y = random_case(spec, 1)
        masks = (
            make_dropout_masks(plans, len(x), np.random.default_rng(12)) if dropout else None
        )
        nudge_biases_off_kinks(params, plans, x, masks)
        _, grads = loss_and_grad(params, plans, x, y, dropout_masks=masks)
        fd_w, fd_b = fd_gradients(params, plans, x, y, masks)
        for i in range(len(plans)):
            assert relative_error(grads.weights[i], fd_w[i]).max() < 1e-4
            assert relative_error(grads.biases[i], fd_b[i]).max() < 1e-4

    def test_rejects_masks_that_are_not_keep_masks(self):
        # Without the check, a float mask of 0s and 1.25s would read as "keep where nonzero".
        plans, params, x, y = random_case(PackedSpec(2, 2, 3, (9, 13, 5)), 0, batch=49)
        keep = make_dropout_masks(plans, 49, np.random.default_rng(0))
        for masks in (float_masks(keep), [k.astype(np.uint8) for k in keep], [k.tolist() for k in keep]):
            with pytest.raises(ValueError, match=r"^dropout masks must have shapes .* and dtype bool \(keep masks\)$"):
                loss_and_grad(params, plans, x, y, masks)

    def test_rejects_masks_for_another_batch(self):
        plans, params, x, y = random_case(PackedSpec(2, 2, 3, (9, 13, 5)), 0, batch=49)
        masks = make_dropout_masks(plans, 50, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dropout masks must have shapes"):
            loss_and_grad(params, plans, x, y, masks)

    def test_empty_batch_rejected(self):
        spec = PackedSpec(2, 1, 1, (6,))
        plans = plan_layers(spec)
        params = init_params(plans, 0)
        with pytest.raises(ValueError, match="empty"):
            loss_and_grad(params, plans, np.empty((0, 7)), np.empty((0, 4)))

    def test_target_shape_mismatch_rejected(self):
        spec = PackedSpec(2, 1, 1, (6,))
        plans, params, x, _ = random_case(spec, 0)
        with pytest.raises(ShapeMismatchError):
            loss_and_grad(params, plans, x, np.zeros((len(x), 3)))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = PackedSpec(4, 3, 2, (10, 20), dropout_enabled=True)
        plans = plan_layers(spec)
        params = init_params(plans, 77)
        path = tmp_path / "model.pkmlp"
        save_params(path, spec, params)
        loaded_spec, loaded_plans, loaded = load_params(path)
        assert loaded_spec == spec
        assert loaded_plans == plans
        for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b) and a.dtype == b.dtype

    def test_file_bytes_follow_documented_layout(self, tmp_path):
        spec = PackedSpec(3, 2, 3, (9, 13), dropout_enabled=True)
        plans = plan_layers(spec)
        params = init_params(plans, 5)
        rng = np.random.default_rng(6)
        for b in params.biases:
            b += rng.normal(size=b.shape)  # nonzero, so a misplaced bias block shows
        header = json.dumps(
            {"format_version": 1, "spec": spec.to_dict(), "plans": [p.to_dict() for p in plans]},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        expected = b"PKMLP1\x00\x00" + struct.pack("<I", len(header)) + header
        for w, b in zip(params.weights, params.biases):
            expected += w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
        save_params(tmp_path / "model.pkmlp", spec, params)
        assert (tmp_path / "model.pkmlp").read_bytes() == expected
        _, _, loaded = load_params(tmp_path / "model.pkmlp")
        save_params(tmp_path / "again.pkmlp", spec, loaded)
        assert (tmp_path / "again.pkmlp").read_bytes() == expected

    @settings(max_examples=25, deadline=None)
    @given(SPECS, st.integers(0, 2**32 - 1))
    def test_round_trip_bit_exact_property(self, tmp_path_factory, spec, seed):
        plans = plan_layers(spec)
        params = init_params(plans, 0)
        bits = np.frombuffer(np.random.default_rng(seed).bytes(params.flat.nbytes), dtype="<f8")
        params.flat[:] = np.where(np.isfinite(bits), bits, 0.0)  # every finite double, subnormals and -0.0
        path = tmp_path_factory.mktemp("model") / "model.pkmlp"
        save_params(path, spec, params)
        loaded_spec, loaded_plans, loaded = load_params(path)
        assert (loaded_spec, loaded_plans) == (spec, plans)
        assert loaded.flat.tobytes() == params.flat.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_truncated_file_names_the_path(self, tmp_path_factory, data):
        spec = PackedSpec(2, 2, 2, (6, 5), dropout_enabled=True)
        path = tmp_path_factory.mktemp("model") / "model.pkmlp"
        save_params(path, spec, init_params(plan_layers(spec), 3))
        blob = path.read_bytes()
        path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: byte "):
            load_params(path)

    def test_round_trip_eval_equivalent(self, tmp_path):
        spec = PackedSpec(3, 2, 1, (12,))
        plans, params, x, _ = random_case(spec, 9)
        path = tmp_path / "model.pkmlp"
        save_params(path, spec, params)
        _, loaded_plans, loaded = load_params(path)
        before = forward(params, plans, x).mean_output
        after = forward(loaded, loaded_plans, x).mean_output
        assert np.array_equal(before, after)

    def test_rejects_corrupt_files(self, tmp_path):
        spec = PackedSpec(2, 1, 1, (6,))
        params = init_params(plan_layers(spec), 0)
        path = tmp_path / "model.pkmlp"
        save_params(path, spec, params)
        blob = path.read_bytes()
        (tmp_path / "bad_magic.pkmlp").write_bytes(b"XXXXXXXX" + blob[8:])
        with pytest.raises(ValueError, match="magic"):
            load_params(tmp_path / "bad_magic.pkmlp")
        (tmp_path / "trailing.pkmlp").write_bytes(blob + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_params(tmp_path / "trailing.pkmlp")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index, layer", [(0, 0), (5, 0), (47, 0), (48, 1), (79, 1)])
    def test_load_rejects_non_finite_params_at_the_first(self, tmp_path, value, index, layer):
        spec = PackedSpec(2, 1, 1, (6,))  # layer 0 holds values 0-47, layer 1 values 48-79
        path = tmp_path / "model.pkmlp"
        save_params(path, spec, init_params(plan_layers(spec), 0))
        blob = bytearray(path.read_bytes())
        start = len(blob) - 8 * 80
        for i in (index, 79):  # a later non-finite value is not the one named
            blob[start + 8 * i : start + 8 * i + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        message = f"{path}: byte {start + 8 * index}: layer {layer}: non-finite parameter value"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_params(path)

    def test_rejects_non_finite_params(self, tmp_path):
        spec = PackedSpec(2, 1, 1, (6,))
        params = init_params(plan_layers(spec), 0)
        params.weights[0][0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            save_params(tmp_path / "model.pkmlp", spec, params)
