"""Packed network: plans, init, forward, gradients, counts, serialization.

The checks run against independent oracles from helpers.py: a from-scratch
dense MLP, materialized block-diagonal matrices, and central finite
differences of the loss value.
"""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from helpers import (
    block_diagonal_forward,
    block_diagonal_matrix,
    dense_forward,
    dense_loss_and_grads,
    fd_gradients,
    nudge_biases_off_kinks,
    relative_error,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from packedflow.packed_net import (
    _ROW_BLOCK,
    DROPOUT_P,
    LayerPlan,
    PackedSpec,
    Params,
    ShapeMismatchError,
    _row_blocks,
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

    def test_copies_own_their_buffers(self):
        plans = plan_layers(PackedSpec(2, 1, 1, (6,)))
        params = init_params(plans, 0)
        weights = [w.copy() for w in params.weights]
        rebuilt = Params(weights, [b.copy() for b in params.biases])
        for other in (rebuilt, params.copy(), params.zeros_like()):
            assert not np.shares_memory(other.flat, params.flat)
            for w, b in zip(other.weights, other.biases):
                assert np.shares_memory(w, other.flat) and np.shares_memory(b, other.flat)
        assert not np.shares_memory(rebuilt.flat, weights[0])
        assert np.array_equal(rebuilt.flat, params.flat)


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
        params = init_params(plans, 0).zeros_like()
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
        perturbed = params.copy()
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
    def test_mask_values_are_inverted_scale(self):
        plans = plan_layers(PackedSpec(2, 2, 1, (16, 16)))
        masks = make_dropout_masks(plans, 64, 0.2, np.random.default_rng(0))
        assert len(masks) == len(plans) - 1
        for mask in masks:
            values = np.unique(mask)
            assert set(values.tolist()) <= {0.0, 1.0 / 0.8}

    def test_explicit_masks_reproduce_manual_computation(self):
        spec = PackedSpec(2, 1, 1, (6,), in_features=3, out_features=2)
        plans, params, x, _ = random_case(spec, 8)
        masks = make_dropout_masks(plans, len(x), 0.2, np.random.default_rng(4))
        out = forward(params, plans, x, dropout_masks=masks)
        a = np.tile(x, (1, 2))
        dense0 = block_diagonal_matrix(plans[0], params.weights[0])
        a = np.maximum(a @ dense0.T + params.biases[0], 0.0) * masks[0]
        dense1 = block_diagonal_matrix(plans[1], params.weights[1])
        z = a @ dense1.T + params.biases[1]
        np.testing.assert_allclose(
            out.mean_output, z.reshape(len(x), 2, 2).mean(axis=1), rtol=0, atol=1e-12
        )


class TestRegroup:
    """gamma = 3: each estimator splits into 3 groups after the first layer and merges before the last."""

    SPEC = PackedSpec(2, 2, 3, (9, 13, 5), in_features=5, out_features=3)

    def case(self, dropout):
        plans, params, x, y = random_case(self.SPEC, 31, batch=7)
        assert [p.groups for p in plans] == [2, 6, 6, 2]
        masks = make_dropout_masks(plans, len(x), 0.2, np.random.default_rng(5)) if dropout else None
        dense_w = [block_diagonal_matrix(plan, w) for plan, w in zip(plans, params.weights)]
        return plans, params, x, y, masks, dense_w

    def test_masked_forward_matches_block_diagonal_matrices(self):
        plans, params, x, _, masks, _ = self.case(dropout=True)
        per_estimator = block_diagonal_forward(plans, params, x, masks)
        out = forward(params, plans, x, dropout_masks=masks)
        np.testing.assert_allclose(out.estimator_outputs, per_estimator, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.mean_output, per_estimator.mean(axis=0), rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049, 5000])
    def test_forward_matches_block_diagonal_matrices(self, n, dropout):
        plans, params, x, _ = random_case(self.SPEC, 17, batch=n)
        masks = make_dropout_masks(plans, n, 0.2, np.random.default_rng(n)) if dropout else None
        expected = block_diagonal_forward(plans, params, x, masks)
        out = forward(params, plans, x, dropout_masks=masks)
        np.testing.assert_allclose(out.estimator_outputs, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.mean_output, expected.mean(axis=0), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("gamma", [1, 3])
    def test_empty_batch(self, gamma):
        plans, params, _, _ = random_case(PackedSpec(2, 2, gamma, (9, 13, 5)), 0)
        out = forward(params, plans, np.empty((0, 7)))
        assert out.estimator_outputs.shape == (2, 0, 4)
        assert out.mean_output.shape == (0, 4)

    def test_rejects_masks_for_another_batch(self):
        plans, params, x, _ = random_case(self.SPEC, 0, batch=2049)
        masks = make_dropout_masks(plans, 2050, 0.2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dropout masks must have shapes"):
            forward(params, plans, x, dropout_masks=masks)

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
        params = Params([rng.normal(size=(1, 3, 5))], [rng.normal(size=3)])
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
            make_dropout_masks(plans, len(x), 0.2, np.random.default_rng(12)) if dropout else None
        )
        nudge_biases_off_kinks(params, plans, x, masks)
        _, grads = loss_and_grad(params, plans, x, y, dropout_masks=masks)
        fd_w, fd_b = fd_gradients(params, plans, x, y, masks)
        for i in range(len(plans)):
            assert relative_error(grads.weights[i], fd_w[i]).max() < 1e-4
            assert relative_error(grads.biases[i], fd_b[i]).max() < 1e-4

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
    @given(
        st.builds(
            PackedSpec,
            num_estimators=st.integers(1, 4),
            alpha=st.integers(1, 3),
            gamma=st.integers(1, 3),
            hidden_widths=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
            in_features=st.integers(1, 8),
            out_features=st.integers(1, 5),
            dropout_enabled=st.booleans(),
        ),
        st.integers(0, 2**32 - 1),
    )
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

    def test_rejects_non_finite_params(self, tmp_path):
        spec = PackedSpec(2, 1, 1, (6,))
        params = init_params(plan_layers(spec), 0)
        params.weights[0][0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            save_params(tmp_path / "model.pkmlp", spec, params)
