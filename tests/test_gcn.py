import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import hop_distances, make_random_graph, make_tree_graph
from popgcn.errors import ContractError, DivergenceError, ParameterError
from popgcn.gcn import (
    N_CLASSES,
    GcnConfig,
    _forward,
    _l2_penalty,
    _masked_cross_entropy,
    _softmax_terms,
    adam_step,
    cheb_conv_forward,
    epoch_constants,
    forward,
    init_model,
    loss_and_grads,
    predict,
    scaled_operator,
    train,
)
from popgcn.popgraph import PopulationGraph, build_complete_graph
from popgcn.spectral import chebyshev_basis
from popgcn.spectral import LaplacianMatrix, estimate_lambda_max, normalized_laplacian
from oracles import spectral_filter_oracle


def empty_graph(n):
    return PopulationGraph.from_edges(n, [], [], [])


def masked_loss(logits, labels, mask, model):
    """The loss that loss_and_grads reports, at the given logits."""
    data = _masked_cross_entropy(logits, constants(model, labels, mask))[0]
    return data + _l2_penalty(model)


def softmax(z):
    _, e, e_sum = _softmax_terms(z)
    return e / e_sum[:, None]


def model_bytes(model):
    return b"".join(np.ascontiguousarray(p).tobytes() for p in model.parameters())


class TestChebConvForward:
    def test_identity_filter(self, rng):
        x = rng.standard_normal((6, 4))
        weight = np.zeros((1, 4, 4))
        weight[0] = np.eye(4)
        basis = [x]
        np.testing.assert_array_equal(cheb_conv_forward(basis, weight, np.zeros(4)), x)

    def test_edgeless_graph_alternating_pattern(self, rng):
        # Edgeless graph: L = I, lambda_max falls back to 2, so the scaled
        # operator is the zero matrix and T_k(0) = [I, 0, -I, 0, I, ...].
        n = 5
        scaled = scaled_operator(empty_graph(n))
        assert np.max(np.abs(scaled.dense())) == 0.0
        x = rng.standard_normal((n, 3))
        weight = rng.standard_normal((5, 3, 2))
        basis = chebyshev_basis(scaled, x, 4)
        out = cheb_conv_forward(basis, weight, np.zeros(2))
        expected = x @ weight[0] - x @ weight[2] + x @ weight[4]
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_matches_spectral_oracle_per_channel(self, rng):
        g = make_random_graph(14, density=0.4, seed=8)
        lap = normalized_laplacian(g)
        lam = estimate_lambda_max(lap).value
        from popgcn.spectral import scale_laplacian

        scaled = scale_laplacian(lap, lam)
        x = rng.standard_normal((14, 3))
        weight = rng.standard_normal((4, 3, 2))
        basis = chebyshev_basis(scaled, x, 3)
        out = cheb_conv_forward(basis, weight, None)
        for j in range(2):
            oracle = np.zeros(14)
            for c in range(3):
                oracle += spectral_filter_oracle(lap, x[:, c], weight[:, c, j], lambda_max=lam)
            np.testing.assert_allclose(out[:, j], oracle, atol=1e-8)

    def test_shape_mismatch(self, rng):
        x = rng.standard_normal((5, 3))
        with pytest.raises(ContractError):
            cheb_conv_forward([x], np.zeros((2, 3, 2)), None)
        with pytest.raises(ContractError):
            cheb_conv_forward([x], np.zeros((1, 4, 2)), None)


class TestConfig:
    def test_order_zero_is_valid(self):
        GcnConfig(cheb_order=0)  # the MLP baseline's dense layers

    def test_negative_order_rejected(self):
        with pytest.raises(ParameterError, match="cheb_order must be >= 0"):
            GcnConfig(cheb_order=-1)
        with pytest.raises(ParameterError, match="cheb_order must be >= 0"):
            dataclasses.replace(GcnConfig(), cheb_order=-1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            GcnConfig(seed=-1)

    def test_zero_hidden_width_rejected(self):
        with pytest.raises(ParameterError, match="hidden_width must be >= 1"):
            GcnConfig(hidden_width=0)


def small_setup(n=10, c=4, seed=0, **cfg_kwargs):
    g = make_random_graph(n, density=0.4, seed=seed)
    scaled = scaled_operator(g)
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal((n, c))
    labels = rng.integers(0, 2, size=n)
    mask = np.zeros(n, dtype=bool)
    mask[: n // 2 + 1] = True
    config = GcnConfig(**{"hidden_width": c, "epochs": 5, **cfg_kwargs})
    model = init_model(config, c, np.random.default_rng(config.seed))
    return g, scaled, x, labels, mask, config, model


class TestForward:
    def test_eval_deterministic(self):
        _, scaled, x, *_rest, model = small_setup()
        a = forward(model, scaled, x)
        b = forward(model, scaled, x)
        np.testing.assert_array_equal(a, b)

    def test_zero_dropout_train_equals_eval(self):
        _, scaled, x, *_rest, model = small_setup(dropout_rate=0.0)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(
            forward(model, scaled, x, rng),
            forward(model, scaled, x),
        )

    def test_dropout_changes_train_logits(self):
        _, scaled, x, *_rest, model = small_setup(dropout_rate=0.5)
        rng = np.random.default_rng(1)
        train_logits = forward(model, scaled, x, rng)
        eval_logits = forward(model, scaled, x)
        assert np.max(np.abs(train_logits - eval_logits)) > 0

    def test_no_hidden_layers_is_single_convolution(self):
        _, scaled, x, *_rest = small_setup()
        config = GcnConfig(hidden_layers=0, cheb_order=2)
        model = init_model(config, x.shape[1], np.random.default_rng(0))
        logits = forward(model, scaled, x)
        basis = chebyshev_basis(scaled, x, 2)
        expected = cheb_conv_forward(basis, model.layers[0].weight, model.layers[0].bias)
        # 4 -> 2 runs the operator on the output side: same sum, other rounding.
        np.testing.assert_allclose(logits, expected, rtol=1e-12, atol=1e-12)

    def test_forward_identity_on_edgeless_graph_with_order_zero(self, rng):
        # Dense layers == graph convolution of order 0 on a graph with no
        # edges: the mixing operator is never applied.
        n, c = 12, 5
        x = rng.standard_normal((n, c))
        config = GcnConfig(cheb_order=0, hidden_width=4, dropout_rate=0.0)
        model = init_model(config, c, np.random.default_rng(3))
        with_operator = forward(model, scaled_operator(empty_graph(n)), x)
        without_operator = forward(model, None, x)
        np.testing.assert_array_equal(with_operator, without_operator)

    def test_output_side_layer_matches_spectral_oracle(self, rng):
        # 12 -> 2 with no hidden layer: the operator runs on the 2 output columns.
        g = make_random_graph(14, density=0.4, seed=9)
        scaled = scaled_operator(g)
        lap = normalized_laplacian(g)
        lam = estimate_lambda_max(lap).value
        x = rng.standard_normal((14, 12))
        config = GcnConfig(hidden_layers=0, cheb_order=3)
        model = init_model(config, 12, np.random.default_rng(2))
        weight = model.layers[0].weight
        logits = forward(model, scaled, x)
        for j in range(N_CLASSES):
            oracle = np.zeros(14)
            for c in range(12):
                oracle += spectral_filter_oracle(lap, x[:, c], weight[:, c, j], lambda_max=lam)
            np.testing.assert_allclose(logits[:, j], oracle, atol=1e-8)


class TestMaskedLoss:
    def test_uniform_logits_give_log2(self):
        _, _, _, labels, mask, _, model = small_setup(l2_coeff=0.0)
        logits = np.zeros((10, 2))
        loss = masked_loss(logits, labels, mask, model)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        _, _, _, labels, mask, _, model = small_setup(l2_coeff=0.0)
        logits = np.full((10, 2), -50.0)
        logits[np.arange(10), labels] = 50.0
        assert masked_loss(logits, labels, mask, model) < 1e-12

    def test_unmasked_label_is_never_read(self):
        _, _, _, labels, mask, _, model = small_setup()
        logits = np.random.default_rng(3).standard_normal((10, 2))
        base = masked_loss(logits, labels, mask, model)
        tampered = labels.copy()
        tampered[~mask] = 1 - tampered[~mask]
        assert masked_loss(logits, tampered, mask, model) == base

    def test_l2_term_uses_weights_not_biases(self):
        _, _, _, labels, mask, _, model = small_setup(l2_coeff=0.01)
        for layer in model.layers:
            layer.bias += 100.0  # must not affect the penalty
        logits = np.zeros((10, 2))
        w_sq = sum(float((l.weight**2).sum()) for l in model.layers)
        expected = math.log(2.0) + 0.01 * w_sq
        assert masked_loss(logits, labels, mask, model) == pytest.approx(expected, rel=1e-12)


class TestBackward:
    def test_zero_features_zero_weight_grads_except_bias(self):
        _, scaled, x, labels, mask, config, model = small_setup(dropout_rate=0.0, l2_coeff=0.0)
        zeros = np.zeros_like(x)
        _, grads, _ = loss_and_grads(model, scaled, zeros, constants(model, labels, mask))
        for i, layer in enumerate(model.layers):
            assert np.all(grads[2 * i] == 0.0)  # weights: no signal anywhere
        assert np.any(grads[2 * len(model.layers) - 1] != 0.0)  # output bias moves

    def test_l2_only_gradient_is_2_l2_w(self):
        l2 = 0.37
        _, scaled, x, labels, mask, config, model = small_setup(dropout_rate=0.0, l2_coeff=l2)
        zeros = np.zeros_like(x)
        _, grads, _ = loss_and_grads(model, scaled, zeros, constants(model, labels, mask))
        for i, layer in enumerate(model.layers):
            np.testing.assert_array_equal(grads[2 * i], 2.0 * l2 * layer.weight)

    def test_semi_supervision_boundary_bitwise(self):
        _, scaled, x, labels, mask, config, model = small_setup(dropout_rate=0.0)
        loss_a, grads_a, _ = loss_and_grads(model, scaled, x, constants(model, labels, mask))
        tampered = labels.copy()
        tampered[~mask] = 1 - tampered[~mask]
        loss_b, grads_b, _ = loss_and_grads(model, scaled, x, constants(model, tampered, mask))
        assert loss_a == loss_b
        for ga, gb in zip(grads_a, grads_b):
            assert np.array_equal(ga, gb)

    def test_gradients_match_finite_differences(self):
        # 12 nodes, 6 features, K=2, one hidden layer, dropout off.
        assert worst_fd_error(*gradient_case(n_features=6, width=6, hidden_layers=1)) < 1e-4

    def test_order_zero_gradients_match_finite_differences(self):
        # The dense network of the MLP baseline and selector: no operator.
        case = gradient_case(n_features=5, width=3, hidden_layers=1, cheb_order=0)
        assert case[1] is None
        assert worst_fd_error(*case) < 1e-4
        for analytic, fd in fd_gradients(*case):
            np.testing.assert_allclose(analytic, fd, atol=1e-7)

    @pytest.mark.parametrize("hidden_layers", [1, 0])
    def test_wide_first_layer_gradients_match_finite_differences(self, hidden_layers):
        # 12 -> 3 (or 12 -> 2) runs the first layer's operator on its output side.
        case = gradient_case(n_features=12, width=3, hidden_layers=hidden_layers)
        assert worst_fd_error(*case) < 1e-4

    # (n_features, width, cheb_order): input-side hidden layers, an
    # output-side first layer, and the dense network.
    @pytest.mark.parametrize("case", [(4, 5, 2), (12, 3, 2), (5, 4, 0)])
    def test_gradients_through_hidden_dropout_match_finite_differences(self, case):
        # Two hidden layers, so the backward pass crosses the second layer's
        # dropout mask, which is held fixed by drawing it from one seed.
        n_features, width, cheb_order = case
        model, scaled, x, labels, mask = gradient_case(
            n_features, width, hidden_layers=2, cheb_order=cheb_order, dropout_rate=0.4
        )
        _, caches = _forward(model, scaled, x, np.random.default_rng(3))
        assert [c.keep is not None and not c.keep.all() for c in caches] == [True, True, False]
        assert worst_fd_error(model, scaled, x, labels, mask, mask_seed=3) < 1e-4

    @pytest.mark.parametrize("hidden_layers", [1, 0])
    def test_output_side_layers_match_input_side_reference(self, hidden_layers):
        model, scaled, x, labels, mask = gradient_case(
            n_features=12, width=3, hidden_layers=hidden_layers
        )
        _, grads, logits = loss_and_grads(model, scaled, x, constants(model, labels, mask))
        ref_logits, ref_grads = input_side_reference(model, scaled, x, labels, mask)
        np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-10)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-10)

    def test_dropout_masks_shared_between_forward_and_backward(self):
        # With a fixed rng state, loss_and_grads must be reproducible.
        _, scaled, x, labels, mask, config, model = small_setup(dropout_rate=0.4, l2_coeff=0.0)
        l1, g1, _ = loss_and_grads(
            model, scaled, x, constants(model, labels, mask), np.random.default_rng(9)
        )
        l2_, g2, _ = loss_and_grads(
            model, scaled, x, constants(model, labels, mask), np.random.default_rng(9)
        )
        assert l1 == l2_
        for a, b in zip(g1, g2):
            assert np.array_equal(a, b)


def constants(model, labels, mask):
    """loss_and_grads' epoch constants, over a new gradient vector."""
    return epoch_constants(model, labels[mask], mask, np.empty_like(model.flat))


def gradient_case(n_features, width, hidden_layers, cheb_order=2, dropout_rate=0.0):
    """12 nodes, dropout off by default, L2 at 5e-4: (model, scaled, x,
    labels, mask); scaled is None at cheb_order 0."""
    g = make_random_graph(12, density=0.45, seed=21)
    scaled = scaled_operator(g) if cheb_order > 0 else None
    rng = np.random.default_rng(77)
    x = rng.standard_normal((12, n_features))
    labels = rng.integers(0, 2, size=12)
    mask = np.zeros(12, dtype=bool)
    mask[:8] = True
    config = GcnConfig(
        hidden_layers=hidden_layers, hidden_width=width, cheb_order=cheb_order,
        dropout_rate=dropout_rate, l2_coeff=5e-4,
    )
    model = init_model(config, n_features, np.random.default_rng(5))
    return model, scaled, x, labels, mask


def fd_gradients(model, scaled, x, labels, mask, mask_seed=None):
    """(analytic, central-difference) gradient pairs per parameter tensor.

    With mask_seed, every evaluation is a pass with dropout whose masks come
    from a new generator of that seed, so all of them share one mask.
    """

    def pass_now():
        rng = None if mask_seed is None else np.random.default_rng(mask_seed)
        return loss_and_grads(model, scaled, x, constants(model, labels, mask), rng)

    _, grads, _ = pass_now()

    def loss_now():
        return pass_now()[0]

    h = 1e-5
    pairs = []
    for p, g_analytic in zip(model.parameters(), grads):
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_now()
            p[idx] = orig - h
            down = loss_now()
            p[idx] = orig
            fd[idx] = (up - down) / (2 * h)
            it.iternext()
        pairs.append((g_analytic, fd))
    return pairs


def worst_fd_error(model, scaled, x, labels, mask, mask_seed=None):
    """Largest relative gap between analytic and central-difference gradients."""
    worst = 0.0
    for g_analytic, fd in fd_gradients(model, scaled, x, labels, mask, mask_seed):
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(g_analytic)), 1e-8)
        worst = max(worst, float(np.max(np.abs(fd - g_analytic) / denom)))
    return worst


def input_side_reference(model, scaled, x, labels, mask):
    """Logits and gradients (dropout off) with explicit dense T_k(Ls) matrices,
    every layer associated as (T_k(Ls) H) W_k."""
    l2 = model.config.l2_coeff
    polys = chebyshev_basis(scaled, np.eye(scaled.n), model.config.cheb_order)
    last = len(model.layers) - 1
    inputs, pre = [], []
    h = x
    for li, layer in enumerate(model.layers):
        inputs.append(h)
        z = sum((t @ h) @ w for t, w in zip(polys, layer.weight)) + layer.bias
        pre.append(z)
        h = np.maximum(z, 0.0) if li < last else z
    idx = np.flatnonzero(mask)
    shifted = np.exp(h[idx] - h[idx].max(axis=1, keepdims=True))
    grad_z = np.zeros_like(h)
    grad_z[idx] = shifted / shifted.sum(axis=1, keepdims=True)
    grad_z[idx, labels[idx]] -= 1.0
    grad_z /= len(idx)
    grads = [None] * (2 * len(model.layers))
    for li in range(last, -1, -1):
        weight = model.layers[li].weight
        grads[2 * li] = np.stack([(t @ inputs[li]).T @ grad_z for t in polys]) + 2 * l2 * weight
        grads[2 * li + 1] = grad_z.sum(axis=0)
        if li > 0:
            grad_h = sum(t @ (grad_z @ w.T) for t, w in zip(polys, weight))
            grad_z = grad_h * (pre[li - 1] > 0.0)
    return h, grads


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        *_, model = small_setup()
        before = model_bytes(model)
        adam_step(model, np.zeros_like(model.flat))
        assert model_bytes(model) == before

    def test_first_step_closed_form(self):
        # Step 1 with constant gradient g: update = lr * g / (|g| + eps).
        lr = 0.013
        *_, model = small_setup(learning_rate=lr)
        params_before = [p.copy() for p in model.parameters()]
        adam_step(model, np.full_like(model.flat, 0.25))
        for before, after in zip(params_before, model.parameters()):
            expected = before - lr * 0.25 / (0.25 + 1e-8)
            np.testing.assert_allclose(after, expected, atol=1e-15)
            assert np.allclose(np.abs(after - before), lr, rtol=1e-6)

    def test_identical_runs_same_seed(self):
        _, scaled, x, labels, mask, _, _ = small_setup(seed=2)
        config = GcnConfig(epochs=12, hidden_width=4, seed=3)
        m1, h1 = train(config, scaled, x, labels[mask], np.flatnonzero(mask))
        m2, h2 = train(config, scaled, x, labels[mask], np.flatnonzero(mask))
        assert model_bytes(m1) == model_bytes(m2)
        assert h1 == h2


def separable_case(n=60, c=5, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([i % 2 for i in range(n)])
    direction = rng.standard_normal(c)
    direction /= np.linalg.norm(direction)
    x = rng.standard_normal((n, c)) * 0.5 + np.outer(2 * labels - 1, direction) * 2.0
    return scaled_operator(build_complete_graph(n=n)), x, labels


class TestTrain:
    def test_separable_complete_graph_reaches_95_percent(self):
        scaled, x, labels = separable_case()
        rows = np.arange(len(labels))
        config = GcnConfig(epochs=150, hidden_width=5)
        model, _ = train(config, scaled, x, labels, rows)
        _, pred = predict(model, scaled, x, np.arange(len(x)))
        assert np.mean(pred == labels) >= 0.95

    def test_order_zero_separable_held_out_accuracy(self):
        # The MLP baseline: no operator, trained on the first 80 rows alone.
        _, x, labels = separable_case(n=120, seed=5)
        config = GcnConfig(cheb_order=0, epochs=150, hidden_width=8, dropout_rate=0.1)
        model, _ = train(config, None, x, labels[:80], np.arange(80))
        _, pred = predict(model, None, x, np.arange(80, 120))
        assert np.mean(pred == labels[80:]) >= 0.9

    def test_loss_decreases_over_first_10_epochs(self):
        scaled, x, labels = separable_case(seed=4)
        rows = np.arange(len(labels))
        config = GcnConfig(epochs=10, hidden_width=5)
        _, losses = train(config, scaled, x, labels, rows)
        assert losses[-1] < losses[0]

    def test_zero_epochs_returns_initial_model(self):
        scaled, x, labels = separable_case()
        rows = np.arange(len(labels))
        config = GcnConfig(epochs=0)
        model, losses = train(config, scaled, x, labels, rows)
        assert losses == []
        reference = init_model(config, x.shape[1], np.random.default_rng(config.seed))
        assert model_bytes(model) == model_bytes(reference)

    def test_permutation_equivariance(self):
        g = make_random_graph(20, density=0.35, seed=6)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((20, 4))
        labels = rng.integers(0, 2, size=20)
        mask = np.zeros(20, dtype=bool)
        mask[:14] = True
        config = GcnConfig(epochs=25, hidden_width=4, dropout_rate=0.0, seed=1)
        model, _ = train(config, scaled_operator(g), x, labels[:14], np.arange(14))
        probs, _ = predict(model, scaled_operator(g), x, np.arange(20))

        perm = rng.permutation(20)  # node i moves to position perm[i]
        new_u = np.minimum(perm[g.edges_u], perm[g.edges_v])
        new_v = np.maximum(perm[g.edges_u], perm[g.edges_v])
        order = np.argsort(new_u * 20 + new_v)
        g2 = PopulationGraph.from_edges(20, new_u[order], new_v[order], g.weights[order])
        inv = np.empty(20, dtype=int)
        inv[perm] = np.arange(20)
        scaled2 = scaled_operator(g2)
        rows2 = np.flatnonzero(mask[inv])
        model2, _ = train(config, scaled2, x[inv], labels[inv][rows2], rows2)
        probs2, _ = predict(model2, scaled2, x[inv], np.arange(20))
        np.testing.assert_allclose(probs2[perm], probs, atol=1e-6)

    @pytest.mark.parametrize("cheb_order", [3, 0])
    def test_divergence_aborts_with_epoch(self, cheb_order):
        scaled, x, labels = separable_case()
        if cheb_order == 0:
            # No Chebyshev sum to amplify the inputs: ten copies of each
            # feature make the dense layer's sums overflow instead.
            scaled, x = None, np.tile(x, 10)
        rows = np.arange(len(labels))
        config = GcnConfig(epochs=5, hidden_width=5, cheb_order=cheb_order)
        # Features near the float64 ceiling overflow the convolutions to inf,
        # turning the cross-entropy into inf - inf = nan on the first epoch.
        with pytest.raises(DivergenceError) as exc, np.errstate(all="ignore"):
            train(config, scaled, x / np.abs(x).max() * 1e308, labels, rows)
        assert exc.value.epoch == 0

    @pytest.mark.parametrize("cheb_order", [3, 0])
    def test_overflowed_adam_moment_aborts_after_the_epochs(self, cheb_order):
        # A float32 feature at 1e38 keeps the loss finite, but its gradients
        # square to inf in Adam's second moment, which freezes their weights.
        scaled, x, labels = separable_case()
        x = x.astype(np.float32)
        x[7, 3] = 1e38
        scaled = None if cheb_order == 0 else LaplacianMatrix(
            matrix=scaled.matrix.astype(np.float32), kind="scaled")
        config = GcnConfig(epochs=5, hidden_width=5, cheb_order=cheb_order)
        with np.errstate(over="ignore"), pytest.raises(
            DivergenceError, match="^non-finite Adam moment after 5 epochs$"
        ) as exc:
            train(config, scaled, x, labels, np.arange(len(labels)))
        assert exc.value.epoch is None

    def test_three_classes_train_and_out_of_range_label_rejected(self):
        # The output layer has N_CLASSES = 2 columns; a third class is rejected.
        scaled, x, labels = separable_case()
        rows = np.arange(len(labels))
        labels = labels.copy()
        labels[0] = 2
        with pytest.raises(ContractError, match=r"known labels in \[0, 2\)"):
            train(GcnConfig(epochs=3, hidden_width=4), scaled, x, labels, rows)

    def test_order_zero_without_operator_and_operator_required_above(self):
        _, x, labels = separable_case()
        rows = np.arange(len(labels))
        train(GcnConfig(epochs=1, hidden_width=3, cheb_order=0), None, x, labels, rows)
        with pytest.raises(ContractError):
            train(GcnConfig(epochs=1, hidden_width=3, cheb_order=1), None, x, labels, rows)

    def test_masked_unknown_labels_rejected(self):
        scaled, x, labels = separable_case()
        rows = np.arange(len(labels))
        labels = labels.copy()
        labels[0] = -1
        with pytest.raises(ContractError):
            train(GcnConfig(epochs=1), scaled, x, labels, rows)


class TestKHopInfluence:
    @pytest.mark.parametrize("hidden,order", [(1, 1), (1, 2), (2, 1)])
    def test_far_nodes_cannot_influence_logits(self, hidden, order):
        n = 40
        g = make_tree_graph(n, seed=hidden * 10 + order)
        scaled = scaled_operator(g)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, 3))
        config = GcnConfig(hidden_layers=hidden, hidden_width=3, cheb_order=order,
                           dropout_rate=0.0)
        model = init_model(config, 3, np.random.default_rng(0))
        reach = (hidden + 1) * order
        dist = hop_distances(g, source=0)
        far = np.flatnonzero(dist > reach)
        assert len(far) > 0
        base = forward(model, scaled, x)
        x2 = x.copy()
        x2[far] += rng.standard_normal((len(far), 3)) * 5.0
        perturbed = forward(model, scaled, x2)
        assert np.all(perturbed[0] == base[0])

    def test_within_reach_node_does_influence(self):
        n = 40
        g = make_tree_graph(n, seed=12)
        scaled = scaled_operator(g)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((n, 3))
        config = GcnConfig(hidden_layers=1, hidden_width=3, cheb_order=2, dropout_rate=0.0)
        model = init_model(config, 3, np.random.default_rng(0))
        dist = hop_distances(g, source=0)
        near = np.flatnonzero((dist > 0) & (dist <= 2))
        base = forward(model, scaled, x)
        x2 = x.copy()
        x2[near[0]] += 5.0
        assert np.any(forward(model, scaled, x2)[0] != base[0])


class TestPredict:
    def test_rows_sum_to_one(self):
        scaled, x, labels = separable_case(n=30)
        rows = np.arange(30)
        model, _ = train(GcnConfig(epochs=20, hidden_width=5), scaled, x, labels, rows)
        probs, preds = predict(model, scaled, x, rows)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(preds, np.argmax(probs, axis=1))

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((7, 2))
        shifted = logits + rng.standard_normal((7, 1))  # per-row constant
        np.testing.assert_allclose(softmax(logits), softmax(shifted), atol=1e-12)

    def test_argmax_tie_goes_to_lower_class(self):
        probs = softmax(np.zeros((3, 2)))
        assert np.all(np.argmax(probs, axis=1) == 0)


def in_dtype(scaled, dtype, sparse=False):
    """The operator's matrix cast to dtype, as CSR when sparse."""
    matrix = sp.csr_matrix(scaled.dense()) if sparse else scaled.dense()
    return LaplacianMatrix(matrix=matrix.astype(dtype), kind="scaled")


class TestPrecision:
    # (n_features, width, hidden_layers): input-side layers (C_in <= C_out),
    # then an output-side first layer (12 -> 3).
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("shape", [(4, 5, 2), (12, 3, 1)])
    def test_float32_loss_and_grads_match_float64(self, shape, sparse):
        model, scaled, x, labels, mask = gradient_case(*shape)
        scaled32 = in_dtype(scaled, np.float32, sparse)
        x32 = x.astype(np.float32)
        model32 = init_model(model.config, x.shape[1], np.random.default_rng(5), np.float32)
        # The float64 pass reads the same float32-rounded weights, features
        # and operator, so only the arithmetic's precision differs.
        model.flat[...] = model32.flat
        scaled64 = in_dtype(scaled32, np.float64, sparse)
        loss, grads, logits = loss_and_grads(
            model, scaled64, x32.astype(np.float64), constants(model, labels, mask)
        )
        loss32, grads32, logits32 = loss_and_grads(
            model32, scaled32, x32, constants(model32, labels, mask)
        )
        assert logits32.dtype == np.float32
        assert loss32 == pytest.approx(loss, rel=1e-4)
        # Entries near zero after cancellation are held to 1e-4 of their
        # tensor's largest magnitude.
        np.testing.assert_allclose(logits32, logits, rtol=1e-4, atol=1e-4 * np.abs(logits).max())
        for g32, g in zip(grads32, grads):
            assert g32.dtype == np.float32
            np.testing.assert_allclose(g32, g, rtol=1e-4, atol=1e-4 * np.abs(g).max())

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("cheb_order", [2, 0])
    def test_float32_inputs_train_a_float32_model(self, cheb_order, sparse):
        model, scaled, x, labels, mask = gradient_case(12, 3, 1, cheb_order, dropout_rate=0.3)
        scaled32 = None if scaled is None else in_dtype(scaled, np.float32, sparse)
        x32 = x.astype(np.float32)
        rows = np.flatnonzero(mask)
        config = dataclasses.replace(model.config, epochs=4)
        trained, losses = train(config, scaled32, x32, labels[rows], rows)
        for vector in (trained.flat, trained.moment1, trained.moment2):
            assert vector.dtype == np.float32
        assert all(p.dtype == np.float32 for p in trained.parameters())
        assert all(isinstance(loss, float) and math.isfinite(loss) for loss in losses)
        grad = np.empty_like(trained.flat)
        _, grads, _ = loss_and_grads(
            trained, scaled32, x32, epoch_constants(trained, labels[rows], mask, grad)
        )
        assert all(g.dtype == np.float32 for g in grads)
        probs, preds = predict(trained, scaled32, x32, np.arange(12))
        assert probs.dtype == np.float64
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(preds, (probs[:, 1] > 0.5).astype(preds.dtype))

    def test_integer_features_read_as_float64(self):
        model, scaled, _, labels, mask = gradient_case(4, 5, 1)
        x = np.arange(48).reshape(12, 4) % 5
        rows = np.flatnonzero(mask)
        config = dataclasses.replace(model.config, epochs=2)
        trained, _ = train(config, scaled, x, labels[rows], rows)
        assert trained.flat.dtype == np.float64
        as_float, _ = train(config, scaled, x.astype(np.float64), labels[rows], rows)
        assert model_bytes(trained) == model_bytes(as_float)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("op_dtype, x_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_operator_dtype_must_equal_the_features(self, op_dtype, x_dtype, sparse):
        model, scaled, x, labels, mask = gradient_case(4, 5, 1)
        scaled = in_dtype(scaled, op_dtype, sparse)
        x = x.astype(x_dtype)
        rows = np.flatnonzero(mask)
        match = "operator dtype .* != feature dtype"
        with pytest.raises(ContractError, match=match):
            train(model.config, scaled, x, labels[rows], rows)
        with pytest.raises(ContractError, match=match):
            predict(init_model(model.config, 4, np.random.default_rng(0), x_dtype), scaled, x, rows)
        with pytest.raises(ContractError, match=match):
            chebyshev_basis(scaled, x, 2)
