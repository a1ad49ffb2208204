import math

import numpy as np
import pytest

from conftest import hop_distances, make_random_graph, make_tree_graph
from popgcn.errors import ContractError, DivergenceError, ParameterError
from popgcn.gcn import (
    GcnConfig,
    adam_step,
    cheb_conv_forward,
    forward,
    init_model,
    loss_and_grads,
    masked_loss,
    predict,
    scaled_operator,
    train,
)
from popgcn.popgraph import PopulationGraph, build_complete_graph
from popgcn.spectral import chebyshev_basis, spectral_filter_oracle
from popgcn.spectral import estimate_lambda_max, normalized_laplacian


def empty_graph(n):
    return PopulationGraph.from_edges(n, [], [], [])


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
        GcnConfig(cheb_order=0).validate()  # the MLP baseline's dense layers

    def test_negative_order_rejected(self):
        with pytest.raises(ParameterError):
            GcnConfig(cheb_order=-1).validate()


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
        a = forward(model, scaled, x, mode="eval")
        b = forward(model, scaled, x, mode="eval")
        np.testing.assert_array_equal(a, b)

    def test_zero_dropout_train_equals_eval(self):
        _, scaled, x, *_rest, model = small_setup(dropout_rate=0.0)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(
            forward(model, scaled, x, mode="train", rng=rng),
            forward(model, scaled, x, mode="eval"),
        )

    def test_dropout_changes_train_logits(self):
        _, scaled, x, *_rest, model = small_setup(dropout_rate=0.5)
        rng = np.random.default_rng(1)
        train_logits = forward(model, scaled, x, mode="train", rng=rng)
        eval_logits = forward(model, scaled, x, mode="eval")
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


    def test_output_side_layer_matches_spectral_oracle(self, rng):
        # 12 -> 3 with no hidden layer: the operator runs on the 3 output columns.
        g = make_random_graph(14, density=0.4, seed=9)
        scaled = scaled_operator(g)
        lap = normalized_laplacian(g)
        lam = estimate_lambda_max(lap).value
        x = rng.standard_normal((14, 12))
        config = GcnConfig(n_classes=3, hidden_layers=0, cheb_order=3, use_bias=False)
        model = init_model(config, 12, np.random.default_rng(2))
        weight = model.layers[0].weight
        logits = forward(model, scaled, x)
        for j in range(3):
            oracle = np.zeros(14)
            for c in range(12):
                oracle += spectral_filter_oracle(lap, x[:, c], weight[:, c, j], lambda_max=lam)
            np.testing.assert_allclose(logits[:, j], oracle, atol=1e-8)


class TestMaskedLoss:
    def test_uniform_logits_give_log2(self):
        _, _, _, labels, mask, _, model = small_setup()
        logits = np.zeros((10, 2))
        loss = masked_loss(logits, labels, mask, 0.0, model)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        _, _, _, labels, mask, _, model = small_setup()
        logits = np.full((10, 2), -50.0)
        logits[np.arange(10), labels] = 50.0
        assert masked_loss(logits, labels, mask, 0.0, model) < 1e-12

    def test_unmasked_label_is_never_read(self):
        _, _, _, labels, mask, _, model = small_setup()
        logits = np.random.default_rng(3).standard_normal((10, 2))
        base = masked_loss(logits, labels, mask, 1e-3, model)
        tampered = labels.copy()
        tampered[~mask] = 1 - tampered[~mask]
        assert masked_loss(logits, tampered, mask, 1e-3, model) == base

    def test_l2_term_uses_weights_not_biases(self):
        _, _, _, labels, mask, _, model = small_setup()
        for layer in model.layers:
            layer.bias += 100.0  # must not affect the penalty
        logits = np.zeros((10, 2))
        w_sq = sum(float((l.weight**2).sum()) for l in model.layers)
        expected = math.log(2.0) + 0.01 * w_sq
        assert masked_loss(logits, labels, mask, 0.01, model) == pytest.approx(expected, rel=1e-12)


class TestBackward:
    def test_zero_features_zero_weight_grads_except_bias(self):
        _, scaled, x, labels, mask, config, model = small_setup(dropout_rate=0.0)
        _, grads, _ = loss_and_grads(model, scaled, np.zeros_like(x), labels, mask, 0.0)
        for i, layer in enumerate(model.layers):
            assert np.all(grads[2 * i] == 0.0)  # weights: no signal anywhere
        assert np.any(grads[2 * len(model.layers) - 1] != 0.0)  # output bias moves

    def test_l2_only_gradient_is_2_l2_w(self):
        _, scaled, x, labels, mask, config, model = small_setup(dropout_rate=0.0)
        l2 = 0.37
        _, grads, _ = loss_and_grads(model, scaled, np.zeros_like(x), labels, mask, l2)
        for i, layer in enumerate(model.layers):
            np.testing.assert_array_equal(grads[2 * i], 2.0 * l2 * layer.weight)

    def test_semi_supervision_boundary_bitwise(self):
        _, scaled, x, labels, mask, config, model = small_setup(dropout_rate=0.0)
        loss_a, grads_a, _ = loss_and_grads(model, scaled, x, labels, mask, 5e-4)
        tampered = labels.copy()
        tampered[~mask] = 1 - tampered[~mask]
        loss_b, grads_b, _ = loss_and_grads(model, scaled, x, tampered, mask, 5e-4)
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

    @pytest.mark.parametrize("hidden_layers", [1, 0])
    def test_output_side_layers_match_input_side_reference(self, hidden_layers):
        model, scaled, x, labels, mask, l2 = gradient_case(
            n_features=12, width=3, hidden_layers=hidden_layers
        )
        _, grads, logits = loss_and_grads(model, scaled, x, labels, mask, l2)
        ref_logits, ref_grads = input_side_reference(model, scaled, x, labels, mask, l2)
        np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-10)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-10)

    def test_dropout_masks_shared_between_forward_and_backward(self):
        # With a fixed rng state, loss_and_grads must be reproducible.
        _, scaled, x, labels, mask, config, model = small_setup(dropout_rate=0.4)
        l1, g1, _ = loss_and_grads(
            model, scaled, x, labels, mask, 0.0, train=True, rng=np.random.default_rng(9)
        )
        l2_, g2, _ = loss_and_grads(
            model, scaled, x, labels, mask, 0.0, train=True, rng=np.random.default_rng(9)
        )
        assert l1 == l2_
        for a, b in zip(g1, g2):
            assert np.array_equal(a, b)


def gradient_case(n_features, width, hidden_layers, cheb_order=2):
    """12 nodes, dropout off: (model, scaled, x, labels, mask, l2); scaled is
    None at cheb_order 0."""
    g = make_random_graph(12, density=0.45, seed=21)
    scaled = scaled_operator(g) if cheb_order > 0 else None
    rng = np.random.default_rng(77)
    x = rng.standard_normal((12, n_features))
    labels = rng.integers(0, 2, size=12)
    mask = np.zeros(12, dtype=bool)
    mask[:8] = True
    config = GcnConfig(
        hidden_layers=hidden_layers, hidden_width=width, cheb_order=cheb_order, dropout_rate=0.0
    )
    model = init_model(config, n_features, np.random.default_rng(5))
    return model, scaled, x, labels, mask, 5e-4


def fd_gradients(model, scaled, x, labels, mask, l2):
    """(analytic, central-difference) gradient pairs per parameter tensor."""
    _, grads, _ = loss_and_grads(model, scaled, x, labels, mask, l2)

    def loss_now():
        logits = forward(model, scaled, x, mode="eval")
        return masked_loss(logits, labels, mask, l2, model)

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


def worst_fd_error(model, scaled, x, labels, mask, l2):
    """Largest relative gap between analytic and central-difference gradients."""
    worst = 0.0
    for g_analytic, fd in fd_gradients(model, scaled, x, labels, mask, l2):
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(g_analytic)), 1e-8)
        worst = max(worst, float(np.max(np.abs(fd - g_analytic) / denom)))
    return worst


def input_side_reference(model, scaled, x, labels, mask, l2):
    """Logits and gradients (dropout off) with explicit dense T_k(Ls) matrices,
    every layer associated as (T_k(Ls) H) W_k."""
    polys = chebyshev_basis(scaled, np.eye(scaled.n), model.config.cheb_order).terms
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
        grads = [np.zeros_like(p) for p in model.parameters()]
        adam_step(model, grads)
        assert model_bytes(model) == before

    def test_first_step_closed_form(self):
        # Step 1 with constant gradient g: update = lr * g / (|g| + eps).
        *_, model = small_setup()
        params_before = [p.copy() for p in model.parameters()]
        grads = [np.full_like(p, 0.25) for p in model.parameters()]
        lr = 0.013
        adam_step(model, grads, lr=lr)
        for before, after in zip(params_before, model.parameters()):
            expected = before - lr * 0.25 / (0.25 + 1e-8)
            np.testing.assert_allclose(after, expected, atol=1e-15)
            assert np.allclose(np.abs(after - before), lr, rtol=1e-6)

    def test_identical_runs_same_seed(self):
        _, scaled, x, labels, mask, _, _ = small_setup(seed=2)
        config = GcnConfig(epochs=12, hidden_width=4, seed=3)
        m1, h1 = train(config, scaled, x, labels, mask)
        m2, h2 = train(config, scaled, x, labels, mask)
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
        mask = np.ones(len(labels), dtype=bool)
        config = GcnConfig(epochs=150, hidden_width=5)
        model, history = train(config, scaled, x, labels, mask)
        assert history[-1]["train_accuracy"] >= 0.95

    def test_loss_decreases_over_first_10_epochs(self):
        scaled, x, labels = separable_case(seed=4)
        mask = np.ones(len(labels), dtype=bool)
        config = GcnConfig(epochs=10, hidden_width=5)
        _, history = train(config, scaled, x, labels, mask)
        assert history[-1]["loss"] < history[0]["loss"]

    def test_zero_epochs_returns_initial_model(self):
        scaled, x, labels = separable_case()
        mask = np.ones(len(labels), dtype=bool)
        config = GcnConfig(epochs=0)
        model, history = train(config, scaled, x, labels, mask)
        assert history == []
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
        model, _ = train(config, scaled_operator(g), x, labels, mask)
        probs, _ = predict(model, scaled_operator(g), x)

        perm = rng.permutation(20)  # node i moves to position perm[i]
        new_u = np.minimum(perm[g.edges_u], perm[g.edges_v])
        new_v = np.maximum(perm[g.edges_u], perm[g.edges_v])
        order = np.argsort(new_u * 20 + new_v)
        g2 = PopulationGraph.from_edges(20, new_u[order], new_v[order], g.weights[order])
        inv = np.empty(20, dtype=int)
        inv[perm] = np.arange(20)
        scaled2 = scaled_operator(g2)
        model2, _ = train(config, scaled2, x[inv], labels[inv], mask[inv])
        probs2, _ = predict(model2, scaled2, x[inv])
        np.testing.assert_allclose(probs2[perm], probs, atol=1e-6)

    @pytest.mark.parametrize("cheb_order", [3, 0])
    def test_divergence_aborts_with_epoch(self, cheb_order):
        scaled, x, labels = separable_case()
        if cheb_order == 0:
            # No Chebyshev sum to amplify the inputs: ten copies of each
            # feature make the dense layer's sums overflow instead.
            scaled, x = None, np.tile(x, 10)
        mask = np.ones(len(labels), dtype=bool)
        config = GcnConfig(epochs=5, hidden_width=5, cheb_order=cheb_order)
        # Features near the float64 ceiling overflow the convolutions to inf,
        # turning the cross-entropy into inf - inf = nan on the first epoch.
        with pytest.raises(DivergenceError) as exc, np.errstate(all="ignore"):
            train(config, scaled, x / np.abs(x).max() * 1e308, labels, mask)
        assert exc.value.epoch == 0

    def test_three_classes_train_and_out_of_range_label_rejected(self):
        scaled, x, _ = separable_case()
        labels = np.arange(len(x)) % 3
        mask = np.ones(len(labels), dtype=bool)
        config = GcnConfig(n_classes=3, epochs=3, hidden_width=4)
        model, history = train(config, scaled, x, labels, mask)
        assert model.layers[-1].weight.shape[-1] == 3
        assert len(history) == 3
        probs, _ = predict(model, scaled, x)
        assert probs.shape == (len(x), 3)
        labels[0] = 3
        with pytest.raises(ContractError):
            train(config, scaled, x, labels, mask)

    def test_order_zero_without_operator_and_operator_required_above(self):
        _, x, labels = separable_case()
        mask = np.ones(len(labels), dtype=bool)
        train(GcnConfig(epochs=1, hidden_width=3, cheb_order=0), None, x, labels, mask)
        with pytest.raises(ContractError):
            train(GcnConfig(epochs=1, hidden_width=3, cheb_order=1), None, x, labels, mask)

    def test_masked_unknown_labels_rejected(self):
        scaled, x, labels = separable_case()
        mask = np.ones(len(labels), dtype=bool)
        labels = labels.copy()
        labels[0] = -1
        with pytest.raises(ContractError):
            train(GcnConfig(epochs=1), scaled, x, labels, mask)


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
        mask = np.ones(30, dtype=bool)
        model, _ = train(GcnConfig(epochs=20, hidden_width=5), scaled, x, labels, mask)
        probs, preds = predict(model, scaled, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(preds, np.argmax(probs, axis=1))

    def test_softmax_shift_invariance(self):
        from popgcn.gcn import _stable_softmax

        rng = np.random.default_rng(8)
        logits = rng.standard_normal((7, 2))
        shifted = logits + rng.standard_normal((7, 1))  # per-row constant
        np.testing.assert_allclose(
            _stable_softmax(logits), _stable_softmax(shifted), atol=1e-12
        )

    def test_argmax_tie_goes_to_lower_class(self):
        from popgcn.gcn import _stable_softmax

        probs = _stable_softmax(np.zeros((3, 2)))
        assert np.all(np.argmax(probs, axis=1) == 0)
