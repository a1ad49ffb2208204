"""The in-place training epoch against the allocating formulas it replaced.

Every comparison is on the int64 view of the float64 results, so a signed
zero or a last-bit difference fails it.
"""

import numpy as np
import pytest
from conftest import make_random_graph
from reference_epoch import (
    adam_update_reference,
    chebyshev_basis_reference,
    chebyshev_weighted_sum_reference,
    loss_and_grads_reference,
    predict_reference,
    sigmoid_reference,
    train_reference,
)

from popgcn.featsel import _sigmoid
from popgcn.gcn import (
    GcnConfig,
    _output_side,
    adam_update,
    init_model,
    loss_and_grads,
    predict,
    scaled_operator,
    train,
)
from popgcn.spectral import chebyshev_basis, chebyshev_weighted_sum


def assert_bits_equal(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def epoch_case(n, n_features, seed=0, density=0.4):
    scaled = scaled_operator(make_random_graph(n, density=density, seed=seed))
    rng = np.random.default_rng(seed + 10)
    x = rng.standard_normal((n, n_features))
    labels = rng.integers(0, 2, size=n)
    mask = rng.random(n) < 0.6
    mask[0] = True
    return scaled, x, labels, mask


# (n_features, hidden_width, hidden_layers, cheb_order): the first network's
# layers all run on their input side (C_in <= C_out), the second's first layer
# on its output side, the third is a plain dense network.
NETWORKS = {
    "input_side": (2, 3, 2, 2),
    "output_side": (40, 6, 1, 3),
    "order_zero": (7, 5, 1, 0),
}


class TestTrainMatchesReference:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    @pytest.mark.parametrize("sparse", [False, True])
    def test_parameters_losses_and_probabilities(self, name, sparse):
        n_features, width, hidden_layers, order = NETWORKS[name]
        n, density = (240, 0.01) if sparse else (30, 0.4)
        scaled, x, labels, mask = epoch_case(n, n_features, density=density)
        assert scaled.is_sparse == sparse
        config = GcnConfig(
            hidden_layers=hidden_layers, hidden_width=width, cheb_order=order,
            dropout_rate=0.3, l2_coeff=5e-4, learning_rate=0.01, epochs=6, seed=3,
        )
        operator = scaled if order > 0 else None
        model, history = train(config, operator, x, labels, mask)
        ref_model, ref_losses = train_reference(config, operator, x, labels, mask)

        sides = [_output_side(layer.weight) for layer in model.layers[:-1]]
        assert sides == [name == "output_side"] + [False] * (hidden_layers - 1)
        assert [entry["loss"] for entry in history] == ref_losses
        for p, ref in zip(model.parameters(), ref_model.parameters()):
            assert_bits_equal(p, ref)
        for m, ref in zip(model.moment1 + model.moment2, ref_model.moment1 + ref_model.moment2):
            assert_bits_equal(m, ref)
        probs, _ = predict(model, operator, x)
        assert_bits_equal(probs, predict_reference(ref_model, operator, x))

    def test_fortran_ordered_features(self):
        scaled, x, labels, mask = epoch_case(30, 40)
        x = np.asfortranarray(x)
        config = GcnConfig(hidden_width=6, dropout_rate=0.3, epochs=4, seed=1)
        model, _ = train(config, scaled, x, labels, mask)
        ref_model, _ = train_reference(config, scaled, x, labels, mask)
        for p, ref in zip(model.parameters(), ref_model.parameters()):
            assert_bits_equal(p, ref)


class TestPiecesMatchReference:
    def test_one_pass_loss_grads_and_logits(self):
        scaled, x, labels, mask = epoch_case(30, 12, seed=4)
        config = GcnConfig(hidden_layers=2, hidden_width=5, dropout_rate=0.4, seed=2)
        model = init_model(config, 12)
        loss, grads, logits = loss_and_grads(
            model, scaled, x, labels, mask, 1e-3, train=True, rng=np.random.default_rng(7)
        )
        ref_loss, ref_grads, ref_logits = loss_and_grads_reference(
            model, scaled, x, labels, mask, 1e-3, True, np.random.default_rng(7)
        )
        assert loss == ref_loss
        assert_bits_equal(logits, ref_logits)
        for g, ref in zip(grads, ref_grads):
            assert_bits_equal(g, ref)

    def test_adam_update(self, rng):
        shapes = [(4, 3, 2), (2,), (5, 5)]
        params = [rng.standard_normal(s) for s in shapes]
        ref_params = [p.copy() for p in params]
        state = [np.zeros(s) for s in shapes * 2]
        ref_state = [np.zeros(s) for s in shapes * 2]
        for step in range(1, 5):
            grads = [rng.standard_normal(s) for s in shapes]
            adam_update(params, grads, state[:3], state[3:], step, 0.01)
            adam_update_reference(ref_params, grads, ref_state[:3], ref_state[3:], step, 0.01)
        for a, b in zip(params + state, ref_params + ref_state):
            assert_bits_equal(a, b)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_chebyshev_recursions(self, rng, order, sparse):
        n, density = (240, 0.01) if sparse else (25, 0.4)
        scaled = scaled_operator(make_random_graph(n, density=density, seed=order))
        x = rng.standard_normal((n, 3))
        basis = chebyshev_basis(scaled, x, order)
        for term, ref in zip(basis.terms, chebyshev_basis_reference(scaled, x, order)):
            assert_bits_equal(term, ref)
        parts = [rng.standard_normal((n, 2)) for _ in range(order + 1)]
        before = [p.copy() for p in parts]
        out = chebyshev_weighted_sum(scaled, parts)
        assert_bits_equal(out, chebyshev_weighted_sum_reference(scaled, parts))
        for p, b in zip(parts, before):
            assert_bits_equal(p, b)  # the parts are read, never written

    def test_sigmoid(self, rng):
        z = np.concatenate([
            [0.0, -0.0, 800.0, -800.0, 36.0, -36.0, 745.0, -745.0],
            rng.standard_normal(200) * 10.0,
        ]).reshape(13, 16)
        out = _sigmoid(z)
        assert_bits_equal(out, sigmoid_reference(z))
        assert out.ravel()[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
