"""The in-place training epoch against the allocating formulas it replaced.

Every comparison is on the int64 view of the results widened to float64,
which is exact for float32 ones, so a signed zero or a last-bit difference
fails it. Where training keeps fewer rows than the graph has, the reference
trains on those rows alone: the principal submatrix of the operator and
x[rows].
"""

from dataclasses import replace

import numpy as np
import pytest
import reference_epoch
from conftest import make_random_graph
from reference_epoch import (
    adam_update_reference,
    ae_loss_and_grads_reference,
    chebyshev_basis_reference,
    chebyshev_weighted_sum_reference,
    fit_autoencoder_reference,
    keep_mask_reference,
    loss_and_grads_reference,
    predict_reference,
    sigmoid_reference,
    train_reference,
)

from popgcn import gcn
from popgcn.featsel import (
    _ae_loss_and_grads,
    _fit_autoencoder,
    _minmax_apply,
    _minmax_scale_params,
    _sigmoid,
)
from popgcn.gcn import (
    GcnConfig,
    _keep_mask,
    _output_side,
    _principal_submatrix,
    _reach,
    _softmax_terms,
    adam_update,
    epoch_constants,
    flat_views,
    forward,
    init_model,
    loss_and_grads,
    predict,
    scaled_operator,
    train,
)
from popgcn.dataset import SyntheticConfig, generate_synthetic, labels_array
from popgcn.popgraph import GraphSpec, PopulationGraph, build_graph
from popgcn.spectral import LaplacianMatrix, chebyshev_basis, chebyshev_weighted_sum


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


def reach(config, operator, mask):
    """(operator, rows) that _reach keeps for the masked rows; the rows are
    read back from features that hold each row's index."""
    index = np.arange(len(mask), dtype=np.float64)[:, None]
    operator, kept, _ = _reach(config, operator, index, np.flatnonzero(mask))
    return operator, kept[:, 0].astype(np.int64)


def train_masked(config, operator, x, labels, mask):
    """train on the masked rows, given every node's labels."""
    return train(config, operator, x, labels[mask], np.flatnonzero(mask))


def predict_all(model, operator, x):
    """predict on every row."""
    return predict(model, operator, x, np.arange(len(x)))


def train_reference_on_trained_rows(config, operator, x, labels, mask):
    """train_reference on the rows train keeps, the operator restricted to them."""
    operator, rows = reach(config, operator, mask)
    return train_reference(config, operator, x[rows], labels[rows], mask[rows])


class TestTrainMatchesReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    @pytest.mark.parametrize("sparse", [False, True])
    def test_parameters_losses_and_probabilities(self, name, sparse, dtype):
        # float32 is the precision the harness trains in; float64 the oracles'.
        n_features, width, hidden_layers, order = NETWORKS[name]
        n, density = (240, 0.01) if sparse else (30, 0.4)
        scaled, x, labels, mask = epoch_case(n, n_features, density=density)
        assert scaled.is_sparse == sparse
        scaled = LaplacianMatrix(matrix=scaled.matrix.astype(dtype), kind="scaled")
        x = x.astype(dtype)
        config = GcnConfig(
            hidden_layers=hidden_layers, hidden_width=width, cheb_order=order,
            dropout_rate=0.3, l2_coeff=5e-4, learning_rate=0.01, epochs=6, seed=3,
        )
        operator = scaled if order > 0 else None
        model, losses = train_masked(config, operator, x, labels, mask)
        ref_model, ref_losses = train_reference_on_trained_rows(
            config, operator, x, labels, mask
        )

        sides = [_output_side(layer.weight) for layer in model.layers[:-1]]
        assert sides == [name == "output_side"] + [False] * (hidden_layers - 1)
        assert losses == ref_losses
        for p, ref in zip(model.parameters(), ref_model.parameters()):
            assert_bits_equal(p, ref)
        assert_bits_equal(model.moment1, ref_model.moment1)
        assert_bits_equal(model.moment2, ref_model.moment2)
        assert model.flat.dtype == ref_model.flat.dtype == dtype
        probs, _ = predict_all(model, operator, x)
        assert_bits_equal(probs, predict_reference(ref_model, operator, x))

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    @pytest.mark.parametrize("sparse", [False, True])
    def test_close_to_column_sum_bias_gradients(self, name, sparse, monkeypatch):
        # The older bias gradient, numpy's column sums, is the same function
        # with other roundings, so it is a tolerance oracle only.
        monkeypatch.setattr(reference_epoch, "bias_grad_reference", lambda g: g.sum(axis=0))
        n_features, width, hidden_layers, order = NETWORKS[name]
        n, density = (240, 0.01) if sparse else (30, 0.4)
        scaled, x, labels, mask = epoch_case(n, n_features, density=density)
        config = GcnConfig(
            hidden_layers=hidden_layers, hidden_width=width, cheb_order=order,
            dropout_rate=0.3, l2_coeff=5e-4, learning_rate=0.01, epochs=4, seed=3,
        )
        operator = scaled if order > 0 else None
        model, losses = train_masked(config, operator, x, labels, mask)
        old_model, old_losses = train_reference_on_trained_rows(
            config, operator, x, labels, mask
        )
        np.testing.assert_allclose(losses, old_losses, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.flat, old_model.flat, rtol=0, atol=1e-12)
        probs, _ = predict_all(model, operator, x)
        old_probs, _ = predict_all(old_model, operator, x)
        np.testing.assert_allclose(probs, old_probs, rtol=0, atol=1e-12)

    def test_fortran_ordered_features(self):
        scaled, x, labels, mask = epoch_case(30, 40)
        x = np.asfortranarray(x)
        config = GcnConfig(hidden_width=6, dropout_rate=0.3, epochs=4, seed=1)
        model, _ = train_masked(config, scaled, x, labels, mask)
        ref_model, _ = train_reference(config, scaled, x, labels, mask)
        for p, ref in zip(model.parameters(), ref_model.parameters()):
            assert_bits_equal(p, ref)


class TestPiecesMatchReference:
    def test_one_pass_loss_grads_and_logits(self):
        scaled, x, labels, mask = epoch_case(30, 12, seed=4)
        config = GcnConfig(
            hidden_layers=2, hidden_width=5, dropout_rate=0.4, l2_coeff=1e-3, seed=2
        )
        model = init_model(config, 12, np.random.default_rng(config.seed))
        constants = epoch_constants(model, labels[mask], mask, np.empty_like(model.flat))
        loss, grads, logits = loss_and_grads(
            model, scaled, x, constants, np.random.default_rng(7)
        )
        ref_loss, ref_grads, ref_logits = loss_and_grads_reference(
            model, scaled, x, labels, mask, 1e-3, True, np.random.default_rng(7)
        )
        assert loss == ref_loss
        assert_bits_equal(logits, ref_logits)
        for g, ref in zip(grads, ref_grads):
            assert_bits_equal(g, ref)

    def test_adam_update(self, rng):
        # One update over the whole vector against one per parameter array.
        shapes = [(4, 3, 2), (2,), (5, 5)]
        ref_params = [rng.standard_normal(s) for s in shapes]
        ref_state = [np.zeros(s) for s in shapes * 2]
        params = np.concatenate([p.ravel() for p in ref_params])
        moment1, moment2 = np.zeros_like(params), np.zeros_like(params)
        for step in range(1, 5):
            ref_grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-9, 3) for s in shapes]
            grad = np.concatenate([g.ravel() for g in ref_grads])
            adam_update(params, grad, moment1, moment2, step, 0.01)
            adam_update_reference(
                ref_params, ref_grads, ref_state[:3], ref_state[3:], step, 0.01
            )
        for flat, refs in [(params, ref_params), (moment1, ref_state[:3]),
                           (moment2, ref_state[3:])]:
            for view, ref in zip(flat_views(flat, shapes), refs):
                assert_bits_equal(view, ref)

    def test_model_parameters_are_views_of_one_vector(self):
        config = GcnConfig(hidden_layers=2, hidden_width=5, cheb_order=2)
        model = init_model(config, 7, np.random.default_rng(0))
        params = model.parameters()
        assert [p.shape for p in params] == [(3, 7, 5), (5,), (3, 5, 5), (5,), (3, 5, 2), (2,)]
        assert model.flat.size == sum(p.size for p in params)
        assert model.moment1.shape == model.moment2.shape == model.flat.shape
        for p, view in zip(params, model.views(model.flat)):
            assert np.shares_memory(p, model.flat)
            assert_bits_equal(p, view)
        model.flat[:] = np.arange(model.flat.size)
        assert model.layers[1].bias.tolist() == list(range(185, 190))  # after 105 + 5 + 75

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_chebyshev_recursions(self, rng, order, sparse):
        n, density = (240, 0.01) if sparse else (25, 0.4)
        scaled = scaled_operator(make_random_graph(n, density=density, seed=order))
        x = rng.standard_normal((n, 3))
        basis = chebyshev_basis(scaled, x, order)
        for term, ref in zip(basis, chebyshev_basis_reference(scaled, x, order)):
            assert_bits_equal(term, ref)
        parts = [rng.standard_normal((n, 2)) for _ in range(order + 1)]
        before = [p.copy() for p in parts]
        out = chebyshev_weighted_sum(scaled, parts)
        assert_bits_equal(out, chebyshev_weighted_sum_reference(scaled, parts))
        for p, b in zip(parts, before):
            assert_bits_equal(p, b)  # the parts are read, never written

    @pytest.mark.parametrize(
        "shape", [(1, 1), (7, 3), (5, 4), (30, 12), (0,), (1,), (3,), (4,), (5,), (871, 2000)]
    )
    def test_keep_mask_lanes(self, shape):
        # ceil(size / 4) 64-bit words, each split into four 16-bit lanes.
        # _keep_mask reads the generator's raw words; they, and the state
        # they leave, are those of the full-range rng.integers draw that the
        # reference makes, so every later draw of a training run is unchanged.
        n_words = -(-int(np.prod(shape)) // 4)
        raw, drawn = np.random.default_rng(13), np.random.default_rng(13)
        words = raw.bit_generator.random_raw(n_words)
        ref_words = drawn.integers(
            0, np.iinfo(np.uint64).max, size=n_words, dtype=np.uint64, endpoint=True
        )
        assert words.dtype == ref_words.dtype == np.uint64
        np.testing.assert_array_equal(words, ref_words)
        assert raw.bit_generator.state == drawn.bit_generator.state
        for rate in (0.3, 0.5):
            rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
            keep = _keep_mask(rng, shape, rate)
            assert keep.shape == shape and keep.dtype == bool
            np.testing.assert_array_equal(keep, keep_mask_reference(ref_rng, shape, rate))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.9])
    def test_keep_rate(self, rate):
        n = 10**6
        keep = _keep_mask(np.random.default_rng(11), (1000, 1000), rate)
        p = 1.0 - round(rate * 65536) / 65536
        assert abs(p - (1.0 - rate)) <= 2.0**-17
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert abs(keep.mean() - p) <= 5.0 * sigma

    def test_softmax_terms(self, rng):
        # The two-column max and sum against numpy's row reductions.
        z = rng.standard_normal((400, 2)) * 10.0 ** rng.integers(-6, 6, size=(400, 2))
        z[rng.random(z.shape) < 0.2] = 0.0
        z[rng.random(z.shape) < 0.2] = -0.0
        z[:40] = np.where(rng.random((40, 2)) < 0.5, -0.0, 0.0)  # signed zeros
        z[40:80] = rng.integers(-2, 3, size=(40, 1))  # whole rows tied
        z[80:120, 1] = z[80:120, 0]  # columns tied
        z[120:130] = [[np.inf, 1.0], [-np.inf, 1.0], [1.0, -np.inf], [np.inf, -np.inf],
                      [-np.inf, -np.inf], [np.inf, np.inf], [-0.0, -np.inf],
                      [np.inf, 0.0], [-np.inf, -0.0], [1e308, -1e308]]
        with np.errstate(all="ignore"):
            for a in (z, -z):
                zmax, e, e_sum = _softmax_terms(a)
                assert_bits_equal(zmax, a.max(axis=1))
                assert_bits_equal(e, np.exp(a - a.max(axis=1, keepdims=True)))
                assert_bits_equal(e_sum, e.sum(axis=1))

    def test_sigmoid(self, rng):
        z = np.concatenate([
            [0.0, -0.0, 800.0, -800.0, 36.0, -36.0, 745.0, -745.0],
            [np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, -1e-300, -np.nan],
            rng.standard_normal(192) * 10.0,
        ]).reshape(13, 16)
        with np.errstate(all="ignore"):
            out = _sigmoid(z)
            expected = sigmoid_reference(z)
        # NaN stays NaN; the sign bit of a NaN result is not specified by
        # IEEE 754 (here exp(-|NaN|) sets it), so NaNs are compared by place.
        nan = np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(out), nan)
        assert np.flatnonzero(nan).tolist() == [10, 15]
        assert_bits_equal(out[~nan], expected[~nan])
        assert out.ravel()[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
        assert out.ravel()[8:10].tolist() == [1.0, 0.0]


class TestAutoencoderMatchesReference:
    @staticmethod
    def scaled_cohort(n, c, constant_column=None, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c)) * rng.uniform(0.5, 3.0, size=c)
        if constant_column is not None:
            x[:, constant_column] = 4.25
        lo, span, degenerate = _minmax_scale_params(x)
        return _minmax_apply(x, lo, span, degenerate)

    @pytest.mark.parametrize("constant_column", [None, 3])
    def test_loss_and_gradients(self, rng, constant_column):
        xs = self.scaled_cohort(45, 9, constant_column)
        if constant_column is not None:
            assert not xs[:, constant_column].any()
        w = rng.standard_normal((9, 4)) * 0.5
        b_enc = rng.standard_normal(4) * 0.1
        b_dec = rng.standard_normal(9) * 0.1
        before = [a.copy() for a in (xs, w, b_enc, b_dec)]
        out = np.full(9 * 4 + 4 + 9, np.nan)
        loss, grads = _ae_loss_and_grads(xs, w, b_enc, b_dec, out)
        ref_loss, ref_grads = ae_loss_and_grads_reference(xs, w, b_enc, b_dec)
        assert loss == ref_loss
        for g, ref in zip(grads, ref_grads):
            assert np.shares_memory(g, out)
            assert_bits_equal(g, ref)
        for a, b in zip((xs, w, b_enc, b_dec), before):
            assert_bits_equal(a, b)  # the inputs are read, never written

    @pytest.mark.parametrize("constant_column", [None, 5])
    def test_fit(self, constant_column):
        xs = self.scaled_cohort(132, 14, constant_column, seed=4)
        w, b_enc, b_dec, history = _fit_autoencoder(xs, 6, 12, 5e-3, seed=9)
        ref_w, ref_b_enc, ref_b_dec, ref_history = fit_autoencoder_reference(
            xs, 6, 12, 5e-3, seed=9
        )
        assert len(history) == 12
        assert history == ref_history
        assert_bits_equal(w, ref_w)
        assert_bits_equal(b_enc, ref_b_enc)
        assert_bits_equal(b_dec, ref_b_dec)


class TestNoStateBetweenTrainCalls:
    @pytest.mark.parametrize("case", ["dense_partly_masked", "order_zero_all_masked"])
    def test_retraining_repeats_the_first_run(self, case):
        # Train A, then B with other labels, mask and width, then A again:
        # the second A is the first bit for bit.
        if case == "dense_partly_masked":
            scaled, x, labels, mask = epoch_case(30, 6, seed=7)
            assert not scaled.is_sparse and not mask.all()
            config = GcnConfig(hidden_width=5, cheb_order=2, dropout_rate=0.3, epochs=5, seed=2)
        else:
            _, x, labels, _ = epoch_case(40, 6, seed=8)
            scaled, mask = None, np.ones(40, dtype=bool)
            config = GcnConfig(hidden_width=5, cheb_order=0, dropout_rate=0.3, epochs=5, seed=2)
        other_mask = np.roll(mask, 3)
        other_mask[:12] = ~other_mask[:12]
        other = replace(config, hidden_width=3)

        first, first_losses = train_masked(config, scaled, x, labels, mask)
        train_masked(other, scaled, x, 1 - labels, other_mask)
        again, again_losses = train_masked(config, scaled, x, labels, mask)
        assert again_losses == first_losses
        for a, b in [(again.flat, first.flat), (again.moment1, first.moment1),
                     (again.moment2, first.moment2)]:
            assert_bits_equal(a, b)


def shuffled_components_case(n, n_components, masked_components, seed=0, density=0.04):
    """A graph of n_components equal components whose nodes are interleaved.

    Every node of component masked_components[0] is masked, about half of
    each later listed component, and none of the others. Returns
    (scaled, x, labels, mask, reached), where reached lists the nodes of the
    listed components in ascending order.
    """
    block = make_random_graph(n, density=density, seed=seed, n_components=n_components)
    rng = np.random.default_rng(seed + 20)
    members = rng.permutation(n)  # block node i is graph node members[i]
    u, v = members[block.edges_u], members[block.edges_v]
    graph = PopulationGraph.from_edges(n, np.minimum(u, v), np.maximum(u, v), block.weights)
    size = n // n_components
    mask = np.zeros(n, dtype=bool)
    for rank, c in enumerate(masked_components):
        nodes = members[c * size:(c + 1) * size]
        mask[nodes] = True if rank == 0 else rng.random(size) < 0.5
        mask[nodes[0]] = True
    reached = np.sort(np.concatenate(
        [members[c * size:(c + 1) * size] for c in masked_components]
    ))
    x = rng.standard_normal((n, 6))
    labels = rng.integers(0, 2, size=n)
    return scaled_operator(graph), x, labels, mask, reached


def trained_row_counts(monkeypatch):
    """Record the row count of every loss_and_grads call train makes."""
    counts = []
    inner = gcn.loss_and_grads

    def spy(model, scaled, x, *args, **kwargs):
        counts.append(len(x))
        return inner(model, scaled, x, *args, **kwargs)

    monkeypatch.setattr(gcn, "loss_and_grads", spy)
    return counts


def assert_matches_reference(config, operator, x, labels, mask, ref_operator, rows):
    """train on the graph equals train_reference on `rows` alone, bit for bit."""
    model, losses = train_masked(config, operator, x, labels, mask)
    ref_model, ref_losses = train_reference(
        config, ref_operator, x[rows], labels[rows], mask[rows]
    )
    assert losses == ref_losses
    for p, ref in zip(model.parameters(), ref_model.parameters()):
        assert_bits_equal(p, ref)
    probs, labels_out = predict_all(model, operator, x)
    ref_probs = predict_reference(ref_model, operator, x)
    assert_bits_equal(probs, ref_probs)
    np.testing.assert_array_equal(labels_out, np.argmax(ref_probs, axis=1))


TRAINED_ROWS_CONFIG = GcnConfig(
    hidden_layers=1, hidden_width=5, cheb_order=3, dropout_rate=0.3,
    l2_coeff=5e-4, learning_rate=0.01, epochs=6, seed=3,
)


class TestTrainedRows:
    @pytest.mark.parametrize("n", [120, 240])
    def test_csr_trains_the_components_of_masked_nodes(self, monkeypatch, n):
        # Component 1 is fully masked, component 3 partly, 0 and 2 not at all.
        # A sparse graph is CSR at any node count, 120 included.
        scaled, x, labels, mask, reached = shuffled_components_case(n, 4, [1, 3])
        assert scaled.is_sparse
        assert not mask.all() and not mask[reached].all()
        _, rows = reach(TRAINED_ROWS_CONFIG, scaled, mask)
        np.testing.assert_array_equal(rows, reached)

        counts = trained_row_counts(monkeypatch)
        sub = _principal_submatrix(scaled, reached)
        assert_matches_reference(TRAINED_ROWS_CONFIG, scaled, x, labels, mask, sub, reached)
        assert counts == [len(reached)] * TRAINED_ROWS_CONFIG.epochs

    @pytest.mark.parametrize("hidden_layers", [1, 2])
    def test_order_zero_trains_the_masked_rows(self, monkeypatch, hidden_layers):
        _, x, labels, mask = epoch_case(240, 7, seed=5, density=0.01)
        config = GcnConfig(
            hidden_layers=hidden_layers, hidden_width=5, cheb_order=0,
            dropout_rate=0.3, epochs=6, seed=4,
        )
        assert not mask.all()
        np.testing.assert_array_equal(reach(config, None, mask)[1], np.flatnonzero(mask))

        counts = trained_row_counts(monkeypatch)
        assert_matches_reference(config, None, x, labels, mask, None, np.flatnonzero(mask))
        assert counts == [int(mask.sum())] * config.epochs

    @pytest.mark.parametrize("hidden_layers", [1, 2])
    def test_order_zero_ignores_appended_unmasked_rows(self, rng, hidden_layers):
        # Unmasked rows, anywhere in the matrix, are neither trained nor given
        # dropout draws, so they leave the training run unchanged.
        _, x, labels, _ = epoch_case(60, 7, seed=6)
        config = GcnConfig(
            hidden_layers=hidden_layers, hidden_width=5, cheb_order=0,
            dropout_rate=0.3, epochs=6, seed=4,
        )
        model, losses = train_masked(config, None, x, labels, np.ones(60, dtype=bool))

        mask = np.ones(90, dtype=bool)
        mask[rng.choice(90, size=30, replace=False)] = False
        x_more = rng.standard_normal((90, 7))
        labels_more = np.full(90, -1)
        x_more[mask], labels_more[mask] = x, labels
        more_model, more_losses = train_masked(config, None, x_more, labels_more, mask)
        assert more_losses == losses
        for p, ref in zip(more_model.parameters(), model.parameters()):
            assert_bits_equal(p, ref)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_every_row_trains_bit_for_bit(self, monkeypatch, sparse):
        if sparse:
            # Every component holds a masked node.
            scaled, x, labels, mask, reached = shuffled_components_case(240, 3, [0, 1, 2])
            assert len(reached) == 240
        else:
            # A dense operator keeps every row, even one with an unmasked
            # component.
            scaled, x, labels, mask, reached = shuffled_components_case(
                40, 2, [0], density=0.3
            )
            assert len(reached) < 40
        assert scaled.is_sparse == sparse
        assert not mask.all()
        operator, rows = reach(TRAINED_ROWS_CONFIG, scaled, mask)
        assert operator is scaled and len(rows) == len(mask)

        counts = trained_row_counts(monkeypatch)
        model, losses = train_masked(TRAINED_ROWS_CONFIG, scaled, x, labels, mask)
        ref_model, ref_losses = train_reference(TRAINED_ROWS_CONFIG, scaled, x, labels, mask)
        assert counts == [len(mask)] * TRAINED_ROWS_CONFIG.epochs
        assert losses == ref_losses
        for p, ref in zip(model.parameters(), ref_model.parameters()):
            assert_bits_equal(p, ref)
        probs, _ = predict_all(model, scaled, x)
        assert_bits_equal(probs, predict_reference(ref_model, scaled, x))

    def test_restricted_operator_products_equal_full_rows(self, rng):
        scaled, _, _, mask, reached = shuffled_components_case(300, 5, [4, 0], seed=2)
        sub = _principal_submatrix(scaled, reached)
        assert sub.kind == "scaled" and sub.n == len(reached)
        full = scaled.matrix
        # Each row keeps its stored entries, in their stored order.
        for i, row in enumerate(reached):
            lo, hi = full.indptr[row], full.indptr[row + 1]
            sub_lo, sub_hi = sub.matrix.indptr[i], sub.matrix.indptr[i + 1]
            assert_bits_equal(sub.matrix.data[sub_lo:sub_hi], full.data[lo:hi])
            np.testing.assert_array_equal(
                reached[sub.matrix.indices[sub_lo:sub_hi]], full.indices[lo:hi]
            )
        block = rng.standard_normal((300, 7))
        assert_bits_equal(sub.matrix @ block[reached], (full @ block)[reached])
        basis = chebyshev_basis(sub, block[reached], 3)
        for term, ref in zip(basis, chebyshev_basis(scaled, block, 3)):
            assert_bits_equal(term, ref[reached])


def cohort_case(graph):
    """(model, operator, x, subjects) of a 30-subject cohort with 1-3 scans
    each, the model trained 3 epochs on every other row: on the default
    SEX+SITE kernel graph ('dense'), on the longitudinal graph, one CSR
    component per subject ('csr'), or at cheb_order 0 with no graph."""
    features, records = generate_synthetic(
        SyntheticConfig(n_subjects=30, scans_per_subject=(1, 3), n_features=6, seed=1)
    )
    operator = None
    if graph != "order_zero":
        spec = GraphSpec(sim_mode="longitudinal", measures=("AGE", "SEX", "GENE"))
        operator = scaled_operator(
            build_graph(features, records, GraphSpec() if graph == "dense" else spec)
        )
        assert operator.is_sparse == (graph == "csr")
    config = GcnConfig(hidden_width=5, cheb_order=0 if operator is None else 3, epochs=3)
    x = features.values
    model, _ = train(config, operator, x, labels_array(records)[::2], np.arange(0, len(x), 2))
    return model, operator, x, np.array([r.subject_id for r in records])


class TestPredictReach:
    @pytest.mark.parametrize("graph", ["dense", "csr", "order_zero"])
    def test_scored_rows_equal_the_whole_graph_forward(self, graph):
        model, operator, x, subjects = cohort_case(graph)
        rows = np.arange(1, len(x), 4)  # spread over many subjects' components
        assert 1 < len(set(subjects[rows])) < len(set(subjects))
        _, e, e_sum = _softmax_terms(forward(model, operator, x))
        whole = e / e_sum[:, None]
        probs, preds = predict(model, operator, x, rows)
        assert_bits_equal(probs, whole[rows])
        np.testing.assert_array_equal(preds, np.argmax(whole[rows], axis=1))

    @pytest.mark.parametrize("graph", ["csr", "order_zero"])
    def test_rows_outside_the_reach_are_never_read(self, rng, graph):
        model, operator, x, subjects = cohort_case(graph)
        rows = np.arange(1, len(x), 4)
        mask = np.zeros(len(x), dtype=bool)
        mask[rows] = True
        _, reached = reach(model.config, operator, mask)
        if graph == "csr":  # the scans of the rows' subjects
            np.testing.assert_array_equal(reached, np.flatnonzero(np.isin(subjects, subjects[rows])))
        else:
            np.testing.assert_array_equal(reached, rows)
        outside = np.setdiff1d(np.arange(len(x)), reached)
        assert len(outside) > 0
        tampered = x.copy()
        tampered[outside] = rng.standard_normal((len(outside), x.shape[1])) * 50
        probs, preds = predict(model, operator, x, rows)
        tampered_probs, tampered_preds = predict(model, operator, tampered, rows)
        assert_bits_equal(tampered_probs, probs)
        np.testing.assert_array_equal(tampered_preds, preds)
