import numpy as np
import pytest
from reference_rfe import rfe_select_reference

from popgcn.errors import ContractError, ParameterError
from popgcn.gcn import GcnConfig, train
from popgcn.featsel import (
    FeatureSelector,
    SelectorConfig,
    _ae_loss_and_grads,
    _minmax_apply,
    _minmax_scale_params,
    pca_fit,
    rfe_select,
    ridge_fit,
)


class TestRidgeFit:
    def test_identity_interpolation_limit(self):
        x = np.eye(2)
        y = np.array([1.0, -1.0])
        w = ridge_fit(x, y, alpha=1e-10)
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-6)

    def test_strong_regularization_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 4))
        y = np.where(rng.random(20) > 0.5, 1.0, -1.0)
        w = ridge_fit(x, y, alpha=1e9)
        assert np.max(np.abs(w)) < 1e-6

    def test_normal_equations_residual(self, rng):
        # Verify by substitution on pre-centered data.
        x = rng.standard_normal((20, 5))
        x -= x.mean(axis=0)
        y = np.where(rng.random(20) > 0.5, 1.0, -1.0)
        y -= y.mean()
        alpha = 0.7
        w = ridge_fit(x, y, alpha)
        residual = (x.T @ x + alpha * np.eye(5)) @ w - x.T @ y
        assert np.linalg.norm(residual) < 1e-8

    def test_dual_path_matches_primal_solve(self, rng):
        # More features than rows: the dual system must give the same weights.
        x = rng.standard_normal((8, 30))
        y = np.array([1.0, -1.0] * 4)
        alpha = 0.3
        w = ridge_fit(x, y, alpha)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        oracle = np.linalg.solve(xc.T @ xc + alpha * np.eye(30), xc.T @ yc)
        np.testing.assert_allclose(w, oracle, atol=1e-10)

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            ridge_fit(np.eye(3), np.ones(3), alpha=1.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ParameterError):
            ridge_fit(np.eye(2), np.array([1.0, -1.0]), alpha=0.0)


class TestRfeSelect:
    def test_target_equals_c_is_noop(self):
        # Single-class labels would make ridge_fit raise, so reaching the
        # result proves no fitting iteration ran.
        x = np.random.default_rng(0).standard_normal((6, 5))
        y = np.ones(6)
        np.testing.assert_array_equal(rfe_select(x, y, target_c=5), np.arange(5))

    def test_informative_feature_survives(self, rng):
        # Feature 0 alone determines the label; the rest are noise. The
        # exhaustive single-feature oracle confirms 0 is the best predictor.
        n = 80
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        x = rng.standard_normal((n, 6))
        x[:, 0] = y * 2.0 + rng.standard_normal(n) * 0.05
        single_feature_acc = [
            max(np.mean(np.sign(x[:, j]) == y), np.mean(np.sign(-x[:, j]) == y))
            for j in range(6)
        ]
        assert int(np.argmax(single_feature_acc)) == 0
        assert rfe_select(x, y, target_c=1).tolist() == [0]

    def test_paper_scale_dimensions(self, rng):
        # 6105 -> 2000 features; rows are few so the dual ridge path is used.
        x = rng.standard_normal((40, 6105))
        y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        selected = rfe_select(x, y, target_c=2000)
        assert selected.shape == (2000,)
        assert len(np.unique(selected)) == 2000
        assert np.all(np.diff(selected) > 0)

    def test_last_step_clipped_to_target(self, rng):
        x = rng.standard_normal((30, 10))
        y = np.where(rng.random(30) > 0.5, 1.0, -1.0)
        selected = rfe_select(x, y, target_c=7, step_fraction=0.5)
        assert selected.shape == (7,)

    def test_column_permutation_equivariance(self, rng):
        x = rng.standard_normal((40, 8))
        y = np.where(x[:, 2] + 0.5 * x[:, 5] + 0.1 * rng.standard_normal(40) > 0, 1.0, -1.0)
        base = set(rfe_select(x, y, target_c=3).tolist())
        perm = rng.permutation(8)
        permuted = rfe_select(x[:, perm], y, target_c=3)
        assert {int(perm[j]) for j in permuted} == base

    def test_target_out_of_range(self, rng):
        x = rng.standard_normal((10, 4))
        y = np.array([1.0, -1.0] * 5)
        with pytest.raises(ParameterError):
            rfe_select(x, y, target_c=5)
        with pytest.raises(ParameterError):
            rfe_select(x, y, target_c=0)

    @pytest.mark.parametrize(
        "alpha, y, error",
        [
            (0.0, [1.0, -1.0] * 5, ParameterError),
            (1.0, [1.0] * 10, ContractError),
            (float("nan"), [1.0, -1.0] * 5, ParameterError),
        ],
    )
    def test_ridge_checks_run_before_the_first_round(self, rng, alpha, y, error):
        with pytest.raises(error):
            rfe_select(rng.standard_normal((10, 30)), np.array(y), target_c=29, alpha=alpha)

    def test_one_row_rejected(self):
        with pytest.raises(ContractError, match="at least 2 rows"):
            rfe_select(np.ones((1, 4)), np.array([1.0]), target_c=2)


def _signed_labels(rng, n):
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    y[:2] = [1.0, -1.0]  # both classes present
    return y


class TestRfeMatchesReference:
    """rfe_select downdates one Gram matrix; the reference refits every round.
    Both must keep the same columns."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_paper_shape(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 6105))
        y = _signed_labels(rng, 40)
        np.testing.assert_array_equal(
            rfe_select(x, y, 2000), rfe_select_reference(x, y, 2000)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "shape, target_c, step",
        [
            ((60, 300), 100, 0.1),
            ((60, 300), 100, 0.5),
            ((60, 300), 100, 1.0),
            ((60, 300), 1, 0.1),  # dual rounds, then ridge_fit rounds below 60
            ((120, 40), 5, 0.1),  # tall: ridge_fit rounds only
            ((120, 40), 1, 0.5),
            ((50, 50), 3, 0.2),
        ],
    )
    def test_seeded_shapes(self, seed, shape, target_c, step):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) * rng.uniform(0.5, 2.0, size=shape[1])
        y = _signed_labels(rng, shape[0])
        x[:, 3] += 0.5 * y  # one informative column
        np.testing.assert_array_equal(
            rfe_select(x, y, target_c, step, alpha=0.7),
            rfe_select_reference(x, y, target_c, step, alpha=0.7),
        )


class TestPca:
    def test_exact_subspace_reconstruction(self, rng):
        basis = np.linalg.qr(rng.standard_normal((7, 3)))[0][:, :3].T  # 3 x 7
        coeffs = rng.standard_normal((25, 3))
        x = coeffs @ basis
        info = pca_fit(x, target_c=3)
        recon = (x - info.mean) @ info.components.T @ info.components + info.mean
        assert np.max(np.abs(recon - x)) < 1e-8

    def test_projected_training_columns_uncorrelated(self, rng):
        x = rng.standard_normal((40, 6)) @ np.diag([3, 2, 1.5, 1, 0.5, 0.2])
        info = pca_fit(x, target_c=4)
        reduced = (x - info.mean) @ info.components.T
        cov = np.cov(reduced, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-8

    def test_training_mean_maps_to_zero(self, rng):
        x = rng.standard_normal((15, 5)) + 3.0
        info = pca_fit(x, target_c=3)
        reduced = (x.mean(axis=0, keepdims=True) - info.mean) @ info.components.T
        np.testing.assert_allclose(reduced, 0.0, atol=1e-10)

    def test_explained_variance_matches_eigensolver(self, rng):
        # Oracle: eigenvalues of the training covariance matrix.
        x = rng.standard_normal((50, 6)) @ np.diag([4, 2.5, 2, 1, 0.7, 0.1])
        info = pca_fit(x, target_c=4)
        xc = x - x.mean(axis=0)
        eigvals = np.sort(np.linalg.eigvalsh(xc.T @ xc))[::-1]
        oracle = eigvals[:4] / eigvals.sum()
        np.testing.assert_allclose(info.explained_variance_ratio, oracle, atol=1e-10)
        assert info.cumulative_explained == pytest.approx(oracle.sum(), abs=1e-10)

    def test_rank_deficient_components_zeroed_and_flagged(self, rng):
        rank2 = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6))
        info = pca_fit(rank2, target_c=5)
        assert info.rank == 2
        assert info.rank_deficient
        np.testing.assert_array_equal(info.components[2:], 0.0)

    def test_target_too_large(self, rng):
        x = rng.standard_normal((4, 10))
        with pytest.raises(ParameterError):
            pca_fit(x, target_c=5)  # > min(rows, C)


def separable(n=80, c=10, seed=0):
    rng = np.random.default_rng(seed)
    y = np.array([i % 2 for i in range(n)])
    direction = rng.standard_normal(c)
    direction /= np.linalg.norm(direction)
    x = rng.standard_normal((n, c)) * 0.4 + np.outer(2 * y - 1, direction) * 1.5
    return x, y


def mlp_codes(x_train, y_train, x_all, target_c, epochs, lr=1e-3):
    config = SelectorConfig(kind="mlp", target_c=target_c, mlp_epochs=epochs, mlp_lr=lr)
    return FeatureSelector(config).fit(x_train, y_train).transform(x_all)


def autoencoder_selector(x_train, target_c, epochs):
    config = SelectorConfig(kind="autoencoder", target_c=target_c, ae_epochs=epochs)
    return FeatureSelector(config).fit(x_train)


class TestMlpExtract:
    def test_output_shape(self):
        x, y = separable()
        out = mlp_codes(x[:60], y[:60], x, target_c=4, epochs=30)
        assert out.shape == (80, 4)

    def test_identical_rows_identical_activations(self):
        x, y = separable()
        x_all = np.vstack([x[0], x[0], x[1]])
        out = mlp_codes(x[:60], y[:60], x_all, target_c=3, epochs=10)
        np.testing.assert_array_equal(out[0], out[1])

    def test_downstream_ridge_accuracy(self):
        from popgcn.baselines import ridge_classify

        x, y = separable(seed=3)
        extracted = mlp_codes(x[:60], y[:60], x, target_c=5, epochs=120, lr=5e-3)
        preds, _ = ridge_classify(extracted[:60], y[:60], extracted[60:])
        assert np.mean(preds == y[60:]) >= 0.9

    def test_codes_are_hidden_layer_of_order_zero_gcn(self):
        x, y = separable(seed=2)
        config = SelectorConfig(kind="mlp", target_c=4, mlp_epochs=40, mlp_lr=2e-3, seed=7)
        sel = FeatureSelector(config).fit(x[:60], y[:60])
        net = GcnConfig(
            hidden_layers=1,
            hidden_width=4,
            cheb_order=0,
            dropout_rate=0.0,
            l2_coeff=0.0,
            learning_rate=2e-3,
            epochs=40,
            seed=7,
        )
        model, losses = train(net, None, x, y[:60], np.arange(60))
        hidden = model.layers[0]
        expected = np.maximum(x @ hidden.weight[0] + hidden.bias, 0.0)
        np.testing.assert_array_equal(sel.transform(x), expected)
        assert sel.diagnostics["loss_history"] == losses


class TestAutoencoder:
    def test_documented_training_defaults(self):
        config = SelectorConfig()
        assert config.ae_epochs == 100
        assert config.ae_lr == 5e-4

    def test_codes_in_unit_interval(self, rng):
        x = rng.standard_normal((30, 8))
        codes = autoencoder_selector(x[:20], target_c=4, epochs=20).transform(x)
        assert codes.shape == (30, 4)
        assert np.all(codes > 0.0)
        assert np.all(codes < 1.0)

    def test_reconstruction_improves_on_low_rank_data(self, rng):
        low_rank = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 10))
        sel = autoencoder_selector(low_rank[:40], target_c=3, epochs=80)
        history = sel.diagnostics["loss_history"]
        assert history[-1] < history[0]

    def test_degenerate_feature_flagged_and_zeroed(self, rng):
        x = rng.standard_normal((20, 5))
        x[:, 2] = 7.0  # constant on the training rows
        sel = autoencoder_selector(x[:15], target_c=3, epochs=5)
        codes = sel.transform(x)
        assert sel.diagnostics["degenerate_features"] == [2]
        assert np.all(np.isfinite(codes))
        lo, span, degenerate = _minmax_scale_params(x[:15])
        scaled = _minmax_apply(x.copy(), lo, span, degenerate)
        np.testing.assert_array_equal(scaled[:, 2], 0.0)

    def test_gradients_match_finite_differences(self, rng):
        xs = np.tanh(rng.standard_normal((10, 6)))  # already in (-1, 1)
        w = rng.standard_normal((6, 3)) * 0.4
        b_enc = rng.standard_normal(3) * 0.1
        b_dec = rng.standard_normal(6) * 0.1
        _, grads = _ae_loss_and_grads(xs, w, b_enc, b_dec, np.empty(6 * 3 + 3 + 6))
        scratch = np.empty(6 * 3 + 3 + 6)  # the difference quotients' gradients
        params = [w, b_enc, b_dec]
        h = 1e-6
        for p, g in zip(params, grads):
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = _ae_loss_and_grads(xs, w, b_enc, b_dec, scratch)[0]
                p[idx] = orig - h
                down = _ae_loss_and_grads(xs, w, b_enc, b_dec, scratch)[0]
                p[idx] = orig
                fd[idx] = (up - down) / (2 * h)
                it.iternext()
            np.testing.assert_allclose(g, fd, atol=1e-8)


class TestFeatureSelectorClass:
    @pytest.mark.parametrize("kind", ["none", "rfe", "pca", "mlp", "autoencoder"])
    def test_fit_uses_training_rows_only(self, kind, rng):
        x, y = separable(n=60, c=8, seed=1)
        train_rows = np.arange(40)
        config = SelectorConfig(kind=kind, target_c=3, mlp_epochs=10, ae_epochs=10)
        sel_a = FeatureSelector(config).fit(x[train_rows], y[train_rows])
        noisy = x.copy()
        noisy[40:] = rng.standard_normal((20, 8)) * 100  # trash non-training rows
        sel_b = FeatureSelector(config).fit(noisy[train_rows], y[train_rows])
        assert sel_a.transform(x).tobytes() == sel_b.transform(x).tobytes()

    @pytest.mark.parametrize("rows", ["all", "mask", "index"])
    @pytest.mark.parametrize("kind", ["none", "rfe", "pca", "mlp", "autoencoder"])
    def test_fit_writes_no_input(self, kind, rows):
        # RFE and PCA centre a copy of the training rows in place; the
        # caller's matrix and labels stay as they were.
        x, y = separable(n=40, c=30)
        picked = {"all": None, "mask": np.arange(40) % 4 != 0, "index": np.arange(5, 35)}[rows]
        y_train = y if picked is None else y[picked]
        x_before, y_before = x.copy(), y_train.copy()
        config = SelectorConfig(kind=kind, target_c=3, mlp_epochs=3, ae_epochs=3)
        FeatureSelector(config).fit(x, y_train, rows=picked)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(y_train, y_before)

    @pytest.mark.parametrize("c", [8, 60])  # 8: primal rounds only; 60: dual rounds first
    def test_rfe_select_and_pca_fit_write_no_input(self, c):
        x, y = separable(n=40, c=c)
        y_signed = 2.0 * y - 1.0
        mask = np.arange(40) % 4 != 0
        x_before = x.copy()
        rfe_select(x, y_signed, target_c=3)
        rfe_select(x, y_signed[mask], target_c=3, rows=mask)
        pca_fit(x, target_c=3)
        pca_fit(x, target_c=3, rows=mask)
        np.testing.assert_array_equal(x, x_before)

    @pytest.mark.parametrize("kind", ["rfe", "pca", "mlp", "autoencoder"])
    def test_fit_on_rows_equals_fit_on_their_copy(self, kind):
        x, y = separable(n=60, c=70)  # more columns than rows: RFE's dual rounds
        mask = np.arange(60) % 3 != 0
        config = SelectorConfig(kind=kind, target_c=20, mlp_epochs=3, ae_epochs=3)
        copied = FeatureSelector(config).fit(x[mask], y[mask]).transform(x)
        for rows in (mask, np.flatnonzero(mask)):
            fitted = FeatureSelector(config).fit(x, y[mask], rows=rows).transform(x)
            assert fitted.tobytes() == copied.tobytes()

    @pytest.mark.parametrize("kind", ["rfe", "pca", "mlp", "autoencoder"])
    def test_transform_shape(self, kind):
        x, y = separable(n=50, c=8)
        config = SelectorConfig(kind=kind, target_c=3, mlp_epochs=5, ae_epochs=5)
        sel = FeatureSelector(config).fit(x[:35], y[:35])
        assert sel.transform(x).shape == (50, 3)

    def test_rfe_transform_rows_are_c_ordered(self, rng):
        # x[:, idx] would be Fortran-ordered; training reads the rows.
        x = rng.standard_normal((40, 12))
        y = np.arange(40) % 2
        sel = FeatureSelector(SelectorConfig(kind="rfe", target_c=5)).fit(x[:30], y[:30])
        out = sel.transform(x)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, x[:, sel.diagnostics["selected_indices"]])

    def test_pca_reports_explained_variance(self, rng):
        x = rng.standard_normal((30, 6)) @ np.diag([3, 2, 1.5, 1, 0.5, 0.2])
        sel = FeatureSelector(SelectorConfig(kind="pca", target_c=4)).fit(x[:20])
        np.testing.assert_array_equal(
            sel.diagnostics["explained_variance_ratio"],
            pca_fit(x[:20], target_c=4).explained_variance_ratio,
        )

    def test_none_kind_is_identity(self):
        x, y = separable(n=20, c=4)
        sel = FeatureSelector(SelectorConfig(kind="none")).fit(x[:10], y[:10])
        np.testing.assert_array_equal(sel.transform(x), x)

    def test_transform_before_fit_rejected(self):
        sel = FeatureSelector(SelectorConfig(kind="rfe", target_c=2))
        with pytest.raises(ContractError):
            sel.transform(np.ones((3, 4)))
