"""Dimensionality-reduction front-ends fitted on training rows only.

Four strategies: recursive feature elimination driven by a closed-form ridge
classifier, PCA by SVD, the hidden layer of a small supervised MLP, and a
tied-weight autoencoder (sigmoid code, tanh reconstruction, MSE loss).

The MLP is the graph network of `gcn` at Chebyshev order 0 (one dense ReLU
layer of target_c units, softmax output), trained by `gcn.train` without
dropout or weight penalty; its codes are the hidden activations. The
autoencoder's tied weights do not fit that layer stack, so it keeps its own
loss and gradients and steps with `gcn.adam_update`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gcn
from .errors import ContractError, DivergenceError, ParameterError


def _check_ridge_inputs(x: np.ndarray, y: np.ndarray, alpha: float):
    if alpha <= 0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    if x.ndim != 2 or x.shape[0] < 2:
        raise ContractError("need a 2-D matrix with at least 2 rows")
    if len(np.unique(y)) < 2:
        raise ContractError("both classes must be present")


def ridge_fit(x, y, alpha: float):
    """Ridge weights by direct solve on mean-centered data.

    Solves (Xc^T Xc + alpha I) w = Xc^T yc exactly, switching to the
    equivalent dual system when there are more features than rows. Labels are
    +/-1; the decision for a new row is the sign of (row - train mean) . w
    plus the label mean.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_ridge_inputs(x, y, alpha)
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    n, c = x.shape
    if c <= n:
        gram = xc.T @ xc
        gram[np.diag_indices(c)] += alpha
        return np.linalg.solve(gram, xc.T @ yc)
    outer = xc @ xc.T
    outer[np.diag_indices(n)] += alpha
    return xc.T @ np.linalg.solve(outer, yc)


def rfe_select(
    x_train, y_train, target_c: int, step_fraction: float = 0.1, alpha: float = 1.0
) -> np.ndarray:
    """Recursive feature elimination: repeatedly drop the features with the
    smallest |ridge coefficient| until exactly target_c remain.

    Each round removes ceil(step_fraction * current_C) features, clipped so
    the last round lands exactly on target_c. Returns sorted original column
    indices.

    The weights are ridge_fit's on the active columns, computed with one Gram
    matrix per call. The training rows are centred once, and G = Xc Xc^T
    (n x n) is formed once. While more columns than rows are active, a round
    solves the dual system (G + alpha I) a = yc, scores the active columns by
    |Xc^T a|, and subtracts the dropped columns' outer product from G. Once
    no more columns than rows remain, rounds call ridge_fit on the active
    columns, which solves the primal system. ridge_fit's input checks run
    before the first round, and only if a round runs.
    """
    x = np.asarray(x_train, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.float64)
    c = x.shape[1]
    if not 1 <= target_c <= c:
        raise ParameterError(f"target_c must be in [1, {c}], got {target_c}")
    if not 0 < step_fraction <= 1:
        raise ParameterError(f"step_fraction must be in (0, 1], got {step_fraction}")
    active = np.arange(c)
    if target_c == c:
        return active
    _check_ridge_inputs(x, y, alpha)
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    gram = xc @ xc.T if c > n else None
    while len(active) > target_c:
        n_drop = min(math.ceil(step_fraction * len(active)), len(active) - target_c)
        if len(active) > n:
            system = gram.copy()
            system[np.diag_indices(n)] += alpha
            w = (xc.T @ np.linalg.solve(system, yc))[active]
        else:
            w = ridge_fit(x[:, active], y, alpha)
        dropped = np.argsort(np.abs(w), kind="stable")[:n_drop]
        if len(active) - n_drop > max(n, target_c):  # another dual round follows
            cols = xc[:, active[dropped]]
            gram -= cols @ cols.T
        active = np.delete(active, dropped)
    return np.sort(active)


@dataclass
class PcaInfo:
    mean: np.ndarray
    components: np.ndarray  # (target_c, C); rows beyond rank are zero
    explained_variance_ratio: np.ndarray  # per kept component
    cumulative_explained: float
    rank: int
    rank_deficient: bool


def pca_fit_transform(x_train, x_all, target_c: int):
    """Project all rows onto the top target_c principal directions of the
    training rows (mean-centered, singular values descending).

    Returns (reduced, PcaInfo); components beyond the training-data rank are
    zero vectors and rank_deficient is flagged.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    x_all = np.asarray(x_all, dtype=np.float64)
    n, c = x_train.shape
    if not 1 <= target_c <= min(n, c):
        raise ParameterError(f"target_c must be in [1, {min(n, c)}], got {target_c}")
    mean = x_train.mean(axis=0)
    centered = x_train - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    # Deterministic sign: largest-|entry| coordinate of each component positive.
    for i in range(vt.shape[0]):
        j = int(np.argmax(np.abs(vt[i])))
        if vt[i, j] < 0:
            vt[i] = -vt[i]
    rank = int(np.sum(s > (s[0] * 1e-12 if s.size and s[0] > 0 else 0.0)))
    components = vt[:target_c].copy()
    rank_deficient = target_c > rank
    if rank_deficient:
        components[rank:] = 0.0
    total_var = float((s**2).sum())
    ratios = (s[:target_c] ** 2 / total_var) if total_var > 0 else np.zeros(target_c)
    if rank_deficient:
        ratios = np.concatenate([ratios[:rank], np.zeros(target_c - rank)])
    info = PcaInfo(
        mean=mean,
        components=components,
        explained_variance_ratio=ratios,
        cumulative_explained=float(ratios.sum()),
        rank=rank,
        rank_deficient=rank_deficient,
    )
    return (x_all - mean) @ components.T, info


def _minmax_scale_params(x_train):
    lo = x_train.min(axis=0)
    hi = x_train.max(axis=0)
    span = hi - lo
    degenerate = span == 0.0
    span = np.where(degenerate, 1.0, span)
    return lo, span, degenerate


def _minmax_apply(x, lo, span, degenerate):
    scaled = 2.0 * (x - lo) / span - 1.0
    scaled[:, degenerate] = 0.0  # constant training feature carries no signal
    return scaled


def _sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) otherwise, so
    exp never overflows; both branches share e = exp(-|z|)."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _ae_loss_and_grads(xs, w, b_enc, b_dec):
    """MSE loss of the tied-weight autoencoder and its exact gradients."""
    z1 = xs @ w + b_enc
    h = _sigmoid(z1)
    z2 = h @ w.T + b_dec
    recon = np.tanh(z2)
    diff = recon - xs
    loss = float(np.mean(diff**2))
    dz2 = (2.0 / diff.size) * diff * (1.0 - recon**2)
    db_dec = dz2.sum(axis=0)
    dz1 = (dz2 @ w) * h * (1.0 - h)
    db_enc = dz1.sum(axis=0)
    dw = xs.T @ dz1 + dz2.T @ h  # encoder + tied decoder contributions
    return loss, (dw, db_enc, db_dec)


def _fit_autoencoder(xs, width, epochs, lr, seed):
    c = xs.shape[1]
    rng = np.random.default_rng(seed)
    limit = np.sqrt(6.0 / (c + width))  # Glorot-uniform
    w = rng.uniform(-limit, limit, size=(c, width))  # tied: decoder uses w.T
    b_enc = np.zeros(width)
    b_dec = np.zeros(c)
    params = [w, b_enc, b_dec]
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    history = []
    for epoch in range(epochs):
        loss, grads = _ae_loss_and_grads(xs, w, b_enc, b_dec)
        if not np.isfinite(loss):
            raise DivergenceError(f"autoencoder diverged at epoch {epoch}", epoch=epoch)
        history.append(loss)
        gcn.adam_update(params, grads, moment1, moment2, epoch + 1, lr)
    return w, b_enc, b_dec, history


SELECTOR_KINDS = ("none", "rfe", "pca", "mlp", "autoencoder")


@dataclass(frozen=True)
class SelectorConfig:
    kind: str = "none"
    target_c: int = 0  # ignored for kind 'none'
    ridge_alpha: float = 1.0
    rfe_step_fraction: float = 0.1
    mlp_epochs: int = 100
    mlp_lr: float = 1e-3
    ae_epochs: int = 100
    ae_lr: float = 5e-4
    seed: int = 0

    def validate(self):
        if self.kind not in SELECTOR_KINDS:
            raise ParameterError(f"unknown selector kind {self.kind!r}")
        if self.kind != "none" and self.target_c < 1:
            raise ParameterError("target_c must be >= 1 for fitted selectors")


class FeatureSelector:
    """Fit on training rows, transform any rows; fitted state is serializable."""

    def __init__(self, config: SelectorConfig):
        config.validate()
        self.config = config
        self.fitted = False
        self.selected_indices = None
        self.pca_info: PcaInfo | None = None
        self.weights: dict | None = None
        self.scale: tuple | None = None
        self.diagnostics: dict = {}

    def fit(self, x_train, y_train=None):
        cfg = self.config
        x_train = np.asarray(x_train, dtype=np.float64)
        if cfg.kind in ("rfe", "mlp") and y_train is None:
            raise ContractError(f"selector kind {cfg.kind!r} needs training labels")
        if cfg.kind == "none":
            pass
        elif cfg.kind == "rfe":
            y_signed = 2.0 * np.asarray(y_train, dtype=np.float64) - 1.0
            self.selected_indices = rfe_select(
                x_train, y_signed, cfg.target_c, cfg.rfe_step_fraction, cfg.ridge_alpha
            )
        elif cfg.kind == "pca":
            _, self.pca_info = pca_fit_transform(x_train, x_train, cfg.target_c)
        elif cfg.kind == "mlp":
            y = np.asarray(y_train, dtype=np.int64)
            if len(np.unique(y)) < 2:
                raise ContractError("both classes must be present")
            net = gcn.GcnConfig(
                hidden_layers=1,
                hidden_width=cfg.target_c,
                cheb_order=0,
                dropout_rate=0.0,
                l2_coeff=0.0,
                learning_rate=cfg.mlp_lr,
                epochs=cfg.mlp_epochs,
                seed=cfg.seed,
            )
            model, history = gcn.train(net, None, x_train, y, np.ones(len(y), dtype=bool))
            hidden = model.layers[0]
            self.weights = {"w1": hidden.weight[0], "b1": hidden.bias}
            self.diagnostics["loss_history"] = [entry["loss"] for entry in history]
        else:  # autoencoder
            lo, span, degenerate = _minmax_scale_params(x_train)
            xs = _minmax_apply(x_train, lo, span, degenerate)
            w, b_enc, _, history = _fit_autoencoder(
                xs, cfg.target_c, cfg.ae_epochs, cfg.ae_lr, cfg.seed
            )
            self.weights = {"w": w, "b_enc": b_enc}
            self.scale = (lo, span, degenerate)
            self.diagnostics["loss_history"] = history
            self.diagnostics["degenerate_features"] = np.flatnonzero(degenerate).tolist()
        self.fitted = True
        return self

    def transform(self, x):
        """Reduce the rows of x with the fitted selector.

        The result is a new C-ordered (row-major) array, except for kind
        'none', which returns x as given. RFE gathers the selected columns
        row by row (x.take), so each row's kept features lie contiguous.
        """
        if not self.fitted:
            raise ContractError("selector must be fitted before transform")
        x = np.asarray(x, dtype=np.float64)
        kind = self.config.kind
        if kind == "none":
            return x
        if kind == "rfe":
            return x.take(self.selected_indices, axis=1)
        if kind == "pca":
            return (x - self.pca_info.mean) @ self.pca_info.components.T
        if kind == "mlp":
            return np.maximum(x @ self.weights["w1"] + self.weights["b1"], 0.0)
        lo, span, degenerate = self.scale
        xs = _minmax_apply(x, lo, span, degenerate)
        return _sigmoid(xs @ self.weights["w"] + self.weights["b_enc"])
