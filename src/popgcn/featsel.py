"""Dimensionality-reduction front-ends fitted on training rows only.

Four strategies: recursive feature elimination driven by a closed-form ridge
classifier, PCA by SVD, the hidden layer of a small supervised MLP, and a
tied-weight autoencoder (sigmoid code, tanh reconstruction, MSE loss).
FeatureSelector.fit fits each in one branch, which builds its transform.

The MLP is the graph network of `gcn` at Chebyshev order 0 (one dense ReLU
layer of target_c units, softmax output), trained by `gcn.train` without
dropout or weight penalty; its codes are the hidden activations. The
autoencoder's tied weights do not fit that layer stack, so it keeps its own
loss and gradients and steps with `gcn.adam_update`: its w, b_enc and b_dec
are views into one parameter vector, and each epoch writes their gradients
into views of one gradient vector, so Adam makes one pass per term over all
three.

An autoencoder fit builds its parameter, gradient and moment vectors once.
Each epoch recomputes the codes, the reconstruction, the loss and the
gradients, in place: the bias adds, tanh, the squares and the chain of
output and code gradients overwrite the arrays they read, so an epoch makes
three rows x features arrays (the reconstruction, the difference and the
output gradient) where the allocating formulas made nine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gcn
from .errors import ContractError, DivergenceError, ParameterError, check_above, check_at_least


def _check_ridge_inputs(x: np.ndarray, y: np.ndarray, alpha: float):
    check_above("alpha", alpha, 0)
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


def _centred_rows(x, rows) -> tuple[np.ndarray, np.ndarray]:
    """A float64 copy of the rows `rows` of x (a boolean mask or an index
    array; every row, in x's memory order, when None), centred in place, and
    its column means. x itself is never written."""
    x = np.asarray(x, dtype=np.float64)
    xc = x.copy(order="K") if rows is None else x[rows]
    mean = xc.mean(axis=0)
    xc -= mean
    return xc, mean


def rfe_select(
    x, y_train, target_c: int, step_fraction: float = 0.1, alpha: float = 1.0, rows=None
) -> np.ndarray:
    """Recursive feature elimination: repeatedly drop the features with the
    smallest |ridge coefficient| until exactly target_c remain.

    The training rows are the rows `rows` of x (a boolean mask or an index
    array; every row when None), and y_train holds their labels. Each round
    removes ceil(step_fraction * current_C) features, clipped so the last
    round lands exactly on target_c. Returns sorted original column indices.

    The weights are ridge_fit's on the active columns, computed with one Gram
    matrix per call. The training rows are copied and centred once, in
    place, and G = Xc Xc^T (n x n) is formed once. While more columns than
    rows are active, a round solves the dual system (G + alpha I) a = yc,
    scores the active columns by |Xc^T a|, and subtracts the dropped columns'
    outer product from G. Once no more columns than rows remain, rounds call
    ridge_fit on the active columns of the training rows, taken from x, which
    solves the primal system. ridge_fit's input checks run before the first
    round, and only if a round runs.
    """
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[1]
    if not 1 <= target_c <= c:
        raise ParameterError(f"target_c must be in [1, {c}], got {target_c}")
    if not 0 < step_fraction <= 1:
        raise ParameterError(f"step_fraction must be in (0, 1], got {step_fraction}")
    active = np.arange(c)
    if target_c == c:
        return active
    xc, _ = _centred_rows(x, rows)
    y = np.asarray(y_train, dtype=np.float64)
    _check_ridge_inputs(xc, y, alpha)
    n = xc.shape[0]
    yc = y - y.mean()
    gram = xc @ xc.T if c > n else None
    while len(active) > target_c:
        n_drop = min(math.ceil(step_fraction * len(active)), len(active) - target_c)
        if len(active) > n:
            system = gram.copy()
            system[np.diag_indices(n)] += alpha
            w = (xc.T @ np.linalg.solve(system, yc))[active]
        else:
            # The uncentred active columns, laid out column-major as
            # x[rows][:, active] is: ridge_fit's sums depend on the layout.
            cols = x[:, active] if rows is None else np.asfortranarray(x[np.ix_(rows, active)])
            w = ridge_fit(cols, y, alpha)
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


def pca_fit(x, target_c: int, rows=None) -> PcaInfo:
    """The top target_c principal directions of the training rows, the rows
    `rows` of x (a boolean mask or an index array; every row when None),
    mean-centered, singular values descending; a row x projects to
    (x - mean) @ components.T. The rows are copied and centred once, in
    place.

    Components beyond the training-data rank are zero vectors and
    rank_deficient is flagged.
    """
    centered, mean = _centred_rows(x, rows)
    n, c = centered.shape
    if not 1 <= target_c <= min(n, c):
        raise ParameterError(f"target_c must be in [1, {min(n, c)}], got {target_c}")
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
    return PcaInfo(
        mean=mean,
        components=components,
        explained_variance_ratio=ratios,
        cumulative_explained=float(ratios.sum()),
        rank=rank,
        rank_deficient=rank_deficient,
    )


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
    exp never overflows; both branches share e = exp(-|z|).

    The numerator is max(e, z >= 0): 1 where z >= 0, as e <= 1, and e
    elsewhere, NaN included. Unlike np.where it runs at one speed whatever
    the mix of signs.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    return out


def _ae_loss_and_grads(xs, w, b_enc, b_dec, out):
    """MSE loss of the tied-weight autoencoder and its exact gradients.

    The gradients (dw, db_enc, db_dec) are views into `out`, a vector laid
    out as w, b_enc, b_dec. Each step runs in place, in the operation order
    of the allocating formulas that tests/reference_epoch.py keeps, so the
    results equal theirs bit for bit.
    """
    dw, db_enc, db_dec = gcn.flat_views(out, [w.shape, b_enc.shape, b_dec.shape])
    z1 = xs @ w
    z1 += b_enc
    h = _sigmoid(z1)
    recon = h @ w.T
    recon += b_dec
    np.tanh(recon, out=recon)
    diff = recon - xs
    dz2 = np.square(diff)
    loss = float(np.mean(dz2))
    # dz2 = (2 / size) diff (1 - recon^2)
    np.multiply(diff, 2.0 / diff.size, out=dz2)
    np.square(recon, out=recon)
    np.subtract(1.0, recon, out=recon)
    dz2 *= recon
    dz2.sum(axis=0, out=db_dec)
    # dz1 = (dz2 w) h (1 - h), with 1 - h in z1's place
    dz1 = dz2 @ w
    dz1 *= h
    np.subtract(1.0, h, out=z1)
    dz1 *= z1
    dz1.sum(axis=0, out=db_enc)
    np.matmul(xs.T, dz1, out=dw)  # encoder contribution
    dw += dz2.T @ h  # tied decoder contribution
    return loss, (dw, db_enc, db_dec)


def _fit_autoencoder(xs, width, epochs, lr, seed):
    c = xs.shape[1]
    rng = np.random.default_rng(seed)
    params = np.zeros(c * width + width + c)
    w, b_enc, b_dec = gcn.flat_views(params, [(c, width), (width,), (c,)])
    limit = np.sqrt(6.0 / (c + width))  # Glorot-uniform
    w[...] = rng.uniform(-limit, limit, size=(c, width))  # tied: decoder uses w.T
    grad = np.empty_like(params)
    moment1 = np.zeros_like(params)
    moment2 = np.zeros_like(params)
    history = []
    for epoch in range(epochs):
        loss, _ = _ae_loss_and_grads(xs, w, b_enc, b_dec, out=grad)
        if not np.isfinite(loss):
            raise DivergenceError(f"autoencoder diverged at epoch {epoch}", epoch=epoch)
        history.append(loss)
        gcn.adam_update(params, grad, moment1, moment2, epoch + 1, lr)
    return w, b_enc, b_dec, history


SELECTOR_KINDS = ("none", "rfe", "pca", "mlp", "autoencoder")


@dataclass(frozen=True)
class SelectorConfig:
    """Feature selector settings, checked when constructed (and by replace)
    whatever the kind, the bounds by the errors checks, NaN failing."""

    kind: str = "none"
    target_c: int = 0  # ignored for kind 'none'
    ridge_alpha: float = 1.0
    rfe_step_fraction: float = 0.1
    mlp_epochs: int = 100
    mlp_lr: float = 1e-3
    ae_epochs: int = 100
    ae_lr: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SELECTOR_KINDS:
            raise ParameterError(f"unknown selector kind {self.kind!r}")
        if self.kind != "none" and self.target_c < 1:
            raise ParameterError("target_c must be >= 1 for fitted selectors")
        check_above("ridge_alpha", self.ridge_alpha, 0, finite=True)
        if not 0 < self.rfe_step_fraction <= 1:
            raise ParameterError(
                f"rfe_step_fraction must be in (0, 1], got {self.rfe_step_fraction}"
            )
        check_at_least("mlp_epochs", self.mlp_epochs, 0)
        check_at_least("ae_epochs", self.ae_epochs, 0)
        check_above("mlp_lr", self.mlp_lr, 0, finite=True)
        check_above("ae_lr", self.ae_lr, 0, finite=True)
        check_at_least("seed", self.seed, 0)


class FeatureSelector:
    """Fit on training rows, transform any rows. fit branches on config.kind
    once, and each kind's branch keeps the function that transform applies.
    `diagnostics` reports the fit: RFE's kept columns (selected_indices), PCA's
    explained_variance_ratio, the MLP's and the autoencoder's loss_history, and
    the autoencoder's degenerate_features (its constant training columns)."""

    def __init__(self, config: SelectorConfig):
        self.config = config
        self.diagnostics: dict = {}
        self._apply = None

    def fit(self, x, y_train=None, rows=None):
        """Fit on the training rows, the rows `rows` of x (a boolean mask or
        a sorted index array; every row when None); y_train holds their
        labels. RFE and PCA copy those rows once and centre the copy, and the
        MLP passes their indices to gcn.train; no kind writes x."""
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        if cfg.kind in ("rfe", "mlp") and y_train is None:
            raise ContractError(f"selector kind {cfg.kind!r} needs training labels")
        if cfg.kind == "none":
            self._apply = lambda x: x
        elif cfg.kind == "rfe":
            y_signed = 2.0 * np.asarray(y_train, dtype=np.float64) - 1.0
            kept = rfe_select(
                x, y_signed, cfg.target_c, cfg.rfe_step_fraction, cfg.ridge_alpha, rows
            )
            self.diagnostics["selected_indices"] = kept
            self._apply = lambda x: x.take(kept, axis=1)
        elif cfg.kind == "pca":
            info = pca_fit(x, cfg.target_c, rows)
            self.diagnostics["explained_variance_ratio"] = info.explained_variance_ratio
            self._apply = lambda x: (x - info.mean) @ info.components.T
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
            every = np.arange(len(x))
            model, losses = gcn.train(net, None, x, y, every if rows is None else every[rows])
            w1, b1 = model.layers[0].weight[0], model.layers[0].bias
            self._apply = lambda x: np.maximum(x @ w1 + b1, 0.0)
            self.diagnostics["loss_history"] = losses
        else:  # autoencoder
            x_train = x if rows is None else x[rows]
            lo, span, degenerate = _minmax_scale_params(x_train)
            xs = _minmax_apply(x_train, lo, span, degenerate)
            w, b_enc, _, history = _fit_autoencoder(
                xs, cfg.target_c, cfg.ae_epochs, cfg.ae_lr, cfg.seed
            )
            self._apply = lambda x: _sigmoid(_minmax_apply(x, lo, span, degenerate) @ w + b_enc)
            self.diagnostics["loss_history"] = history
            self.diagnostics["degenerate_features"] = np.flatnonzero(degenerate).tolist()
        return self

    def transform(self, x):
        """Rows of x reduced by the fitted selector, as a new C-ordered array
        (RFE's kept features contiguous per row); kind 'none' returns x as is."""
        if self._apply is None:
            raise ContractError("selector must be fitted before transform")
        return self._apply(np.asarray(x, dtype=np.float64))
