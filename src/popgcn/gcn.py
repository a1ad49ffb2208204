"""Graph convolutional network over Chebyshev filter bases.

Architecture: L hidden layers (dropout on the layer input at train time, then
a Chebyshev graph convolution, then ReLU) followed by one output convolution
producing logits. The loss is softmax cross-entropy averaged over masked
(labeled training) nodes plus an L2 penalty on weights; unmasked nodes carry
features into the convolutions but never touch the loss. Gradients are exact
and hand-derived; the optimizer is Adam. Everything is float64 numpy.

At cheb_order 0 the convolutions are plain dense layers and no operator is
needed; this is the one dense network of the package, shared by the MLP
baseline and the MLP feature selector (adam_update also steps the
autoencoder selector).

A convolution sum_k T_k(Ls) H W_k applies the N x N operator on the narrower
side of its layer: to the C_in columns of H, or, when C_out < C_in, to the
C_out columns of each H W_k. Both orders give the same function.

A training epoch applies dropout, the bias, the softmax terms, the backward
masks and the Adam update in place rather than into fresh temporaries, in
the operation order of the allocating formulas that tests/reference_epoch.py
keeps, so its results equal theirs bit for bit. One exp pass over the
masked logits serves both the loss and its gradient.
The epoch's elementwise steps walk the feature matrix row by row: callers
pass it C-ordered, as every `featsel` transform returns it. A
Fortran-ordered matrix is accepted, but each elementwise step on it runs
about 2-3 times slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DivergenceError, ParameterError
from .popgraph import PopulationGraph
from .spectral import (
    ChebyshevBasis,
    LaplacianMatrix,
    chebyshev_basis,
    chebyshev_weighted_sum,
    estimate_lambda_max,
    normalized_laplacian,
    scale_laplacian,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class GcnConfig:
    n_classes: int = 2
    hidden_layers: int = 1  # L
    hidden_width: int | None = None  # None -> input feature count
    cheb_order: int = 3  # K
    dropout_rate: float = 0.3
    l2_coeff: float = 5e-4
    learning_rate: float = 0.005
    epochs: int = 150
    seed: int = 0
    use_bias: bool = True

    def validate(self):
        if self.n_classes < 2:
            raise ParameterError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.hidden_layers < 0:
            raise ParameterError(f"hidden_layers must be >= 0, got {self.hidden_layers}")
        if self.hidden_width is not None and self.hidden_width < 1:
            raise ParameterError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if self.cheb_order < 0:
            raise ParameterError(f"cheb_order must be >= 0, got {self.cheb_order}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.l2_coeff < 0:
            raise ParameterError(f"l2_coeff must be >= 0, got {self.l2_coeff}")
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class Layer:
    weight: np.ndarray  # (K+1, C_in, C_out)
    bias: np.ndarray  # (C_out,)


@dataclass
class GcnModel:
    config: GcnConfig
    layers: list[Layer]
    step: int = 0
    moment1: list[np.ndarray] = field(default_factory=list)
    moment2: list[np.ndarray] = field(default_factory=list)

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out


def init_model(config: GcnConfig, n_features: int, rng=None) -> GcnModel:
    """Glorot-uniform weights over fan_in = C_in * (K+1), zero biases."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    width = config.hidden_width if config.hidden_width is not None else n_features
    sizes = [n_features] + [width] * config.hidden_layers + [config.n_classes]
    k1 = config.cheb_order + 1
    layers = []
    for c_in, c_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (c_in * k1 + c_out))
        weight = rng.uniform(-limit, limit, size=(k1, c_in, c_out))
        layers.append(Layer(weight=weight, bias=np.zeros(c_out)))
    model = GcnModel(config=config, layers=layers)
    model.moment1 = [np.zeros_like(p) for p in model.parameters()]
    model.moment2 = [np.zeros_like(p) for p in model.parameters()]
    return model


def cheb_conv_forward(basis, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """out[n, j] = sum_k sum_i basis[k][n, i] * weight[k, i, j] (+ bias[j])."""
    terms = basis.terms if isinstance(basis, ChebyshevBasis) else list(basis)
    if len(terms) != weight.shape[0]:
        raise ContractError(
            f"basis has {len(terms)} orders, weight expects {weight.shape[0]}"
        )
    if terms[0].shape[1] != weight.shape[1]:
        raise ContractError(
            f"basis feature dim {terms[0].shape[1]} != weight C_in {weight.shape[1]}"
        )
    out = terms[0] @ weight[0]
    for k in range(1, len(terms)):
        out += terms[k] @ weight[k]
    if bias is not None:
        out += bias
    return out


def scaled_operator(graph: PopulationGraph) -> LaplacianMatrix:
    """Normalized Laplacian rescaled to the Chebyshev domain for this graph."""
    lap = normalized_laplacian(graph)
    lam = estimate_lambda_max(lap)
    return scale_laplacian(lap, lam.value)


@dataclass
class _LayerCache:
    keep: np.ndarray | None  # dropout keep mask, None when not applied
    # Layer input H after dropout on output-side layers, else its basis
    # T_k(Ls) H (whose first term is H).
    inputs: np.ndarray | ChebyshevBasis
    z: np.ndarray  # pre-activation


def _output_side(weight) -> bool:
    """Whether a layer applies the operator to its C_out columns (H W_k first).

    sum_k T_k(Ls) H W_k can be associated either way; the operator runs on the
    narrower side, which is the output side when C_in > C_out.
    """
    k1, c_in, c_out = weight.shape
    return k1 > 1 and c_in > c_out


def _stacked(weight) -> np.ndarray:
    """(K+1, C_in, C_out) -> (C_in, (K+1) C_out), one column block per order."""
    k1, c_in, c_out = weight.shape
    return weight.transpose(1, 0, 2).reshape(c_in, k1 * c_out)


def _forward(model, scaled, x, train, rng):
    cfg = model.config
    h = np.asarray(x, dtype=np.float64)
    caches = []
    last = len(model.layers) - 1
    for li, layer in enumerate(model.layers):
        keep = None
        if li < last and train and cfg.dropout_rate > 0.0:
            if rng is None:
                raise ContractError("train-mode forward with dropout requires an rng")
            keep = rng.random(h.shape) >= cfg.dropout_rate
            # Equal to (h * keep) / keep_prob bit for bit, signed zeros included.
            h = h / (1.0 - cfg.dropout_rate)
            h *= keep
        order = layer.weight.shape[0] - 1
        if order > 0 and scaled is None:
            raise ContractError("cheb_order > 0 requires a scaled Laplacian")
        if _output_side(layer.weight):
            parts = np.hsplit(h @ _stacked(layer.weight), order + 1)
            inputs = h
            z = chebyshev_weighted_sum(scaled, parts)
            z += layer.bias
        else:
            if order == 0:
                inputs = ChebyshevBasis(terms=[h], order=0)
            else:
                inputs = chebyshev_basis(scaled, h, order)
            z = cheb_conv_forward(inputs, layer.weight, layer.bias)
        caches.append(_LayerCache(keep=keep, inputs=inputs, z=z))
        h = np.maximum(z, 0.0) if li < last else z
    return h, caches


def forward(model: GcnModel, scaled: LaplacianMatrix | None, x, mode: str = "eval", rng=None):
    """Logits for every node; mode 'train' applies dropout to hidden-layer inputs."""
    if mode not in ("train", "eval"):
        raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")
    logits, _ = _forward(model, scaled, x, train=(mode == "train"), rng=rng)
    return logits


def _stable_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _masked_cross_entropy(logits, labels, mask):
    """Mean softmax cross-entropy over the masked rows.

    Also returns exp(z - max z) of those rows, their row sums and their
    labels, from which the rows' softmax follows without a second exp.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ContractError("mask must select at least one node")
    z = logits[mask]
    y = np.asarray(labels)[mask]
    zmax = z.max(axis=1, keepdims=True)
    e = z - zmax
    np.exp(e, out=e)
    e_sum = e.sum(axis=1)
    log_norm = np.log(e_sum) + zmax[:, 0]
    data = float(np.mean(log_norm - z[np.arange(len(y)), y]))
    return data, e, e_sum, y


def _l2_penalty(l2_coeff: float, model: GcnModel) -> float:
    return l2_coeff * sum(float((layer.weight**2).sum()) for layer in model.layers)


def masked_loss(logits, labels, mask, l2_coeff: float, model: GcnModel) -> float:
    """Mean softmax cross-entropy over masked nodes + l2_coeff * sum(W^2).

    Only labels at masked positions are ever read; biases are excluded from
    the penalty.
    """
    data, _, _, _ = _masked_cross_entropy(logits, labels, mask)
    return data + _l2_penalty(l2_coeff, model)


def loss_and_grads(model, scaled, x, labels, mask, l2_coeff, train=False, rng=None):
    """One forward/backward pass; dropout masks are shared between the two.

    Returns (loss, grads, logits) with grads aligned to model.parameters().
    """
    mask = np.asarray(mask, dtype=bool)
    logits, caches = _forward(model, scaled, x, train=train, rng=rng)
    data, probs, e_sum, y = _masked_cross_entropy(logits, labels, mask)
    loss = data + _l2_penalty(l2_coeff, model)

    # Softmax minus one-hot, averaged over the masked rows.
    probs /= e_sum[:, None]
    probs[np.arange(len(y)), y] -= 1.0
    probs /= len(y)
    grad_z = np.zeros_like(logits)
    grad_z[mask] = probs

    cfg = model.config
    grads: list[np.ndarray | None] = [None] * (2 * len(model.layers))
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        cache = caches[li]
        k1, c_in, c_out = layer.weight.shape
        # dL/dW_k = (T_k(Ls) H)^T G = H^T (T_k(Ls) G), as T_k(Ls) is symmetric;
        # dL/dH = sum_k T_k(Ls) G W_k^T. An input-side layer reuses its forward
        # basis and evaluates dL/dH by one Clenshaw pass; an output-side layer
        # builds the basis of G, which is C_out columns wide.
        output_side = _output_side(layer.weight)
        grad_w = 2.0 * l2_coeff * layer.weight
        if output_side:
            tg = np.hstack(chebyshev_basis(scaled, grad_z, k1 - 1).terms)
            grad_w += (cache.inputs.T @ tg).reshape(c_in, k1, c_out).transpose(1, 0, 2)
        else:
            for k in range(k1):
                grad_w[k] += cache.inputs.terms[k].T @ grad_z
        grad_b = grad_z.sum(axis=0) if cfg.use_bias else np.zeros_like(layer.bias)
        grads[2 * li] = grad_w
        grads[2 * li + 1] = grad_b
        if li == 0:
            break
        if output_side:
            grad_h = tg @ _stacked(layer.weight).T
        else:
            parts = [grad_z @ layer.weight[k].T for k in range(k1)]
            grad_h = parts[0] if k1 == 1 else chebyshev_weighted_sum(scaled, parts)
        if cache.keep is not None:
            grad_h /= 1.0 - cfg.dropout_rate
            grad_h *= cache.keep
        grad_h *= caches[li - 1].z > 0.0
        grad_z = grad_h
    return loss, grads, logits


def adam_update(params, grads, moment1, moment2, step: int, lr: float):
    """In-place Adam update of params at 1-based step, with bias correction.

    Two scratch arrays per parameter hold the update terms; the arithmetic is
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), in that order.
    """
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for p, g, m, v in zip(params, grads, moment1, moment2):
        m *= ADAM_BETA1
        update = np.multiply(g, 1.0 - ADAM_BETA1)
        m += update
        v *= ADAM_BETA2
        denom = np.multiply(g, 1.0 - ADAM_BETA2)
        denom *= g
        v += denom
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, bc1, out=update)
        update *= lr
        update /= denom
        p -= update


def adam_step(model: GcnModel, grads, lr: float | None = None) -> GcnModel:
    """In-place Adam update of the model's parameters and optimizer state."""
    if lr is None:
        lr = model.config.learning_rate
    model.step += 1
    adam_update(model.parameters(), grads, model.moment1, model.moment2, model.step, lr)
    return model


def _check_training_inputs(config, scaled, x, labels, mask):
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    if scaled is None:
        if config.cheb_order > 0:
            raise ContractError("cheb_order > 0 requires a scaled Laplacian")
        n = x.shape[0]
    else:
        n = scaled.n
    if x.shape[0] != n:
        raise ContractError(f"{x.shape[0]} feature rows for {n} nodes")
    if len(labels) != n or len(mask) != n:
        raise ContractError("labels and mask must have one entry per node")
    if not mask.any():
        raise ContractError("training mask must select at least one node")
    if np.any((labels[mask] < 0) | (labels[mask] >= config.n_classes)):
        raise ContractError(
            f"masked nodes must carry known labels in [0, {config.n_classes})"
        )
    return x, labels, mask


def train(config: GcnConfig, scaled: LaplacianMatrix | None, x, labels, mask):
    """Full-graph semi-supervised training for config.epochs Adam steps.

    `scaled` is the graph's operator from scaled_operator, built once per
    graph and shared by every model trained and evaluated on it; a network of
    cheb_order 0 is a plain dense network and takes None. Returns
    (model, history) where history holds one record per epoch with the loss
    and masked training accuracy. Raises DivergenceError on a non-finite loss.
    """
    config.validate()
    x, labels, mask = _check_training_inputs(config, scaled, x, labels, mask)
    rng = np.random.default_rng(config.seed)
    model = init_model(config, x.shape[1], rng)
    y_train = labels[mask]
    history = []
    for epoch in range(config.epochs):
        loss, grads, logits = loss_and_grads(
            model, scaled, x, labels, mask, config.l2_coeff, train=True, rng=rng
        )
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}", epoch=epoch)
        adam_step(model, grads)
        pred = np.argmax(logits, axis=1)
        history.append({
            "epoch": epoch,
            "loss": loss,
            "train_accuracy": float(np.mean(pred[mask] == y_train)),
        })
    return model, history


def predict(model: GcnModel, scaled: LaplacianMatrix | None, x):
    """Per-node class probabilities and argmax labels (ties -> lower index)."""
    logits = forward(model, scaled, x, mode="eval")
    probs = _stable_softmax(logits)
    return probs, np.argmax(probs, axis=1)

