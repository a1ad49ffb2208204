"""Graph convolutional network over Chebyshev filter bases.

Architecture: L hidden layers (dropout on the layer input at train time, then
a Chebyshev graph convolution, then ReLU) followed by one output convolution
producing logits. The loss is softmax cross-entropy averaged over masked
(labeled training) nodes plus an L2 penalty on weights; unmasked nodes carry
features into the convolutions but never touch the loss. Gradients are exact
and hand-derived; the optimizer is Adam. Everything is float64 numpy.

Training runs only on the rows the loss can reach: the connected components
of a sparse operator that hold a masked node (each held-out subject of a
longitudinal graph is a component of its own), or the masked rows of an
order-0 network; a dense operator trains every row. No edge is dropped, so
the trained rows' forward values equal the whole graph's. Dropout draws its
keep masks over the trained rows alone, as 16-bit lanes of full-range
64-bit draws compared with round(rate * 65536) (_keep_mask), so rows that
cannot reach the loss neither train nor consume random draws: an order-0
network trains the same with or without unmasked rows appended. Predict
runs on the whole graph.

At cheb_order 0 the convolutions are plain dense layers and no operator is
needed; this is the one dense network of the package, shared by the MLP
baseline and the MLP feature selector (adam_update also steps the
autoencoder selector).

A convolution sum_k T_k(Ls) H W_k applies the N x N operator on the narrower
side of its layer: to the C_in columns of H, or, when C_out < C_in, to the
C_out columns of each H W_k. Both orders give the same function.

A model's weights and biases are views into one contiguous float64 vector
(GcnModel.flat), and its two Adam moments are vectors of the same layout.
adam_update makes its passes once over the whole vector; Adam is
elementwise, so this equals a per-parameter update bit for bit.

`train` builds once per call what its epochs read unchanged
(epoch_constants): the gradient vector and its views per parameter, the
ones vector of the bias gradients, the bool mask and whether it selects
every row, and, from the masked labels, each label logit's flat index and
the one-hot matrix. Each epoch recomputes only what depends on the weights
or on the random stream: the dropout masks, the forward pass, the loss, the
gradients written into those views, and the Adam step.

The bias gradients are BLAS products of a ones vector with the logit
gradient. A training epoch applies dropout, the bias, the softmax terms, the
backward masks and the Adam update in place rather than into fresh
temporaries, in the operation order of the allocating formulas that
tests/reference_epoch.py keeps, so its results equal theirs bit for bit.
One exp pass over the masked logits serves both the loss and its gradient;
the softmax's max and sum over the few class columns run column by column
(_row_max, _row_sum), and when every row is masked the logits are used
without a gather. The loss reads each label logit at its flat index, and
the gradient subtracts the one-hot matrix (p - 0.0 is p), which give the
bits of the fancy-indexed forms.
The epoch's elementwise steps walk the feature matrix row by row: callers
pass it C-ordered, as every `featsel` transform returns it. A
Fortran-ordered matrix is accepted, but each elementwise step on it runs
about 2-3 times slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, DivergenceError, ParameterError
from .popgraph import PopulationGraph
from .spectral import (
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


def flat_views(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive slices of a 1-D vector, reshaped (as views) to `shapes`."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(vector[start:start + size].reshape(shape))
        start += size
    if start != vector.size:
        raise ContractError(f"vector of {vector.size} values for shapes of {start}")
    return views


@dataclass
class GcnModel:
    """Layers whose weights and biases are views into `flat`, layer by layer,
    weight before bias; moment1 and moment2 are Adam's vectors of that layout."""

    config: GcnConfig
    layers: list[Layer]
    flat: np.ndarray
    moment1: np.ndarray
    moment2: np.ndarray
    step: int = 0

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """A vector of flat's layout as views aligned to parameters()."""
        return flat_views(vector, [p.shape for p in self.parameters()])


def init_model(config: GcnConfig, n_features: int, rng=None) -> GcnModel:
    """Glorot-uniform weights over fan_in = C_in * (K+1), zero biases."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    width = config.hidden_width if config.hidden_width is not None else n_features
    sizes = [n_features] + [width] * config.hidden_layers + [config.n_classes]
    k1 = config.cheb_order + 1
    shapes = []
    for c_in, c_out in zip(sizes[:-1], sizes[1:]):
        shapes += [(k1, c_in, c_out), (c_out,)]
    flat = np.zeros(sum(math.prod(shape) for shape in shapes))
    views = flat_views(flat, shapes)
    layers = []
    for weight, bias in zip(views[::2], views[1::2]):
        _, c_in, c_out = weight.shape
        limit = np.sqrt(6.0 / (c_in * k1 + c_out))
        weight[...] = rng.uniform(-limit, limit, size=weight.shape)
        layers.append(Layer(weight=weight, bias=bias))
    return GcnModel(
        config=config, layers=layers, flat=flat,
        moment1=np.zeros_like(flat), moment2=np.zeros_like(flat),
    )


def cheb_conv_forward(terms, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """out[n, j] = sum_k sum_i terms[k][n, i] * weight[k, i, j] (+ bias[j])."""
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
    inputs: np.ndarray | list[np.ndarray]
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


def _keep_mask(rng, shape, rate: float) -> np.ndarray:
    """Dropout keep mask: True with probability 1 - round(rate * 65536) / 65536.

    Each raw 64-bit word of the generator is split into four 16-bit lanes,
    in the machine's byte order, and a lane keeps its element when it is at
    least round(rate * 65536); the keep rate is within 2^-17 of 1 - rate.
    For default_rng's PCG64 the raw words, and the state they leave, are
    those of rng.integers(0, 2**64 - 1, endpoint=True, dtype=np.uint64),
    without the bounded-draw call around them.
    """
    # The mask is allocated before the draw rather than returned by the
    # comparison: with glibc's thresholds raised (dataset._reuse_freed_memory)
    # the other order leaves heap holes that later N x C arrays cannot reuse,
    # which raised abide-wide's peak RSS by about 1.7 MB.
    keep = np.empty(shape, dtype=bool)
    words = rng.bit_generator.random_raw(-(-keep.size // 4))
    np.greater_equal(words.view(np.uint16)[: keep.size], round(rate * 65536), out=keep.reshape(-1))
    return keep


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
            keep = _keep_mask(rng, h.shape, cfg.dropout_rate)
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
            inputs = [h] if order == 0 else chebyshev_basis(scaled, h, order)
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


def _row_max(z):
    """z.max(axis=1), by one np.maximum pass per column after the first."""
    out = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(out, z[:, j], out=out)
    return out


def _row_sum(z):
    """Row sums added column by column from +0.0, left to right.

    numpy sums fewer than 8 columns the same way, so for those this equals
    z.sum(axis=1) bit for bit, signed zeros included.
    """
    out = np.zeros(len(z))
    for j in range(z.shape[1]):
        out += z[:, j]
    return out


def _stable_softmax(z):
    e = z - _row_max(z)[:, None]
    np.exp(e, out=e)
    e /= _row_sum(e)[:, None]
    return e


@dataclass
class EpochConstants:
    """What every epoch of one `train` call reads unchanged (epoch_constants)."""

    grads: list[np.ndarray]  # views of the gradient vector, aligned to parameters()
    ones: np.ndarray  # one per row; its products with G are the bias gradients
    mask: np.ndarray  # bool, one per row
    all_masked: bool  # then the loss reads the logits without a gather
    flat_index: np.ndarray  # row * n_classes + label of each masked row
    one_hot: np.ndarray  # (masked rows, n_classes): 1.0 at the label, else 0.0


def epoch_constants(model: GcnModel, labels, mask, grad: np.ndarray) -> EpochConstants:
    """The epoch constants of a training run on these rows.

    grad is the vector, of model.flat's layout, that each epoch's gradients
    are written into. Only the masked rows' labels are read.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ContractError("mask must select at least one node")
    y = np.asarray(labels)[mask]
    n_classes = model.config.n_classes
    rows = np.arange(len(y))
    one_hot = np.zeros((len(y), n_classes))
    one_hot[rows, y] = 1.0
    return EpochConstants(
        grads=model.views(grad), ones=np.ones(len(mask)), mask=mask,
        all_masked=bool(mask.all()), flat_index=rows * n_classes + y, one_hot=one_hot,
    )


def _masked_cross_entropy(logits, constants: EpochConstants):
    """Mean softmax cross-entropy over the masked rows.

    Also returns exp(z - max z) of those rows and their row sums, from which
    the rows' softmax follows without a second exp. Each row's label logit
    is read at its flat index, and the mean is np.mean's: the pairwise sum
    divided by the count.
    """
    z = logits if constants.all_masked else logits[constants.mask]
    zmax = _row_max(z)
    e = z - zmax[:, None]
    np.exp(e, out=e)
    e_sum = _row_sum(e)
    terms = np.log(e_sum)
    terms += zmax
    terms -= z.take(constants.flat_index)
    data = float(np.add.reduce(terms) / len(terms))
    return data, e, e_sum


def _l2_penalty(l2_coeff: float, model: GcnModel) -> float:
    """l2_coeff * sum(W^2) over the layers' weights; biases are not penalized."""
    return l2_coeff * sum(float((layer.weight**2).sum()) for layer in model.layers)


def loss_and_grads(model, scaled, x, constants: EpochConstants, l2_coeff, train=False, rng=None):
    """One forward/backward pass; dropout masks are shared between the two.

    The loss is the mean softmax cross-entropy over the rows that
    constants.mask selects, whose labels alone are read, plus _l2_penalty.
    Returns (loss, grads, logits) with grads = constants.grads, views of the
    gradient vector that every gradient is written into.
    """
    logits, caches = _forward(model, scaled, x, train=train, rng=rng)
    data, probs, e_sum = _masked_cross_entropy(logits, constants)
    loss = data + _l2_penalty(l2_coeff, model)

    # Softmax minus one-hot, averaged over the masked rows; p - 0.0 is p.
    probs /= e_sum[:, None]
    probs -= constants.one_hot
    probs /= len(probs)
    if constants.all_masked:
        grad_z = probs
    else:
        grad_z = np.zeros_like(logits)
        grad_z[constants.mask] = probs

    cfg = model.config
    grads = constants.grads
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        cache = caches[li]
        grad_w = grads[2 * li]
        k1, c_in, c_out = grad_w.shape
        # dL/dW_k = (T_k(Ls) H)^T G = H^T (T_k(Ls) G), as T_k(Ls) is symmetric;
        # dL/dH = sum_k T_k(Ls) G W_k^T. An input-side layer reuses its forward
        # basis and evaluates dL/dH by one Clenshaw pass; an output-side layer
        # builds the basis of G, which is C_out columns wide.
        output_side = _output_side(layer.weight)
        if output_side:
            tg = np.hstack(chebyshev_basis(scaled, grad_z, k1 - 1))
            grad_w[...] = (cache.inputs.T @ tg).reshape(c_in, k1, c_out).transpose(1, 0, 2)
        else:
            for k in range(k1):
                np.matmul(cache.inputs[k].T, grad_z, out=grad_w[k])
        grad_w += 2.0 * l2_coeff * layer.weight
        np.matmul(constants.ones, grad_z, out=grads[2 * li + 1])
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


def adam_update(param, grad, moment1, moment2, step: int, lr: float):
    """In-place Adam update of the vector param at 1-based step, with bias
    correction.

    param, grad and the two moments are equal-length vectors, each model's
    parameters laid out in one (GcnModel.flat), so the update is one pass
    per term over all of them. Two scratch vectors hold the update terms;
    the arithmetic is m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), in that order.
    """
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    moment1 *= ADAM_BETA1
    update = np.multiply(grad, 1.0 - ADAM_BETA1)
    moment1 += update
    moment2 *= ADAM_BETA2
    denom = np.multiply(grad, 1.0 - ADAM_BETA2)
    denom *= grad
    moment2 += denom
    np.divide(moment2, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(moment1, bc1, out=update)
    update *= lr
    update /= denom
    param -= update


def adam_step(model: GcnModel, grad: np.ndarray) -> GcnModel:
    """In-place Adam update of the model's parameters and optimizer state, at
    the config's learning rate; grad is a vector of model.flat's layout."""
    model.step += 1
    lr = model.config.learning_rate
    adam_update(model.flat, grad, model.moment1, model.moment2, model.step, lr)
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


def _trained_rows(config: GcnConfig, scaled: LaplacianMatrix | None, mask):
    """Sorted rows the masked loss can reach, or None when every row can.

    A row reaches the loss only through a chain of operator entries to a
    masked row, so the rows are the union of the operator's connected
    components that hold a masked node; at cheb_order 0 no row affects
    another, and they are the masked rows. A dense operator keeps every row:
    it is stored dense only when it is dense or small, which leaves it
    connected in practice.
    """
    if config.cheb_order == 0:
        rows = np.flatnonzero(mask)
    elif scaled.is_sparse:
        # Imported here, as estimate_lambda_max imports eigsh. Every stored
        # entry counts as an edge, explicit zeros included, so the rows'
        # entries only ever point at other trained rows.
        from scipy.sparse.csgraph import connected_components

        _, component = connected_components(scaled.matrix, directed=False)
        rows = np.flatnonzero(np.isin(component, component[mask]))
    else:
        return None
    return None if len(rows) == len(mask) else rows


def _principal_submatrix(scaled: LaplacianMatrix, rows) -> LaplacianMatrix:
    """The CSR operator on `rows`, a union of its connected components.

    Each row keeps its stored entries in their order, with the column indices
    renumbered, so a product with the submatrix equals those rows of the full
    product bit for bit. The scaling, and so lambda_max, is the whole graph's.
    """
    sub = scaled.matrix[rows]
    position = np.empty(scaled.n, dtype=sub.indices.dtype)
    position[rows] = np.arange(len(rows), dtype=sub.indices.dtype)
    matrix = sp.csr_matrix(
        (sub.data, position[sub.indices], sub.indptr), shape=(len(rows), len(rows))
    )
    return LaplacianMatrix(matrix=matrix, kind="scaled")


def train(config: GcnConfig, scaled: LaplacianMatrix | None, x, labels, mask):
    """Semi-supervised training for config.epochs Adam steps.

    `scaled` is the graph's operator from scaled_operator, built once per
    graph and shared by every model trained and evaluated on it; a network of
    cheb_order 0 is a plain dense network and takes None. Returns
    (model, losses), the training loss of each epoch as a float. Raises
    DivergenceError on a non-finite loss.

    Only the rows the loss can reach train (_trained_rows): the operator's
    connected components that hold a masked node, on the principal
    submatrix of a CSR operator; the masked rows alone at cheb_order 0; every
    row of a dense operator. The other rows' gradients are exactly zero.
    Dropout draws its keep masks (_keep_mask) over the trained rows only, so
    training equals training on those rows alone, the principal submatrix
    and x[rows], bit for bit; the untrained rows change neither the result
    nor the random stream.

    One gradient vector of model.flat's layout and the other epoch
    constants are built per call (epoch_constants); each epoch's
    loss_and_grads writes into that vector and adam_step steps the whole
    parameter vector by it.
    """
    config.validate()
    x, labels, mask = _check_training_inputs(config, scaled, x, labels, mask)
    rng = np.random.default_rng(config.seed)
    rows = _trained_rows(config, scaled, mask)
    if rows is not None:
        scaled = None if config.cheb_order == 0 else _principal_submatrix(scaled, rows)
        x, labels, mask = x[rows], labels[rows], mask[rows]
    model = init_model(config, x.shape[1], rng)
    grad = np.empty_like(model.flat)
    constants = epoch_constants(model, labels, mask, grad)
    losses = []
    for epoch in range(config.epochs):
        loss, _, _ = loss_and_grads(
            model, scaled, x, constants, config.l2_coeff, train=True, rng=rng
        )
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}", epoch=epoch)
        adam_step(model, grad)
        losses.append(loss)
    return model, losses


def predict(model: GcnModel, scaled: LaplacianMatrix | None, x):
    """Per-node class probabilities and argmax labels (ties -> lower index)."""
    logits = forward(model, scaled, x, mode="eval")
    probs = _stable_softmax(logits)
    return probs, np.argmax(probs, axis=1)

