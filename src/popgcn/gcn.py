"""Graph convolutional network over Chebyshev filter bases.

Architecture: L hidden layers (dropout on the layer input at train time, then
a Chebyshev graph convolution, then ReLU) followed by one output convolution
producing logits. The loss is softmax cross-entropy averaged over masked
(labeled training) nodes plus an L2 penalty on weights; unmasked nodes carry
features into the convolutions but never touch the loss. Gradients are exact
and hand-derived; the optimizer is Adam.

The network computes in its features' dtype, float32 or float64; any other
dtype is read as float64 (spectral.float_array), and train, predict and
chebyshev_basis raise ContractError for an operator of another dtype, whose
products numpy would carry out at the wider of the two. The model's
parameters, Adam moments and gradients take that dtype too. The harness
trains and scores every fold's network in float32 (harness._run_fold); the
float64 path is the one the oracles and the finite-difference checks run.
predict takes the softmax of its logits in float64 either way.

Train and predict read rows by one reach rule (_reach). Each is given sorted
row indices, train its loss's labelled rows and predict the rows it scores,
and runs on the rows its output depends on: those rows at cheb_order 0,
where no row affects another; under a sparse operator, the connected
components that hold them (each held-out subject of a longitudinal graph is
a component of its own), labelled once per operator
(LaplacianMatrix.components); every row under a dense operator. No edge is
dropped, so those rows' forward values equal the whole graph's, bit for bit.
Dropout draws its keep masks over the trained rows alone, as 16-bit lanes of
full-range 64-bit draws compared with round(rate * 65536) (_keep_mask), so
rows that cannot reach the loss neither train nor consume random draws.

At cheb_order 0 the convolutions are plain dense layers and no operator is
needed; this is the one dense network of the package, shared by the MLP
baseline and the MLP feature selector (adam_update also steps the
autoencoder selector).

A convolution sum_k T_k(Ls) H W_k applies the N x N operator on the narrower
side of its layer: to the C_in columns of H, or, when C_out < C_in, to the
C_out columns of each H W_k. Both orders give the same function. A dense
float64 operator is applied as (X.T @ Ls).T (spectral._apply; a float32 one
as Ls @ X), which is Ls @ X only because the operator is exactly symmetric,
as normalized_laplacian and scale_laplacian build it. An output-side layer,
under any operator, forms its weight gradient the same way round, as the
transpose of (T(Ls) G)^T H rather than as H^T (T(Ls) G): OpenBLAS runs that
(K+1) C_out x N by N x C_in product faster in float64 (3.1 against 5.0 ms
at ABIDE shape, 2000 x 871 by 871 x 64, 2 threads) and as fast in float32
(1.50 against 1.55 ms). Input-side layers keep H_k^T G, which is no faster
transposed at their narrow widths.

A model's weights and biases are views into one contiguous vector
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
the softmax's max and sum over the N_CLASSES = 2 columns are one np.maximum
and one addition (_softmax_terms, shared with predict), and when every row is
masked the logits are used without a gather. The loss reads each label logit
at its flat index, and the gradient subtracts the one-hot matrix (p - 0.0 is
p), which give the bits of the fancy-indexed forms.
The epoch's elementwise steps walk the feature matrix row by row: callers
pass it C-ordered, as every `featsel` transform returns it. A
Fortran-ordered matrix is accepted, but each elementwise step on it runs
about 2-3 times slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DivergenceError, ParameterError, check_above, check_at_least
from .popgraph import PopulationGraph
from .spectral import (
    LaplacianMatrix,
    chebyshev_basis,
    chebyshev_weighted_sum,
    check_operator_dtype,
    estimate_lambda_max,
    float_array,
    normalized_laplacian,
    scale_laplacian,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
N_CLASSES = 2  # the output layer's width: labels are 0 and 1


@dataclass(frozen=True)
class GcnConfig:
    """Network and training settings, checked when constructed (and by
    replace) by the errors checks, NaN failing."""

    hidden_layers: int = 1  # L
    hidden_width: int | None = None  # None -> input feature count
    cheb_order: int = 3  # K
    dropout_rate: float = 0.3
    l2_coeff: float = 5e-4
    learning_rate: float = 0.005
    epochs: int = 150
    seed: int = 0

    def __post_init__(self):
        check_at_least("hidden_layers", self.hidden_layers, 0)
        if self.hidden_width is not None:
            check_at_least("hidden_width", self.hidden_width, 1)
        check_at_least("cheb_order", self.cheb_order, 0)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        check_at_least("l2_coeff", self.l2_coeff, 0, finite=True)
        check_above("learning_rate", self.learning_rate, 0, finite=True)
        check_at_least("epochs", self.epochs, 0)
        check_at_least("seed", self.seed, 0)


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


def init_model(config: GcnConfig, n_features: int, rng, dtype=np.float64) -> GcnModel:
    """Glorot-uniform weights over fan_in = C_in * (K+1), drawn from rng in
    float64 and stored in `dtype`, with the Adam moments; zero biases."""
    width = config.hidden_width if config.hidden_width is not None else n_features
    sizes = [n_features] + [width] * config.hidden_layers + [N_CLASSES]
    k1 = config.cheb_order + 1
    shapes = []
    for c_in, c_out in zip(sizes[:-1], sizes[1:]):
        shapes += [(k1, c_in, c_out), (c_out,)]
    flat = np.zeros(sum(math.prod(shape) for shape in shapes), dtype=dtype)
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
    size = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-size // 4))
    return (words.view(np.uint16)[:size] >= round(rate * 65536)).reshape(shape)


def _forward(model, scaled, x, rng):
    cfg = model.config
    h = float_array(x)
    caches = []
    last = len(model.layers) - 1
    for li, layer in enumerate(model.layers):
        keep = None
        if li < last and rng is not None and cfg.dropout_rate > 0.0:
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


def forward(model: GcnModel, scaled: LaplacianMatrix | None, x, rng=None):
    """Logits for every node; with an rng, hidden-layer inputs get dropout from it."""
    logits, _ = _forward(model, scaled, x, rng)
    return logits


def _softmax_terms(z):
    """Row maxima zmax, e = exp(z - zmax) and e's row sums of two-column
    logits z; the softmax is e / e_sum. These equal z.max(axis=1) and, as
    e >= 0, e.sum(axis=1) bit for bit, signed zeros included."""
    zmax = np.maximum(z[:, 0], z[:, 1])
    e = z - zmax[:, None]
    np.exp(e, out=e)
    return zmax, e, e[:, 0] + e[:, 1]


@dataclass
class EpochConstants:
    """What every epoch of one `train` call reads unchanged (epoch_constants)."""

    grads: list[np.ndarray]  # views of the gradient vector, aligned to parameters()
    ones: np.ndarray  # one per row; its products with G are the bias gradients
    mask: np.ndarray  # bool, one per row
    all_masked: bool  # then the loss reads the logits without a gather
    flat_index: np.ndarray  # row * N_CLASSES + label of each masked row
    one_hot: np.ndarray  # (masked rows, N_CLASSES): 1.0 at the label, else 0.0


def epoch_constants(model: GcnModel, labels, mask, grad: np.ndarray) -> EpochConstants:
    """The epoch constants of a training run on these rows.

    grad is the vector, of model.flat's layout, that each epoch's gradients
    are written into, and the ones vector and one-hot matrix take its dtype;
    labels are the masked rows', in row order.
    """
    mask = np.asarray(mask, dtype=bool)
    y = np.asarray(labels)
    rows = np.arange(len(y))
    one_hot = np.zeros((len(y), N_CLASSES), dtype=grad.dtype)
    one_hot[rows, y] = 1.0
    return EpochConstants(
        grads=model.views(grad), ones=np.ones(len(mask), dtype=grad.dtype), mask=mask,
        all_masked=bool(mask.all()), flat_index=rows * N_CLASSES + y, one_hot=one_hot,
    )


def _masked_cross_entropy(logits, constants: EpochConstants):
    """Mean softmax cross-entropy over the masked rows.

    Also returns exp(z - max z) of those rows and their row sums, from which
    the rows' softmax follows without a second exp. Each row's label logit
    is read at its flat index, and the mean is np.mean's: the pairwise sum
    divided by the count.
    """
    z = logits if constants.all_masked else logits[constants.mask]
    zmax, e, e_sum = _softmax_terms(z)
    terms = np.log(e_sum)
    terms += zmax
    terms -= z.take(constants.flat_index)
    data = float(np.add.reduce(terms) / len(terms))
    return data, e, e_sum


def _l2_penalty(model: GcnModel) -> float:
    """l2_coeff * sum(W^2) over the layers' weights; biases are not penalized."""
    return model.config.l2_coeff * sum(float((layer.weight**2).sum()) for layer in model.layers)


def loss_and_grads(model, scaled, x, constants: EpochConstants, rng=None):
    """One forward/backward pass; with an rng, dropout applies, its masks
    drawn from it and shared between the two passes.

    The loss is the mean softmax cross-entropy over the rows that
    constants.mask selects, whose labels alone are read, plus _l2_penalty at
    the config's l2_coeff. Returns (loss, grads, logits) with grads =
    constants.grads, views of the gradient vector that every gradient is
    written into.
    """
    logits, caches = _forward(model, scaled, x, rng)
    data, probs, e_sum = _masked_cross_entropy(logits, constants)
    loss = data + _l2_penalty(model)

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
        # builds the basis of G, which is C_out columns wide, and forms every
        # dL/dW_k^T = (T_k(Ls) G)^T H in one product (the module docstring).
        output_side = _output_side(layer.weight)
        if output_side:
            tg = np.hstack(chebyshev_basis(scaled, grad_z, k1 - 1))
            grad_w[...] = (tg.T @ cache.inputs).reshape(k1, c_out, c_in).transpose(0, 2, 1)
        else:
            for k in range(k1):
                np.matmul(cache.inputs[k].T, grad_z, out=grad_w[k])
        grad_w += 2.0 * cfg.l2_coeff * layer.weight
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


def _check_inputs(config, scaled, x, rows):
    """x as float_array reads it, checked to be in the operator's dtype, and
    rows checked as sorted distinct indices of its rows."""
    x = float_array(x)
    if scaled is None and config.cheb_order > 0:
        raise ContractError("cheb_order > 0 requires a scaled Laplacian")
    if scaled is not None:
        check_operator_dtype(scaled, x)
    n = x.shape[0] if scaled is None else scaled.n
    if x.shape[0] != n:
        raise ContractError(f"{x.shape[0]} feature rows for {n} nodes")
    rows = np.asarray(rows)
    if rows.ndim != 1 or len(rows) == 0 or rows.dtype.kind not in "iu":
        raise ContractError("rows must be a non-empty array of row indices")
    if rows[0] < 0 or rows[-1] >= n or np.any(rows[1:] <= rows[:-1]):
        raise ContractError(f"rows must be sorted, distinct and in [0, {n})")
    return x, rows


def _check_training_inputs(config, scaled, x, labels, rows):
    x, rows = _check_inputs(config, scaled, x, rows)
    labels = np.asarray(labels)
    if len(labels) != len(rows):
        raise ContractError(f"{len(labels)} labels for {len(rows)} training rows")
    if np.any((labels < 0) | (labels >= N_CLASSES)):
        raise ContractError(f"training rows must carry known labels in [0, {N_CLASSES})")
    return x, labels, rows


def _principal_submatrix(scaled: LaplacianMatrix, rows) -> LaplacianMatrix:
    """The CSR operator on `rows`, a union of its connected components.

    scipy's CSR indexing keeps each row's stored entries in their order, with
    the column indices renumbered, so a product with the submatrix equals
    those rows of the full product bit for bit. The scaling, and so
    lambda_max, is the whole graph's.
    """
    return LaplacianMatrix(matrix=scaled.matrix[rows][:, rows], kind="scaled")


def _reach(config: GcnConfig, scaled: LaplacianMatrix | None, x, rows):
    """The operator, features and `rows`, renumbered, restricted to the rows
    the output on `rows` depends on (the module's reach rule); the inputs as
    given when that is every row. popgraph stores a graph dense, reaching
    every row, connected or not, only above popgraph.DENSE_DENSITY_LIMIT.
    """
    if config.cheb_order == 0:
        reach = rows
    elif scaled.is_sparse:
        # The operator labels its components once, for every seed trained on
        # it. Every stored entry counts as an edge, explicit zeros included,
        # so the reach's entries only ever point at other rows of the reach.
        _, component = scaled.components
        reach = np.flatnonzero(np.isin(component, component[rows]))
    else:
        return scaled, x, rows
    if len(reach) == len(x):
        return scaled, x, rows
    scaled = None if config.cheb_order == 0 else _principal_submatrix(scaled, reach)
    return scaled, x[reach], np.searchsorted(reach, rows)


def train(config: GcnConfig, scaled: LaplacianMatrix | None, x, labels, rows):
    """Semi-supervised training for config.epochs Adam steps.

    `scaled` is the graph's operator from scaled_operator, built once per
    graph and shared by every model trained and evaluated on it; a network of
    cheb_order 0 is a plain dense network and takes None. x holds every
    node's features; rows are the sorted indices of the labelled training
    rows, and labels holds their labels, one per row. No other row's label
    is read. Returns (model, losses), the training loss of each epoch as a
    float. Raises DivergenceError on a non-finite loss. Every epoch's dropout
    draws from the generator of config.seed, which also draws the initial
    weights, and the L2 penalty is config.l2_coeff. The model, its Adam
    moments and every epoch's arithmetic are in x's dtype (the module
    docstring), which the operator must hold.

    Only the rows the loss can reach train (_reach): the other rows'
    gradients are exactly zero and they get no dropout draws, so training
    equals training on the reached rows alone, bit for bit.

    One gradient vector of model.flat's layout and the other epoch
    constants are built per call (epoch_constants); each epoch's
    loss_and_grads writes into that vector and adam_step steps the whole
    parameter vector by it.
    """
    x, labels, rows = _check_training_inputs(config, scaled, x, labels, rows)
    rng = np.random.default_rng(config.seed)
    scaled, x, rows = _reach(config, scaled, x, rows)
    mask = np.zeros(len(x), dtype=bool)
    mask[rows] = True
    model = init_model(config, x.shape[1], rng, x.dtype)
    grad = np.empty_like(model.flat)
    constants = epoch_constants(model, labels, mask, grad)
    losses = []
    for epoch in range(config.epochs):
        loss, _, _ = loss_and_grads(model, scaled, x, constants, rng)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}", epoch=epoch)
        adam_step(model, grad)
        losses.append(loss)
    return model, losses


def predict(model: GcnModel, scaled: LaplacianMatrix | None, x, rows):
    """Class probabilities and argmax labels (ties -> lower index) of the
    rows `rows`, sorted indices into x, which holds every node's features.
    Only the rows their outputs depend on are read (_reach). The softmax is
    taken in float64 whatever the logits' dtype, so float32 logits give
    probabilities, and their argmax, at float64's precision."""
    x, rows = _check_inputs(model.config, scaled, x, rows)
    scaled, x, rows = _reach(model.config, scaled, x, rows)
    logits = np.asarray(forward(model, scaled, x)[rows], dtype=np.float64)
    _, probs, e_sum = _softmax_terms(logits)
    probs /= e_sum[:, None]
    return probs, np.argmax(probs, axis=1)
