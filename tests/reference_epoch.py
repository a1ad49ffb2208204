"""The training epoch's formulas before they were made in-place, kept as oracles.

Each function here allocates a fresh array at every step, as the package once
did: dropout as (h * keep) / keep_prob, bias gradients as products of a ones
vector with the logit gradient, softmax cross-entropy and its gradient from
two separate exp passes, Adam from whole-array expressions on each parameter
in turn, the Chebyshev recursions as expressions, and the sigmoid by boolean
masking. The in-place versions perform the same floating-point operations in
the same order, so training with either must give bitwise-equal parameters.
The dropout keep mask and the softmax are spelled out here too, by shifts of
the 64-bit draws (taken through rng.integers) and by numpy's row reductions,
so the package's versions are checked against an independent formula. The
loss gathers each masked row's label logit by fancy indexing and subtracts
1.0 there, where the package reads a flat index and subtracts a one-hot
matrix. The tied-weight autoencoder's loss, gradients and fit are kept in
their allocating form as well.

A BLAS product's last bits can depend on its operands' orientation, so the
oracles present the package's: every operator multiplies from the left, and
an output-side layer's weight gradient is the transpose of (T(Ls) G)^T H.
Each oracle computes in x's dtype, as the package does, and takes the
softmax of predict_reference's logits in float64.
"""

import numpy as np

from popgcn.gcn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    _check_training_inputs,
    _output_side,
    _stacked,
    init_model,
)
from popgcn.spectral import float_array


def sigmoid_reference(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def chebyshev_basis_reference(scaled, x, order):
    x = float_array(x)
    terms = [x.copy(order="K")]
    if order >= 1:
        terms.append(scaled.matrix @ x)
    for _ in range(2, order + 1):
        terms.append(2.0 * (scaled.matrix @ terms[-1]) - terms[-2])
    return terms


def chebyshev_weighted_sum_reference(scaled, parts):
    order = len(parts) - 1
    if order == 0:
        return parts[0].copy()
    b1, b2 = parts[order], 0.0
    for k in range(order - 1, 0, -1):
        b1, b2 = parts[k] + 2.0 * (scaled.matrix @ b1) - b2, b1
    return parts[0] + scaled.matrix @ b1 - b2


def keep_mask_reference(rng, shape, rate):
    """Four 16-bit lanes per full-range 64-bit draw, low bits first, each
    kept when at least round(rate * 65536)."""
    size = int(np.prod(shape))
    words = rng.integers(
        0, np.iinfo(np.uint64).max, size=(size + 3) // 4, dtype=np.uint64, endpoint=True
    )
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)
    lanes = (words[:, None] >> shifts) & np.uint64(0xFFFF)
    return (lanes.ravel()[:size] >= round(rate * 65536)).reshape(shape)


def dropout_reference(h, keep, rate):
    return h * keep / (1.0 - rate)


def bias_grad_reference(grad_z):
    return np.ones(len(grad_z), dtype=grad_z.dtype) @ grad_z


def softmax_reference(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _masked_loss(logits, labels, mask, l2_coeff, model):
    z = logits[mask]
    y = np.asarray(labels)[mask]
    zmax = z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z - zmax).sum(axis=1)) + zmax[:, 0]
    data = float(np.mean(log_norm - z[np.arange(len(y)), y]))
    reg = l2_coeff * sum(float((layer.weight**2).sum()) for layer in model.layers)
    return data + reg


def forward_reference(model, scaled, x, train, rng):
    """Logits and per-layer (keep, inputs, z) caches."""
    cfg = model.config
    h = float_array(x)
    caches = []
    last = len(model.layers) - 1
    for li, layer in enumerate(model.layers):
        keep = None
        if li < last and train and cfg.dropout_rate > 0.0:
            keep = keep_mask_reference(rng, h.shape, cfg.dropout_rate)
            h = dropout_reference(h, keep, cfg.dropout_rate)
        order = layer.weight.shape[0] - 1
        if _output_side(layer.weight):
            parts = np.hsplit(h @ _stacked(layer.weight), order + 1)
            inputs = h
            z = chebyshev_weighted_sum_reference(scaled, parts) + layer.bias
        else:
            inputs = [h] if order == 0 else chebyshev_basis_reference(scaled, h, order)
            z = inputs[0] @ layer.weight[0]
            for k in range(1, order + 1):
                z += inputs[k] @ layer.weight[k]
            z = z + layer.bias
        caches.append((keep, inputs, z))
        h = np.maximum(z, 0.0) if li < last else z
    return h, caches


def loss_and_grads_reference(model, scaled, x, labels, mask, l2_coeff, train, rng):
    mask = np.asarray(mask, dtype=bool)
    labels = np.asarray(labels)
    logits, caches = forward_reference(model, scaled, x, train, rng)
    loss = _masked_loss(logits, labels, mask, l2_coeff, model)

    n_masked = int(mask.sum())
    masked_idx = np.flatnonzero(mask)
    grad_z = np.zeros_like(logits)
    grad_z[masked_idx] = softmax_reference(logits[masked_idx])
    grad_z[masked_idx, labels[masked_idx]] -= 1.0
    grad_z[masked_idx] /= n_masked

    cfg = model.config
    grads = [None] * (2 * len(model.layers))
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        keep, inputs, _ = caches[li]
        k1, c_in, c_out = layer.weight.shape
        output_side = _output_side(layer.weight)
        if output_side:
            tg = np.hstack(chebyshev_basis_reference(scaled, grad_z, k1 - 1))
            grad_w = (tg.T @ inputs).reshape(k1, c_out, c_in).transpose(0, 2, 1)
        else:
            grad_w = np.stack([inputs[k].T @ grad_z for k in range(k1)])
        grad_w += 2.0 * l2_coeff * layer.weight
        grads[2 * li] = grad_w
        grads[2 * li + 1] = bias_grad_reference(grad_z)
        if li == 0:
            break
        if output_side:
            grad_h = tg @ _stacked(layer.weight).T
        else:
            parts = [grad_z @ layer.weight[k].T for k in range(k1)]
            grad_h = parts[0] if k1 == 1 else chebyshev_weighted_sum_reference(scaled, parts)
        if keep is not None:
            grad_h = dropout_reference(grad_h, keep, cfg.dropout_rate)
        grad_z = grad_h * (caches[li - 1][2] > 0.0)
    return loss, grads, logits


def adam_update_reference(params, grads, moment1, moment2, step, lr):
    """Adam on each (param, grad, moment1, moment2) array in turn."""
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for p, g, m, v in zip(params, grads, moment1, moment2):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def train_reference(config, scaled, x, labels, mask):
    """`gcn.train` built from the formulas above; returns (model, losses).
    It takes every node's labels and the bool mask of the training rows,
    where `gcn.train` takes those rows' labels and indices.

    Adam steps each parameter and its moments as separate arrays (views of
    the model's vectors), never the whole vector at once.
    """
    labels, mask = np.asarray(labels), np.asarray(mask, dtype=bool)
    x, _, _ = _check_training_inputs(config, scaled, x, labels[mask], np.flatnonzero(mask))
    rng = np.random.default_rng(config.seed)
    model = init_model(config, x.shape[1], rng, x.dtype)
    losses = []
    for _ in range(config.epochs):
        loss, grads, _ = loss_and_grads_reference(
            model, scaled, x, labels, mask, config.l2_coeff, True, rng
        )
        model.step += 1
        adam_update_reference(
            model.parameters(), grads, model.views(model.moment1),
            model.views(model.moment2), model.step, config.learning_rate,
        )
        losses.append(loss)
    return model, losses


def predict_reference(model, scaled, x):
    logits, _ = forward_reference(model, scaled, x, False, None)
    return softmax_reference(np.asarray(logits, dtype=np.float64))


def ae_loss_and_grads_reference(xs, w, b_enc, b_dec):
    """The autoencoder's MSE loss and (dw, db_enc, db_dec), one fresh array
    per step."""
    z1 = xs @ w + b_enc
    h = sigmoid_reference(z1)
    z2 = h @ w.T + b_dec
    recon = np.tanh(z2)
    diff = recon - xs
    loss = float(np.mean(diff**2))
    dz2 = (2.0 / diff.size) * diff * (1.0 - recon**2)
    db_dec = dz2.sum(axis=0)
    dz1 = (dz2 @ w) * h * (1.0 - h)
    db_enc = dz1.sum(axis=0)
    dw = xs.T @ dz1  # encoder contribution
    dw += dz2.T @ h  # tied decoder contribution
    return loss, (dw, db_enc, db_dec)


def fit_autoencoder_reference(xs, width, epochs, lr, seed):
    """`featsel._fit_autoencoder` from the formulas above, with Adam on w,
    b_enc and b_dec as separate arrays; returns (w, b_enc, b_dec, history)."""
    c = xs.shape[1]
    rng = np.random.default_rng(seed)
    limit = np.sqrt(6.0 / (c + width))
    params = [rng.uniform(-limit, limit, size=(c, width)), np.zeros(width), np.zeros(c)]
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    history = []
    for epoch in range(epochs):
        loss, grads = ae_loss_and_grads_reference(xs, *params)
        history.append(loss)
        adam_update_reference(params, grads, moment1, moment2, epoch + 1, lr)
    return (*params, history)
