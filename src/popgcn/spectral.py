"""Normalized graph Laplacian and Chebyshev polynomial machinery.

The pipeline computes one eigenvalue, lambda_max, to rescale the Laplacian
into the Chebyshev domain; filters themselves are evaluated through the
three-term Chebyshev recursion on the rescaled Laplacian, never through an
eigenbasis.

A sparse (CSR) operator labels its connected components once
(LaplacianMatrix.components). The labels give gcn the rows a masked loss can
reach. They also tell an edgeless graph, and give lambda_max from dense
diagonal blocks when no component has more than BLOCK_NODE_LIMIT nodes, as on
a longitudinal graph; ARPACK (scipy.sparse.linalg) is imported only for a
larger component.

The Chebyshev recursions apply every operator, dense or CSR, float32 or
float64, as `Ls @ X`: one operator product per order.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ContractError, check_above, check_at_least
from .popgraph import PopulationGraph

ANALYTIC_LAMBDA_MAX = 2.0  # upper bound on normalized-Laplacian eigenvalues

# Largest connected component whose lambda_max comes from a dense block rather
# than from eigsh. Measured on ring-lattice graphs (10 neighbours, random
# weights) of 2000, 20000 and 60000 nodes, 2-core x86_64, OpenBLAS at 2
# threads: up to 8-node components the blocks took at most half of eigsh's
# time and at most 1 MB more peak memory than eigsh plus its import; from 16
# nodes on, they cost 1 to 21 MB more than eigsh on 20000+ nodes.
BLOCK_NODE_LIMIT = 8


@dataclass
class LaplacianMatrix:
    """Symmetric N x N operator; kind 'normalized' (spectrum in [0, 2]) or
    'scaled' (spectrum in [-1, 1] given an exact lambda_max)."""

    matrix: np.ndarray | sp.spmatrix
    kind: str

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.matrix)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray() if self.is_sparse else self.matrix

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """connected_components of a sparse operator, labelled once per
        operator and shared by every caller, such as each seed's training."""
        return connected_components(self.matrix)


def connected_components(matrix) -> tuple[int, np.ndarray]:
    """Connected components of the graph of a CSR matrix's stored entries.

    Every stored entry, an explicit zero included, links its row and column
    both ways. Returns (count, labels), each component numbered by the order
    of its lowest node, as scipy.sparse.csgraph.connected_components numbers
    them. Each node's label starts as its own index and each round lowers
    it to the lowest label across its stored entries, lowers the label of
    the node it names to match (hooking), then replaces every label by its
    label's label until none changes (pointer jumping). A label always names
    a node of the same component, so the rounds stop when each component
    carries the index of its lowest node. Every round is a few passes over
    the arrays, with no loop over nodes.
    """
    n = matrix.shape[0]
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    cols = matrix.indices.astype(np.int64)
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        np.minimum.at(low, label, low.copy())
        while True:
            jumped = low[low]
            if np.array_equal(jumped, low):
                break
            low = jumped
        if np.array_equal(low, label):
            break
        label = low
    roots, labels = np.unique(label, return_inverse=True)
    return len(roots), labels


class LambdaMaxEstimate(NamedTuple):
    value: float
    used_fallback: bool
    iterations: int


def normalized_laplacian(graph: PopulationGraph) -> LaplacianMatrix:
    """L = I - D^{-1/2} W D^{-1/2}; rows of isolated nodes equal identity rows.

    The inverse square-root degree of a zero-degree node is taken as 0, so the
    operator stays well-defined on highly disconnected graphs.
    """
    w = graph.adjacency
    n = graph.n_nodes
    d = np.asarray(w.sum(axis=1)).ravel()
    d_inv_sqrt = np.zeros_like(d)
    positive = d > 0
    d_inv_sqrt[positive] = 1.0 / np.sqrt(d[positive])
    if sp.issparse(w):
        d_half = sp.diags(d_inv_sqrt)
        lap = sp.identity(n, format="csr") - d_half @ w @ d_half
        lap = ((lap + lap.T) * 0.5).tocsr()
    else:
        lap = np.eye(n) - d_inv_sqrt[:, None] * w * d_inv_sqrt[None, :]
        lap = (lap + lap.T) * 0.5
    return LaplacianMatrix(matrix=lap, kind="normalized")


def _block_lambda_max(matrix, labels, sizes) -> float:
    """Largest eigenvalue of a symmetric CSR matrix whose connected
    components (labels, and their sizes) are all small.

    Nodes are ordered by component size, then component, then index; each
    component's entries fill one m x m block of a (count, m, m) stack per
    size m, whose eigenvalues come from one batched eigvalsh call.
    """
    entries = matrix.tocoo()
    node_size = sizes[labels]
    order = np.lexsort((labels, node_size))
    position = np.empty(len(labels), dtype=np.int64)
    position[order] = np.arange(len(labels))
    top = -np.inf
    for m in np.unique(sizes):
        # Past the nodes of smaller components, a node of a size-m component
        # sits at block * m + its rank within the block.
        offset = position - np.searchsorted(node_size[order], m)
        in_size = node_size[entries.row] == m
        r, c = offset[entries.row[in_size]], offset[entries.col[in_size]]
        block = np.zeros((np.count_nonzero(sizes == m), m, m))
        block[r // m, r % m, c % m] = entries.data[in_size]
        top = max(top, float(np.linalg.eigvalsh(block)[:, -1].max()))
    # eigvalsh is accurate to about m * eps * 2 here. A top eigenvalue that
    # close to 2 is the exact 2 of a bipartite component, and taking it as 2
    # keeps the scaled operator's diagonal exactly zero (and unstored).
    if top >= ANALYTIC_LAMBDA_MAX * (1 - BLOCK_NODE_LIMIT * np.finfo(float).eps):
        return ANALYTIC_LAMBDA_MAX
    return top


def estimate_lambda_max(lap: LaplacianMatrix) -> LambdaMaxEstimate:
    """Largest eigenvalue of a normalized Laplacian by an exact eigensolver.

    A dense operator always uses np.linalg.eigvalsh. A sparse operator is
    read through its connected components. When every component is a single
    node the graph is edgeless (popgraph stores every edgeless graph as
    CSR): the operator is the identity, and lambda_max gets the analytic
    bound 2 with `used_fallback` set. When no component has more than
    BLOCK_NODE_LIMIT nodes, the eigenvalues are those of the diagonal
    blocks, one per component, solved in one batched eigvalsh call per block
    size (_block_lambda_max, which takes a value within its rounding error
    of 2 as 2). Other sparse operators use Lanczos (ARPACK eigsh, largest
    algebraic) from a fixed start vector, with every restart vector ARPACK
    asks for drawn from the same seeded generator, so repeated calls agree
    bit for bit. `iterations` counts the Lanczos operator applications and
    is 0 otherwise. The result is clamped to at most 2.
    """
    if lap.kind != "normalized":
        raise ContractError(f"expected a normalized Laplacian, got kind {lap.kind!r}")
    if not lap.is_sparse:
        top = float(np.linalg.eigvalsh(lap.matrix)[-1])
        return LambdaMaxEstimate(min(top, ANALYTIC_LAMBDA_MAX), False, 0)
    _, labels = lap.components
    sizes = np.bincount(labels)
    largest = sizes.max(initial=0)
    if largest <= 1:
        return LambdaMaxEstimate(ANALYTIC_LAMBDA_MAX, True, 0)
    if largest <= BLOCK_NODE_LIMIT:
        top = _block_lambda_max(lap.matrix, labels, sizes)
        return LambdaMaxEstimate(min(top, ANALYTIC_LAMBDA_MAX), False, 0)

    # Imported here: scipy.sparse.linalg costs about 11 MB of resident memory,
    # which runs on dense graphs or graphs of small components should not pay.
    from scipy.sparse.linalg import LinearOperator, eigsh

    applications = 0

    def matvec(v):
        nonlocal applications
        applications += 1
        return lap.matrix @ v

    operator = LinearOperator(lap.matrix.shape, matvec=matvec, dtype=np.float64)
    rng = np.random.default_rng(12345)
    v0 = rng.standard_normal(lap.n)
    # ARPACK restarts from a random vector when its Krylov space stops
    # growing, as it does where lambda_max = 2 has many eigenvectors (one per
    # bipartite component, such as each two-scan subject of a longitudinal
    # graph). SciPy draws that vector from OS entropy unless given `rng`; a
    # SciPy without the keyword uses ARPACK's own fixed seed.
    seeded = {"rng": rng} if "rng" in inspect.signature(eigsh).parameters else {}
    top = float(
        eigsh(operator, k=1, which="LA", v0=v0, return_eigenvectors=False, **seeded)[0]
    )
    return LambdaMaxEstimate(min(top, ANALYTIC_LAMBDA_MAX), False, applications)


def scale_laplacian(lap: LaplacianMatrix, lambda_max: float) -> LaplacianMatrix:
    """Rescale to the Chebyshev domain: Ls = (2 / lambda_max) L - I."""
    if lap.kind != "normalized":
        raise ContractError(f"expected a normalized Laplacian, got kind {lap.kind!r}")
    check_above("lambda_max", lambda_max, 0)
    factor = 2.0 / lambda_max
    if lap.is_sparse:
        scaled = (lap.matrix * factor - sp.identity(lap.n, format="csr")).tocsr()
    else:
        scaled = lap.matrix * factor - np.eye(lap.n)
    return LaplacianMatrix(matrix=scaled, kind="scaled")


def float_array(x) -> np.ndarray:
    """x as an array of its own dtype when that is float32 or float64, else
    as float64; float32 and float64 arrays are returned as given."""
    x = np.asarray(x)
    return x if x.dtype in (np.float32, np.float64) else x.astype(np.float64)


def check_operator_dtype(scaled: LaplacianMatrix, x: np.ndarray) -> None:
    """Raise ContractError unless the operator holds x's dtype: numpy would
    otherwise carry out every product at the wider of the two."""
    if scaled.matrix.dtype != x.dtype:
        raise ContractError(f"operator dtype {scaled.matrix.dtype} != feature dtype {x.dtype}")


def chebyshev_basis(scaled: LaplacianMatrix, x, order: int) -> list[np.ndarray]:
    """Terms [T_0(Ls) X, ..., T_K(Ls) X] by the three-term recursion:
    T_0 X = X, T_1 X = Ls X, T_k X = 2 Ls T_{k-1} X - T_{k-2} X.

    The terms are in x's dtype, float32 or float64 (any other is read as
    float64, float_array), which the operator must hold (check_operator_dtype).
    The first term is x itself, not a copy; each later term is formed in its
    own operator product, Ls @ T_{k-1} X.
    """
    if scaled.kind != "scaled":
        raise ContractError(f"expected a scaled Laplacian, got kind {scaled.kind!r}")
    check_at_least("order", order, 0)
    x = float_array(x)
    check_operator_dtype(scaled, x)
    terms = [x]
    if order >= 1:
        terms.append(scaled.matrix @ x)
    for _ in range(2, order + 1):
        term = scaled.matrix @ terms[-1]
        term *= 2.0
        term -= terms[-2]
        terms.append(term)
    return terms


def chebyshev_weighted_sum(scaled: LaplacianMatrix, parts: list[np.ndarray]) -> np.ndarray:
    """Clenshaw evaluation of sum_k T_k(Ls) B_k for per-order matrices B_k.

    The GCN uses it wherever each Chebyshev order carries its own matrix: the
    forward pass of a layer narrower on its output side (B_k = H W_k) and the
    backward pass of a layer narrower on its input side (B_k = G W_k^T). One
    pass of order K applies the operator K times, as building a basis does.
    """
    if scaled.kind != "scaled":
        raise ContractError(f"expected a scaled Laplacian, got kind {scaled.kind!r}")
    order = len(parts) - 1
    if order < 0:
        raise ContractError("need at least one part")
    if order == 0:
        return parts[0].copy()
    # b_{K+1} = b_{K+2} = 0, so b_K = B_K needs no operator product. Each
    # step writes into its fresh operator product, so no part is modified.
    b1, b2 = parts[order], 0.0
    for k in range(order - 1, 0, -1):
        b0 = scaled.matrix @ b1
        b0 *= 2.0
        b0 += parts[k]
        b0 -= b2
        b1, b2 = b0, b1
    out = scaled.matrix @ b1
    out += parts[0]
    out -= b2
    return out
