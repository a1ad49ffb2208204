"""Scalar and eigendecomposition reference definitions, kept as test oracles.

The package evaluates the phenotypic measures, the correlation kernel and the
same-subject links over whole index arrays, Chebyshev filters by the
three-term recursion on the rescaled Laplacian, and the AUC's tie-averaged
ranks from the boundaries of runs of equal values. These functions state the
same quantities one pair, one node, one run or one eigenbasis at a time, as
the paper defines them, and the tests check the vectorized code against them.
"""

import numpy as np

from popgcn.errors import ContractError, ParameterError
from popgcn.popgraph import correlation_distance_matrix
from popgcn.spectral import estimate_lambda_max


def gamma_categorical(a, b) -> int:
    """Kronecker delta on category values."""
    return 1 if a == b else 0


def gamma_quantitative(a: float, b: float, theta: float) -> int:
    """Unit step: 1 iff |a - b| < theta (strict)."""
    if theta <= 0:
        raise ParameterError(f"theta must be > 0, got {theta}")
    return 1 if abs(a - b) < theta else 0


def similarity_kernel(x_v, x_w, sigma: float) -> float:
    """exp(-rho^2 / (2 sigma^2)) with rho the correlation distance; in (0, 1]."""
    if sigma <= 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    x_v = np.asarray(x_v, dtype=np.float64)
    x_w = np.asarray(x_w, dtype=np.float64)
    if x_v.shape != x_w.shape or x_v.ndim != 1 or len(x_v) < 2:
        raise ContractError("vectors must be 1-D, equal length >= 2")
    rho = correlation_distance_matrix(np.vstack([x_v, x_w]))[0, 1]
    return float(np.exp(-(rho**2) / (2.0 * sigma**2)))


def longitudinal_sim(subj_v: str, subj_w: str, lam: float) -> float:
    """Same-subject link weight: lam if subj_v == subj_w else 0."""
    if lam <= 1:
        raise ParameterError(f"lambda must be > 1, got {lam}")
    return float(lam) if subj_v == subj_w else 0.0


def laplacian_difference(graph, x, i: int) -> float:
    """Unnormalized difference form at node i: sum_j W_ij (x[i] - x[j]).

    Matches row i of (D - W) x.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) != graph.n_nodes:
        raise ContractError(f"signal length {len(x)} != n_nodes {graph.n_nodes}")
    return float((graph.adjacency[i] @ (x[i] - x)).sum())


def spectral_filter_oracle(lap, x, theta, lambda_max: float | None = None) -> np.ndarray:
    """Filter a signal through the eigendecomposition path.

    Computes U g(Lambda) U^T x where g applies the Chebyshev polynomial with
    coefficients theta to the rescaled eigenvalues 2 lambda / lambda_max - 1.
    Exact up to eigensolver precision; pass the same lambda_max the recursion
    path uses when comparing the two.
    """
    if lap.kind != "normalized":
        raise ContractError(f"expected a normalized Laplacian, got kind {lap.kind!r}")
    theta = np.asarray(theta, dtype=np.float64)
    if lambda_max is None:
        lambda_max = estimate_lambda_max(lap).value
    eigvals, eigvecs = np.linalg.eigh(lap.dense())
    lam_tilde = 2.0 * eigvals / lambda_max - 1.0

    gain = np.full_like(lam_tilde, theta[0])
    if len(theta) > 1:
        t_prev = np.ones_like(lam_tilde)
        t_cur = lam_tilde.copy()
        gain = gain + theta[1] * t_cur
        for k in range(2, len(theta)):
            t_prev, t_cur = t_cur, 2.0 * lam_tilde * t_cur - t_prev
            gain = gain + theta[k] * t_cur

    x = np.asarray(x, dtype=np.float64)
    spectral = eigvecs.T @ x
    if spectral.ndim == 1:
        return eigvecs @ (gain * spectral)
    return eigvecs @ (gain[:, None] * spectral)


def fractional_ranks(x) -> np.ndarray:
    """1-based ranks with ties at their mid-rank, one run of equal sorted
    values at a time."""
    x = np.asarray(x)
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks
