"""Population graph construction.

The phenotypic builder weights each node pair by a similarity factor times the
number of phenotypic measures the two acquisitions agree on:

    W(v, w) = Sim(v, w) * sum_h gamma(M_h(v), M_h(w))

where gamma is the Kronecker delta for categorical measures and a unit step
|a - b| < theta for quantitative ones, and Sim is either a Gaussian kernel of
the correlation distance between feature vectors, a same-subject longitudinal
link of weight lambda, or identically 1. Baseline builders (knn, complete,
weighted complete, rewired random) share the same graph representation: the
symmetric adjacency matrix, dense or CSR, that the Laplacian is built from.
A kernel computes the correlation distance once, over all rows; its width can
come from the pairs of a subset of rows, such as a fold's training nodes.

Builders whose W covers all node pairs (the phenotypic graph under the
correlation kernel or Sim = 1, knn, complete and weighted complete) fill a
dense N x N W. The longitudinal phenotypic graph links only the scans of one
subject, so it lists those pairs and passes the edge list on, with memory and
time that grow with its edges; so does the rewired random graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dataset import AcquisitionRecord, FeatureMatrix
from .errors import ContractError, DegenerateInputError, IntegrityError, ParameterError
from .errors import check_above, check_at_least

STRATEGIES = ("phenotypic", "knn", "complete", "all", "random")
MEASURES = ("SEX", "SITE", "AGE", "GENE")
SIM_MODES = ("correlation_kernel", "longitudinal", "none")

# Above this edge density adjacency and Laplacian matrices are kept dense, and
# at or below it they are CSR, whatever the node count.
DENSE_DENSITY_LIMIT = 0.05


@dataclass(frozen=True)
class GraphSpec:
    """Construction recipe for a population graph, checked when constructed
    (and by replace) whatever the strategy and sim_mode, the bounds by the
    errors checks, NaN failing. theta and sigma may be infinite (an age
    window or a kernel width that spans every pair); build_knn_graph also
    checks k < N."""

    strategy: str = "phenotypic"
    measures: tuple[str, ...] = ("SEX", "SITE")
    sim_mode: str = "correlation_kernel"
    theta: float = 2.0  # age window (years) for the quantitative step
    lam: float = 10.0  # same-subject link weight, > 1
    k: int = 10  # neighbour count, knn only
    sigma: float | None = None  # kernel width; None: the mean correlation distance
    seed: int = 0  # random strategy only

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy {self.strategy!r}")
        for m in self.measures:
            if m not in MEASURES:
                raise ParameterError(f"unknown phenotypic measure {m!r}")
        repeated = sorted({m for m in self.measures if self.measures.count(m) > 1})
        if repeated:
            raise ParameterError(f"measures must be distinct, repeated: {repeated}")
        if not self.measures and self.strategy in ("phenotypic", "random"):
            raise ParameterError(f"strategy {self.strategy!r} needs at least one measure")
        if self.sim_mode not in SIM_MODES:
            raise ParameterError(f"unknown sim_mode {self.sim_mode!r}")
        check_above("theta", self.theta, 0)
        check_above("lambda", self.lam, 1, finite=True)
        check_at_least("k", self.k, 1)
        if self.sigma is not None:
            check_above("sigma", self.sigma, 0)
        check_at_least("seed", self.seed, 0)

    @property
    def computes_kernel(self) -> bool:
        """Whether build_graph computes the correlation kernel of the
        features: knn and 'all' always, phenotypic and random under the
        correlation_kernel sim_mode."""
        return self.strategy in ("knn", "all") or (
            self.strategy in ("phenotypic", "random") and self.sim_mode == "correlation_kernel"
        )


def _stored_dense(n_nodes: int, n_edges: int) -> bool:
    possible = n_nodes * (n_nodes - 1) // 2
    return possible > 0 and n_edges / possible > DENSE_DENSITY_LIMIT


@dataclass
class PopulationGraph:
    """Undirected weighted graph, held as its symmetric adjacency matrix.

    `adjacency` has a zero diagonal. It is CSR for a graph of density at most
    DENSE_DENSITY_LIMIT, an edgeless graph included, and a dense ndarray
    otherwise, whatever its node count and whichever way it was built.
    Builders that fill a dense W pass it to from_upper; the longitudinal and
    random builders pass an edge list to from_edges. The edge views list each
    edge once with u < v, in row-major order.
    """

    adjacency: np.ndarray | sp.csr_matrix
    provenance: dict = field(default_factory=dict)

    @classmethod
    def from_upper(cls, w: np.ndarray, provenance: dict) -> "PopulationGraph":
        """Graph weighted by the strict upper triangle of the dense N x N w,
        which is overwritten: its diagonal zeroed, its upper triangle mirrored."""
        np.fill_diagonal(w, 0.0)
        for i in range(1, len(w)):
            w[i, :i] = w[:i, i]  # row by row, with no N x N temporary
        if not _stored_dense(len(w), np.count_nonzero(w) // 2):
            w = sp.csr_matrix(w)
        return cls(w, provenance)

    @classmethod
    def from_edges(cls, n_nodes: int, edges_u, edges_v, weights, provenance=None):
        """Graph from an edge list that holds each edge once with u < v.

        Raises IntegrityError on a self-loop, u > v, an endpoint outside
        [0, n_nodes), a negative or non-finite weight, or a repeated pair. An
        edge of weight 0 is no edge.
        """
        u = np.asarray(edges_u, dtype=np.int64)
        v = np.asarray(edges_v, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if not (len(u) == len(v) == len(w)):
            raise ContractError("edge arrays must have equal length")
        if np.any(u >= v):
            raise IntegrityError("edges must satisfy u < v (no self-loops)")
        if v.max(initial=-1) >= n_nodes or u.min(initial=0) < 0:
            raise IntegrityError("edge endpoint out of range")
        if not np.all(np.isfinite(w)):
            raise IntegrityError("non-finite edge weight")
        if np.any(w < 0):
            raise IntegrityError("negative edge weight")
        if len(np.unique(u * n_nodes + v)) != len(w):
            raise IntegrityError("duplicate edge")
        rows, cols = np.r_[u, v], np.r_[v, u]
        adjacency = sp.csr_matrix((np.r_[w, w], (rows, cols)), shape=(n_nodes, n_nodes))
        adjacency.eliminate_zeros()
        if _stored_dense(n_nodes, adjacency.nnz // 2):
            adjacency = adjacency.toarray()
        return cls(adjacency, dict(provenance or {}))

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        upper = sp.triu(self.adjacency, k=1, format="coo")
        return upper.row.astype(np.int64), upper.col.astype(np.int64), upper.data

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edges_u(self) -> np.ndarray:
        return self._edges[0]

    @property
    def edges_v(self) -> np.ndarray:
        return self._edges[1]

    @property
    def weights(self) -> np.ndarray:
        return self._edges[2]

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    @property
    def density(self) -> float:
        possible = self.n_nodes * (self.n_nodes - 1) // 2
        return self.n_edges / possible if possible else 0.0

    def edge_list(self) -> list[tuple[int, int, float]]:
        return list(zip(self.edges_u.tolist(), self.edges_v.tolist(), self.weights.tolist()))


def pairwise_correlation(x: np.ndarray) -> np.ndarray:
    """Pearson correlation between all row pairs of x (rows = nodes).

    x is read as a C-ordered copy when it is not one, so the row sums, and
    so the result's last bits, do not depend on its memory layout. Raises
    DegenerateInputError when any row has zero variance.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ContractError("need a 2-D matrix with at least 2 columns")
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    if np.any(norms == 0):
        idx = int(np.argmin(norms))
        raise DegenerateInputError(f"zero-variance feature vector at row {idx}")
    centered /= norms[:, None]
    corr = centered @ centered.T
    np.clip(corr, -1.0, 1.0, out=corr)
    return corr


def correlation_distance_matrix(x: np.ndarray) -> np.ndarray:
    """rho(v, w) = 1 - Pearson(x_v, x_w), in [0, 2].

    Distances below numerical noise are snapped to exactly 0 so identical
    vectors get kernel weight 1 regardless of the kernel width.
    """
    rho = pairwise_correlation(x)
    np.subtract(1.0, rho, out=rho)
    rho[rho < 1e-12] = 0.0
    return rho


def _mean_pair_distance(rho: np.ndarray) -> float:
    """Mean of rho over distinct node pairs; 1.0 when that is not positive."""
    if rho.shape[0] < 2:
        raise ParameterError("need at least 2 nodes to estimate sigma")
    iu, ju = np.triu_indices(rho.shape[0], k=1)
    sigma = float(rho[iu, ju].mean())
    if sigma <= 0:
        # All rows perfectly correlated; any positive width gives kernel 1.
        sigma = 1.0
    return sigma


def _gamma_sum(records: list[AcquisitionRecord], spec: GraphSpec, u, v) -> np.ndarray:
    """Number of spec.measures on which nodes u and v agree, elementwise over
    index arrays that broadcast together: every N x N pair from a column and
    a row of node indices, or an edge list from two flat arrays. Each
    measure's boolean agreement is added into the float total in place."""
    total = np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v)))
    for measure in spec.measures:
        if measure == "AGE":
            ages = np.array([r.age for r in records])
            total += np.abs(ages[u] - ages[v]) < spec.theta
        else:
            attr = {"SEX": "sex", "SITE": "site", "GENE": "gene_flag"}[measure]
            vals = [getattr(r, attr) for r in records]
            # A missing categorical value agrees with nothing.
            keys = [f"v:{x}" if x is not None else f"missing:{i}" for i, x in enumerate(vals)]
            _, codes = np.unique(keys, return_inverse=True)
            total += codes[u] == codes[v]
    return total


def _same_subject_pairs(records: list[AcquisitionRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of acquisitions of one subject, once, as u < v."""
    _, subjects = np.unique([r.subject_id for r in records], return_inverse=True)
    order = np.argsort(subjects, kind="stable")  # by subject, then by node index
    grouped = subjects[order]
    us, vs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for offset in range(1, len(order)):
        # Positions `offset` apart in `order` pair up when they hold one subject.
        first = np.flatnonzero(grouped[:-offset] == grouped[offset:])
        if not len(first):
            break  # no subject has more than `offset` acquisitions
        us.append(order[first])
        vs.append(order[first + offset])
    return np.concatenate(us), np.concatenate(vs)


def _kernel_matrix(
    features: FeatureMatrix, sigma: float | None, sigma_rows
) -> tuple[np.ndarray, float]:
    """Gaussian kernel of the correlation distance between all rows, and its
    width: sigma when given, else the mean distance over pairs of sigma_rows
    (all rows when None)."""
    rho = correlation_distance_matrix(features.values)
    if sigma is not None:
        sigma = float(sigma)
    elif sigma_rows is None:
        sigma = _mean_pair_distance(rho)
    else:
        sigma = _mean_pair_distance(rho[np.ix_(sigma_rows, sigma_rows)])
    # exp(-(rho^2) / (2 sigma^2)), evaluated in rho's own storage.
    kernel = np.square(rho, out=rho)
    np.negative(kernel, out=kernel)
    kernel /= 2.0 * sigma**2
    np.exp(kernel, out=kernel)
    return kernel, sigma


def build_phenotypic_graph(
    features: FeatureMatrix, records: list[AcquisitionRecord], spec: GraphSpec, sigma_rows=None
) -> PopulationGraph:
    """Phenotype-weighted graph: W = Sim * (number of agreeing measures).

    Under sim_mode 'longitudinal' only same-subject pairs are evaluated, and
    the graph is built from their nonzero weights as an edge list.
    """
    if spec.strategy != "phenotypic":
        raise ContractError(f"spec.strategy must be 'phenotypic', got {spec.strategy!r}")
    if features.n_acquisitions != len(records) or features.ids != [
        r.acquisition_id for r in records
    ]:
        raise ContractError("features and records must be aligned by acquisition_id")
    n = features.n_acquisitions

    provenance = {
        "strategy": "phenotypic",
        "measures": list(spec.measures),
        "sim_mode": spec.sim_mode,
        "theta": spec.theta,
        "lambda": spec.lam if spec.sim_mode == "longitudinal" else None,
        "sigma": None,
        "n_nodes": n,
    }
    if spec.sim_mode == "longitudinal":
        u, v = _same_subject_pairs(records)
        count = _gamma_sum(records, spec, u, v)
        keep = count > 0
        return PopulationGraph.from_edges(
            n, u[keep], v[keep], float(spec.lam) * count[keep], provenance
        )
    # The kernel comes first, so its N x C temporaries are freed before the
    # N x N measure count is made.
    sim = None
    if spec.sim_mode == "correlation_kernel":
        sim, provenance["sigma"] = _kernel_matrix(features, spec.sigma, sigma_rows)
    nodes = np.arange(n)
    w = _gamma_sum(records, spec, nodes[:, None], nodes)
    if sim is not None:
        w *= sim
        del sim
    return PopulationGraph.from_upper(w, provenance)


def build_knn_graph(
    features: FeatureMatrix, k: int, sigma: float | None = None, sigma_rows=None
) -> PopulationGraph:
    """k-nearest-neighbour graph under the correlation kernel, union-symmetrized.

    An edge (u, v) is present iff v is among u's k most similar nodes or vice
    versa; its weight is the kernel value, so every node keeps degree >= k.
    """
    n = features.n_acquisitions
    if not 1 <= k < n:
        raise ParameterError(f"k must satisfy 1 <= k < N={n}, got {k}")
    kern, sigma = _kernel_matrix(features, sigma, sigma_rows)
    np.fill_diagonal(kern, -np.inf)

    w = np.zeros((n, n))
    for u in range(n):
        # Stable sort keeps ties in node-index order for determinism.
        nbrs = np.argsort(-kern[u], kind="stable")[:k]
        w[u, nbrs] = kern[u, nbrs]
    w = np.maximum(w, w.T)  # union symmetrization
    provenance = {"strategy": "knn", "k": k, "sigma": sigma, "n_nodes": n}
    return PopulationGraph.from_upper(w, provenance)


def build_complete_graph(n: int) -> PopulationGraph:
    """Complete graph on n nodes with unit weights."""
    return PopulationGraph.from_upper(np.ones((n, n)), {"strategy": "complete", "n_nodes": n})


def build_random_graph(reference: PopulationGraph, seed: int) -> PopulationGraph:
    """Rewire a reference graph: same node and edge count, uniformly resampled
    endpoints (no duplicates or self-loops), weight multiset preserved via a
    random permutation. It keeps the reference's kernel width as its sigma."""
    if reference.n_edges < 1:
        raise ParameterError("reference graph must have at least one edge")
    n = reference.n_nodes
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    idx = rng.choice(len(iu), size=reference.n_edges, replace=False)
    idx.sort()
    weights = rng.permutation(reference.weights)
    provenance = {
        "strategy": "random",
        "seed": seed,
        "reference": reference.provenance.get("strategy"),
        "sigma": reference.provenance.get("sigma"),
        "n_nodes": n,
    }
    return PopulationGraph.from_edges(n, iu[idx], ju[idx], weights, provenance)


def build_graph(
    features: FeatureMatrix, records: list[AcquisitionRecord], spec: GraphSpec, sigma_rows=None
) -> PopulationGraph:
    """Dispatch on spec.strategy; 'random' rewires the phenotypic graph.

    A kernel covers every row; unless spec.sigma gives its width, that is
    the mean correlation distance over pairs of sigma_rows (all rows when
    None). 'all' is the complete graph weighted by the kernel.
    """
    if spec.strategy == "phenotypic":
        return build_phenotypic_graph(features, records, spec, sigma_rows)
    if spec.strategy == "knn":
        return build_knn_graph(features, spec.k, spec.sigma, sigma_rows)
    if spec.strategy == "complete":
        return build_complete_graph(features.n_acquisitions)
    if spec.strategy == "all":
        w, sigma = _kernel_matrix(features, spec.sigma, sigma_rows)
        n = features.n_acquisitions
        return PopulationGraph.from_upper(w, {"strategy": "all", "sigma": sigma, "n_nodes": n})
    reference = build_phenotypic_graph(
        features, records, replace(spec, strategy="phenotypic"), sigma_rows
    )
    return build_random_graph(reference, spec.seed)


def save_graph(graph: PopulationGraph, path):
    """Edge-list CSV `u,v,weight` with a provenance header comment."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# provenance: {json.dumps(graph.provenance, sort_keys=True)}\n")
        fh.write(f"# n_nodes: {graph.n_nodes}\n")
        fh.write("u,v,weight\n")
        for u, v, w in graph.edge_list():
            fh.write(f"{u},{v},{repr(w)}\n")
