"""Population graph construction.

The phenotypic builder weights each node pair by a similarity factor times the
number of phenotypic measures the two acquisitions agree on:

    W(v, w) = Sim(v, w) * sum_h gamma(M_h(v), M_h(w))

where gamma is the Kronecker delta for categorical measures and a unit step
|a - b| < theta for quantitative ones, and Sim is either a Gaussian kernel of
the correlation distance between feature vectors, a same-subject longitudinal
link of weight lambda, or identically 1. Baseline builders (knn, complete,
weighted complete, rewired random) share the same graph representation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .dataset import AcquisitionRecord, FeatureMatrix
from .errors import ContractError, DegenerateInputError, IntegrityError, ParameterError

STRATEGIES = ("phenotypic", "knn", "complete", "all", "random")
MEASURES = ("SEX", "SITE", "AGE", "GENE")
SIM_MODES = ("correlation_kernel", "longitudinal", "none")

# Below this node count, or above this edge density, adjacency and Laplacian
# matrices are kept dense; sparse storage only pays off for large sparse graphs.
DENSE_NODE_LIMIT = 200
DENSE_DENSITY_LIMIT = 0.05


@dataclass(frozen=True)
class GraphSpec:
    """Construction recipe for a population graph."""

    strategy: str = "phenotypic"
    measures: tuple[str, ...] = ("SEX", "SITE")
    sim_mode: str = "correlation_kernel"
    theta: float = 2.0  # age window (years) for the quantitative step
    lam: float = 10.0  # same-subject link weight, > 1
    k: int = 10  # neighbour count, knn only
    sigma_mode: str = "mean_rho"  # "mean_rho" or "fixed"
    sigma_value: float | None = None
    seed: int = 0  # random strategy only

    def validate(self):
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy {self.strategy!r}")
        for m in self.measures:
            if m not in MEASURES:
                raise ParameterError(f"unknown phenotypic measure {m!r}")
        if self.sim_mode not in SIM_MODES:
            raise ParameterError(f"unknown sim_mode {self.sim_mode!r}")
        if self.theta <= 0:
            raise ParameterError(f"theta must be > 0, got {self.theta}")
        if self.sim_mode == "longitudinal" and self.lam <= 1:
            raise ParameterError(f"lambda must be > 1, got {self.lam}")
        if self.sigma_mode not in ("mean_rho", "fixed"):
            raise ParameterError(f"unknown sigma_mode {self.sigma_mode!r}")
        if self.sigma_mode == "fixed" and (self.sigma_value is None or self.sigma_value <= 0):
            raise ParameterError("sigma_mode='fixed' requires sigma_value > 0")


@dataclass
class PopulationGraph:
    """Undirected weighted graph; each unordered pair stored once with u < v."""

    n_nodes: int
    edges_u: np.ndarray
    edges_v: np.ndarray
    weights: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.edges_u = np.asarray(self.edges_u, dtype=np.int64)
        self.edges_v = np.asarray(self.edges_v, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.validate()

    def validate(self):
        if not (len(self.edges_u) == len(self.edges_v) == len(self.weights)):
            raise ContractError("edge arrays must have equal length")
        if self.n_edges:
            if np.any(self.edges_u >= self.edges_v):
                raise IntegrityError("edges must satisfy u < v (no self-loops)")
            if self.edges_v.max(initial=-1) >= self.n_nodes or self.edges_u.min(initial=0) < 0:
                raise IntegrityError("edge endpoint out of range")
            if np.any(self.weights < 0):
                raise IntegrityError("negative edge weight")
            key = self.edges_u * self.n_nodes + self.edges_v
            if len(np.unique(key)) != self.n_edges:
                raise IntegrityError("duplicate edge")

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    @property
    def density(self) -> float:
        possible = self.n_nodes * (self.n_nodes - 1) // 2
        return self.n_edges / possible if possible else 0.0

    def edge_list(self) -> list[tuple[int, int, float]]:
        return list(zip(self.edges_u.tolist(), self.edges_v.tolist(), self.weights.tolist()))

    def adjacency(self, form: str = "auto"):
        """Symmetric adjacency; dense ndarray or CSR depending on size/density."""
        if form == "auto":
            form = (
                "dense"
                if self.n_nodes <= DENSE_NODE_LIMIT or self.density > DENSE_DENSITY_LIMIT
                else "sparse"
            )
        if form == "dense":
            w = np.zeros((self.n_nodes, self.n_nodes))
            w[self.edges_u, self.edges_v] = self.weights
            w[self.edges_v, self.edges_u] = self.weights
            return w
        rows = np.concatenate([self.edges_u, self.edges_v])
        cols = np.concatenate([self.edges_v, self.edges_u])
        vals = np.concatenate([self.weights, self.weights])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n_nodes, self.n_nodes))

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n_nodes)
        np.add.at(d, self.edges_u, self.weights)
        np.add.at(d, self.edges_v, self.weights)
        return d

    def neighbor_counts(self) -> np.ndarray:
        d = np.zeros(self.n_nodes, dtype=np.int64)
        np.add.at(d, self.edges_u, 1)
        np.add.at(d, self.edges_v, 1)
        return d


def gamma_categorical(a, b) -> int:
    """Kronecker delta on category values."""
    return 1 if a == b else 0


def gamma_quantitative(a: float, b: float, theta: float) -> int:
    """Unit step: 1 iff |a - b| < theta (strict)."""
    if theta <= 0:
        raise ParameterError(f"theta must be > 0, got {theta}")
    return 1 if abs(a - b) < theta else 0


def pairwise_correlation(x: np.ndarray) -> np.ndarray:
    """Pearson correlation between all row pairs of x (rows = nodes).

    Raises DegenerateInputError when any row has zero variance.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ContractError("need a 2-D matrix with at least 2 columns")
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    if np.any(norms == 0):
        idx = int(np.argmin(norms))
        raise DegenerateInputError(f"zero-variance feature vector at row {idx}")
    z = centered / norms[:, None]
    corr = z @ z.T
    return np.clip(corr, -1.0, 1.0)


def correlation_distance_matrix(x: np.ndarray) -> np.ndarray:
    """rho(v, w) = 1 - Pearson(x_v, x_w), in [0, 2].

    Distances below numerical noise are snapped to exactly 0 so identical
    vectors get kernel weight 1 regardless of the kernel width.
    """
    rho = 1.0 - pairwise_correlation(x)
    rho[rho < 1e-12] = 0.0
    return rho


def estimate_sigma(x: np.ndarray, node_subset=None) -> float:
    """Mean correlation distance over distinct node pairs.

    With node_subset given, only pairs inside the subset contribute; the
    harness uses this to estimate sigma from training nodes only.
    """
    x = np.asarray(x, dtype=np.float64)
    if node_subset is not None:
        x = x[np.asarray(node_subset)]
    n = x.shape[0]
    if n < 2:
        raise ParameterError("need at least 2 nodes to estimate sigma")
    return _mean_pair_distance(correlation_distance_matrix(x))


def _mean_pair_distance(rho: np.ndarray) -> float:
    """Mean of rho over distinct node pairs; 1.0 when that is not positive."""
    iu, ju = np.triu_indices(rho.shape[0], k=1)
    sigma = float(rho[iu, ju].mean())
    if sigma <= 0:
        # All rows perfectly correlated; any positive width gives kernel 1.
        sigma = 1.0
    return sigma


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


def _gamma_sum_matrix(records: list[AcquisitionRecord], spec: GraphSpec) -> np.ndarray:
    n = len(records)
    total = np.zeros((n, n))
    for measure in spec.measures:
        if measure == "AGE":
            ages = np.array([r.age for r in records])
            agree = (np.abs(ages[:, None] - ages[None, :]) < spec.theta).astype(np.float64)
        else:
            attr = {"SEX": "sex", "SITE": "site", "GENE": "gene_flag"}[measure]
            vals = [getattr(r, attr) for r in records]
            # A missing categorical value agrees with nothing.
            keys = [f"v:{v}" if v is not None else f"missing:{i}" for i, v in enumerate(vals)]
            _, codes = np.unique(keys, return_inverse=True)
            agree = (codes[:, None] == codes[None, :]).astype(np.float64)
        total += agree
    return total


def _kernel_matrix(features: FeatureMatrix, spec: GraphSpec) -> tuple[np.ndarray, float]:
    rho = correlation_distance_matrix(features.values)
    if spec.sigma_mode == "fixed":
        sigma = float(spec.sigma_value)
    else:
        sigma = _mean_pair_distance(rho)
    return np.exp(-(rho**2) / (2.0 * sigma**2)), sigma


def _graph_from_dense(n: int, w: np.ndarray, provenance: dict) -> PopulationGraph:
    iu, ju = np.triu_indices(n, k=1)
    vals = w[iu, ju]
    keep = vals != 0.0
    return PopulationGraph(
        n_nodes=n,
        edges_u=iu[keep],
        edges_v=ju[keep],
        weights=vals[keep],
        provenance=provenance,
    )


def build_phenotypic_graph(
    features: FeatureMatrix, records: list[AcquisitionRecord], spec: GraphSpec
) -> PopulationGraph:
    """Phenotype-weighted graph: W = Sim * (number of agreeing measures)."""
    spec.validate()
    if spec.strategy != "phenotypic":
        raise ContractError(f"spec.strategy must be 'phenotypic', got {spec.strategy!r}")
    if features.n_acquisitions != len(records) or features.ids != [
        r.acquisition_id for r in records
    ]:
        raise ContractError("features and records must be aligned by acquisition_id")
    n = features.n_acquisitions

    gamma_sum = _gamma_sum_matrix(records, spec)
    sigma = None
    if spec.sim_mode == "correlation_kernel":
        sim, sigma = _kernel_matrix(features, spec)
    elif spec.sim_mode == "longitudinal":
        _, subjects = np.unique([r.subject_id for r in records], return_inverse=True)
        sim = np.where(subjects[:, None] == subjects[None, :], float(spec.lam), 0.0)
    else:
        sim = np.ones((n, n))

    w = sim * gamma_sum
    provenance = {
        "strategy": "phenotypic",
        "measures": list(spec.measures),
        "sim_mode": spec.sim_mode,
        "theta": spec.theta,
        "lambda": spec.lam if spec.sim_mode == "longitudinal" else None,
        "sigma": sigma,
        "n_nodes": n,
    }
    return _graph_from_dense(n, w, provenance)


def build_knn_graph(
    features: FeatureMatrix,
    k: int,
    sigma_mode: str = "mean_rho",
    sigma_value: float | None = None,
) -> PopulationGraph:
    """k-nearest-neighbour graph under the correlation kernel, union-symmetrized.

    An edge (u, v) is present iff v is among u's k most similar nodes or vice
    versa; its weight is the kernel value, so every node keeps degree >= k.
    """
    n = features.n_acquisitions
    if not 1 <= k < n:
        raise ParameterError(f"k must satisfy 1 <= k < N={n}, got {k}")
    spec = GraphSpec(strategy="knn", sigma_mode=sigma_mode, sigma_value=sigma_value)
    kern, sigma = _kernel_matrix(features, spec)
    np.fill_diagonal(kern, -np.inf)

    w = np.zeros((n, n))
    for u in range(n):
        # Stable sort keeps ties in node-index order for determinism.
        nbrs = np.argsort(-kern[u], kind="stable")[:k]
        w[u, nbrs] = kern[u, nbrs]
    w = np.maximum(w, w.T)  # union symmetrization
    provenance = {"strategy": "knn", "k": k, "sigma": sigma, "n_nodes": n}
    return _graph_from_dense(n, w, provenance)


def build_complete_graph(
    n: int | None = None,
    weighted: bool = False,
    features: FeatureMatrix | None = None,
    sigma_mode: str = "mean_rho",
    sigma_value: float | None = None,
) -> PopulationGraph:
    """Complete graph: unit weights, or kernel weights when weighted=True."""
    if weighted:
        if features is None:
            raise ParameterError("weighted complete graph requires features")
        n = features.n_acquisitions
        spec = GraphSpec(strategy="all", sigma_mode=sigma_mode, sigma_value=sigma_value)
        w, sigma = _kernel_matrix(features, spec)
        np.fill_diagonal(w, 0.0)
        provenance = {"strategy": "all", "sigma": sigma, "n_nodes": n}
        return _graph_from_dense(n, w, provenance)
    if n is None:
        if features is None:
            raise ParameterError("need n or features")
        n = features.n_acquisitions
    iu, ju = np.triu_indices(n, k=1)
    return PopulationGraph(
        n_nodes=n,
        edges_u=iu,
        edges_v=ju,
        weights=np.ones(len(iu)),
        provenance={"strategy": "complete", "n_nodes": n},
    )


def build_random_graph(reference: PopulationGraph, seed: int) -> PopulationGraph:
    """Rewire a reference graph: same node and edge count, uniformly resampled
    endpoints (no duplicates or self-loops), weight multiset preserved via a
    random permutation."""
    if reference.n_edges < 1:
        raise ParameterError("reference graph must have at least one edge")
    n = reference.n_nodes
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    idx = rng.choice(len(iu), size=reference.n_edges, replace=False)
    idx.sort()
    weights = rng.permutation(reference.weights)
    return PopulationGraph(
        n_nodes=n,
        edges_u=iu[idx],
        edges_v=ju[idx],
        weights=weights,
        provenance={
            "strategy": "random",
            "seed": seed,
            "reference": reference.provenance.get("strategy"),
            "n_nodes": n,
        },
    )


def build_graph(
    features: FeatureMatrix, records: list[AcquisitionRecord], spec: GraphSpec
) -> PopulationGraph:
    """Dispatch on spec.strategy; 'random' rewires the phenotypic graph."""
    spec.validate()
    if spec.strategy == "phenotypic":
        return build_phenotypic_graph(features, records, spec)
    if spec.strategy == "knn":
        return build_knn_graph(features, spec.k, spec.sigma_mode, spec.sigma_value)
    if spec.strategy == "complete":
        return build_complete_graph(n=features.n_acquisitions)
    if spec.strategy == "all":
        return build_complete_graph(
            weighted=True, features=features, sigma_mode=spec.sigma_mode, sigma_value=spec.sigma_value
        )
    reference = build_phenotypic_graph(features, records, replace(spec, strategy="phenotypic"))
    return build_random_graph(reference, spec.seed)


def save_graph(graph: PopulationGraph, path):
    """Edge-list CSV `u,v,weight` with a provenance header comment."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# provenance: {json.dumps(graph.provenance, sort_keys=True)}\n")
        fh.write(f"# n_nodes: {graph.n_nodes}\n")
        fh.write("u,v,weight\n")
        for u, v, w in graph.edge_list():
            fh.write(f"{u},{v},{repr(w)}\n")


def load_graph(path) -> PopulationGraph:
    provenance = {}
    n_nodes = None
    us, vs, ws = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("# provenance:"):
                provenance = json.loads(line.split(":", 1)[1])
            elif line.startswith("# n_nodes:"):
                n_nodes = int(line.split(":", 1)[1])
            elif line.startswith("#") or line == "u,v,weight":
                continue
            else:
                u, v, w = line.split(",")
                us.append(int(u))
                vs.append(int(v))
                ws.append(float(w))
    if n_nodes is None:
        raise IntegrityError(f"{path}: missing '# n_nodes:' header")
    return PopulationGraph(
        n_nodes=n_nodes,
        edges_u=np.array(us, dtype=np.int64),
        edges_v=np.array(vs, dtype=np.int64),
        weights=np.array(ws),
        provenance=provenance,
    )
