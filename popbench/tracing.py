"""Span tracer for the traced run, and the per-layer metrics derived from it.

The tracer replaces popgcn functions on the module (or class) attribute that
their caller reads, so nothing under src/ changes and the measured path is
the program's own `run_experiment`. Spans are kept in memory (name, start,
end, parent, attributes) and written out once the run ends. A span's parent
is the innermost traced call that was open when it started; calls between two
traced functions (for example `gcn._forward`) are part of the parent's self
time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from statistics import fmean

import numpy as np
import scipy.sparse as sp


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped callables; install() and restore() patch and unpatch."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), name=name, parent=parent, start=0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around code that is not a wrapped call."""
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def wrap(self, name: str, fn, annotate=None):
        """Wrap fn in a span; annotate(bound_arguments, result) adds attributes
        after the span has ended, so its cost is outside the span."""
        signature = inspect.signature(fn) if annotate is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(annotate(bound.arguments, result))
            return result

        return traced

    def install(self, targets) -> list[str]:
        """Patch each (owner, attribute, span name, annotate) target that
        exists; returns the span names of targets the program no longer has."""
        missing = []
        for owner, attr, name, annotate in targets:
            original = vars(owner).get(attr)
            if original is None:
                missing.append(name)
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, annotate))
        return missing

    def restore(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.restore()
        return False

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True, default=str))
                fh.write("\n")


# ---------------------------------------------------------------- targets


def _operator_bytes(matrix) -> int:
    if sp.issparse(matrix):
        return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
    return int(matrix.nbytes)


def _operator_work(scaled, cols: int, applications: int) -> dict:
    """Work of `applications` products of the N x N operator with an N x cols
    operand, computed from shapes: each reads the operator and the operand
    and writes the result."""
    n = scaled.matrix.shape[0]
    per_product = _operator_bytes(scaled.matrix) + 2 * n * cols * 8
    return {
        "op_applications": applications,
        "op_cols": applications * cols,
        "op_bytes": applications * per_product,
    }


def _cols(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim == 1 else int(x.shape[1])


def _basis_work(a, result):
    # T_1 X = Ls X, then one product per further order.
    return _operator_work(a["scaled"], _cols(a["x"]), max(a["order"], 0))


def _weighted_sum_work(a, result):
    # Clenshaw: one product per order k = K..1 plus the final one.
    order = len(a["parts"]) - 1
    return _operator_work(a["scaled"], _cols(a["parts"][0]), order + 1 if order >= 1 else 0)


def _lambda_estimate(a, result):
    return {
        "value": float(result.value),
        "used_fallback": bool(result.used_fallback),
        "iterations": int(result.iterations),
    }


def _graph_stats(a, result):
    return {"edges": int(result.n_edges), "density": float(result.density)}


def targets(tracer_graphs: dict):
    """(owner, attribute, span name, annotate) for every traced call site.

    Each wrapper goes on the attribute its caller reads: harness imports
    build_graph, estimate_sigma, the baselines and labels_array by name, gcn
    imports the spectral functions by name, baselines imports the gcn network
    functions by name, and run_experiment reaches train/predict through the
    gcn module. tracer_graphs collects the graphs handed to scaled_operator so
    the exact lambda_max can be computed after the experiment.
    """
    from popgcn import baselines, dataset, featsel, gcn, harness, popgraph

    def keep_graph(a, result):
        tracer_graphs[id(a["graph"])] = a["graph"]
        return {"graph": id(a["graph"])}

    return [
        (dataset, "load_dataset", "dataset.load_dataset", None),
        (dataset, "load_features", "dataset.load_features", None),
        (dataset, "load_phenotypes", "dataset.load_phenotypes", None),
        (harness, "labels_array", "dataset.labels_array", None),
        (featsel.FeatureSelector, "fit", "featsel.fit", None),
        (featsel.FeatureSelector, "transform", "featsel.transform", None),
        (featsel, "rfe_select", "featsel.rfe_select", None),
        (featsel, "ridge_fit", "featsel.ridge_fit", None),
        (baselines, "ridge_fit", "featsel.ridge_fit", None),
        (harness, "estimate_sigma", "popgraph.estimate_sigma", None),
        (harness, "build_graph", "popgraph.build_graph", _graph_stats),
        (popgraph, "correlation_distance_matrix", "popgraph.correlation_distance_matrix", None),
        (gcn, "scaled_operator", "spectral.scaled_operator", keep_graph),
        (gcn, "normalized_laplacian", "spectral.normalized_laplacian", None),
        (gcn, "estimate_lambda_max", "spectral.estimate_lambda_max", _lambda_estimate),
        (gcn, "scale_laplacian", "spectral.scale_laplacian", None),
        (gcn, "chebyshev_basis", "spectral.chebyshev_basis", _basis_work),
        (gcn, "chebyshev_weighted_sum", "spectral.chebyshev_weighted_sum", _weighted_sum_work),
        (gcn, "train", "gcn.train", lambda a, r: {"epochs": a["config"].epochs}),
        (gcn, "predict", "gcn.predict", None),
        (gcn, "loss_and_grads", "gcn.loss_and_grads", None),
        (gcn, "adam_step", "gcn.adam_step", None),
        (gcn, "forward", "gcn.forward", None),
        (gcn, "cheb_conv_forward", "gcn.cheb_conv_forward", None),
        (harness, "mlp_classify", "baselines.mlp_classify",
         lambda a, r: {"epochs": a["config"].mlp_epochs}),
        (harness, "ridge_classify", "baselines.ridge_classify", None),
        (baselines, "loss_and_grads", "baselines.loss_and_grads", None),
        (baselines, "adam_step", "baselines.adam_step", None),
        (baselines, "forward", "baselines.forward", None),
        (harness, "run_experiment", "harness.run_experiment",
         lambda a, r: {"folds": a["desc"].folds, "seeds": len(a["desc"].seeds)}),
        (harness, "stratified_group_kfold", "harness.stratified_group_kfold", None),
    ]


def exact_lambda_max(graph) -> float:
    """Largest normalized-Laplacian eigenvalue by dense np.linalg.eigvalsh."""
    from popgcn.spectral import normalized_laplacian

    lap = normalized_laplacian(graph)
    return float(np.linalg.eigvalsh(lap.dense())[-1])


def graph_digest(graph) -> bytes:
    """Content key for a graph, so equal graphs from repeated runs share one
    exact eigenvalue computation."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(graph.n_nodes).tobytes())
    for arr in (graph.edges_u, graph.edges_v, graph.weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


# ---------------------------------------------------------------- metrics

# name -> (unit, better). README.md says which end-to-end metric and which
# workload each should move.
LAYER_METRICS = {
    "dataset.load_features_s": ("s", "lower"),
    "dataset.load_phenotypes_s": ("s", "lower"),
    "featsel.fit_s": ("s", "lower"),
    "featsel.transform_s": ("s", "lower"),
    "featsel.ridge_fit_calls": ("count/fold", "lower"),
    "popgraph.estimate_sigma_s": ("s", "lower"),
    "popgraph.build_graph_s": ("s", "lower"),
    "popgraph.correlation_distance_calls": ("count/fold", "lower"),
    "popgraph.edges": ("count", "lower"),
    "popgraph.density": ("ratio", "lower"),
    "spectral.operator_builds": ("count/fold", "lower"),
    "spectral.operator_build_s": ("s", "lower"),
    "spectral.lambda_max_s": ("s", "lower"),
    "spectral.lambda_max_iters": ("count", "lower"),
    "spectral.lambda_max_fallbacks": ("count/fold", "lower"),
    "spectral.lambda_max_rel_err": ("ratio", "lower"),
    "spectral.op_applications": ("count/fold", "lower"),
    "spectral.op_cols": ("cols/fold", "lower"),
    "spectral.op_bytes": ("B/fold", "lower"),
    "gcn.train_s": ("s", "lower"),
    "gcn.epoch_ms": ("ms", "lower"),
    "gcn.layer0.forward_ms": ("ms", "lower"),
    "gcn.layer1.forward_ms": ("ms", "lower"),
    "gcn.layer1.backward_ms": ("ms", "lower"),
    "gcn.grad_self_ms": ("ms", "lower"),
    "gcn.adam_ms": ("ms", "lower"),
    "gcn.predict_s": ("s", "lower"),
    "baselines.mlp_s": ("s", "lower"),
    "baselines.mlp_epoch_ms": ("ms", "lower"),
    "harness.fold_assign_ms": ("ms", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


# Derived from call arguments and shapes, not measured.
COMPUTED = {"spectral.op_applications", "spectral.op_cols", "spectral.op_bytes"}


def _subtree(spans: list[Span], root: Span) -> list[Span]:
    """Spans under root (excluding it); spans are stored in start order."""
    inside = {root.id}
    out = []
    for span in spans[root.id + 1:]:
        if span.parent in inside:
            inside.add(span.id)
            out.append(span)
    return out


def _mean_ms(values) -> float:
    return 1e3 * fmean(values) if values else 0.0


def setup_metrics(spans: list[Span], setup: Span) -> dict:
    sub = _subtree(spans, setup)

    def total(name):
        return sum((s.duration for s in sub if s.name == name), 0.0)

    return {
        "dataset.load_features_s": total("dataset.load_features"),
        "dataset.load_phenotypes_s": total("dataset.load_phenotypes"),
    }


def experiment_metrics(spans: list[Span], root: Span, exact: dict) -> dict:
    """Per-layer metrics of one traced run_experiment span.

    Times ending in _s are totals over the experiment, _ms are means per call
    (per epoch for epoch_ms); count/fold metrics are totals divided by folds.
    exact maps a scaled_operator graph id to its exact lambda_max.
    """
    sub = _subtree(spans, root)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in sub:
        by_name[span.name].append(span)
        children[span.parent].append(span)
    folds = root.attrs["folds"]

    def total(name):
        return sum((s.duration for s in by_name[name]), 0.0)

    def per_fold(values):
        return sum(values) / folds

    m = {
        "featsel.fit_s": total("featsel.fit"),
        "featsel.transform_s": total("featsel.transform"),
        "featsel.ridge_fit_calls": len(by_name["featsel.ridge_fit"]) / folds,
        "popgraph.estimate_sigma_s": total("popgraph.estimate_sigma"),
        "popgraph.build_graph_s": total("popgraph.build_graph"),
        "popgraph.correlation_distance_calls": (
            len(by_name["popgraph.correlation_distance_matrix"]) / folds
        ),
    }
    graphs = by_name["popgraph.build_graph"]
    m["popgraph.edges"] = fmean(s.attrs["edges"] for s in graphs) if graphs else 0.0
    m["popgraph.density"] = fmean(s.attrs["density"] for s in graphs) if graphs else 0.0

    builds = by_name["spectral.scaled_operator"]
    lams = by_name["spectral.estimate_lambda_max"]
    parent_graph = {s.id: s.attrs["graph"] for s in builds}
    rel_errs = []
    for s in lams:
        true = exact.get(parent_graph.get(s.parent))
        if true is not None:
            rel_errs.append(abs(s.attrs["value"] - true) / true)
    ops = by_name["spectral.chebyshev_basis"] + by_name["spectral.chebyshev_weighted_sum"]
    m.update({
        "spectral.operator_builds": len(builds) / folds,
        "spectral.operator_build_s": total("spectral.scaled_operator"),
        "spectral.lambda_max_s": total("spectral.estimate_lambda_max"),
        "spectral.lambda_max_iters": fmean(s.attrs["iterations"] for s in lams) if lams else 0.0,
        "spectral.lambda_max_fallbacks": per_fold([int(s.attrs["used_fallback"]) for s in lams]),
        "spectral.lambda_max_rel_err": fmean(rel_errs) if rel_errs else 0.0,
        "spectral.op_applications": per_fold([s.attrs["op_applications"] for s in ops]),
        "spectral.op_cols": per_fold([s.attrs["op_cols"] for s in ops]),
        "spectral.op_bytes": per_fold([s.attrs["op_bytes"] for s in ops]),
    })

    # Layer l's forward is its Chebyshev basis plus its convolution; the j-th
    # Clenshaw pass of a backward pass carries the gradient through layer L-j.
    forward_ms = defaultdict(list)
    backward_ms = defaultdict(list)
    grad_self = []
    for parent in by_name["gcn.loss_and_grads"] + by_name["gcn.forward"]:
        kids = children[parent.id]
        layer, basis = 0, 0.0
        for kid in kids:
            if kid.name == "spectral.chebyshev_basis":
                basis += kid.duration
            elif kid.name == "gcn.cheb_conv_forward":
                forward_ms[layer].append(basis + kid.duration)
                layer, basis = layer + 1, 0.0
        passes = [k for k in kids if k.name == "spectral.chebyshev_weighted_sum"]
        for j, kid in enumerate(passes):
            backward_ms[layer - 1 - j].append(kid.duration)
        if parent.name == "gcn.loss_and_grads":
            grad_self.append(parent.duration - sum(k.duration for k in kids))

    trains = by_name["gcn.train"]
    train_epochs = sum(s.attrs["epochs"] for s in trains)
    train_builds = sum(s.duration for s in builds if s.parent in {t.id for t in trains})
    mlps = by_name["baselines.mlp_classify"]
    mlp_epochs = sum(s.attrs["epochs"] for s in mlps)
    m.update({
        "gcn.train_s": total("gcn.train"),
        "gcn.epoch_ms": (
            1e3 * (total("gcn.train") - train_builds) / train_epochs if train_epochs else 0.0
        ),
        "gcn.layer0.forward_ms": _mean_ms(forward_ms[0]),
        "gcn.layer1.forward_ms": _mean_ms(forward_ms[1]),
        "gcn.layer1.backward_ms": _mean_ms(backward_ms[1]),
        "gcn.grad_self_ms": _mean_ms(grad_self),
        "gcn.adam_ms": _mean_ms([s.duration for s in by_name["gcn.adam_step"]]),
        "gcn.predict_s": total("gcn.predict"),
        "baselines.mlp_s": total("baselines.mlp_classify"),
        "baselines.mlp_epoch_ms": (
            1e3 * (total("baselines.mlp_classify") - total("baselines.forward")) / mlp_epochs
            if mlp_epochs else 0.0
        ),
        "harness.fold_assign_ms": 1e3 * total("harness.stratified_group_kfold"),
        "harness.self_s": root.duration - _layer_time(root, children),
    })
    return m


def _layer_time(span: Span, children) -> float:
    """Time under span covered by the outermost spans of non-harness layers."""
    covered = 0.0
    for kid in children[span.id]:
        if kid.name.startswith("harness."):
            covered += _layer_time(kid, children)
        else:
            covered += kid.duration
    return covered
