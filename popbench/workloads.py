"""Workload definitions: a synthetic cohort plus a fully pinned `popgcn run` config.

Every key of the CLI config schema is written out for every workload, so a
later change of a library or CLI default cannot silently change what a
workload runs. The benchmark seed is the fold-assignment seed; the cohort's
data seed is a separate argument that defaults to DATA_SEED, so every run of a
workload sees the same cohort and quality metrics vary only with the folds.
The model seeds are fixed per workload.

Epoch counts are cut from the paper-scale runs so that one experiment takes a
few seconds on a 2-core machine and several repeats fit in one measurement
window; cohort size, feature count, Chebyshev order and widths are kept.
"""

from __future__ import annotations

import configparser
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

# Synthetic cohorts differ a lot in difficulty from one data seed to the next
# (on the ADNI shape, accuracy ranged 0.62-0.78 over seven seeds), which would
# swamp the quality metrics; fold seeds move accuracy by a few percent.
DATA_SEED = 0

# (subjects, scans_min, scans_max, sites, n_features) plus the generator's
# effect sizes, pinned at the generator's current defaults.
_EFFECTS = {"class_separation": 2.5, "site_shift": 1.5, "sex_effect": 0.8, "noise": 1.0}

ABIDE_COHORT = {
    "subjects": 871, "scans_min": 1, "scans_max": 1, "sites": 20, "n_features": 6105, **_EFFECTS,
}
ADNI_COHORT = {
    "subjects": 540, "scans_min": 2, "scans_max": 4, "sites": 8, "n_features": 138, **_EFFECTS,
}

# Sections and keys the workloads pin; values that depend on the seed or on
# the cohort files are filled in by workload_config().
_COMMON_SELECTOR = {
    "kind": "none", "target_c": 0, "ridge_alpha": 1.0, "rfe_step_fraction": 0.1,
    "mlp_epochs": 100, "mlp_lr": 0.001, "ae_epochs": 100, "ae_lr": 0.0005, "seed": 0,
}
_COMMON_GRAPH = {
    "strategy": "phenotypic", "measures": "SEX,SITE", "sim": "correlation_kernel",
    "theta": 2.0, "lambda": 10.0, "k": 10, "sigma": "auto", "sigma_pairs": "train", "seed": 0,
}
_COMMON_MODEL = {
    "kind": "gcn", "hidden_layers": 1, "hidden_width": 16, "cheb_order": 3, "dropout": 0.3,
    "l2": 0.0005, "lr": 0.005, "epochs": 150, "ridge_alpha": 1.0, "mlp_epochs": 200,
}


@dataclass(frozen=True)
class Workload:
    name: str
    cohort_name: str
    cohort: dict
    selector: dict
    graph: dict
    model: dict
    folds: int
    seeds: tuple[int, ...]


def _workload(name, cohort_name, cohort, folds, seeds, selector=None, graph=None, model=None):
    return Workload(
        name=name,
        cohort_name=cohort_name,
        cohort=cohort,
        selector={**_COMMON_SELECTOR, **(selector or {})},
        graph={**_COMMON_GRAPH, **(graph or {})},
        model={**_COMMON_MODEL, **(model or {})},
        folds=folds,
        seeds=tuple(seeds),
    )


WORKLOADS = {
    # ABIDE shape: RFE on wide input, a dense SEX+SITE kernel graph (density
    # about 0.5) and a 2000 -> 16 first layer. lambda_max power iteration does
    # not converge on this graph and falls back to 2.0.
    "abide-wide": _workload(
        "abide-wide", "abide", ABIDE_COHORT, folds=2, seeds=(0, 1),
        selector={"kind": "rfe", "target_c": 2000, "ridge_alpha": 1.0, "rfe_step_fraction": 0.1},
        model={"hidden_width": 16, "epochs": 5},
    ),
    # Longitudinal ADNI shape: sparse CSR operator from same-subject links,
    # C_in = C_out = 138 in layer 0, five seeds per fold.
    "adni-long": _workload(
        "adni-long", "adni", ADNI_COHORT, folds=2, seeds=range(5),
        graph={"measures": "AGE,SEX,GENE", "sim": "longitudinal", "theta": 2.0, "lambda": 10.0},
        model={"hidden_width": 138, "epochs": 20},
    ),
    # No graph: autoencoder selector then the order-0 MLP baseline over
    # 10 folds x 10 seeds of small matrices, where per-call overhead dominates.
    "adni-mlp": _workload(
        "adni-mlp", "adni", ADNI_COHORT, folds=10, seeds=range(10),
        selector={"kind": "autoencoder", "target_c": 32, "ae_epochs": 12, "ae_lr": 0.0005},
        model={"kind": "mlp", "hidden_width": 32, "mlp_epochs": 25},
    ),
}

# Smoke variants keep each workload's structure (selector, graph kind, model
# kind, fold/seed layout) on a cohort small enough to run in about a second.
SMOKE_COHORTS = {
    "abide": {**ABIDE_COHORT, "subjects": 60, "sites": 4, "n_features": 300},
    "adni": {**ADNI_COHORT, "subjects": 40, "sites": 3, "n_features": 20},
}


def smoke_variant(workload: Workload) -> Workload:
    selector = dict(workload.selector)
    if selector["kind"] == "rfe":
        selector["target_c"] = 100
    if selector["kind"] == "autoencoder":
        selector.update(target_c=8, ae_epochs=2)
    cohort = SMOKE_COHORTS[workload.cohort_name]
    model = dict(workload.model, epochs=2, mlp_epochs=2)
    if model["hidden_width"] == workload.cohort["n_features"]:
        model["hidden_width"] = cohort["n_features"]  # keep C_in = C_out
    return Workload(
        name=workload.name,
        cohort_name=workload.cohort_name + "-smoke",
        cohort=cohort,
        selector=selector,
        graph=workload.graph,
        model=model,
        folds=min(workload.folds, 3),
        seeds=workload.seeds[:3],
    )


def workload_config(workload: Workload, data_seed: int, seed: int, cohort_dir: str) -> dict:
    """{section: {key: text}} covering every key of the `popgcn run` schema."""
    return {
        "experiment": {"name": f"{workload.name}-data{data_seed}-seed{seed}"},
        "dataset": {
            "features": os.path.join(cohort_dir, "features.csv"),
            "phenotypes": os.path.join(cohort_dir, "phenotypes.csv"),
            "synthetic": "false",
            **{k: str(v) for k, v in workload.cohort.items()},
            "data_seed": str(data_seed),
        },
        "selector": {k: str(v) for k, v in workload.selector.items()},
        "graph": {k: str(v) for k, v in workload.graph.items()},
        "model": {k: str(v) for k, v in workload.model.items()},
        "cv": {
            "folds": str(workload.folds),
            "seeds": ",".join(str(s) for s in workload.seeds),
            "fold_seed": str(seed),
        },
    }


def write_config(config: dict, path: str):
    parser = configparser.ConfigParser()
    for section, entries in config.items():
        parser[section] = entries
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def ensure_cohort(workload: Workload, seed: int, cache_dir: str, src_dir: str) -> str:
    """Generate the cohort CSVs with `popgcn synth` once per (cohort, seed)."""
    target = os.path.join(cache_dir, f"{workload.cohort_name}-seed{seed}")
    if os.path.exists(os.path.join(target, "synth_config.json")):
        return target
    os.makedirs(cache_dir, exist_ok=True)
    partial = target + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    c = workload.cohort
    cmd = [
        sys.executable, "-m", "popgcn.cli", "synth", "--out", partial, "--seed", str(seed),
        "--subjects", str(c["subjects"]), "--scans-min", str(c["scans_min"]),
        "--scans-max", str(c["scans_max"]), "--sites", str(c["sites"]),
        "--features", str(c["n_features"]), "--class-separation", str(c["class_separation"]),
        "--site-shift", str(c["site_shift"]), "--sex-effect", str(c["sex_effect"]),
        "--noise", str(c["noise"]),
    ]
    env = dict(os.environ, PYTHONPATH=src_dir)
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=150)
    os.replace(partial, target)
    return target

