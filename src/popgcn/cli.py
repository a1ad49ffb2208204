"""Command-line front end.

Subcommands: synth (generate a synthetic cohort), graph (build and export a
population graph), run (one cross-validated experiment from a config file),
sweep (repeat run over a list of values for one config key), report (print a
saved report). Every run writes a machine-readable echo of the fully resolved
configuration; outputs contain no timestamps, so a fixed config and seed give
byte-identical files. A sweep checks every point's settings, and rejects two
values that give the same setting, before it reads any data; it then checks
every point against its data, each distinct dataset read once and shared by
the points that name it, before the first point runs.

CONFIG_SCHEMA alone routes each INI key to its caster and to the config field
it sets. Defaults and their checks live on the config classes (SyntheticConfig,
SelectorConfig, GraphSpec, GcnConfig, BaselineConfig, ExperimentDescriptor)
and nowhere else: each config is built from the INI keys, or the synth/graph
flags, that were given, every field left out keeps its class default, and
constructing it checks it, before any data are read. That covers every
section a run reads, the [dataset] keys of the synthetic cohort even when the
config names files instead. Bounds are checked by the errors checks, so NaN
fails them. Functions a library caller can reach without a config, such as
featsel.rfe_select, check their own arguments as well.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import asdict, replace

from . import dataset as ds
from .baselines import BaselineConfig
from .errors import FormatError, PopgcnError, check_at_least
from .featsel import SelectorConfig
from .gcn import GcnConfig
from .harness import ExperimentDescriptor, ExperimentReport, run_experiment
from .harness import write_results_csv
from .popgraph import SIM_MODES, STRATEGIES, GraphSpec, build_graph, save_graph


class ConfigValidationError(PopgcnError):
    """Invalid experiment config; message carries the section.key path."""


def _cast_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _cast_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _cast_measures(text: str) -> tuple[str, ...]:
    return tuple(part.strip().upper() for part in text.split(",") if part.strip() != "")


def _cast_auto_int(text: str):
    return None if text.lower() == "auto" else int(text)


def _cast_auto_float(text: str):
    return None if text.lower() == "auto" else float(text)


# section -> key -> (caster, target). The target is the (config class, field)
# the key sets; a key with code of its own has target None. Unknown sections or
# keys are rejected before any computation starts, and the config echo writes
# keys in this order.
CONFIG_SCHEMA: dict[str, dict[str, tuple]] = {
    "experiment": {"name": (str, (ExperimentDescriptor, "name"))},
    "dataset": {
        "features": (str, None),
        "phenotypes": (str, None),
        "synthetic": (_cast_bool, None),
        "subjects": (int, (ds.SyntheticConfig, "n_subjects")),
        "scans_min": (int, None),
        "scans_max": (int, None),
        "sites": (int, (ds.SyntheticConfig, "n_sites")),
        "n_features": (int, (ds.SyntheticConfig, "n_features")),
        "class_separation": (float, (ds.SyntheticConfig, "class_separation")),
        "site_shift": (float, (ds.SyntheticConfig, "site_shift_scale")),
        "sex_effect": (float, (ds.SyntheticConfig, "sex_effect")),
        "noise": (float, (ds.SyntheticConfig, "noise_scale")),
        "data_seed": (int, (ds.SyntheticConfig, "seed")),
    },
    "selector": {
        "kind": (str, (SelectorConfig, "kind")),
        "target_c": (int, (SelectorConfig, "target_c")),
        "ridge_alpha": (float, (SelectorConfig, "ridge_alpha")),
        "rfe_step_fraction": (float, (SelectorConfig, "rfe_step_fraction")),
        "mlp_epochs": (int, (SelectorConfig, "mlp_epochs")),
        "mlp_lr": (float, (SelectorConfig, "mlp_lr")),
        "ae_epochs": (int, (SelectorConfig, "ae_epochs")),
        "ae_lr": (float, (SelectorConfig, "ae_lr")),
        "seed": (int, (SelectorConfig, "seed")),
    },
    "graph": {
        "strategy": (str, (GraphSpec, "strategy")),
        "measures": (_cast_measures, (GraphSpec, "measures")),
        "sim": (str, (GraphSpec, "sim_mode")),
        "theta": (float, (GraphSpec, "theta")),
        "lambda": (float, (GraphSpec, "lam")),
        "k": (int, (GraphSpec, "k")),
        "sigma": (_cast_auto_float, (GraphSpec, "sigma")),
        "sigma_pairs": (str, (ExperimentDescriptor, "sigma_pairs")),
        "seed": (int, (GraphSpec, "seed")),
    },
    "model": {
        "kind": (str, (ExperimentDescriptor, "model")),
        "hidden_layers": (int, (GcnConfig, "hidden_layers")),
        "hidden_width": (_cast_auto_int, (GcnConfig, "hidden_width")),
        "cheb_order": (int, (GcnConfig, "cheb_order")),
        "dropout": (float, (GcnConfig, "dropout_rate")),
        "l2": (float, (GcnConfig, "l2_coeff")),
        "lr": (float, (GcnConfig, "learning_rate")),
        "epochs": (int, (GcnConfig, "epochs")),
        "ridge_alpha": (float, (BaselineConfig, "ridge_alpha")),
        "mlp_epochs": (int, (BaselineConfig, "mlp_epochs")),
    },
    "cv": {
        "folds": (int, (ExperimentDescriptor, "folds")),
        "seeds": (_cast_seeds, (ExperimentDescriptor, "seeds")),
        "fold_seed": (int, (ExperimentDescriptor, "fold_seed")),
    },
}


def parse_config(path: str, overrides: list[str] | None = None) -> dict:
    """Read and validate an INI experiment config into {section: {key: value}}."""
    if not os.path.exists(path):
        raise ConfigValidationError(f"config file not found: {path}")
    # No interpolation: a value is its text, and a '%' in it is a '%'.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigValidationError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None

    raw: dict[str, dict[str, str]] = {
        section: dict(parser.items(section)) for section in parser.sections()
    }
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigValidationError(f"override must look like section.key=value: {item!r}")
        key_path, value = item.split("=", 1)
        section, key = key_path.split(".", 1)
        # Normalised as the INI reader normalises a file's keys and values.
        raw.setdefault(section.strip(), {})[parser.optionxform(key.strip())] = value.strip()

    config: dict[str, dict] = {}
    for section, entries in raw.items():
        if section not in CONFIG_SCHEMA:
            raise ConfigValidationError(f"unknown config section [{section}]")
        config[section] = {}
        for key, text in entries.items():
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigValidationError(f"unknown config key {section}.{key}")
            caster, _ = CONFIG_SCHEMA[section][key]
            try:
                config[section][key] = caster(text)
            except ValueError as exc:
                raise ConfigValidationError(f"{section}.{key}: {exc}") from None
    return config


def write_config_echo(config: dict, path):
    """Resolved config as INI, keys in schema order: rerunning it reproduces the run."""
    echo = configparser.ConfigParser(interpolation=None)
    for section in CONFIG_SCHEMA:
        if section not in config or not config[section]:
            continue
        echo.add_section(section)
        for key in CONFIG_SCHEMA[section]:
            if key not in config[section]:
                continue
            value = config[section][key]
            if isinstance(value, tuple):
                text = ",".join(str(v) for v in value)
            elif value is None:
                text = "auto"
            else:
                text = str(value)
            echo.set(section, key, text)
    with open(path, "w", encoding="utf-8") as fh:
        echo.write(fh)


def _build(cls, config: dict, **given):
    """cls from the keys present whose target class is cls, plus `given`;
    every other field keeps its class default."""
    for section, keys in CONFIG_SCHEMA.items():
        present = config.get(section, {})
        for key, (_, target) in keys.items():
            if key in present and target is not None and target[0] is cls:
                given[target[1]] = present[key]
    return cls(**given)


def synthetic_config(config: dict) -> ds.SyntheticConfig:
    syn = _build(ds.SyntheticConfig, config)
    sec = config.get("dataset", {})
    lo, hi = syn.scans_per_subject
    return replace(syn, scans_per_subject=(sec.get("scans_min", lo), sec.get("scans_max", hi)))


def _load_or_generate_dataset(config: dict, synthetic: ds.SyntheticConfig):
    sec = config.get("dataset", {})
    if sec.get("synthetic"):
        return ds.generate_synthetic(synthetic)
    for key in ("features", "phenotypes"):
        if key not in sec:
            raise ConfigValidationError(f"dataset.{key} is required unless dataset.synthetic=true")
        if not os.path.exists(sec[key]):
            raise ConfigValidationError(f"dataset.{key}: file not found: {sec[key]}")
    return ds.load_dataset(sec["features"], sec["phenotypes"])


def _settings(config: dict) -> tuple[ExperimentDescriptor, ds.SyntheticConfig]:
    """The experiment a config describes, without data, and its synthetic
    cohort, each checked when constructed: the [dataset] keys of that cohort
    too, where the config names files and no cohort is generated."""
    synthetic = synthetic_config(config)
    settings = _build(
        ExperimentDescriptor,
        config,
        features=None,
        records=None,
        graph_spec=_build(GraphSpec, config),
        gcn_config=_build(GcnConfig, config),
        baseline_config=_build(BaselineConfig, config),
        selector_config=_build(SelectorConfig, config),
    )
    return settings, synthetic


def build_descriptor(config: dict) -> ExperimentDescriptor:
    """The experiment a config describes; its settings are checked
    (_settings) before the dataset is read or generated."""
    settings, synthetic = _settings(config)
    features, records = _load_or_generate_dataset(config, synthetic)
    return replace(settings, features=features, records=records)


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _run(
    descriptor: ExperimentDescriptor, config: dict, out_dir: str, jobs: int
) -> ExperimentReport:
    """Run the experiment `descriptor`, which `config` describes, and write
    its files, config echo first."""
    os.makedirs(out_dir, exist_ok=True)
    write_config_echo(config, os.path.join(out_dir, "config_echo.cfg"))

    # One JSON record per (fold, seed), flushed as produced so partial
    # results survive an abort.
    with open(os.path.join(out_dir, "records.jsonl"), "w", encoding="utf-8") as sink_fh:

        def sink(record):
            sink_fh.write(json.dumps(asdict(record), sort_keys=True))
            sink_fh.write("\n")
            sink_fh.flush()

        report = run_experiment(descriptor, jobs=jobs, record_sink=sink)
    _write_text(os.path.join(out_dir, "report.json"), report.to_json())
    report.write_csv(os.path.join(out_dir, "results.csv"))
    _write_text(os.path.join(out_dir, "summary.txt"), report.summary_table())
    return report


def _given(args, section: str) -> dict:
    """The flags given on the command line that are keys of `section`."""
    return {key: value for key, value in vars(args).items() if key in CONFIG_SCHEMA[section]}


def _cmd_synth(args) -> int:
    cfg = synthetic_config({"dataset": _given(args, "dataset")})
    features, records = ds.generate_synthetic(cfg)
    os.makedirs(args.out, exist_ok=True)
    ds.write_features(features, os.path.join(args.out, "features.csv"))
    ds.write_phenotypes(records, os.path.join(args.out, "phenotypes.csv"))
    synth_config = json.dumps(asdict(cfg), sort_keys=True, indent=1)
    _write_text(os.path.join(args.out, "synth_config.json"), synth_config)
    print(f"wrote {len(records)} acquisitions ({cfg.n_subjects} subjects) to {args.out}")
    return 0


def _cmd_graph(args) -> int:
    spec = _build(GraphSpec, {"graph": _given(args, "graph")})
    features, records = ds.load_dataset(args.features, args.phenotypes)
    graph = build_graph(features, records, spec)
    save_graph(graph, args.out)
    print(f"wrote graph with {graph.n_nodes} nodes, {graph.n_edges} edges to {args.out}")
    return 0


def _cmd_run(args) -> int:
    check_at_least("jobs", args.jobs, 1)
    config = parse_config(args.config, args.set or [])
    report = _run(build_descriptor(config), config, args.out, args.jobs)
    print(report.summary_table())
    return 0


def _cmd_sweep(args) -> int:
    check_at_least("jobs", args.jobs, 1)
    if "." not in args.param:
        raise ConfigValidationError(f"--param must look like section.key, got {args.param!r}")
    values = [v.strip() for v in args.values.split(",") if v.strip() != ""]
    if not values:
        raise ConfigValidationError("--values is empty")
    # Every point's settings are checked, and no two points may give the
    # same setting, before any data are read. Then each point is checked
    # against its data before the first point runs: each distinct [dataset]
    # section is read once, and its points share the data.
    parsed, points = [], []
    for value in values:
        overrides = list(args.set or []) + [f"{args.param}={value}"]
        config = parse_config(args.config, overrides)
        if config in parsed:
            earlier = values[parsed.index(config)]
            raise ConfigValidationError(f"--values {earlier!r} and {value!r} are the same point")
        parsed.append(config)
        experiment = config.get("experiment", {})
        name = experiment.get("name", ExperimentDescriptor.name)
        config = {**config, "experiment": {**experiment, "name": f"{name}[{args.param}={value}]"}}
        points.append((value, config, *_settings(config)))
    loaded: dict[tuple, tuple] = {}
    runs = []
    for value, config, settings, synthetic in points:
        section = tuple(sorted(config.get("dataset", {}).items()))
        if section not in loaded:
            loaded[section] = _load_or_generate_dataset(config, synthetic)
        features, records = loaded[section]
        runs.append((value, config, replace(settings, features=features, records=records)))
    rows: list[list] = []
    summaries: list[str] = []
    for value, config, descriptor in runs:
        sub_dir = os.path.join(args.out, f"{args.param.replace('.', '_')}_{value}")
        report = _run(descriptor, config, sub_dir, args.jobs)
        rows += report.csv_rows()
        summaries.append(report.summary_table())
    write_results_csv(os.path.join(args.out, "results.csv"), rows)
    _write_text(os.path.join(args.out, "sweep_summary.txt"), "\n\n".join(summaries))
    print("\n\n".join(summaries))
    return 0


def _cmd_report(args) -> int:
    try:
        with open(args.report, encoding="utf-8") as fh:
            report = ExperimentReport.from_json(fh.read())
        table = report.summary_table()
    except (ValueError, KeyError, TypeError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise FormatError(
            f"{args.report}: not a popgcn report ({type(exc).__name__}: {exc})"
        ) from None
    print(table)
    if args.csv:
        report.write_csv(args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popgcn", description="Population-graph GCN toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # synth and graph flags set no defaults: a flag that is not given leaves
    # its config field at the class default, as a key missing from an INI does.
    p_synth = sub.add_parser(
        "synth", help="generate a synthetic cohort as CSV files",
        argument_default=argparse.SUPPRESS,
    )
    p_synth.add_argument("--out", required=True, help="output directory")
    for flag, key in (
        ("--seed", "data_seed"), ("--subjects", "subjects"), ("--scans-min", "scans_min"),
        ("--scans-max", "scans_max"), ("--sites", "sites"), ("--features", "n_features"),
        ("--class-separation", "class_separation"), ("--site-shift", "site_shift"),
        ("--sex-effect", "sex_effect"), ("--noise", "noise"),
    ):
        p_synth.add_argument(flag, dest=key, type=CONFIG_SCHEMA["dataset"][key][0])
    p_synth.set_defaults(func=_cmd_synth)

    p_graph = sub.add_parser(
        "graph", help="build a population graph and export it as CSV",
        argument_default=argparse.SUPPRESS,
    )
    p_graph.add_argument("--features", required=True, help="features.csv path")
    p_graph.add_argument("--phenotypes", required=True, help="phenotypes.csv path")
    p_graph.add_argument("--out", required=True, help="output edge-list CSV")
    choices = {"strategy": STRATEGIES, "sim": SIM_MODES}
    for key, text in (
        ("strategy", None), ("measures", "comma list of SEX,SITE,AGE,GENE"), ("sim", None),
        ("theta", "age agreement window, years"), ("lambda", "same-subject link weight"),
        ("k", "neighbour count for knn"), ("sigma", "kernel width; 'auto' = mean distance"),
        ("seed", "seed for the random strategy"),
    ):
        p_graph.add_argument(
            f"--{key}", type=CONFIG_SCHEMA["graph"][key][0], choices=choices.get(key), help=text
        )
    p_graph.set_defaults(func=_cmd_graph)

    p_run = sub.add_parser("run", help="run one cross-validated experiment from a config file")
    p_run.add_argument("--config", required=True, help="INI experiment config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel fold workers (default 1)")
    p_run.add_argument(
        "--set", action="append", metavar="SECTION.KEY=VALUE", help="override a config entry"
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="re-run an experiment over a list of values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--param", required=True, help="config key to vary, e.g. model.cheb_order")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser("report", help="print a saved report; optionally emit plot CSV")
    p_report.add_argument("--report", required=True, help="path to report.json")
    p_report.add_argument("--csv", default=None, help="also write plot-ready CSV here")
    p_report.set_defaults(func=_cmd_report)
    return parser


def dispatch(argv) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit 2 for usage errors
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ConfigValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PopgcnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
