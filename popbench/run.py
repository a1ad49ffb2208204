"""Run one popbench workload and print its metrics.

    python3 popbench/run.py --workload abide-wide --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from the `src/` directory next to
this one. --seed is the fold seed; the cohort CSVs are generated with
`popgcn synth` once per (cohort, --data-seed) under `.bench_build/popbench/`
and reused; nothing outside the repository is read or written.

With --trace 0 the run sets up the experiment several times (config parse
plus CSV ingest, as `popgcn run` does) and then repeats `run_experiment` for
about --seconds, reporting medians and the end-to-end metrics. With --trace 1
it alternates untraced and traced experiments over the window and reports the
per-layer metrics from the traced ones, plus the tracing overhead. Every
experiment's output is checked. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = min(2, os.cpu_count() or 1)
if __name__ == "__main__":
    # BLAS reads its thread count when it loads, so this precedes any import
    # of numpy; the cohort generator subprocess inherits it.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import statistics
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from popbench import checks, tracing, workloads  # noqa: E402

SETUP_REPEATS = 3  # at least, and for at least SETUP_SECONDS
SETUP_SECONDS = 2.0
MIN_REPEATS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "experiment_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "auc": "ratio",
    "success_rate": "ratio",
}


class ProgramMissing(Exception):
    pass


def load_program(root: Path):
    """Import popgcn from root/src, refusing any other copy."""
    package = root / "src" / "popgcn"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no popgcn sources at {package}")
    sys.path.insert(0, str(root / "src"))
    import popgcn
    from popgcn import cli, harness

    if Path(popgcn.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported popgcn from {popgcn.__file__}, not {package}")
    return cli, harness


class Experiments:
    """Runs the workload's experiment as `popgcn run` does and checks every report."""

    def __init__(self, harness, desc, run_dir: Path):
        self.harness = harness
        self.desc = desc
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: bytes | None = None
        self.report = None

    def run(self) -> float:
        """One run_experiment; returns its wall time in seconds."""
        expected = self.desc.folds * len(self.desc.seeds)
        self.attempted += expected
        records_path = self.run_dir / "records.jsonl"
        start = time.perf_counter()
        try:
            with open(records_path, "w", encoding="utf-8") as sink_fh:

                def sink(record):
                    sink_fh.write(json.dumps(asdict(record), sort_keys=True))
                    sink_fh.write("\n")
                    sink_fh.flush()

                report = self.harness.run_experiment(self.desc, jobs=1, record_sink=sink)
        except Exception as exc:  # a failed experiment is counted and reported, not fatal
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            self.failed += expected
            self.problems.append(f"run_experiment raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        data = (report.to_json() + "\n").encode()
        failed, problems = checks.check_report(report, self.desc, data, self.reference)
        if self.reference is None:
            self.reference = data
            (self.run_dir / "report.json").write_bytes(data)
        self.failed += len(failed)
        self.problems.extend(problems)
        self.report = report
        return elapsed


def setup_once(cli, config_path: Path):
    """What `popgcn run` does before the experiment: parse the config and
    build the descriptor, which ingests the CSVs."""
    config = cli.parse_config(str(config_path))
    return cli.build_descriptor(config)


def measure(cli, harness, config_path: Path, run_dir: Path, seconds: float):
    """Untraced run: end-to-end metrics."""
    setup_times = []
    desc = None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        desc = None  # release the previous cohort so peak RSS is one setup's
        start = time.perf_counter()
        desc = setup_once(cli, config_path)
        setup_times.append(time.perf_counter() - start)

    experiments = Experiments(harness, desc, run_dir)
    times = []
    window = time.perf_counter()
    while True:
        times.append(experiments.run())
        used = time.perf_counter() - window
        if len(times) >= MIN_REPEATS and used + statistics.median(times) > seconds:
            break

    summary = experiments.report.summary["seed_averaged"] if experiments.report else {}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "experiment_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": summary.get("accuracy") or 0.0,
        "auc": summary.get("auc") or 0.0,
        "success_rate": 1.0 - experiments.failed / experiments.attempted,
    }
    details = {"setup_times_s": setup_times, "experiment_times_s": times}
    return metrics, experiments, details


def measure_traced(cli, harness, config_path: Path, run_dir: Path, seconds: float):
    """Traced run: one traced setup, then untraced/traced experiment pairs.

    Wrappers are installed only around the traced calls and restored after
    each, so the untraced experiments run the program unmodified.
    """
    tracer = tracing.Tracer()
    graphs: dict = {}
    exact_by_digest: dict = {}
    targets = tracing.targets(graphs)

    with tracer:
        missing = tracer.install(targets)
        with tracer.span("setup") as setup_span:
            desc = setup_once(cli, config_path)

    experiments = Experiments(harness, desc, run_dir)
    untraced, traced, rows = [], [], []
    window = time.perf_counter()
    while True:
        untraced.append(experiments.run())
        first = len(tracer.spans)
        with tracer:
            tracer.install(targets)
            traced.append(experiments.run())
        root = tracer.spans[first]
        # Exact lambda_max per distinct graph, after the experiment and
        # outside every span.
        exact = {}
        for gid, graph in graphs.items():
            digest = tracing.graph_digest(graph)
            if digest not in exact_by_digest:
                exact_by_digest[digest] = tracing.exact_lambda_max(graph)
            exact[gid] = exact_by_digest[digest]
        graphs.clear()
        if root.error is None:
            rows.append(tracing.experiment_metrics(tracer.spans, root, exact))
        used = time.perf_counter() - window
        if used + untraced[-1] + traced[-1] > seconds:
            break

    metrics = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
    for name in rows[0] if rows else ():
        metrics[name] = statistics.median(row[name] for row in rows)
    metrics.update(tracing.setup_metrics(tracer.spans, setup_span))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    details = {
        "untraced_experiment_s": untraced,
        "traced_experiment_s": traced,
        "not_traced": missing,
    }
    return metrics, experiments, tracer, details


def git_commit(root: Path) -> str | None:
    """HEAD commit read from root/.git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's .py files, identifying the code without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root / "src"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one popbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="fold seed")
    parser.add_argument("--data-seed", type=int, default=workloads.DATA_SEED, help="cohort seed")
    parser.add_argument("--seconds", type=float, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny variant of the workload, for the tests"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli, harness = load_program(ROOT)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-data{args.data_seed}-seed{args.seed}"
    if args.smoke:
        workload = workloads.smoke_variant(workload)
        tag += "-smoke"
    work = ROOT / ".bench_build" / "popbench"
    cohort_dir = workloads.ensure_cohort(
        workload, args.data_seed, str(work / "cohorts"), str(ROOT / "src")
    )
    run_dir = work / "runs" / f"{tag}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.cfg"
    config = workloads.workload_config(workload, args.data_seed, args.seed, cohort_dir)
    workloads.write_config(config, config_path)

    if args.trace:
        metrics, experiments, tracer, details = measure_traced(
            cli, harness, config_path, run_dir, args.seconds
        )
        tracer.write_jsonl(str(run_dir / "spans.jsonl"))
        units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
    else:
        metrics, experiments, details = measure(cli, harness, config_path, run_dir, args.seconds)
        units = END_TO_END_UNITS

    env = environment(ROOT)
    result = {
        "correct": experiments.failed == 0,
        "attempted": experiments.attempted,
        "failed": experiments.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env, "details": details,
                   "problems": experiments.problems}, fh, indent=1, sort_keys=True)

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, data seed {args.data_seed}, seed {args.seed}, "
          f"trace {args.trace}: "
          f"{experiments.attempted} fold-seeds attempted, {experiments.failed} failed")
    for problem in experiments.problems:
        print(f"  check failed: {problem}")
    if details.get("not_traced"):
        print(f"  not traced, absent from the program: {', '.join(details['not_traced'])}")
    for name, unit in units.items():
        note = " (computed from shapes)" if name in tracing.COMPUTED else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
