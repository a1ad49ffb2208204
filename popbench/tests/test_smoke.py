"""Smoke runs of every popbench workload, a few seconds in all.

    python3 -m pytest popbench/tests

Each workload's smoke variant (same structure, tiny cohort, two epochs) runs
untraced and traced in a fresh process; the run must pass its output checks
and emit exactly the metrics BENCHMARK.json declares, with their units. The
traced run must leave every attribute it wrapped as it found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from popbench import run, tracing, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_build" / "popbench"


def _bench(*args, cwd=ROOT, script=ROOT / "popbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_declared_metric(workload, trace, section):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    for name in declared:  # printed by name and unit
        assert f"  {name} = " in out.stdout


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.LAYER_METRICS.items()
    ]


def test_every_config_key_is_pinned():
    cli, _ = run.load_program(ROOT)
    schema = {section: set(keys) for section, keys in cli.CONFIG_SCHEMA.items()}
    for workload in workloads.WORKLOADS.values():
        for variant in (workload, workloads.smoke_variant(workload)):
            config = workloads.workload_config(variant, 0, 1, "cohort")
            assert {s: set(keys) for s, keys in config.items()} == schema


def test_traced_run_restores_every_wrapped_attribute():
    cli, harness = run.load_program(ROOT)
    workload = workloads.smoke_variant(workloads.WORKLOADS["abide-wide"])
    cohort = workloads.ensure_cohort(workload, 0, str(WORK / "cohorts"), str(ROOT / "src"))
    run_dir = WORK / "tests" / "restore"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.cfg"
    workloads.write_config(workloads.workload_config(workload, 0, 3, cohort), config_path)

    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.targets({})]
    with tracing.Tracer() as tracer:
        tracer.install(tracing.targets({}))
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)

    metrics, experiments, tracer, _ = run.measure_traced(cli, harness, config_path, run_dir, 0.1)
    assert experiments.failed == 0 and not experiments.problems
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    layers = {span.name.split(".")[0] for span in tracer.spans}
    assert {"dataset", "featsel", "popgraph", "spectral", "gcn", "harness"} <= layers
    assert metrics["spectral.operator_builds"] == 2 * len(workload.seeds)


def test_fails_without_the_program():
    bare = WORK / "tests" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "popbench", bare / "popbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = _bench("--workload", "adni-mlp", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare, script=bare / "popbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_install_skips_an_attribute_the_program_no_longer_has():
    owner = types.SimpleNamespace(kept=len)
    with tracing.Tracer() as tracer:
        missing = tracer.install([(owner, "gone", "x.gone", None), (owner, "kept", "x.kept", None)])
        assert missing == ["x.gone"]
        assert owner.kept([1, 2]) == 2
    assert owner.kept is len
    assert [span.name for span in tracer.spans] == ["x.kept"]
