import dataclasses
import json
import multiprocessing
import os

import pytest

from popgcn import dataset, harness
from popgcn.cli import (
    CONFIG_SCHEMA,
    FIELD_NAMES,
    SECTION_CONFIGS,
    ConfigValidationError,
    _build,
    build_descriptor,
    dispatch,
    parse_config,
    synthetic_config,
)
from conftest import read_graph_csv
from popgcn.dataset import SyntheticConfig
from popgcn.popgraph import GraphSpec


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)


def run_cli(*argv):
    return dispatch(list(argv))


@pytest.fixture
def data_dir(tmp_path):
    out = tmp_path / "data"
    code = run_cli(
        "synth", "--out", str(out), "--seed", "3", "--subjects", "24",
        "--features", "6", "--scans-min", "1", "--scans-max", "2",
    )
    assert code == 0
    return out


def write_config(tmp_path, data_dir, extra=""):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"""
[experiment]
name = cli-test

[dataset]
features = {data_dir}/features.csv
phenotypes = {data_dir}/phenotypes.csv

[model]
kind = gcn
epochs = 8
hidden_width = 6
dropout = 0.0

[cv]
folds = 2
seeds = 0
{extra}
""",
        encoding="utf-8",
    )
    return cfg


class TestSynth:
    def test_byte_identical_outputs(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli("synth", "--out", str(tmp_path / name), "--seed", "7",
                           "--subjects", "10", "--features", "4") == 0
        for fname in ("features.csv", "phenotypes.csv"):
            a = (tmp_path / "a" / fname).read_bytes()
            b = (tmp_path / "b" / fname).read_bytes()
            assert a == b

    def test_different_seed_differs(self, tmp_path):
        run_cli("synth", "--out", str(tmp_path / "a"), "--seed", "1", "--subjects", "10")
        run_cli("synth", "--out", str(tmp_path / "b"), "--seed", "2", "--subjects", "10")
        assert (tmp_path / "a" / "features.csv").read_bytes() != (
            tmp_path / "b" / "features.csv"
        ).read_bytes()


    def test_config_is_the_dataclass_default(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path / "d")) == 0
        written = json.loads((tmp_path / "d" / "synth_config.json").read_text())
        assert written == json.loads(json.dumps(dataclasses.asdict(SyntheticConfig())))

    def test_flags_set_their_fields(self, tmp_path):
        assert run_cli("synth", "--out", str(tmp_path / "d"), "--seed", "5", "--features", "3",
                       "--subjects", "9", "--scans-max", "4", "--noise", "2.5") == 0
        written = json.loads((tmp_path / "d" / "synth_config.json").read_text())
        expected = SyntheticConfig(
            n_subjects=9, scans_per_subject=(1, 4), n_features=3, noise_scale=2.5, seed=5
        )
        assert written == json.loads(json.dumps(dataclasses.asdict(expected)))


class TestGraphCommand:
    def test_writes_edge_list_with_provenance(self, tmp_path, data_dir):
        out = tmp_path / "graph.csv"
        code = run_cli(
            "graph", "--features", str(data_dir / "features.csv"),
            "--phenotypes", str(data_dir / "phenotypes.csv"),
            "--out", str(out), "--strategy", "phenotypic", "--measures", "SEX,SITE",
        )
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("# provenance:")
        g = read_graph_csv(out)
        assert g.n_nodes > 0 and g.n_edges > 0

    def test_empty_measures_exit_1(self, tmp_path, data_dir, capsys):
        code = run_cli(
            "graph", "--features", str(data_dir / "features.csv"),
            "--phenotypes", str(data_dir / "phenotypes.csv"),
            "--out", str(tmp_path / "g.csv"), "--measures", "",
        )
        assert code == 1
        assert "at least one measure" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_unknown_strategy_exits_2(self, tmp_path, data_dir, capsys):
        code = run_cli(
            "graph", "--features", str(data_dir / "features.csv"),
            "--phenotypes", str(data_dir / "phenotypes.csv"),
            "--out", str(tmp_path / "g.csv"), "--strategy", "bogus",
        )
        assert code == 2
        capsys.readouterr()

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(
            "graph", "--features", str(tmp_path / "nope.csv"),
            "--phenotypes", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "g.csv"),
        )
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_non_utf8_features_exit_1(self, tmp_path, data_dir, capsys):
        features = tmp_path / "features.csv"
        features.write_bytes(b"acquisition_id,f0\na\xff,1.0\nb,2.0\n")
        code = run_cli(
            "graph", "--features", str(features),
            "--phenotypes", str(data_dir / "phenotypes.csv"), "--out", str(tmp_path / "g.csv"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError: ") and "not UTF-8" in err
        assert str(features) in err
        assert not (tmp_path / "g.csv").exists()

    @needs_fork
    def test_dying_parse_worker_exits_1_with_one_line(
        self, tmp_path, data_dir, capfd, monkeypatch
    ):
        # Ranges of about 300 bytes, parsed by two forked workers that die.
        parent = os.getpid()

        def dies(path, start, stop):
            assert os.getpid() != parent, "parsed in the test process"
            os._exit(3)

        monkeypatch.setattr(dataset, "_RANGE_BYTES", 300)
        monkeypatch.setattr(dataset, "_fork_workers", lambda: 2)
        monkeypatch.setattr(dataset, "_parse_chunk", dies)
        code = run_cli(
            "graph", "--features", str(data_dir / "features.csv"),
            "--phenotypes", str(data_dir / "phenotypes.csv"), "--out", str(tmp_path / "g.csv"),
        )
        err = capfd.readouterr().err
        assert code == 1
        assert err == "error: WorkerError: a worker process exited early\n"
        assert not (tmp_path / "g.csv").exists()


class TestRunCommand:
    def test_run_writes_all_outputs(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path, data_dir)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        for fname in ("report.json", "results.csv", "summary.txt", "config_echo.cfg", "records.jsonl"):
            assert (out / fname).exists(), fname
        assert "seed-averaged" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["name"] == "cli-test"
        lines = (out / "records.jsonl").read_text().strip().splitlines()
        assert len(lines) == len(report["records"])

    def test_byte_identical_reruns(self, tmp_path, data_dir):
        cfg = write_config(tmp_path, data_dir)
        for name in ("o1", "o2"):
            assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / name)) == 0
        for fname in ("report.json", "results.csv", "summary.txt", "config_echo.cfg"):
            assert (tmp_path / "o1" / fname).read_bytes() == (
                tmp_path / "o2" / fname
            ).read_bytes(), fname

    def test_config_echo_reproduces_the_report(self, tmp_path, data_dir):
        extra = "\n[graph]\nmeasures = SEX\nsigma = 0.8\n\n[selector]\nkind = pca\ntarget_c = 4\n"
        cfg = write_config(tmp_path, data_dir, extra=extra)
        first = tmp_path / "first"
        assert run_cli("run", "--config", str(cfg), "--out", str(first),
                       "--set", "model.l2=0.001") == 0
        again = tmp_path / "again"
        assert run_cli("run", "--config", str(first / "config_echo.cfg"), "--out", str(again)) == 0
        for fname in ("report.json", "records.jsonl", "results.csv", "config_echo.cfg"):
            assert (first / fname).read_bytes() == (again / fname).read_bytes(), fname

    def test_repeated_seeds_exit_1(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path, data_dir)
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                       "--set", "cv.seeds=0,0")
        assert code == 1
        assert "repeated: [0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("model.dropout=1.5", "dropout_rate must be in [0, 1)"),
            ("graph.strategy=bogus", "unknown strategy 'bogus'"),
            ("selector.kind=bogus", "unknown selector kind 'bogus'"),
            ("model.ridge_alpha=0", "ridge_alpha must be > 0"),
            ("model.mlp_epochs=-1", "mlp_epochs must be >= 0"),
            ("cv.seeds=0,0", "seeds must be distinct, repeated: [0]"),
            ("cv.folds=1", "folds must be >= 2"),
            ("model.kind=bogus", "unknown model 'bogus'"),
            ("graph.sigma_pairs=bogus", "sigma_pairs must be 'train' or 'all'"),
            ("graph.sigma=0", "sigma must be > 0, got 0.0"),
            ("--jobs=0", "jobs must be >= 1, got 0"),
            ("--jobs=-1", "jobs must be >= 1, got -1"),
        ],
    )
    def test_bad_setting_exits_1_before_reading_data(
        self, tmp_path, data_dir, capsys, monkeypatch, override, message
    ):
        # An override is a config entry for --set, or a flag of its own.
        def no_load(*args):
            raise AssertionError("load_dataset called")

        monkeypatch.setattr("popgcn.dataset.load_dataset", no_load)
        cfg = write_config(tmp_path, data_dir)
        out = tmp_path / "out"
        given = [override] if override.startswith("--") else ["--set", override]
        assert run_cli("run", "--config", str(cfg), "--out", str(out), *given) == 1
        err = capsys.readouterr().err
        assert message in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

    @needs_fork
    def test_dying_fold_worker_exits_1_with_one_line(self, tmp_path, data_dir, capfd, monkeypatch):
        parent = os.getpid()

        def dies(records):
            assert os.getpid() != parent, "fold run in the test process"
            os._exit(3)

        monkeypatch.setattr(harness, "labels_array", dies)
        cfg = write_config(tmp_path, data_dir)
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--jobs", "2")
        err = capfd.readouterr().err
        assert code == 1
        assert err == "error: WorkerError: a worker process exited early\n"

    def test_missing_features_file_exits_1_naming_path(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[dataset]\nfeatures = /nonexistent/f.csv\nphenotypes = /nonexistent/p.csv\n",
            encoding="utf-8",
        )
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "/nonexistent/f.csv" in capsys.readouterr().err

    def test_unknown_config_key_exits_1_with_field_path(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path, data_dir, extra="\n[selector]\nbogus_key = 3\n")
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        assert "selector.bogus_key" in capsys.readouterr().err

    def test_set_override_applies(self, tmp_path, data_dir):
        cfg = write_config(tmp_path, data_dir)
        out = tmp_path / "out"
        assert run_cli(
            "run", "--config", str(cfg), "--out", str(out), "--set", "model.epochs=3"
        ) == 0
        echo = (out / "config_echo.cfg").read_text()
        assert "epochs = 3" in echo

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli("run", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "none.cfg" in capsys.readouterr().err

    def test_synthetic_dataset_inline(self, tmp_path):
        cfg = tmp_path / "syn.cfg"
        cfg.write_text(
            """
[dataset]
synthetic = true
subjects = 20
n_features = 5
data_seed = 4

[model]
epochs = 5
dropout = 0.0

[cv]
folds = 2
seeds = 0
""",
            encoding="utf-8",
        )
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0


class TestSweepCommand:
    def test_five_value_sweep_produces_five_report_rows(self, tmp_path, data_dir):
        cfg = write_config(tmp_path, data_dir)
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--config", str(cfg), "--out", str(out),
            "--param", "model.cheb_order", "--values", "1,2,3,4,5",
        )
        assert code == 0
        sub = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert len(sub) == 5
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "experiment,fold,seed,accuracy,auc"
        # 5 sweep points x 2 folds x 1 seed.
        assert len(lines) == 1 + 5 * 2
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {f"cli-test[model.cheb_order={k}]" for k in range(1, 6)}

    def test_each_point_writes_what_run_writes(self, tmp_path, data_dir):
        cfg = write_config(tmp_path, data_dir)
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out),
                       "--param", "model.cheb_order", "--values", "1,2") == 0
        rows = []
        for value in ("1", "2"):
            point = out / f"model_cheb_order_{value}"
            for fname in ("report.json", "results.csv", "summary.txt", "config_echo.cfg",
                          "records.jsonl"):
                assert (point / fname).exists(), fname
            report = json.loads((point / "report.json").read_text())
            assert len((point / "records.jsonl").read_text().splitlines()) == len(report["records"])
            rows += (point / "results.csv").read_text().splitlines()[1:]
        assert (out / "results.csv").read_text().splitlines()[1:] == rows

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_exits_1_before_reading_data(
        self, tmp_path, data_dir, capsys, monkeypatch, jobs
    ):
        def no_load(*args):
            raise AssertionError("load_dataset called")

        monkeypatch.setattr("popgcn.dataset.load_dataset", no_load)
        cfg = write_config(tmp_path, data_dir)
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--config", str(cfg), "--out", str(out),
                       "--param", "model.cheb_order", "--values", "1,2", "--jobs", jobs)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: ParameterError: jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_bad_param_format(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path, data_dir)
        code = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                       "--param", "nodots", "--values", "1,2")
        assert code == 1


class TestReportCommand:
    def test_print_and_csv(self, tmp_path, data_dir, capsys):
        cfg = write_config(tmp_path, data_dir)
        out = tmp_path / "out"
        run_cli("run", "--config", str(cfg), "--out", str(out))
        capsys.readouterr()
        csv_out = tmp_path / "plot.csv"
        code = run_cli("report", "--report", str(out / "report.json"), "--csv", str(csv_out))
        assert code == 0
        assert "seed-averaged" in capsys.readouterr().out
        assert csv_out.read_text() == (out / "results.csv").read_text()

    @pytest.mark.parametrize(
        "text, cause",
        [
            ("x\n", "JSONDecodeError"),
            ('{"name": "x"}\n', "KeyError: 'config'"),
            (
                '{"name": "x", "config": {}, "summary": {}, "records": [{"bogus": 1}]}\n',
                "unexpected keyword argument 'bogus'",
            ),
        ],
        ids=["not-json", "missing-key", "unknown-record-field"],
    )
    def test_bad_report_exits_1_with_one_line(self, tmp_path, capsys, text, cause):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert run_cli("report", "--report", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: FormatError: {path}: not a popgcn report")
        assert cause in err[0]

    def test_non_utf8_config_exits_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[cv]\nfolds = \xff\n")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err == [f"error: {path}: not UTF-8 text (invalid start byte)"]
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli("synth", "--bogus", "x") == 2
        capsys.readouterr()

    def test_no_arguments_exits_2(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()


class TestParseConfig:
    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[mystery]\nx = 1\n", encoding="utf-8")
        with pytest.raises(ConfigValidationError, match="mystery"):
            parse_config(str(cfg))

    def test_type_error_names_field(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[cv]\nfolds = soon\n", encoding="utf-8")
        with pytest.raises(ConfigValidationError, match="cv.folds"):
            parse_config(str(cfg))

    def test_override_parsing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[cv]\nfolds = 5\n", encoding="utf-8")
        config = parse_config(str(cfg), ["cv.folds=7", "model.epochs=3"])
        assert config["cv"]["folds"] == 7
        assert config["model"]["epochs"] == 3


class TestConfigBuilders:
    # Keys that name no config field and have code of their own.
    OWN_CODE = {
        "dataset.features", "dataset.phenotypes", "dataset.synthetic",
        "dataset.scans_min", "dataset.scans_max",
    }

    def test_every_schema_key_reaches_a_field(self):
        assert set(SECTION_CONFIGS) == set(CONFIG_SCHEMA)
        for section, keys in CONFIG_SCHEMA.items():
            names = {f.name for cls in SECTION_CONFIGS[section] for f in dataclasses.fields(cls)}
            for key in keys:
                path = f"{section}.{key}"
                assert path in self.OWN_CODE or FIELD_NAMES.get(path, key) in names, path
                assert not (path in self.OWN_CODE and key in names), path
        for path in FIELD_NAMES:
            section, key = path.split(".")
            assert key in CONFIG_SCHEMA[section], path

    def test_renamed_keys_set_their_fields(self):
        config = {
            "dataset": {"synthetic": True, "subjects": 12, "sites": 2, "site_shift": 0.5,
                        "noise": 2.0, "data_seed": 5, "n_features": 3},
            "graph": {"sim": "none", "lambda": 3.0},
            "model": {"kind": "ridge", "dropout": 0.1, "l2": 0.01, "lr": 0.02},
        }
        syn = synthetic_config(config)
        assert (syn.n_subjects, syn.n_sites, syn.site_shift_scale, syn.noise_scale, syn.seed) == (
            12, 2, 0.5, 2.0, 5
        )
        desc = build_descriptor(config)
        assert len({r.subject_id for r in desc.records}) == 12
        assert (desc.graph_spec.sim_mode, desc.graph_spec.lam) == ("none", 3.0)
        assert desc.model == "ridge"
        gcn = desc.gcn_config
        assert (gcn.dropout_rate, gcn.l2_coeff, gcn.learning_rate) == (0.1, 0.01, 0.02)

    def test_keys_left_out_keep_the_class_defaults(self):
        assert synthetic_config({}) == SyntheticConfig()

    def test_keys_with_code_of_their_own(self):
        lo, hi = SyntheticConfig().scans_per_subject
        assert synthetic_config({"dataset": {"scans_max": 5}}).scans_per_subject == (lo, 5)
        assert synthetic_config({"dataset": {"scans_min": 2}}).scans_per_subject == (2, hi)

    @pytest.mark.parametrize("text, sigma", [("0.7", 0.7), ("auto", None)])
    def test_sigma_resolves_through_build(self, tmp_path, text, sigma):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[graph]\nsigma = {text}\n", encoding="utf-8")
        assert _build(GraphSpec, parse_config(str(cfg))) == GraphSpec(sigma=sigma)
