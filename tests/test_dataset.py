import csv
import multiprocessing
import os
import threading
import time
import tracemalloc
import warnings
import weakref
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popgcn import dataset
from popgcn.baselines import ridge_classify
from popgcn.dataset import (
    UNKNOWN_LABEL,
    AcquisitionRecord,
    FeatureMatrix,
    SyntheticConfig,
    fork_map,
    generate_synthetic,
    labels_array,
    load_dataset,
    load_features,
    load_phenotypes,
    write_features,
    write_phenotypes,
)
from popgcn.errors import FormatError, IntegrityError, ParameterError, ParseError
from popgcn.featsel import SelectorConfig
from popgcn.gcn import GcnConfig
from popgcn.harness import ExperimentDescriptor, run_experiment
from reference_loader import load_features_reference


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadFeatures:
    def test_three_rows_two_features(self, tmp_path):
        p = write(tmp_path / "f.csv", "acquisition_id,f0,f1\na1,1.0,2.0\na2,3.5,-1.0\na3,0,4\n")
        fm = load_features(p)
        assert fm.ids == ["a1", "a2", "a3"]
        np.testing.assert_array_equal(fm.values, [[1.0, 2.0], [3.5, -1.0], [0.0, 4.0]])

    def test_empty_data_section(self, tmp_path):
        p = write(tmp_path / "f.csv", "acquisition_id,f0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" included
            with pytest.raises(IntegrityError, match="N >= 2"):
                load_features(p)

    def test_parse_error_cites_row_and_column(self, tmp_path):
        p = write(
            tmp_path / "f.csv",
            "acquisition_id,f0,f1\na1,1,2\na2,3,4\na3,5,abc\n",
        )
        with pytest.raises(ParseError, match=r"row 2, column 1") as exc:
            load_features(p)
        assert exc.value.row == 2
        assert exc.value.col == 1

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path / "f.csv", "acquisition_id,f0,f1\na1,1,2\na2,3\n")
        with pytest.raises(FormatError, match="ragged"):
            load_features(p)

    def test_duplicate_id(self, tmp_path):
        p = write(tmp_path / "f.csv", "acquisition_id,f0\na1,1\na1,2\n")
        with pytest.raises(IntegrityError, match="duplicate"):
            load_features(p)

    def test_non_finite_rejected(self, tmp_path):
        p = write(tmp_path / "f.csv", "acquisition_id,f0\na1,nan\na2,2\n")
        with pytest.raises(IntegrityError, match="non-finite"):
            load_features(p)

    def test_wrong_first_row_width(self, tmp_path):
        # Every row agrees with the others but not with the header.
        p = write(tmp_path / "f.csv", "acquisition_id,f0,f1\na1,1\na2,2\n")
        with pytest.raises(FormatError, match="ragged row 0: expected 3 cells, got 2"):
            load_features(p)

    def test_values_are_c_contiguous_float64(self, tmp_path):
        p = write(tmp_path / "f.csv", "acquisition_id,f0,f1\na1,1,2\na2,3,4\n")
        values = load_features(p).values
        assert values.dtype == np.float64
        assert values.flags.c_contiguous

    def test_blank_lines_are_skipped(self, tmp_path):
        # Before, a blank line was a ragged row of 0 cells.
        p = write(tmp_path / "f.csv", "acquisition_id,f0\n\na1,1\n\n\na2,2\n\n")
        fm = load_features(p)
        assert fm.ids == ["a1", "a2"]
        np.testing.assert_array_equal(fm.values, [[1.0], [2.0]])
        # Row numbers count data rows, not lines.
        p = write(tmp_path / "g.csv", "acquisition_id,f0\na1,1\n\na2,x\n")
        with pytest.raises(ParseError, match="row 1, column 0") as exc:
            load_features(p)
        assert (exc.value.row, exc.value.col) == (1, 0)

    def test_digit_separators_rejected(self, tmp_path):
        # Python's float() reads '1_0' as 10.0; the strtod syntax has no separators.
        assert float("1_0") == 10.0
        p = write(tmp_path / "f.csv", "acquisition_id,f0,f1\na1,1,2\na2,3,1_0\n")
        with pytest.raises(ParseError, match="row 1, column 1") as exc:
            load_features(p)
        assert (exc.value.row, exc.value.col) == (1, 1)

    @pytest.mark.parametrize("rows_before", [0, 5000], ids=["first-block", "past-first-block"])
    def test_non_utf8_bytes_raise_format_error(self, tmp_path, rows_before):
        # Past the first block of text, the bad byte reaches np.loadtxt and
        # then the re-read that locates a bad cell.
        path = tmp_path / "f.csv"
        body = "".join(f"id{i},{i}.0\n" for i in range(rows_before)).encode()
        path.write_bytes(b"acquisition_id,f0\n" + body + b"a\xff,1.0\nb,2.0\n")
        with pytest.raises(FormatError, match="not UTF-8") as exc:
            load_features(path)
        assert str(path) in str(exc.value)


# Ids exercise the csv dialect: delimiters and doubled quotes inside quoted
# fields, a leading '#' (there is no comment character), surrounding blanks.
ID_TEXT = st.text(alphabet="ab#,\" \t\r\n", max_size=6)
EXTREME_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
VALUES = st.one_of(
    st.sampled_from(EXTREME_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
NON_NUMERIC = ["", "abc", "1.2.3", "--1", "1e", "e5", "0x10", "#1"]


@st.composite
def feature_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    c = draw(st.integers(min_value=1, max_value=4))
    ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True))
    values = draw(st.lists(VALUES, min_size=n * c, max_size=n * c))
    return FeatureMatrix(ids=ids, values=np.reshape(values, (n, c)))


@st.composite
def feature_rows(draw, min_rows=0):
    """(feature count, rows of cells) in write_features' format, with any
    number of rows and ids that may repeat."""
    n = draw(st.integers(min_value=min_rows, max_value=5))
    c = draw(st.integers(min_value=1, max_value=4))
    ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n))
    return c, [[i] + [repr(draw(VALUES)) for _ in range(c)] for i in ids]


@st.composite
def malformed_rows(draw):
    """Valid rows with one to three faults at random positions."""
    c_features, rows = draw(feature_rows(min_rows=1))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        r = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        c = draw(st.integers(min_value=1, max_value=c_features))
        fault = draw(st.sampled_from(["short", "long", "first_width", "cell"]))
        if fault == "short":  # the id stays: an empty row would be a blank line
            rows[r] = rows[r][: max(1, len(rows[r]) - 1)]
        elif fault == "long":
            rows[r] = rows[r] + ["1.0"]
        elif fault == "first_width":  # every row one cell short or long
            extra = draw(st.booleans())
            rows = [row + ["1.0"] if extra else row[: max(1, len(row) - 1)] for row in rows]
        elif c < len(rows[r]):
            rows[r][c] = draw(st.sampled_from(NON_NUMERIC))
    return c_features, rows


def write_rows(path, rows, n_features):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["acquisition_id"] + [f"f{j}" for j in range(n_features)])
        writer.writerows(rows)
    return str(path)


def outcome(loader, path):
    """(ids, value bits) on success, else (class, message, row, col)."""
    try:
        fm = loader(path)
    except (FormatError, ParseError, IntegrityError) as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return fm.ids, fm.values.view(np.int64).tolist()


def check_round_trip(path, features):
    write_features(features, path)
    expected = (features.ids, features.values.view(np.int64).tolist())
    assert outcome(load_features, path) == outcome(load_features_reference, path) == expected


def check_same_result(path, table):
    n_features, rows = table
    write_rows(path, rows, n_features)
    assert outcome(load_features, path) == outcome(load_features_reference, path)


class TestLoaderMatchesReference:
    """load_features against the csv + float() parser it replaced."""

    @given(features=feature_matrices())
    @settings(max_examples=100, deadline=None)
    def test_files_from_write_features(self, tmp_path_factory, features):
        check_round_trip(tmp_path_factory.mktemp("csv") / "f.csv", features)

    @given(table=st.one_of(feature_rows(), malformed_rows()))
    @settings(max_examples=200, deadline=None)
    def test_same_result(self, tmp_path_factory, table):
        check_same_result(tmp_path_factory.mktemp("csv") / "f.csv", table)

    def test_extreme_values_round_trip_bitwise(self, tmp_path):
        values = np.array([EXTREME_VALUES, EXTREME_VALUES[::-1]])
        write_features(FeatureMatrix(ids=[" a\t", 'x,"y'], values=values), tmp_path / "f.csv")
        loaded = load_features(tmp_path / "f.csv")
        assert loaded.ids == [" a\t", 'x,"y']
        assert loaded.values.view(np.int64).tolist() == values.view(np.int64).tolist()


def map_in_order(fn, items, workers):
    """Stands in for fork_map's pool: runs each item here, in order."""
    assert workers >= 2
    return [fn(*item) for item in items]


def in_ranges(range_bytes, scan_bytes, inline=False):
    """A patch under which load_features cuts the data section into ranges of
    about range_bytes, scanned in blocks of scan_bytes, and hands them to
    two forked workers whatever the machine's core count, or parses them in
    this process if `inline`."""
    patches = {"_RANGE_BYTES": range_bytes, "_SCAN_BYTES": scan_bytes, "_fork_workers": lambda: 2}
    if inline:
        patches["fork_map"] = map_in_order
    return mock.patch.multiple(dataset, **patches)


@contextmanager
def leaves_no_workers():
    """Asserts that the block leaves no child process and no extra thread."""
    threads = threading.active_count()
    yield
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)


@needs_fork
class TestLoadFeaturesInRanges(TestLoadFeatures):
    """Every load_features test again, on ranges of about 16 bytes: most
    rows start a range of their own, and the worker processes parse them."""

    @pytest.fixture(autouse=True, scope="class")
    def ranges(self):
        with in_ranges(16, 7):
            yield


class TestLoaderMatchesReferenceInRanges:
    """The reference comparisons again, on ranges of about 16 bytes scanned
    in 7-byte blocks, so cuts, quotes and line ends fall at every offset. The
    ranges are parsed in this process, in order, to keep the examples fast."""

    @given(features=feature_matrices())
    @settings(max_examples=100, deadline=None)
    def test_files_from_write_features(self, tmp_path_factory, features):
        with in_ranges(16, 7, inline=True):
            check_round_trip(tmp_path_factory.mktemp("csv") / "f.csv", features)

    @given(table=st.one_of(feature_rows(), malformed_rows()))
    @settings(max_examples=200, deadline=None)
    def test_same_result(self, tmp_path_factory, table):
        with in_ranges(16, 7, inline=True):
            check_same_result(tmp_path_factory.mktemp("csv") / "f.csv", table)


def range_starts_of(path):
    """Where load_features, under the active patch, starts each range."""
    starts, _ = dataset._range_starts(path, len(path.read_bytes().split(b"\n", 1)[0]) + 1)
    return starts


@needs_fork
class TestLoadFeaturesInWorkers:
    """Files of several ranges of about 300 bytes, parsed by two forked
    worker processes, against one pass over the whole data section."""

    HEADER = "acquisition_id,f0,f1\n"

    @pytest.fixture(autouse=True, scope="class")
    def ranges(self):
        with in_ranges(300, 64):
            yield

    @staticmethod
    def serial(path):
        with mock.patch.object(dataset, "_fork_workers", lambda: 1):
            return outcome(load_features, path)

    @staticmethod
    def rows(first, count, cells=2):
        return "".join(
            f"id{i:03d}," + ",".join(f"{i}.{j}5" for j in range(cells)) + "\n"
            for i in range(first, first + count)
        )

    def test_bitwise_equal_to_one_pass(self, tmp_path):
        features, _ = generate_synthetic(SyntheticConfig(n_subjects=12, n_features=12, seed=3))
        path = tmp_path / "f.csv"
        write_features(features, path)
        assert len(range_starts_of(path)) >= 3
        with leaves_no_workers():
            loaded = load_features(path)
        assert outcome(load_features, path) == self.serial(path)
        assert loaded.ids == features.ids
        assert loaded.values.view(np.int64).tolist() == features.values.view(np.int64).tolist()
        assert loaded.values.flags.c_contiguous

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes((self.HEADER + self.rows(0, 40)).replace("\n", "\r\n").encode())
        data = path.read_bytes()
        starts = range_starts_of(path)
        assert len(starts) >= 3
        assert all(data[s - 2:s] == b"\r\n" for s in starts)
        fm = load_features(path)
        assert fm.ids == [f"id{i:03d}" for i in range(40)]
        assert outcome(load_features, path) == self.serial(path)

    def test_range_of_blank_lines_only(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(self.HEADER + self.rows(0, 10) + "\n" * 700 + self.rows(10, 10))
        data = path.read_bytes()
        starts = range_starts_of(path)
        ends = starts[1:] + [len(data)]
        assert any(set(data[a:b]) == {ord("\n")} for a, b in zip(starts, ends))
        fm = load_features(path)
        assert fm.ids == [f"id{i:03d}" for i in range(20)]
        assert outcome(load_features, path) == self.serial(path)

    def test_only_blank_lines_after_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(self.HEADER + "\n" * 1000)
        assert len(range_starts_of(path)) >= 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrityError, match="N >= 2 required, got 0 data rows"):
                load_features(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(self.HEADER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrityError, match="N >= 2"):
                load_features(path)

    def test_extra_cell_in_a_later_range_only(self, tmp_path):
        # Rows from the second range on all have one cell more than the
        # header, so each range parses and only the widths disagree.
        path = tmp_path / "f.csv"
        path.write_text(self.HEADER + self.rows(0, 40))
        data = path.read_bytes()
        starts = range_starts_of(path)
        first = data[: starts[1]].count(b"\n") - 1
        path.write_text(self.HEADER + self.rows(0, first) + self.rows(first, 40 - first, cells=3))
        assert range_starts_of(path)[1] == starts[1]
        with pytest.raises(FormatError, match=f"ragged row {first}: expected 3 cells, got 4"):
            load_features(path)
        assert outcome(load_features, path) == self.serial(path)

    def test_bad_cell_in_a_later_range(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(self.HEADER + self.rows(0, 30) + "id030,1.0,abc\n" + self.rows(31, 9))
        assert len(range_starts_of(path)) >= 3
        with pytest.raises(ParseError, match="row 30, column 1") as exc:
            load_features(path)
        assert (exc.value.row, exc.value.col) == (30, 1)
        assert outcome(load_features, path) == self.serial(path)

    def test_non_utf8_byte_in_a_later_range(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes((self.HEADER + self.rows(0, 30)).encode() + b"a\xff,1,2\n"
                         + self.rows(31, 9).encode())
        assert len(range_starts_of(path)) >= 3
        with pytest.raises(FormatError, match=r"not UTF-8 text \(invalid start byte\)") as exc:
            load_features(path)
        assert str(path) in str(exc.value)
        assert outcome(load_features, path) == self.serial(path)

    def test_fault_in_the_first_range_stops_every_worker(self, tmp_path):
        # Each piece is larger than a pipe's buffer, so the second worker is
        # still sending its first piece when the fault in range 0 is raised.
        path = tmp_path / "f.csv"
        cells = ",".join(["1.5"] * 99)
        path.write_text(
            "acquisition_id," + ",".join(f"f{j}" for j in range(100)) + "\n"
            + f"id0,abc,{cells}\n" + "".join(f"id{i},2.5,{cells}\n" for i in range(1, 2000))
        )
        with mock.patch.object(dataset, "_RANGE_BYTES", 200_000):
            assert len(range_starts_of(path)) >= 3
            with leaves_no_workers():
                with pytest.raises(ParseError, match="row 0, column 0"):
                    load_features(path)

    def test_worker_that_dies_is_reported(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(self.HEADER + self.rows(0, 40))
        starts = range_starts_of(path)
        parse = dataset._parse_chunk

        def dies_on_the_last_range(path, start, stop):
            if start == starts[-1]:
                os._exit(3)
            return parse(path, start, stop)

        with mock.patch.object(dataset, "_parse_chunk", dies_on_the_last_range):
            with leaves_no_workers():
                with pytest.raises(RuntimeError, match="worker process exited early"):
                    load_features(path)

    def check_loads_as_plain(self, path, rows):
        # The matrix is sized from the '\n's the scan counts: the file loads
        # as the same rows, one per line.
        plain = path.with_name("plain.csv")
        plain.write_text(self.HEADER + "".join(rows))
        loaded, expected = load_features(path), load_features(plain)
        assert loaded.ids == expected.ids
        assert loaded.values.view(np.int64).tolist() == expected.values.view(np.int64).tolist()
        assert loaded.values.flags.c_contiguous
        assert outcome(load_features, path) == self.serial(path)

    def test_blank_lines_between_rows_and_at_a_cut(self, tmp_path):
        rows = [self.rows(i, 1) for i in range(40)]
        path = tmp_path / "f.csv"
        path.write_text(self.HEADER + "".join(r + "\n" * (i % 3 == 0) for i, r in enumerate(rows)))
        data = path.read_bytes()
        cut = range_starts_of(path)[1]
        path.write_bytes(data[:cut] + b"\n" + data[cut:])  # the bytes before the cut keep it
        starts = range_starts_of(path)
        assert len(starts) >= 3 and starts[1] == cut
        assert path.read_bytes()[cut : cut + 1] == b"\n"
        self.check_loads_as_plain(path, rows)

    def test_rows_ended_by_a_lone_carriage_return(self, tmp_path):
        # np.loadtxt ends a row at a lone '\r' too, which the count of '\n's
        # misses: the matrix grows by each range that overflows it. Cuts
        # fall only after a '\n'.
        rows = [self.rows(i, 1) for i in range(80)]
        path = tmp_path / "f.csv"
        path.write_text(
            self.HEADER + "".join(r if i % 4 == 0 else r[:-1] + "\r" for i, r in enumerate(rows)),
            newline="",
        )
        assert len(range_starts_of(path)) >= 3
        self.check_loads_as_plain(path, rows)

    def test_peak_memory_is_about_one_matrix(self, tmp_path):
        # Each range's rows go into one matrix as they arrive: no list of
        # every range's table, and no concatenated copy of them.
        features, _ = generate_synthetic(
            SyntheticConfig(n_subjects=300, scans_per_subject=(1, 1), n_features=400, seed=1)
        )
        path = tmp_path / "f.csv"
        write_features(features, path)
        with mock.patch.multiple(dataset, _RANGE_BYTES=1 << 16, _SCAN_BYTES=1 << 14):
            assert len(range_starts_of(path)) >= 10
            load_features(path)  # the modules a pool imports on first use are not counted
            tracemalloc.start()
            try:
                loaded = load_features(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert loaded.values.view(np.int64).tolist() == features.values.view(np.int64).tolist()
        assert peak < 1.5 * loaded.values.nbytes

    @pytest.mark.parametrize(
        "before, cell, id_",
        [
            (0, 'a"x', 'a"x'),
            (0, "a" * 64 + '"x', "a" * 64 + '"x'),
            (5, '"x' + "\n" * 300 + 'y"""', "x" + "\n" * 300 + 'y"'),
            (5, '"x' + "\r\n" * 300 + 'y"""', "x" + "\r\n" * 300 + 'y"'),
            (30, '"q"', "q"),
        ],
        ids=["mid-block", "block-start", "quoted-lf", "quoted-crlf", "last-block"],
    )
    def test_stray_quote_keeps_one_range(self, tmp_path, before, cell, id_):
        # A '"' anywhere in the data section leaves it in one range: a quote
        # inside an unquoted field, read as text, mid-block and as the first
        # byte of a scan block; a quoted id whose line ends span the first
        # cut's target; and a quote in the last scan block only, found after
        # the cuts before it.
        text = self.HEADER + self.rows(0, before) + cell + ",1,2\n" + self.rows(before, 30 - before)
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        assert len(text) - len(self.HEADER) > 300  # more than one range
        assert range_starts_of(path) == [len(self.HEADER)]
        assert load_features(path).ids[before] == id_
        assert outcome(load_features, path) == self.serial(path)


@needs_fork
def test_daemonic_process_parses_in_one_pass(tmp_path):
    # A daemonic process may not start children, so it parses every range
    # itself; with workers it would fail.
    features, _ = generate_synthetic(SyntheticConfig(n_subjects=12, n_features=12, seed=3))
    path = tmp_path / "f.csv"
    write_features(features, path)
    with mock.patch.object(dataset, "_RANGE_BYTES", 300):
        assert len(range_starts_of(path)) >= 3
        with multiprocessing.get_context("fork").Pool(1) as pool:
            loaded = pool.apply_async(load_features, (path,)).get(timeout=60)
    assert loaded.ids == features.ids
    assert loaded.values.view(np.int64).tolist() == features.values.view(np.int64).tolist()


@needs_fork
def test_daemonic_process_runs_folds_in_process():
    # The same holds for the fold runner: at jobs=2 a daemonic caller runs
    # the folds itself, and writes the report that jobs=1 writes.
    features, records = generate_synthetic(SyntheticConfig(n_subjects=20, n_features=6, seed=3))
    desc = ExperimentDescriptor(
        features=features,
        records=records,
        gcn_config=GcnConfig(epochs=3, hidden_width=4),
        selector_config=SelectorConfig(kind="none"),
        folds=2,
        seeds=(0,),
    )
    with multiprocessing.get_context("fork").Pool(1) as pool:
        report = pool.apply_async(run_experiment, (desc,), {"jobs": 2}).get(timeout=60)
    assert report.to_json() == run_experiment(desc, jobs=1).to_json()


def fail_first_then_mark(directory, i):
    """fork_map item: item 0 fails at once, every other one leaves a file."""
    if i == 0:
        raise ValueError("item 0 failed")
    time.sleep(0.2)
    (directory / str(i)).touch()
    return i


def report_process(i):
    return i, os.getpid()


class TestForkMap:
    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_in_this_process_without_a_pool(self, workers):
        # One item, or one worker, runs here whatever `workers` allows.
        items = [(i,) for i in range(3 if workers <= 1 else 1)]
        results = list(fork_map(report_process, items, workers))
        assert results == [(i, os.getpid()) for i, in items]

    @needs_fork
    def test_results_in_item_order_from_workers(self):
        with leaves_no_workers():
            results = list(fork_map(report_process, [(i,) for i in range(6)], 2))
        assert [i for i, _ in results] == list(range(6))
        assert os.getpid() not in {pid for _, pid in results}

    @needs_fork
    def test_drops_each_result_once_yielded(self):
        results = fork_map(np.full, [(1000, i) for i in range(4)], 2)
        first = weakref.ref(next(results))
        assert next(results)[0] == 1
        assert first() is None
        assert [r[0] for r in results] == [2, 3]

    @needs_fork
    def test_processes_inherit_the_shared_arguments(self):
        shared = (np.arange(3),)
        results = list(fork_map(np.add, [(10,), (20,)], 2, shared=shared))
        assert [r.tolist() for r in results] == [[10, 11, 12], [20, 21, 22]]
        assert dataset._inherited == ()  # set in the forked processes only

    @needs_fork
    def test_first_error_cancels_the_items_not_started(self, tmp_path):
        items = [(tmp_path, i) for i in range(20)]
        with leaves_no_workers():
            with pytest.raises(ValueError, match="item 0 failed"):
                list(fork_map(fail_first_then_mark, items, 2))
        assert len(list(tmp_path.iterdir())) < 10


class TestLoadPhenotypes:
    HEADER = "acquisition_id,subject_id,label,site,sex,age,gene_flag\n"

    def test_basic_row(self, tmp_path):
        p = write(tmp_path / "p.csv", self.HEADER + "s1_t0,s1,1,siteA,M,71.2,carrier\n")
        (rec,) = load_phenotypes(p)
        assert rec == AcquisitionRecord("s1_t0", "s1", 1, "siteA", "M", 71.2, "carrier")

    def test_unknown_label(self, tmp_path):
        p = write(tmp_path / "p.csv", self.HEADER + "a,s1,?,siteA,F,30,\n")
        (rec,) = load_phenotypes(p)
        assert rec.label == UNKNOWN_LABEL
        assert rec.gene_flag is None

    def test_negative_age(self, tmp_path):
        p = write(tmp_path / "p.csv", self.HEADER + "a,s1,0,siteA,F,-3,\n")
        with pytest.raises(IntegrityError, match="age"):
            load_phenotypes(p)

    @pytest.mark.parametrize("age", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_age(self, tmp_path, age):
        # Under the AGE measure such a node would agree with no one.
        rows = f"a,s1,0,siteA,F,3,\nb,s2,1,siteA,F,{age},\n"
        p = write(tmp_path / "p.csv", self.HEADER + rows)
        with pytest.raises(IntegrityError, match="non-finite age .* at row 1$"):
            load_phenotypes(p)

    @pytest.mark.parametrize("age", [-3.0, np.nan, np.inf, -np.inf])
    def test_record_rejects_negative_and_non_finite_age(self, age):
        with pytest.raises(IntegrityError, match="age must be finite and >= 0"):
            AcquisitionRecord("a", "s1", 0, "siteA", "F", age)

    def test_missing_column(self, tmp_path):
        p = write(tmp_path / "p.csv", "acquisition_id,subject_id,label,site,sex,age\na,s,0,x,F,1\n")
        with pytest.raises(FormatError, match="gene_flag"):
            load_phenotypes(p)

    def test_bad_label_value(self, tmp_path):
        p = write(tmp_path / "p.csv", self.HEADER + "a,s1,2,siteA,F,3,\n")
        with pytest.raises(IntegrityError, match="label"):
            load_phenotypes(p)

    def test_duplicate_acquisition_id(self, tmp_path):
        p = write(tmp_path / "p.csv", self.HEADER + "a,s1,0,x,F,1,\na,s2,1,x,F,2,\n")
        with pytest.raises(IntegrityError, match="duplicate"):
            load_phenotypes(p)

    def test_blank_lines_are_skipped(self, tmp_path):
        # Before, a trailing blank line was a ragged row of 0 cells.
        rows = "a,s1,0,x,F,1,\n\nb,s2,1,x,M,2,\n\n"
        records = load_phenotypes(write(tmp_path / "p.csv", self.HEADER + "\n" + rows))
        assert [r.acquisition_id for r in records] == ["a", "b"]
        # Row numbers count data rows, not lines.
        p = write(tmp_path / "q.csv", self.HEADER + "a,s1,0,x,F,1,\n\nb,s2,1,x,M,old,\n")
        with pytest.raises(ParseError, match="row 1") as exc:
            load_phenotypes(p)
        assert exc.value.row == 1

    def test_non_utf8_bytes_raise_format_error(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(self.HEADER.encode() + b"a,s\xff1,0,x,F,1,\n")
        with pytest.raises(FormatError, match="not UTF-8") as exc:
            load_phenotypes(path)
        assert str(path) in str(exc.value)


class TestRoundTrip:
    def test_write_then_load_reproduces_exactly(self, tmp_path):
        features, records = generate_synthetic(
            SyntheticConfig(n_subjects=8, n_features=5, seed=11)
        )
        fp, pp = tmp_path / "f.csv", tmp_path / "p.csv"
        write_features(features, fp)
        write_phenotypes(records, pp)
        features2, records2 = load_dataset(fp, pp)
        assert features2.ids == features.ids
        np.testing.assert_array_equal(features2.values, features.values)
        assert records2 == records

    def test_misaligned_dataset_rejected(self, tmp_path):
        features, records = generate_synthetic(SyntheticConfig(n_subjects=4, seed=0))
        write_features(features, tmp_path / "f.csv")
        write_phenotypes(list(reversed(records)), tmp_path / "p.csv")
        with pytest.raises(IntegrityError, match="order"):
            load_dataset(tmp_path / "f.csv", tmp_path / "p.csv")


class TestGenerateSynthetic:
    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"noise_scale": 0.0}, "noise_scale must be > 0"),
            ({"scans_per_subject": (2, 1)}, "scans_per_subject range invalid"),
            ({"noise_scale": float("nan")}, "noise_scale must be > 0"),
            ({"class_separation": float("nan")}, "^class_separation must be >= 0, got nan$"),
            ({"site_shift_scale": float("nan")}, "^site_shift_scale must be >= 0, got nan$"),
        ],
    )
    def test_config_checked_when_made(self, settings, message):
        with pytest.raises(ParameterError, match=message):
            SyntheticConfig(**settings)

    def test_deterministic(self):
        cfg = SyntheticConfig(n_subjects=30, seed=7)
        f1, r1 = generate_synthetic(cfg)
        f2, r2 = generate_synthetic(cfg)
        np.testing.assert_array_equal(f1.values, f2.values)
        assert f1.ids == f2.ids
        assert r1 == r2

    def test_chance_level_without_signal(self):
        # With no class separation and no site shift, features carry no label
        # information; a linear classifier must sit at chance.
        cfg = SyntheticConfig(
            n_subjects=300,
            scans_per_subject=(1, 1),
            n_features=10,
            class_separation=0.0,
            site_shift_scale=0.0,
            seed=5,
        )
        features, records = generate_synthetic(cfg)
        y = labels_array(records)
        half = len(y) // 2
        preds, _ = ridge_classify(features.values[:half], y[:half], features.values[half:])
        accuracy = np.mean(preds == y[half:])
        assert abs(accuracy - 0.5) <= 0.1

    def test_subject_scans_share_label_and_site(self):
        features, records = generate_synthetic(
            SyntheticConfig(n_subjects=40, scans_per_subject=(1, 4), seed=2)
        )
        by_subject = {}
        for rec in records:
            by_subject.setdefault(rec.subject_id, []).append(rec)
        assert any(len(v) > 1 for v in by_subject.values())
        for recs in by_subject.values():
            assert len({r.label for r in recs}) == 1
            assert len({r.site for r in recs}) == 1
            assert len({r.sex for r in recs}) == 1

    def test_balanced_subject_labels(self):
        _, records = generate_synthetic(SyntheticConfig(n_subjects=41, seed=1))
        subj_labels = {r.subject_id: r.label for r in records}
        counts = np.bincount(list(subj_labels.values()), minlength=2)
        assert abs(counts[0] - counts[1]) <= 1

    def test_same_subject_scans_are_close(self):
        features, records = generate_synthetic(
            SyntheticConfig(n_subjects=50, scans_per_subject=(2, 2), seed=9)
        )
        x = features.values
        same = np.linalg.norm(x[0] - x[1])  # scans of subject 0
        others = [np.linalg.norm(x[0] - x[i]) for i in range(2, len(x))]
        assert same < np.mean(others)

    def test_ages_nonnegative_and_increasing_with_visits(self):
        _, records = generate_synthetic(
            SyntheticConfig(n_subjects=20, scans_per_subject=(2, 3), seed=4)
        )
        assert all(r.age >= 0 for r in records)
        by_subject = {}
        for rec in records:
            by_subject.setdefault(rec.subject_id, []).append(rec.age)
        for ages in by_subject.values():
            assert ages == sorted(ages)


def test_feature_matrix_invariants():
    with pytest.raises(IntegrityError, match="N >= 2"):
        FeatureMatrix(ids=["a"], values=np.ones((1, 3)))
    with pytest.raises(IntegrityError, match="duplicate"):
        FeatureMatrix(ids=["a", "a"], values=np.ones((2, 3)))
    with pytest.raises(IntegrityError, match="non-finite"):
        FeatureMatrix(ids=["a", "b"], values=np.array([[1.0, np.inf], [0.0, 1.0]]))
