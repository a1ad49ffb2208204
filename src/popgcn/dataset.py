"""Data model, CSV ingestion, and a synthetic cohort generator.

A dataset is a pair (FeatureMatrix, list[AcquisitionRecord]) with identical row
order. Acquisitions are the unit of analysis: one subject may contribute several
acquisitions (longitudinal scans), all sharing the subject's label.

`fork_map`, popgcn's one way to start processes, runs the loader's byte ranges and
`harness.run_experiment`'s folds on a fork-context pool held to one malloc arena, or in
this process at one item or worker, without `fork`, or in a daemonic process.
"""

from __future__ import annotations

import csv
import ctypes
import io
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from collections import deque
from contextlib import closing, contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractError,
    FormatError,
    IntegrityError,
    ParameterError,
    ParseError,
    WorkerError,
    check_above,
    check_at_least,
    check_finite,
)

UNKNOWN_LABEL = -1

PHENOTYPE_COLUMNS = ("acquisition_id", "subject_id", "label", "site", "sex", "age", "gene_flag")


@dataclass(frozen=True)
class AcquisitionRecord:
    """One imaging acquisition plus its non-imaging measures."""

    acquisition_id: str
    subject_id: str
    label: int  # 0, 1, or UNKNOWN_LABEL
    site: str
    sex: str
    age: float
    gene_flag: str | None = None

    def __post_init__(self):
        if self.label not in (0, 1, UNKNOWN_LABEL):
            raise IntegrityError(f"label must be 0, 1 or unknown; got {self.label!r}")
        if not 0 <= self.age < np.inf:
            raise IntegrityError(f"age must be finite and >= 0; got {self.age}")


@dataclass
class FeatureMatrix:
    """N acquisitions x C features, row order matching the phenotype table."""

    ids: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ContractError(f"feature matrix must be 2-D, got shape {self.values.shape}")
        n, c = self.values.shape
        if n < 2:
            raise IntegrityError(f"N >= 2 required, got {n} rows")
        if c < 1:
            raise IntegrityError(f"C >= 1 required, got {c} columns")
        if len(self.ids) != n:
            raise ContractError(f"{len(self.ids)} ids for {n} rows")
        if len(set(self.ids)) != n:
            raise IntegrityError("duplicate acquisition_id in feature matrix")
        # min and max carry any NaN through, so two reductions check every
        # cell without an N x C bool array; the cell is found only on failure.
        if not (-np.inf < self.values.min() and self.values.max() < np.inf):
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise IntegrityError(f"non-finite feature value at row {bad[0]}, column {bad[1]}")

    @property
    def n_acquisitions(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic multi-site longitudinal cohort.

    Feature vectors are built additively: a class mean (+/- class_separation/2
    along a random unit direction), a per-site shift (mostly aligned with the
    class direction, scale site_shift_scale, so that site membership confounds
    a feature-only classifier), a sex shift along an independent direction, a
    per-subject latent of scale noise_scale shared by all of a subject's scans,
    and i.i.d. per-scan noise of scale 0.25 * noise_scale. Sex, site and gene
    flag are drawn independently of the label. Checked when constructed (and
    by replace), the bounds by the errors checks, NaN failing.
    """

    n_subjects: int = 600
    scans_per_subject: tuple[int, int] = (1, 3)
    n_sites: int = 4
    n_features: int = 12
    class_separation: float = 2.5
    site_shift_scale: float = 1.5
    sex_effect: float = 0.8
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_subjects", "n_sites", "n_features"):
            check_at_least(name, getattr(self, name), 1)
        lo, hi = self.scans_per_subject
        if lo < 1 or hi < lo:
            raise ParameterError(f"scans_per_subject range invalid: {self.scans_per_subject}")
        check_at_least("class_separation", self.class_separation, 0, finite=True)
        check_at_least("site_shift_scale", self.site_shift_scale, 0, finite=True)
        check_above("noise_scale", self.noise_scale, 0, finite=True)
        check_finite("sex_effect", self.sex_effect)
        check_at_least("seed", self.seed, 0)


def _parse_label(cell: str) -> int:
    if cell == "?":
        return UNKNOWN_LABEL
    if cell in ("0", "1"):
        return int(cell)
    raise IntegrityError(f"label must be 0, 1 or '?'; got {cell!r}")


@contextmanager
def _open_csv(path):
    """A CSV opened for reading as UTF-8 text. A byte sequence that is not
    UTF-8, met anywhere in the with block, raises FormatError naming path."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


# The data section of a features CSV is parsed in ranges of about this many
# bytes, shared out over worker processes where the machine has cores to spare.
_RANGE_BYTES = 8 << 20
# Block size of the scan that places the range boundaries.
_SCAN_BYTES = 1 << 20


def load_features(path) -> FeatureMatrix:
    """Read a features CSV with header ``acquisition_id,f0,f1,...``.

    The CSV contract: quoting follows the default `csv` dialect (a field may
    be quoted with '"', and a quote inside a quoted field is doubled); blank
    lines are skipped; there is no comment character, so '#' is data; feature
    cells are numbers in C `strtod` syntax (sign, digits, decimal point,
    exponent, inf, nan), optionally padded with whitespace and without digit
    separators, so '1_0' is a ParseError.

    The data section is cut into record-aligned byte ranges of about
    `_RANGE_BYTES` (`_range_starts`), and each range goes through one
    `np.loadtxt` pass (`_parse_chunk`); the id column goes through a
    converter, so the values never exist as Python floats. Each range's rows
    are copied into one matrix as the range arrives, and its table is then
    dropped. The matrix is sized from the one range's rows, or from the
    '\n's the scan counts, which bound the rows unless a lone '\r' ends some
    (the matrix then grows by each range that overflows it). `fork_map`
    parses the ranges on a pool of one forked process per usable core, at
    most one per range, which holds this process to one malloc arena from
    then on. A data section that fits in one range, and every file where
    there is one usable core, no `fork`, or a daemonic process that may not
    have children, is parsed in this process as a single range. So is a data
    section that holds a '"' anywhere (`write_features` quotes only an id
    with a comma, a quote or a line end): a large one loads at one-pass
    speed, 1.2-1.9 times the time of ranges on two cores for a 104 MB
    ABIDE-shape file. Either
    way the result, and every error, is what one pass over the whole data
    section gives. Forking is safe here because the workers only parse and
    return their rows, and popgcn starts no threads before it loads its
    data. Row and column indices in error messages are 0-based over the data
    rows (header, blank lines and id column excluded).

    Raises:
        FormatError: text that is not UTF-8, missing header, no feature
            columns, or ragged rows.
        ParseError: non-numeric cell, citing (row, col).
        IntegrityError: duplicate ids, fewer than 2 rows, non-finite values.
        WorkerError: a parsing process exited before it returned its rows.
    """
    header, start = _read_header(path)
    if not header or header[0] != "acquisition_id":
        raise FormatError(f"{path}: first header column must be 'acquisition_id'")
    n_cols = len(header)
    if n_cols < 2:
        raise FormatError(f"{path}: at least one feature column required")

    size = os.path.getsize(path)
    workers = _fork_workers()
    starts, max_rows = [start], None
    if workers > 1 and size - start > _RANGE_BYTES:
        starts, max_rows = _range_starts(path, start)
    ranges = [(path, a, b) for a, b in zip(starts, starts[1:] + [None])]
    ids: list[str] = []
    values = None
    with closing(_parsed_ranges(path, n_cols, ranges, workers)) as pieces:
        for piece_ids, table in pieces:
            if not piece_ids:
                continue
            if table.shape[1] != n_cols:
                raise _locate_bad_cell(path, n_cols, None)
            if values is None:
                values = np.empty((max_rows or len(piece_ids), n_cols - 1))
            if len(ids) + len(piece_ids) > len(values):  # rows ended by a lone '\r'
                values = np.concatenate((values, np.empty((len(piece_ids), n_cols - 1))))
            values[len(ids) : len(ids) + len(piece_ids)] = table[:, 1:]
            ids += piece_ids
            del table  # not held while the next range arrives
    if len(ids) < 2:
        raise IntegrityError(f"{path}: N >= 2 required, got {len(ids)} data rows")
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise IntegrityError(f"{path}: duplicate acquisition_id {dup!r}")
    # The rows max_rows counted for blank lines stay unwritten.
    return FeatureMatrix(ids=ids, values=values[: len(ids)])


def _parsed_ranges(path, n_cols: int, ranges, workers: int):
    """`_parse_range` over `ranges` through fork_map; a cell np.loadtxt
    rejects raises the error `_locate_bad_cell` finds."""
    try:
        yield from fork_map(_parse_range, ranges, workers)
    except ValueError as exc:  # UnicodeDecodeError included: the re-read reports it
        raise _locate_bad_cell(path, n_cols, exc) from exc


def _read_header(path) -> tuple[list[str], int]:
    """The header record's cells, and the byte offset of the data section."""
    lines: list[str] = []

    def read_lines(fh):
        for line in fh:
            lines.append(line)
            yield line

    with _open_csv(path) as fh:
        try:
            header = next(csv.reader(read_lines(fh)))
        except StopIteration:
            raise FormatError(f"{path}: empty file, header row required") from None
    return header, sum(len(line.encode("utf-8")) for line in lines)


def _fork_workers() -> int:
    """Processes worth forking: one per usable core, or none where the
    platform cannot fork or this process may not have children (a daemonic
    pool worker)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 0
    if multiprocessing.current_process().daemon:
        return 0
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fork_map(fn, items, workers: int, shared: tuple = ()):
    """Yield `fn(*shared, *item)` for each of `items` in item order, each as
    soon as it and those before it are done.

    In this process when `workers` or the item count is at most 1, or where
    `_fork_workers` finds none. Otherwise on a fork-context process pool of
    at most one process per item (it forks them all at the first submit).
    Each task pickles `fn` by name and its item; the processes inherit
    `shared` when they fork, so it is never pickled. A result is dropped
    once it has been yielded, so only the results not yet yielded are held.
    The first error in item order is raised once the items not yet started
    are cancelled and the pool is joined; a process that dies raises
    WorkerError. Before the pool starts, glibc's malloc is held to one arena
    for good: the pool unpickles results in a thread whose own arena would
    keep their freed memory from the rest of the run (without it, three
    abide-shape loads in one process peaked at 108.5-111.6 MB RSS, not
    103.4-105.9 MB, in 6 runs each).
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1 or not _fork_workers():
        yield from (fn(*shared, *item) for item in items)
        return
    _mallopt((_M_ARENA_MAX, 1))
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_inherit, initargs=shared,
    )
    try:
        futures = deque(pool.submit(_call_with_inherited, fn, *item) for item in items)
        while futures:
            yield futures.popleft().result()
    except BrokenProcessPool:
        raise WorkerError("a worker process exited early") from None
    finally:
        pool.shutdown(cancel_futures=True)


# In a fork_map process, the `shared` arguments it inherited.
_inherited: tuple = ()


def _inherit(*shared):
    global _inherited
    _inherited = shared


def _call_with_inherited(fn, *item):
    return fn(*_inherited, *item)


# glibc mallopt parameters, and the highest values glibc's own dynamic
# thresholds reach: DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, and twice that.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD_MAX = 32 << 20


def _mallopt(*settings: tuple[int, int]):
    """Set each (parameter, value) of glibc's malloc; elsewhere a no-op."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (ValueError, OSError):  # the name is unknown outside glibc
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)  # returns int, ctypes's default
    for param, value in settings:
        mallopt(param, value)


def _reuse_freed_memory():
    """Have glibc keep freed memory for the next epoch; elsewhere a no-op.

    Every training epoch allocates and frees the same N x C temporaries.
    glibc serves an array above its mmap threshold with fresh pages, and
    returns a freed heap top above its trim threshold to the kernel, so the
    next epoch faults those pages in again. Both thresholds start at 128 KiB
    and rise only when an array above them is freed. A run that frees no
    large array first, such as one on a longitudinal graph, which is built
    from its edges, keeps them low: at 1633 x 138 an epoch then took about
    2600 page faults. This sets them, for the whole process, where glibc's
    own rule would leave them at most. Set before an abide-shape load or
    after it, as run_experiment does, they give the run the same peak RSS
    (143.2-143.6 MB in 6 runs each, one outlier at 149.3 MB after it).
    """
    _mallopt((_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX), (_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX))


def _range_starts(path, start: int) -> tuple[list[int], int | None]:
    """Where the byte ranges of the data section at `start` begin, and the
    rows it can hold if no row ends at a lone '\r'.

    Each range after the first begins just after the first '\n' at least
    `_RANGE_BYTES` past the start of the range before. The file is scanned
    in blocks of `_SCAN_BYTES`, which also counts its '\n's: every row but
    the last ends at one, unless np.loadtxt ends it at a lone '\r'. A '"'
    anywhere in the data section leaves it in one range, with no count: a
    quoted field may hold a line end that ends no record.
    """
    starts = [start]
    pos = start
    line_ends = 0
    with open(path, "rb") as fh:
        fh.seek(start)
        while block := fh.read(_SCAN_BYTES):
            if b'"' in block:
                return [start], None
            line_ends += np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
            i = block.find(b"\n", max(starts[-1] + _RANGE_BYTES - 1 - pos, 0))
            while i >= 0:
                starts.append(pos + i + 1)
                i = block.find(b"\n", i + _RANGE_BYTES)
            pos += len(block)
    if starts[-1] == pos:  # the last cut fell at the end of the file
        starts.pop()
    return starts, line_ends + 1


def _parse_range(path, start: int, stop: int | None) -> tuple[list[str], np.ndarray]:
    """`_parse_chunk` looked up at the call: a forked worker runs the one it inherited."""
    return _parse_chunk(path, start, stop)


def _parse_chunk(path, start: int, stop: int | None) -> tuple[list[str], np.ndarray]:
    """Parse bytes [start, stop) of a features CSV, to the end if stop is
    None: the ids, and the rows as np.loadtxt reads them, the id column
    zeroed. Workers run this on each range of the data section, and a data
    section parsed in one pass is this call from its start to the end."""
    ids: list[str] = []
    with open(path, "rb") as fh:
        fh.seek(start)
        source = fh if stop is None else io.BytesIO(fh.read(stop - start))
        text = io.TextIOWrapper(source, encoding="utf-8", newline="")
        with warnings.catch_warnings():
            # A range of blank lines, or a header-only file, has no rows.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(
                text, delimiter=",", quotechar='"', comments=None, ndmin=2,
                converters={0: lambda cell: ids.append(cell) or 0.0},
            )
    return ids, table


def _is_number(cell: str) -> bool:
    """Whether np.loadtxt reads `cell` as a float: Python's float syntax
    without its digit separators and non-ASCII digits."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _locate_bad_cell(path, n_cols: int, failure: ValueError | None) -> FormatError | ParseError:
    """The error for the first data row or cell that np.loadtxt rejected.

    Re-reads the data section with csv and builds no values. `failure` is
    numpy's error, kept only for a file this pass finds nothing wrong with.
    """
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for r, cells in enumerate(cells for cells in reader if cells):
            if len(cells) != n_cols:
                return FormatError(
                    f"{path}: ragged row {r}: expected {n_cols} cells, got {len(cells)}"
                )
            for c, cell in enumerate(cells[1:]):
                if not _is_number(cell):
                    return ParseError(
                        f"{path}: non-numeric value {cell!r} at row {r}, column {c}",
                        row=r,
                        col=c,
                    )
    return FormatError(f"{path}: unreadable data section: {failure}")


def load_phenotypes(path) -> list[AcquisitionRecord]:
    """Read a phenotype CSV; records come back in file order.

    Required columns: acquisition_id, subject_id, label, site, sex, age,
    gene_flag (value may be empty -> None). Label '?' marks an unlabeled
    acquisition. Blank lines are skipped, as in load_features, and row
    numbers in error messages count data rows only. Text that is not UTF-8
    raises FormatError.
    """
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, header row required") from None
        missing = [c for c in PHENOTYPE_COLUMNS if c not in header]
        if missing:
            raise FormatError(f"{path}: missing required column(s) {', '.join(missing)}")
        col = {name: header.index(name) for name in PHENOTYPE_COLUMNS}

        records: list[AcquisitionRecord] = []
        seen: set[str] = set()
        for r, cells in enumerate(cells for cells in reader if cells):
            if len(cells) != len(header):
                raise FormatError(
                    f"{path}: ragged row {r}: expected {len(header)} cells, got {len(cells)}"
                )
            acq_id = cells[col["acquisition_id"]]
            if acq_id in seen:
                raise IntegrityError(f"{path}: duplicate acquisition_id {acq_id!r}")
            seen.add(acq_id)
            age_cell = cells[col["age"]]
            try:
                age = float(age_cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric age {age_cell!r} at row {r}", row=r
                ) from None
            if not 0 <= age < np.inf:
                raise IntegrityError(f"{path}: negative or non-finite age {age} at row {r}")
            gene = cells[col["gene_flag"]]
            records.append(
                AcquisitionRecord(
                    acquisition_id=acq_id,
                    subject_id=cells[col["subject_id"]],
                    label=_parse_label(cells[col["label"]]),
                    site=cells[col["site"]],
                    sex=cells[col["sex"]],
                    age=age,
                    gene_flag=gene if gene != "" else None,
                )
            )
    return records


def write_features(features: FeatureMatrix, path):
    """Write a features CSV that load_features reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["acquisition_id"] + [f"f{j}" for j in range(features.n_features)])
        for i, acq_id in enumerate(features.ids):
            writer.writerow([acq_id] + [repr(float(v)) for v in features.values[i]])


def write_phenotypes(records: list[AcquisitionRecord], path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(PHENOTYPE_COLUMNS))
        for rec in records:
            label = "?" if rec.label == UNKNOWN_LABEL else str(rec.label)
            writer.writerow(
                [
                    rec.acquisition_id,
                    rec.subject_id,
                    label,
                    rec.site,
                    rec.sex,
                    repr(float(rec.age)),
                    rec.gene_flag if rec.gene_flag is not None else "",
                ]
            )


def load_dataset(features_path, phenotypes_path) -> tuple[FeatureMatrix, list[AcquisitionRecord]]:
    """Load both files and verify row alignment by acquisition_id."""
    features = load_features(features_path)
    records = load_phenotypes(phenotypes_path)
    if features.ids != [r.acquisition_id for r in records]:
        raise IntegrityError(
            "feature matrix and phenotype table disagree on acquisition ids or order"
        )
    return features, records


def labels_array(records: list[AcquisitionRecord]) -> np.ndarray:
    return np.array([r.label for r in records], dtype=np.int64)


def generate_synthetic(cfg: SyntheticConfig) -> tuple[FeatureMatrix, list[AcquisitionRecord]]:
    """Generate a deterministic synthetic cohort; see SyntheticConfig for the model.

    Subject-level labels are balanced to within one subject. All scans of a
    subject share its label, subject latent, site, sex and gene flag.
    """
    rng = np.random.default_rng(cfg.seed)
    n_subj = cfg.n_subjects
    c = cfg.n_features

    # Balanced subject labels, order shuffled so id and label are independent.
    subj_labels = np.array([i % 2 for i in range(n_subj)], dtype=np.int64)
    rng.shuffle(subj_labels)

    def unit(vec):
        return vec / np.linalg.norm(vec)

    class_dir = unit(rng.standard_normal(c))
    sex_dir = unit(rng.standard_normal(c))
    # Site shifts confound the class direction on purpose: a feature-only
    # classifier cannot tell a site offset from a class offset.
    site_axis = rng.standard_normal(cfg.n_sites)
    site_ortho = rng.standard_normal((cfg.n_sites, c))
    site_shifts = cfg.site_shift_scale * (
        site_axis[:, None] * class_dir[None, :]
        + 0.35 * site_ortho / np.sqrt(c)
    )

    subj_sites = rng.integers(0, cfg.n_sites, size=n_subj)
    subj_sexes = rng.integers(0, 2, size=n_subj)  # 0 -> F, 1 -> M
    subj_genes = rng.integers(0, 2, size=n_subj)  # 0 -> noncarrier, 1 -> carrier
    subj_ages = rng.uniform(8.0, 70.0, size=n_subj)
    subj_latents = rng.standard_normal((n_subj, c)) * cfg.noise_scale
    lo, hi = cfg.scans_per_subject
    subj_scans = rng.integers(lo, hi + 1, size=n_subj)

    ids: list[str] = []
    records: list[AcquisitionRecord] = []
    rows: list[np.ndarray] = []
    for s in range(n_subj):
        label = int(subj_labels[s])
        mean = (cfg.class_separation / 2.0) * (1.0 if label == 1 else -1.0) * class_dir
        mean = mean + site_shifts[subj_sites[s]]
        mean = mean + (cfg.sex_effect / 2.0) * (1.0 if subj_sexes[s] == 1 else -1.0) * sex_dir
        mean = mean + subj_latents[s]
        subject_id = f"s{s:04d}"
        age = subj_ages[s]
        for t in range(int(subj_scans[s])):
            scan_noise = rng.standard_normal(c) * (0.25 * cfg.noise_scale)
            rows.append(mean + scan_noise)
            acq_id = f"{subject_id}_t{t}"
            ids.append(acq_id)
            records.append(
                AcquisitionRecord(
                    acquisition_id=acq_id,
                    subject_id=subject_id,
                    label=label,
                    site=f"site{subj_sites[s]}",
                    sex="M" if subj_sexes[s] == 1 else "F",
                    age=float(age),
                    gene_flag="carrier" if subj_genes[s] == 1 else "noncarrier",
                )
            )
            age += float(rng.uniform(0.4, 1.2))  # later visits

    features = FeatureMatrix(ids=ids, values=np.vstack(rows))
    return features, records
