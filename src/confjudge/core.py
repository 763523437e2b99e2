"""Core data model: the value checks and the two JSON readers that every
input file goes through, ordinal scales, the columnar dataset, deterministic
splits, and the split-conformal quantile shared by every interval method.

A :class:`Dataset` holds one judge run as columns.  Every sample invariant
is defined once, in :func:`row_problems`, which the dataset constructor,
``read_samples`` and transcript extraction all apply.  Only the constructor
(which unpickling goes through) and ``read_samples`` validate; a subset
gathers rows that were already checked and rejects only a repeated index,
and meta rows are read-only mappings that subsets share.  An
:class:`Intervals` batch holds predicted intervals as columns too.

Sample files are read and written ``_CHUNK_ROWS`` rows at a time, so
beyond the dataset itself ``read_samples`` and ``write_samples`` hold the
Python objects of one chunk of rows, not of every row.

All types are immutable after construction (the dataset's arrays are
read-only) and all operations are pure functions, so everything here is
safe to share across workers.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import reprlib
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

__all__ = [
    "ValidationError",
    "LabelScale",
    "Dataset",
    "row_problems",
    "SplitSpec",
    "Interval",
    "Intervals",
    "conformal_quantile",
    "split",
    "to_fine_grid",
    "read_samples",
    "write_samples",
]

GRID_TOL = 1e-6
_COVER_TOL = 1e-9  # an interval covers a label this close to its bounds


class ValidationError(ValueError):
    """Input data violates a documented invariant."""


# ---------------------------------------------------------------------------
# Value checks: each check(value, label) returns the value as a plain Python
# object or raises ValidationError naming label.  They read every number of
# an input file or model document: an int or a float, numpy's too, never a bool.

_JSON_NUMBERS = frozenset((int, float))  # the types json.loads gives a number


def _numbers_only(types) -> bool:
    return types <= _JSON_NUMBERS or all(issubclass(t, numbers.Real) and not issubclass(t, bool) for t in types)


def integer(lo: int):
    """An integer >= lo."""
    def check(value, label="value"):
        if not (_numbers_only({type(value)}) and isinstance(value, numbers.Integral) and value >= lo):
            raise ValidationError(f"{label} must be an integer >= {lo}, got {value!r}")
        return int(value)
    return check


def real(lo: float = -math.inf, strict: bool = False):
    """A finite real >= lo, or > lo when ``strict``."""
    def check(value, label="value"):
        try:
            x = float(value) if _numbers_only({type(value)}) else math.nan
        except OverflowError:  # an int past the largest float
            x = math.inf
        if not (math.isfinite(x) and (x > lo if strict else x >= lo)):
            raise ValidationError(f"{label} must be a finite number {'>' if strict else '>='} {lo:g}, "
                                  f"got {value!r}")
        return x
    return check


def one_of(what: str, choices):
    """One of the names in ``choices``, each a ``what``."""
    def check(value, label="value"):
        if not isinstance(value, str) or value not in choices:
            raise ValidationError(f"{label} must be a {what} ({', '.join(choices)}), got {value!r}")
        return value
    return check


def or_none(check):
    """None, or a value that passes ``check``."""
    return lambda value, label="value": None if value is None else check(value, label)


def array(ndim: int, whole: bool = False):
    """A finite array of exactly ``ndim`` dimensions of numbers, as floats,
    or as int64 when ``whole`` (a fraction is rejected, not truncated).  As
    for :func:`real`, a string, null or bool is no number: an ndarray must
    have a numeric dtype, and a list only number entries."""
    def check(value, label="value"):
        try:
            a = np.asarray(value)
        except ValueError:  # a ragged list
            a = np.asarray(None)
        numeric = a.dtype.kind in "iuf" and a.ndim == ndim
        if numeric and isinstance(value, list):  # numpy reads [True, 0.5] as a float array
            entries = value
            for _ in range(ndim - 1):
                entries = itertools.chain.from_iterable(entries)
            numeric = _numbers_only(set(map(type, entries)))
        x = a.astype(float, copy=False) if numeric else np.asarray(math.nan)
        # count_nonzero, not all(): all() costs microseconds on a served point's one score
        finite = np.count_nonzero(np.isfinite(x)) == x.size
        if not finite or whole and not np.all((x == np.floor(x)) & (np.abs(x) < 2.0 ** 63)):
            raise ValidationError(f"{label} must be a {ndim}-D array of finite {'whole ' if whole else ''}numbers")
        # an integer array converts exactly, a float one once checked
        return (a if a.dtype.kind in "iu" else x).astype(np.int64) if whole else x
    return check


# ---------------------------------------------------------------------------
# JSON input files: every one is parsed by one of these two readers

# what parsing text that is not UTF-8 JSON, or nested past the recursion limit, raises
_PARSE_ERRORS = (ValueError, RecursionError)
# what reading a value of the wrong type or shape raises
_RECORD_ERRORS = (AttributeError, KeyError, TypeError, ValueError, OverflowError)


def read_json_lines(path, read, what: str):
    """Yield (line number, record) for each non-blank line of the JSON-lines
    file at ``path``, the line's value passed through ``read``.  Invalid JSON
    or a value ``read`` rejects raises ValidationError naming the line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                value = json.loads(line.decode())
            except _PARSE_ERRORS as exc:
                raise ValidationError(f"line {lineno}: invalid JSON: {exc}") from exc
            try:
                record = read(value)
            except _RECORD_ERRORS as exc:
                raise ValidationError(f"line {lineno}: malformed {what} record: {exc}") from exc
            yield lineno, record


def read_json(path, read, what: str):
    """The JSON file at ``path`` passed through ``read``; as
    :func:`read_json_lines`, with errors naming the path."""
    with open(path, "rb") as fh:
        try:
            value = json.load(fh)
        except _PARSE_ERRORS as exc:
            raise ValidationError(f"{path}: {what} is not JSON: {exc}") from exc
    try:
        return read(value)
    except _RECORD_ERRORS as exc:
        raise ValidationError(f"{path}: malformed {what}: {exc}") from exc


def string_id(value) -> str:
    """A record's id: a string, or an integer read as its digits."""
    if type(value) not in (str, int):
        raise ValidationError(f"id must be a string or an integer, got {value!r}")
    return str(value)


def read_meta(value) -> dict:
    """A record's meta object, each value read as a string."""
    return {str(key): str(v) for key, v in value.items()}


@dataclass(frozen=True)
class LabelScale:
    """Ordinal rating grid: labels are ``min + k * step`` for k = 0..M-1.

    The usual instances are Likert-5 (``LabelScale(1, 5, 1)``) and the
    thirds grid produced by averaging three integer annotations
    (``LabelScale(1, 5, 1/3)``).
    """

    min: float
    max: float
    step: float

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max) and math.isfinite(self.step)):
            raise ValidationError("scale bounds and step must be finite")
        if self.step <= 0:
            raise ValidationError("scale step must be > 0")
        if self.max <= self.min:
            raise ValidationError("scale max must exceed min")
        ratio = (self.max - self.min) / self.step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValidationError("(max - min) must be an integer multiple of step")

    @property
    def n_labels(self) -> int:
        return int(round((self.max - self.min) / self.step)) + 1

    def labels(self) -> np.ndarray:
        """All admissible labels, in increasing order."""
        return self.min + self.step * np.arange(self.n_labels)

    def on_grid(self, value):
        """Whether ``value`` is a label of the grid, within ``GRID_TOL``;
        elementwise for an array."""
        k = (value - self.min) / self.step
        with np.errstate(invalid="ignore"):
            off = np.abs(k - np.round(k)) * self.step
        return (off <= GRID_TOL) & (self.min - GRID_TOL <= value) & (value <= self.max + GRID_TOL)

    def nearest_label(self, value):
        """The label nearest ``value`` (ties to the even index); elementwise for an array."""
        k = np.clip(np.round((value - self.min) / self.step), 0, self.n_labels - 1)
        return self.min + k * self.step

    def to_dict(self) -> dict:
        return {"min": self.min, "max": self.max, "step": self.step}


LIKERT_5 = LabelScale(1.0, 5.0, 1.0)
GPA_THIRDS = LabelScale(1.0, 5.0, 1.0 / 3.0)


def row_problems(ids, logits: np.ndarray, raw_scores: np.ndarray, labels: np.ndarray,
                 scale: LabelScale) -> list:
    """The rows that break a sample invariant, as (row, reason) pairs in row
    order.  A row's reason is the first of: a non-finite logit, a raw score
    outside the scale range, a label off the scale grid, an id already
    taken by an earlier row."""
    bad_logit = ~np.isfinite(logits).all(axis=1)
    bad_raw = ~((raw_scores >= scale.min - GRID_TOL) & (raw_scores <= scale.max + GRID_TOL))
    bad_label = ~scale.on_grid(labels)
    problems = {}
    for i in np.flatnonzero(bad_logit | bad_raw | bad_label).tolist():
        if bad_logit[i]:
            problems[i] = f"sample {ids[i]!r}: non-finite logit"
        elif bad_raw[i]:
            problems[i] = f"sample {ids[i]!r}: raw_score {float(raw_scores[i])} outside scale range"
        else:
            problems[i] = f"sample {ids[i]!r}: label {float(labels[i])} off the scale grid"
    for i in _repeated_ids(ids):
        problems.setdefault(i, f"duplicate sample id {ids[i]!r}")
    return sorted(problems.items())


def _repeated_ids(ids) -> list:
    """The rows whose id an earlier row already has, in row order.  Equal
    ids hash equally, so only the rows whose hash repeats are compared: the
    ids themselves need no order, and distinct ids cost two int64s each
    rather than a set entry."""
    hashes = np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids))
    ordered = np.sort(hashes)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    repeated, seen = [], set()
    if shared.size:
        for i in np.flatnonzero(np.isin(hashes, shared)).tolist():
            if ids[i] in seen:
                repeated.append(i)
            seen.add(ids[i])
    return repeated


_NO_META = MappingProxyType({})


def _read_only_meta(meta) -> tuple:
    """Each row's meta as a read-only copy; every empty one is the shared ``_NO_META``."""
    return tuple(MappingProxyType(m) if m else _NO_META for m in map(dict, meta))


def _take(column: tuple, rows: list) -> tuple:
    """The entries of ``column`` at ``rows``, as a tuple (``itemgetter``
    returns a bare entry for a single row)."""
    return operator.itemgetter(*rows)(column) if len(rows) > 1 else tuple(column[i] for i in rows)


@dataclass(frozen=True, eq=False)
class Dataset:
    """One judge run in columns sharing one scale: row i is the sample
    ``ids[i]`` with rating-token logits ``logits[i]`` (k of them), the
    judge's ``raw_scores[i]``, the human ``labels[i]`` and the read-only
    mapping ``meta[i]`` (empty when ``meta`` is None).

    The constructor copies the columns, makes the arrays and meta rows
    read-only, and raises ValidationError for the first row that
    :func:`row_problems` names.  Unpickled copies go through it too.  A
    subset gathers the already-checked rows without validating them again:
    each invariant but distinct ids holds row by row, and distinct rows of
    a dataset have distinct ids, so it rejects only a repeated index."""

    ids: tuple
    logits: np.ndarray
    raw_scores: np.ndarray
    labels: np.ndarray
    scale: LabelScale
    meta: tuple | None = None

    def __post_init__(self):
        ids = tuple(self.ids)
        n = len(ids)
        meta = (_NO_META,) * n if self.meta is None else _read_only_meta(self.meta)
        logits, raw_scores, labels = (np.array(c, dtype=float) for c in (self.logits, self.raw_scores, self.labels))
        if (logits.ndim != 2 or logits.shape[0] != n or logits.shape[1] == 0
                or raw_scores.shape != (n,) or labels.shape != (n,) or len(meta) != n):
            raise ValidationError(f"a dataset of {n} ids needs an ({n}, k) logit matrix with k >= 1 "
                                  f"and {n} raw scores, labels and meta dicts")
        self._set_columns(ids, logits, raw_scores, labels, meta)
        problems = row_problems(ids, logits, raw_scores, labels, self.scale)
        if problems:
            raise ValidationError(problems[0][1])

    def _set_columns(self, ids, logits, raw_scores, labels, meta) -> None:
        for column in (logits, raw_scores, labels):
            column.flags.writeable = False
        for name, column in zip(("ids", "logits", "raw_scores", "labels", "meta"),
                                (ids, logits, raw_scores, labels, meta)):
            object.__setattr__(self, name, column)

    @classmethod
    def _checked(cls, ids: tuple, logits, raw_scores, labels, scale: LabelScale, meta: tuple) -> "Dataset":
        """A dataset of columns that already hold every invariant: float
        arrays of the constructor's shapes, which it makes read-only, and a
        tuple of read-only meta rows.  Skips the constructor's copies and
        checks."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "scale", scale)
        ds._set_columns(ids, logits, raw_scores, labels, meta)
        return ds

    def __reduce__(self):
        # a mappingproxy cannot be pickled, so the meta rows travel as dicts
        return Dataset, (self.ids, self.logits, self.raw_scores, self.labels, self.scale,
                         tuple(map(dict, self.meta)))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def k(self) -> int:
        """Logits per sample."""
        return self.logits.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices``, in that order.  A row picked twice, also
        through a negative alias, raises the constructor's duplicate-id
        ValidationError."""
        idx = np.asarray(indices, dtype=np.intp)
        logits = self.logits[idx]  # raises IndexError for an index out of range
        rows = np.where(idx < 0, idx + len(self), idx)
        picked = np.zeros(len(self), dtype=bool)
        picked[rows] = True
        rows = rows.tolist()
        if np.count_nonzero(picked) < len(rows):
            seen = set()
            for i in rows:
                if i in seen:
                    raise ValidationError(f"duplicate sample id {self.ids[i]!r}")
                seen.add(i)
        return Dataset._checked(_take(self.ids, rows), logits, self.raw_scores[idx], self.labels[idx],
                                self.scale, _take(self.meta, rows))


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic three-way split: the seed fully determines the partition."""

    seed: int
    calib_fraction: float = 0.5
    inner_train_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.calib_fraction < 1.0:
            raise ValidationError("calib_fraction must lie in (0, 1)")
        if not 0.0 < self.inner_train_fraction < 1.0:
            raise ValidationError("inner_train_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; ``empty`` marks an interval containing no
    labels (possible after shrinking adjustment)."""

    lo: float
    hi: float
    empty: bool = False

    def __post_init__(self):
        if not self.empty and self.lo > self.hi + 1e-12:
            raise ValidationError(f"interval lo {self.lo} > hi {self.hi}")

    @property
    def width(self) -> float:
        return 0.0 if self.empty else self.hi - self.lo

    def covers(self, value: float) -> bool:
        return (not self.empty) and self.lo - _COVER_TOL <= value <= self.hi + _COVER_TOL

    @staticmethod
    def make_empty() -> "Interval":
        return Interval(math.nan, math.nan, empty=True)


@dataclass(frozen=True, eq=False)
class Intervals:
    """A batch of intervals in read-only columns: row i is ``Interval(lo[i],
    hi[i], empty[i])``, an empty row has NaN bounds, and ``empty`` defaults to
    all False.  An integer index gives that row, a slice or mask a batch.
    Batches compare by identity; compare their columns or ``list(batch)``."""

    lo: np.ndarray
    hi: np.ndarray
    empty: np.ndarray | None = None

    def __post_init__(self):
        lo, hi = np.array(self.lo, dtype=float), np.array(self.hi, dtype=float)
        empty = np.zeros(lo.shape, dtype=bool) if self.empty is None else np.array(self.empty, dtype=bool)
        if lo.ndim != 1 or hi.shape != lo.shape or empty.shape != lo.shape:
            raise ValidationError("interval columns must be 1-D and of equal length")
        if np.count_nonzero(~empty & (lo > hi + 1e-12)):
            raise ValidationError("interval lo > hi")
        self._set_columns(lo, hi, empty)

    def _set_columns(self, lo, hi, empty) -> None:
        for name, column in (("lo", lo), ("hi", hi), ("empty", empty)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @classmethod
    def _clamp(cls, lo, hi, scale: LabelScale, empty=None) -> "Intervals":
        """Equal-length 1-D [lo, hi] clamped to the scale range, hi raised to lo
        where below it.  The new columns hold lo <= hi, so they skip the
        constructor's copies and checks, which every served point would pay."""
        lo = np.minimum(np.maximum(lo, scale.min), scale.max)
        # lo lies in the range, so raising hi to lo also raises it to the minimum
        hi = np.maximum(lo, np.minimum(hi, scale.max))
        out = object.__new__(cls)
        out._set_columns(lo, hi, np.zeros(len(lo), dtype=bool) if empty is None else empty)
        return out

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return Interval(self.lo.item(i), self.hi.item(i), self.empty.item(i))
        return Intervals(self.lo[i], self.hi[i], self.empty[i])

    def __iter__(self):
        return map(Interval, self.lo.tolist(), self.hi.tolist(), self.empty.tolist())

    @property
    def width(self) -> np.ndarray:
        """Per-row width, 0 for an empty row."""
        return np.where(self.empty, 0.0, self.hi - self.lo)

    def covers(self, labels) -> np.ndarray:
        """Per-row :meth:`Interval.covers` of ``labels[i]``."""
        return ~self.empty & (self.lo - _COVER_TOL <= labels) & (labels <= self.hi + _COVER_TOL)


def _sorted_scores(scores, alpha: float) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValidationError("empty calibration")
    if not np.all(np.isfinite(s)):
        raise ValidationError("invalid score")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    return np.sort(s, kind="stable")


def conformal_quantile(scores, alpha: float) -> float:
    """Calibrated quantile of non-conformity scores.

    Returns the m-th smallest score with m = ceil((n+1)(1-alpha)), clamped
    to m <= n.  The finite-sample coverage guarantee needs
    n >= ceil(1/alpha) - 1, where the index formula stays within n.  Below
    that the clamped result (the maximum score) undercovers: with
    exchangeable, tie-free scores its coverage is n/(n+1), e.g. 0.833 at
    n = 5 and 0.75 at n = 3 for alpha = 0.1.
    """
    s = _sorted_scores(scores, alpha)
    m = min(math.ceil((s.size + 1) * (1.0 - alpha)), s.size)
    return float(s[m - 1])


def lower_conformal_quantile(scores, alpha: float) -> float:
    """Low-side counterpart: the floor((n+1)*alpha)-th smallest score,
    clamped to >= 1.  Used by density-scored methods where low scores are
    the non-conforming ones."""
    s = _sorted_scores(scores, alpha)
    m = max(math.floor((s.size + 1) * alpha), 1)
    return float(s[m - 1])


def split(dataset: Dataset, spec: SplitSpec):
    """Partition into (train, calib, test).

    The test set takes ``1 - calib_fraction`` of the samples; the remaining
    calibration pool is divided into train (for fitted estimators) and
    calib (for conformal scores) by ``inner_train_fraction``.  Shuffling is
    driven only by the seed.
    """
    n = len(dataset)
    if n == 0:
        raise ValidationError("degenerate split")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    n_pool = int(round(spec.calib_fraction * n))
    n_train = int(round(spec.inner_train_fraction * n_pool))
    train_idx = perm[:n_train]
    calib_idx = perm[n_train:n_pool]
    test_idx = perm[n_pool:]
    if len(train_idx) == 0 or len(calib_idx) == 0 or len(test_idx) == 0:
        raise ValidationError("degenerate split")
    return dataset.subset(train_idx), dataset.subset(calib_idx), dataset.subset(test_idx)


def to_fine_grid(scale: LabelScale):
    """Affine map (a, b) with y' = a*y + b sending the scale grid onto the
    integers 1..M.  The thirds grid maps onto 1..13 via y' = 3y - 2."""
    a = 1.0 / scale.step
    b = 1.0 - scale.min / scale.step
    return a, b


# ---------------------------------------------------------------------------
# JSONL sample records


_CHUNK_ROWS = 1024  # sample rows converted to or from arrays at a time


def _sample_row(rec: dict) -> tuple:
    """A sample record's (id, logits, raw_score, label, read-only meta): the
    numbers as JSON numbers, tested by the types of a whole record at once."""
    try:
        sid, logits, raw_score, label = rec["id"], rec["logits"], rec["raw_score"], rec["label"]
        types = {type(raw_score), type(label), *map(type, logits)}
        if not types <= _JSON_NUMBERS:
            raise TypeError  # named below, with every other type defect
        if int in types:
            list(map(float, (raw_score, label, *logits)))  # raises OverflowError for an int past the largest float
        meta = rec.get("meta", _NO_META)
        # the common meta skips a call
        meta = _NO_META if meta == {} else MappingProxyType(read_meta(meta))
    except (TypeError, AttributeError, OverflowError):
        raise TypeError(_sample_type_problem(rec)) from None
    return sid if type(sid) is str else string_id(sid), logits, raw_score, label, meta


def _sample_type_problem(rec) -> str:
    """The first field of a sample record that breaks a type rule, and its
    value; the error path of :func:`_sample_row`, which found one."""
    if type(rec) is not dict:
        return f"record must be an object, got {reprlib.repr(rec)}"
    if type(rec["logits"]) is not list:
        return f"logits must be a list of numbers, got {reprlib.repr(rec['logits'])}"
    fields = [*((f"logits[{i}]", value) for i, value in enumerate(rec["logits"])),
              ("raw_score", rec["raw_score"]), ("label", rec["label"])]
    for name, value in fields:
        if type(value) not in _JSON_NUMBERS:
            return f"{name} must be a number, got {reprlib.repr(value)}"
        try:
            float(value)
        except OverflowError:
            return f"{name} must fit a float, got {reprlib.repr(value)}"
    return f"meta must be an object, got {reprlib.repr(rec['meta'])}"  # the one field left


def read_samples(path, scale: LabelScale, k: int | None = None) -> Dataset:
    """Load a JSONL sample file, ``_CHUNK_ROWS`` records at a time.  A
    malformed record or one with another number of logits than ``k``
    (default: the first record's), whichever comes first, and then the
    first record that breaks a row invariant raise ValidationError with the
    line number."""
    linenos, ids, logits, raw_scores, labels, meta = _join_chunks(_sample_chunks(path, k))
    problems = row_problems(ids, logits, raw_scores, labels, scale)
    if problems:
        raise ValidationError(f"line {linenos[problems[0][0]]}: {problems[0][1]}")
    return Dataset._checked(ids, logits, raw_scores, labels, scale, meta)


def _sample_chunks(path, k: int | None):
    """Yield the columns of the sample file at ``path`` for each
    ``_CHUNK_ROWS`` records: (line numbers, ids, logits, raw scores, labels,
    meta rows), the ids and meta as tuples, the rest as arrays."""
    records = read_json_lines(path, _sample_row, "sample")
    first = next(records, None)
    if first is None:
        raise ValidationError("no samples")
    lineno, (sid, logits, *_) = first
    k = len(logits) if k is None else k
    if k == 0:
        raise ValidationError(f"line {lineno}: sample {sid!r}: no logits")
    records = itertools.chain([first], records)
    while True:
        linenos, rows = [], []
        for lineno, row in itertools.islice(records, _CHUNK_ROWS):
            if len(row[1]) != k:
                raise ValidationError(f"line {lineno}: sample {row[0]!r}: expected {k} logits, got {len(row[1])}")
            linenos.append(lineno)
            rows.append(row)
        if not rows:
            return
        yield _sample_columns(linenos, rows, k)


def _sample_columns(linenos: list, rows: list, k: int) -> tuple:
    ids, logits, raw_scores, labels, meta = zip(*rows)
    # every row holds k logits; fromiter reads them faster than np.array
    logits = np.fromiter(itertools.chain.from_iterable(logits), dtype=float, count=len(rows) * k)
    return (np.array(linenos, dtype=np.int64), ids, logits.reshape(len(rows), k),
            np.array(raw_scores, dtype=float), np.array(labels, dtype=float), meta)


def _join_chunks(chunks) -> list:
    """Each column of ``chunks`` joined: arrays concatenated, tuples chained.
    The chunks are released before the caller checks the rows."""
    return [np.concatenate(parts) if isinstance(parts[0], np.ndarray) else tuple(itertools.chain.from_iterable(parts))
            for parts in zip(*chunks)]


def write_samples(path, dataset: Dataset) -> None:
    """Write ``dataset`` as JSONL, ``_CHUNK_ROWS`` rows at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(dataset), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            columns = (dataset.ids[rows], dataset.logits[rows].tolist(), dataset.raw_scores[rows].tolist(),
                       dataset.labels[rows].tolist(), map(dict, dataset.meta[rows]))
            for sid, logits, raw_score, label, meta in zip(*columns):
                rec = {"id": sid, "logits": logits, "raw_score": raw_score, "label": label, "meta": meta}
                fh.write(json.dumps(rec) + "\n")
