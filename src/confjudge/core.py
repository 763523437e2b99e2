"""Core data model: ordinal scales, samples, deterministic splits, and the
split-conformal quantile shared by every interval method.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to share across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ValidationError",
    "LabelScale",
    "JudgeSample",
    "Dataset",
    "SplitSpec",
    "Interval",
    "conformal_quantile",
    "split",
    "to_fine_grid",
    "read_samples",
    "write_samples",
]

GRID_TOL = 1e-6


class ValidationError(ValueError):
    """Input data violates a documented invariant."""


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

    def on_grid(self, value: float, tol: float = GRID_TOL) -> bool:
        k = (value - self.min) / self.step
        return abs(k - round(k)) * self.step <= tol and self.min - tol <= value <= self.max + tol

    def nearest_label(self, value: float) -> float:
        k = round((value - self.min) / self.step)
        k = min(max(k, 0), self.n_labels - 1)
        return self.min + k * self.step

    def to_dict(self) -> dict:
        return {"min": self.min, "max": self.max, "step": self.step}

    @classmethod
    def from_dict(cls, d: dict) -> "LabelScale":
        return cls(float(d["min"]), float(d["max"]), float(d["step"]))


LIKERT_5 = LabelScale(1.0, 5.0, 1.0)
GPA_THIRDS = LabelScale(1.0, 5.0, 1.0 / 3.0)


@dataclass(frozen=True)
class JudgeSample:
    """One evaluated item: rating-token logits, the judge's raw score, and
    the human label on the scale grid."""

    id: str
    logits: tuple
    raw_score: float
    label: float
    meta: dict = field(default_factory=dict)

    def validate(self, scale: LabelScale, k: int) -> None:
        if len(self.logits) != k:
            raise ValidationError(f"sample {self.id!r}: expected {k} logits, got {len(self.logits)}")
        if not all(math.isfinite(v) for v in self.logits):
            raise ValidationError(f"sample {self.id!r}: non-finite logit")
        if not (scale.min - GRID_TOL <= self.raw_score <= scale.max + GRID_TOL):
            raise ValidationError(f"sample {self.id!r}: raw_score {self.raw_score} outside scale range")
        if not scale.on_grid(self.label):
            raise ValidationError(f"sample {self.id!r}: label {self.label} off the scale grid")


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of samples sharing one scale and logit dimension."""

    samples: tuple
    scale: LabelScale
    k: int

    def __post_init__(self):
        ids = set()
        for s in self.samples:
            s.validate(self.scale, self.k)
            if s.id in ids:
                raise ValidationError(f"duplicate sample id {s.id!r}")
            ids.add(s.id)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def logits(self) -> np.ndarray:
        """(n, k) matrix of raw logits."""
        return np.array([s.logits for s in self.samples], dtype=float).reshape(len(self.samples), self.k)

    @property
    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=float)

    @property
    def raw_scores(self) -> np.ndarray:
        return np.array([s.raw_score for s in self.samples], dtype=float)

    def subset(self, indices) -> "Dataset":
        return Dataset(tuple(self.samples[i] for i in indices), self.scale, self.k)


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

    def covers(self, value: float, tol: float = 1e-9) -> bool:
        return (not self.empty) and self.lo - tol <= value <= self.hi + tol

    @staticmethod
    def make_empty() -> "Interval":
        return Interval(math.nan, math.nan, empty=True)


def conformal_quantile(scores, alpha: float) -> float:
    """Calibrated quantile of non-conformity scores.

    Returns the m-th smallest score with m = ceil((n+1)(1-alpha)), clamped
    to m <= n.  The finite-sample coverage guarantee needs
    n >= ceil(1/alpha) - 1, where the index formula stays within n.  Below
    that the clamped result (the maximum score) undercovers: with
    exchangeable, tie-free scores its coverage is n/(n+1), e.g. 0.833 at
    n = 5 and 0.75 at n = 3 for alpha = 0.1.
    """
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValidationError("empty calibration")
    if not np.all(np.isfinite(s)):
        raise ValidationError("invalid score")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    n = s.size
    m = math.ceil((n + 1) * (1.0 - alpha))
    m = min(m, n)
    return float(np.sort(s, kind="stable")[m - 1])


def lower_conformal_quantile(scores, alpha: float) -> float:
    """Low-side counterpart: the floor((n+1)*alpha)-th smallest score,
    clamped to >= 1.  Used by density-scored methods where low scores are
    the non-conforming ones."""
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValidationError("empty calibration")
    if not np.all(np.isfinite(s)):
        raise ValidationError("invalid score")
    n = s.size
    m = math.floor((n + 1) * alpha)
    m = max(m, 1)
    return float(np.sort(s, kind="stable")[m - 1])


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


def _sample_from_record(rec: dict, lineno: int) -> JudgeSample:
    try:
        return JudgeSample(
            id=str(rec["id"]),
            logits=tuple(float(v) for v in rec["logits"]),
            raw_score=float(rec["raw_score"]),
            label=float(rec["label"]),
            meta={str(k): str(v) for k, v in rec.get("meta", {}).items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"line {lineno}: malformed sample record: {exc}") from exc


def read_samples(path, scale: LabelScale, k: int | None = None) -> Dataset:
    """Load a JSONL sample file, rejecting records that fail invariants
    with line-numbered errors."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {lineno}: invalid JSON: {exc}") from exc
            sample = _sample_from_record(rec, lineno)
            if k is None:
                k = len(sample.logits)
            try:
                sample.validate(scale, k)
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from exc
            samples.append(sample)
    if not samples:
        raise ValidationError("no samples")
    return Dataset(tuple(samples), scale, k)


def write_samples(path, dataset: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in dataset.samples:
            rec = {
                "id": s.id,
                "logits": list(s.logits),
                "raw_score": s.raw_score,
                "label": s.label,
                "meta": s.meta,
            }
            fh.write(json.dumps(rec) + "\n")
