"""Boundary adjustment from continuous to ordinal intervals, plus midpoint
extraction.

A continuous interval [l, u] is mapped through the fine grid (``core.to_fine_grid``)
where every admissible label is an integer; shrinking takes ceil(l)/floor(u),
expanding takes floor(l)/ceil(u), and the lambda-nearest policy rounds an
endpoint to its closest label only when it is within ``lam`` of it.  Expanding
or nearest-rounding can only add labels to the interval, so label-counted
coverage never decreases; shrinking removes only label-free margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Interval, Intervals, LabelScale, ValidationError, to_fine_grid

__all__ = ["AdjustmentPolicy", "SHRINK", "EXPAND", "NEAREST", "adjust", "adjust_all", "midpoint", "fallback_label"]

SHRINK = "shrink"
EXPAND = "expand"
NEAREST = "nearest"

_FP_TOL = 1e-9


@dataclass(frozen=True)
class AdjustmentPolicy:
    """Endpoint policy: ``shrink``, ``expand``, or ``nearest`` with threshold
    ``lam`` in scale units.  ``lam = step/2`` is full adjustment (every
    endpoint lands on a label); ``lam = 0`` is the identity."""

    kind: str
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in (SHRINK, EXPAND, NEAREST):
            raise ValidationError(f"unknown adjustment policy {self.kind!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError("lambda must be a finite number >= 0")

    @staticmethod
    def full(scale: LabelScale) -> "AdjustmentPolicy":
        return AdjustmentPolicy(NEAREST, scale.step / 2.0)

    def validate_for(self, scale: LabelScale) -> None:
        if self.kind == NEAREST and self.lam > scale.step / 2.0 + 1e-12:
            raise ValidationError("lambda must not exceed step/2")


def adjust(interval: Interval, scale: LabelScale, policy: AdjustmentPolicy) -> Interval:
    """Apply a boundary-adjustment policy to a continuous interval.

    Returns the adjusted interval in scale units, clamped to the scale
    range.  Shrinking an interval that contains no label yields an
    empty-flagged interval; callers decide the fallback (see
    :func:`fallback_label`).
    """
    if interval.empty:
        raise ValidationError("cannot adjust an empty interval")
    policy.validate_for(scale)
    a, b = to_fine_grid(scale)
    lo = a * interval.lo + b
    hi = a * interval.hi + b

    # in fine-grid units labels are integers; the tolerances keep endpoints
    # already on the grid fixed (idempotence)
    if policy.kind == SHRINK:
        lo, hi = math.ceil(lo - _FP_TOL), math.floor(hi + _FP_TOL)
    elif policy.kind == EXPAND:
        lo, hi = math.floor(lo + _FP_TOL), math.ceil(hi - _FP_TOL)
    else:
        lam_fine = a * policy.lam
        lo, hi = (float(round(x)) if abs(x - round(x)) <= lam_fine + _FP_TOL else x for x in (lo, hi))

    if lo > hi + _FP_TOL:
        return Interval.make_empty()
    new_lo, new_hi = (min(max((x - b) / a, scale.min), scale.max) for x in (lo, hi))
    return Interval(new_lo, max(new_lo, new_hi))


def adjust_all(batch: Intervals, scale: LabelScale, policy: AdjustmentPolicy) -> Intervals:
    """:func:`adjust` on every row of a batch, bit for bit; a row that
    shrinking empties comes back empty."""
    if batch.empty.any():
        raise ValidationError("cannot adjust an empty interval")
    policy.validate_for(scale)
    a, b = to_fine_grid(scale)
    lo = a * batch.lo + b
    hi = a * batch.hi + b
    if policy.kind == SHRINK:
        lo, hi = np.ceil(lo - _FP_TOL), np.floor(hi + _FP_TOL)
    elif policy.kind == EXPAND:
        lo, hi = np.floor(lo + _FP_TOL), np.ceil(hi - _FP_TOL)
    else:
        lam_fine = a * policy.lam
        lo, hi = (np.where(np.abs(x - np.round(x)) <= lam_fine + _FP_TOL, np.round(x), x) for x in (lo, hi))
    empty = lo > hi + _FP_TOL
    lo, hi = (np.where(empty, np.nan, (x - b) / a) for x in (lo, hi))
    return Intervals._clamp(lo, hi, scale, empty)


def midpoint(interval: Interval | Intervals):
    """(lo + hi) / 2 of a non-empty interval, or per row of a batch."""
    # a plain False skips numpy, which costs microseconds per served point
    if interval.empty is not False and np.any(interval.empty):
        raise ValidationError("no midpoint")
    return (interval.lo + interval.hi) / 2.0


def fallback_label(continuous: Interval | Intervals, scale: LabelScale):
    """Label nearest the continuous midpoint (per row of a batch): the
    stand-in for width and midpoint accounting when shrinking empties an
    interval.  Coverage never uses it: an empty interval covers nothing."""
    return scale.nearest_label(midpoint(continuous))
