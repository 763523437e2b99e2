"""The conformal interval methods.

Every method follows one split-conformal recipe: fit estimators on the
training split, score the calibration split, take a conformal quantile of
those scores, then build one interval per test point.  ``_METHOD_TABLE``
holds one record per method with those four steps; :func:`calibrate`,
:func:`score_samples` and :func:`predict_intervals_flagged` only look the
record up, so calibration and test-time scores come from the same function.
Each record also declares its method's hyperparameters: defaults and checks.

Regression methods consume raw logits; the ordinal methods consume
softmaxed probabilities.  Calibrated models are immutable and hold their
fitted estimators as live objects; the versioned JSON document is written
and read only by :func:`model_to_json` and :func:`model_from_json`.

chr and r2ccp fit the same classifier, and ``analysis.evaluate`` runs a
seed's methods back to back on one training split, so the two share one
fit per split: the last classifier fit is kept, keyed by a digest of
everything it reads (the training logits and labels, the bins, epochs and
l2), and a fit that would read the same gets a copy of its arrays.  No two
models share an array, and nothing row-sized is kept.  An evaluate pool
(``jobs`` > 1) hands each worker one seed's cells as one task, so the
sharing holds there too.

Methods
-------
split_abs    absolute-residual split conformal around a point prediction
cqr          conformalized quantile regression (symmetric correction)
asym_cqr     CQR with independently calibrated lower/upper corrections
chr          nested shortest histogram intervals indexed by confidence level
lvd          kernel-weighted local quantile of absolute residuals
r2ccp        superlevel set of an interpolated bin density, merged to one run
ordinal_aps  greedy contiguous prediction set grown from the modal rating
ordinal_rc   same growth on per-label weighted mass
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    GRID_TOL,
    Dataset,
    Interval,
    Intervals,
    LabelScale,
    ValidationError,
    _RECORD_ERRORS,
    array,
    conformal_quantile,
    integer,
    lower_conformal_quantile,
    one_of,
    or_none,
    real,
)
from .estimators import (
    CLASSIFIER_HYPER,
    FOREST_HYPER,
    KERNEL_HYPER,
    RIDGE_HYPER,
    BinClassifier,
    KernelSimilarity,
    QuantileForest,
    RidgePredictor,
    _U,
    _block_rows,
    _gram_bound,
    _gram_factor,
    _gram_product,
    _gram_rows,
)
from .ratings import rating_values, softmax, weighted_average

__all__ = [
    "METHODS",
    "CalibratedModel",
    "calibrate",
    "calibrate_ordinal_aps",
    "calibrate_ordinal_rc",
    "predict_interval",
    "predict_intervals",
    "predict_intervals_flagged",
    "score_samples",
    "model_to_json",
    "model_from_json",
    "checked_hyper",
]

POINT_PREDICTORS = ("raw_score", "weighted_average", "ridge")

_TOL = 1e-12


@dataclass(frozen=True)
class CalibratedModel:
    """A method's fitted estimator state plus its calibrated quantile(s)."""

    method: str
    alpha: float
    scale: LabelScale
    k: int
    qhat: object
    state: dict
    calib_scores: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        # lvd keeps qhat local to each query and stores None here
        values = self.qhat if isinstance(self.qhat, tuple) else (self.qhat,)
        for v in values:
            if v is not None and not math.isfinite(v):
                raise ValidationError("calibrated quantile must be finite")
        scores = np.asarray(self.calib_scores, dtype=float)
        if scores.ndim == 0 or scores.shape[1:] != np.shape(self.qhat) or not np.isfinite(scores).all():
            raise ValidationError(f"calib_scores must be finite, one of shape {np.shape(self.qhat)} per point")


@dataclass(frozen=True)
class _Method:
    """One method's steps, called in this order by :func:`calibrate` and
    :func:`predict_intervals_flagged`:

    fit(train, calib, alpha, hyper) -> state         estimators and arrays
    score(state, scale, Z, y, y_hats) -> scores      non-conformity scores
    quantile(scores, alpha) -> qhat                  calibrated quantile(s)
    interval(model, Z, y_hats) -> (lo, hi, flags)    bounds before clamping

    ``flags`` is None for methods without a degenerate fallback.
    ``hyper`` maps each hyperparameter's name to its (default, check); ``fit``
    gets every declared name, with values checked by :func:`checked_hyper`.
    ``state`` maps each entry of the state ``fit`` returns to its JSON
    reader: a value check, or an estimator's ``from_dict`` looked up on its
    class when called.  ``qhat`` reads a document's qhat and rejects any
    other shape than the one ``quantile`` returns.  ``check(state,
    **fields)``, when set, gets the document's read top-level fields by
    name (``alpha``, ``scale``, ``k``, ``qhat``, ``calib_scores``) and
    rejects a read state that contradicts them or itself.
    """

    fit: Callable
    score: Callable
    quantile: Callable
    interval: Callable
    state: dict
    qhat: Callable
    hyper: dict
    check: Callable | None = None


def _check_dim(model: CalibratedModel, Z: np.ndarray) -> np.ndarray:
    """Z as rows of k features (one row for a 1-D Z); raises ValidationError
    for any other shape."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.ndim != 2 or Z.shape[1] != model.k:
        raise ValidationError(f"expected rows of {model.k}-dimensional features, got shape {Z.shape}")
    return Z


# ---------------------------------------------------------------------------
# split absolute residual


def _point_predictions(state: dict, scale: LabelScale, Z: np.ndarray, y_hats) -> np.ndarray:
    """One point prediction per row of Z.  The judge scores ``y_hats`` of
    the raw_score predictor must be one finite number per row, read by the
    value checks (a string, bool or None is no number); anything else
    raises ValidationError."""
    kind = state["point_predictor"]
    if kind == "raw_score":
        if y_hats is None:
            raise ValidationError("raw_score predictor needs the judge scores")
        try:
            shape = np.shape(y_hats)
        except ValueError:  # numpy reads no shape from a ragged list
            shape = "ragged"
        if shape != (len(Z),):
            raise ValidationError(f"expected {len(Z)} judge scores, one per row, got shape {shape}")
        return array(1)(y_hats, "judge scores")
    if kind == "weighted_average":
        return np.atleast_1d(weighted_average(Z, scale))
    return state["ridge"].predict(Z)


def _fit_split_abs(train: Dataset, calib: Dataset, alpha: float, h: dict) -> dict:
    ridge = RidgePredictor(h["l2"]).fit(train.logits, train.labels) if h["point_predictor"] == "ridge" else None
    return {"point_predictor": h["point_predictor"], "ridge": ridge}


def _check_reads(state: dict, k: int, keys) -> None:
    """Reject a missing estimator under ``keys`` (it reads 0 features) or one that scales other than k."""
    for key in keys:
        n = 0 if state[key] is None else len(state[key].means)
        if n != k:
            raise ValidationError(f"model state {key!r} reads {n} features, but k is {k}")


def _check_split_abs(state: dict, k: int, **_) -> None:
    if (state["ridge"] is None) == (state["point_predictor"] == "ridge"):
        raise ValidationError("model state 'ridge' must be set exactly when the point predictor is ridge")
    if state["ridge"] is not None:
        _check_reads(state, k, ("ridge",))


def _score_split_abs(state: dict, scale: LabelScale, Z, y, y_hats) -> np.ndarray:
    return np.abs(_point_predictions(state, scale, Z, y_hats) - y)


def _interval_split_abs(model: CalibratedModel, Z: np.ndarray, y_hats):
    preds = _point_predictions(model.state, model.scale, Z, y_hats)
    return preds - model.qhat, preds + model.qhat, None


# ---------------------------------------------------------------------------
# CQR and asymmetric CQR


def _fit_forests(train: Dataset, tail: float, h: dict) -> dict:
    """Boosted quantile trees at levels tail and 1 - tail."""
    return {
        key: QuantileForest(tau, h["n_trees"], h["depth"], h["lr"], h["min_leaf"]).fit(
            train.logits, train.labels)
        for key, tau in (("forest_lo", tail), ("forest_hi", 1 - tail))
    }


def _check_forests(state: dict, k: int, **_) -> None:
    # a forest may split on fewer than k features, never on more
    for key in _FORESTS:
        if state[key].min_features > k:
            raise ValidationError(f"model state {key!r} reads {state[key].min_features} features, but k is {k}")


def _forest_bounds(state: dict, Z: np.ndarray):
    lo = state["forest_lo"].predict(Z)
    hi = state["forest_hi"].predict(Z)
    # crossing estimates are re-sorted so the lower bound stays below
    return np.minimum(lo, hi), np.maximum(lo, hi)


def _score_cqr(state: dict, scale: LabelScale, Z, y, y_hats) -> np.ndarray:
    lo, hi = _forest_bounds(state, Z)
    return np.maximum(lo - y, y - hi)


def _score_asym_cqr(state: dict, scale: LabelScale, Z, y, y_hats) -> np.ndarray:
    lo, hi = _forest_bounds(state, Z)
    return np.stack([lo - y, y - hi], axis=1)


def _quantile_asym_cqr(scores: np.ndarray, alpha: float):
    # each side is calibrated at level 1 - alpha/2 so the union of the two
    # one-sided miss events stays below alpha
    return conformal_quantile(scores[:, 0], alpha / 2), conformal_quantile(scores[:, 1], alpha / 2)


def _interval_cqr(model: CalibratedModel, Z: np.ndarray, y_hats):
    lo, hi = _forest_bounds(model.state, Z)
    # cqr has one correction, asym_cqr one per side
    q_lo, q_hi = model.qhat if isinstance(model.qhat, tuple) else (model.qhat, model.qhat)
    return lo - q_lo, hi + q_hi, None


# ---------------------------------------------------------------------------
# CHR: nested shortest histogram intervals


# chr and r2ccp fit the same classifier on the same training split, so the
# last fit is kept: (digest of what it read, a private copy of the fit)
_last_classifier_fit = (None, None)


def _classifier_key(train: Dataset, bins: np.ndarray, h: dict) -> bytes:
    """A digest of everything a classifier fit reads: the bytes, shape and
    dtype of the training logits, labels and bins, then epochs and l2."""
    digest = hashlib.blake2b()
    for a in (train.logits, train.labels, bins):
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a)
    digest.update(f"{h['epochs']} {float(h['l2']).hex()}".encode())
    return digest.digest()


def _classifier_copy(clf: BinClassifier) -> BinClassifier:
    """A fitted classifier that shares no array with ``clf``."""
    out = BinClassifier(clf.bins.copy(), clf.epochs, clf.l2)
    out.weights, out.bias, out.means, out.stds = (a.copy() for a in (clf.weights, clf.bias, clf.means, clf.stds))
    out.loss_history, out.grad_norm = list(clf.loss_history), clf.grad_norm
    return out


def _fit_classifier(train: Dataset, h: dict) -> BinClassifier:
    """The classifier over the scale's labels fit to ``train``; a copy of
    the last fit when that read the same bytes and hyperparameters."""
    global _last_classifier_fit
    bins = train.scale.labels()
    key = _classifier_key(train, bins, h)
    last_key, last_fit = _last_classifier_fit
    if key == last_key:
        return _classifier_copy(last_fit)
    clf = BinClassifier(bins, h["epochs"], h["l2"]).fit(train.logits, train.labels)
    _last_classifier_fit = (key, _classifier_copy(clf))
    return clf


def _check_classifier(state: dict, k: int, scale: LabelScale, **_) -> None:
    bins, labels = state["classifier"].bins, scale.labels()
    if bins.shape != labels.shape or not np.allclose(bins, labels, rtol=0.0, atol=GRID_TOL):
        raise ValidationError(f"model state 'classifier' bins must be the scale's {len(labels)} labels")
    _check_reads(state, k, ("classifier",))


@functools.lru_cache(maxsize=None)
def _run_table(m: int):
    """All contiguous bin runs ordered by (width, start), plus a containment
    matrix: contains[i, j] is True when run j is a superset of run i.
    Cached per m, so the arrays are read-only."""
    lo = []
    hi = []
    for width in range(m):
        for start in range(m - width):
            lo.append(start)
            hi.append(start + width)
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    contains = (lo[None, :] <= lo[:, None]) & (hi[None, :] >= hi[:, None])
    for table in (lo, hi, contains):
        table.flags.writeable = False
    return lo, hi, contains


def _chr_growth_steps(probs: np.ndarray, T: int, q: int | None = None, ybin: np.ndarray | None = None):
    """The nested interval family of each sample as its growth steps.

    The family starts at the modal bin and, at each level t / T - 1e-9,
    grows to the first run in (width, start) order that contains the
    current run and whose mass meets the level (the full-support run
    backstops numerical shortfalls at the top level).  A run stays while
    its own mass meets the level, since among its supersets it comes
    first.  So each sample only changes run at the first level past its
    current run's mass, at most m - 1 times.

    Yields ``(rows, t, run)``: the samples ``rows`` move to ``run`` (an
    index into :func:`_run_table`) at level ``t``.  The first step puts
    every sample on its modal bin at level 0; each sample's steps come in
    increasing t (a NaN mass fails every level, so its run changes at
    level 0 too), and each run strictly contains the one before, so it is
    wider and has a larger index.  The run at level q is the one of the
    last step with t <= q.  Samples go a block at a time, so the
    (samples x runs) arrays stay bounded; the steps cost
    O(n * runs * (m - 1)) for the m(m+1)/2 runs, whatever T is.

    Two stop rules drop a sample once the caller's answer for it is fixed,
    so its later steps are not yielded:

    - with a level ``q`` (0 <= q <= T), when its next step's level passes
      q: the run at level q is then its current one (steps come in
      increasing t).  Without q the walk goes on to the top level T;
    - with ``ybin``, one bin index per sample, once its current run holds
      that bin: the step that first did is the label's first covering
      level, and each later run holds it too.

    A sample also stops on the full-support run, or once no level is above
    its run's mass."""
    n, m = probs.shape
    run_lo, run_hi, contains = _run_table(m)
    full = len(run_lo) - 1
    grid = np.arange(T + 1) / T - 1e-9
    last = T if q is None else q
    step = _block_rows(len(run_lo))
    for r0 in range(0, n, step):
        block = probs[r0:r0 + step]
        csum = np.concatenate([np.zeros((len(block), 1)), np.cumsum(block, axis=1)], axis=1)
        mass = csum[:, run_hi + 1] - csum[:, run_lo]
        cur = np.argmax(block, axis=1)
        rows = np.arange(len(block))
        yield rows + r0, np.zeros_like(cur), cur
        while rows.size:
            cur_mass = mass[rows, cur]
            t = np.where(np.isnan(cur_mass), 0, np.searchsorted(grid, cur_mass, side="right"))
            growing = (t <= last) & (cur != full)
            if ybin is not None:
                b = ybin[rows + r0]
                growing &= (b < run_lo[cur]) | (b > run_hi[cur])
            rows, cur, t = rows[growing], cur[growing], t[growing]
            ok = (mass[rows] >= grid[t][:, None]) & contains[cur]
            ok[:, full] = True
            new = np.argmax(ok, axis=1)
            yield rows + r0, t, new
            cur = new


def _chr_level_runs(probs: np.ndarray, T: int):
    """(n, T+1) run indices of the nested interval family per sample, with
    the run table's bounds: each growth step of :func:`_chr_growth_steps`
    written at its level, then carried to the later levels (run indices
    only grow along a sample's steps).  Prediction and scoring read the
    steps instead of this O(n * T) matrix."""
    n, m = probs.shape
    levels = np.zeros((n, T + 1), dtype=np.int64)
    for rows, t, run in _chr_growth_steps(probs, T):
        levels[rows, t] = run
    np.maximum.accumulate(levels, axis=1, out=levels)
    run_lo, run_hi, _ = _run_table(m)
    return levels, run_lo, run_hi


def _score_chr(state: dict, scale: LabelScale, Z, y, y_hats) -> np.ndarray:
    """The first level whose run holds the label's bin: the t of the first
    growth step whose run holds it (runs only grow, so later ones do
    too)."""
    classifier, T = state["classifier"], state["T"]
    probs = classifier.predict_proba(Z)
    run_lo, run_hi, _ = _run_table(probs.shape[1])
    ybin = np.argmin(np.abs(y[:, None] - classifier.bins[None, :]), axis=1)
    # a label the family never reaches (all its mass truncated) scores
    # beyond the top level and simply stays uncovered
    s = np.full(len(ybin), T + 1)
    for rows, t, run in _chr_growth_steps(probs, T, ybin=ybin):
        b = ybin[rows]
        first = (run_lo[run] <= b) & (b <= run_hi[run])
        s[rows[first]] = t[first]
    return s.astype(float)


def _interval_chr(model: CalibratedModel, Z: np.ndarray, y_hats):
    """The run at level qhat: the run of each sample's last growth step
    with t <= qhat."""
    classifier, T = model.state["classifier"], model.state["T"]
    probs = classifier.predict_proba(Z)
    run_lo, run_hi, _ = _run_table(probs.shape[1])
    # a quantile past the top level (too many unreachable labels) stops
    # there, and one below level 0 (only a hand-made document has one)
    # reads level 0
    q = min(max(int(model.qhat), 0), T)
    runs = np.empty(len(probs), dtype=np.int64)
    for rows, t, run in _chr_growth_steps(probs, T, q):
        runs[rows] = run
    return classifier.bins[run_lo[runs]], classifier.bins[run_hi[runs]], None


# ---------------------------------------------------------------------------
# LVD: locally weighted residual quantile


def _score_lvd(state: dict, scale: LabelScale, Z, y, y_hats) -> np.ndarray:
    return np.abs(state["ridge"].predict(Z) - y)


def _fit_lvd(train: Dataset, calib: Dataset, alpha: float, h: dict) -> dict:
    calib_Z = calib.logits
    ridge = RidgePredictor(h["l2"]).fit(train.logits, train.labels)
    kernel = KernelSimilarity(h["bandwidth"]).fit(train.logits)
    if kernel.bandwidth is None:
        kernel.bandwidth = kernel.median_bandwidth(calib_Z)
    # each query's local quantile walks the calibration scores in sorted order
    scores = _score_lvd({"ridge": ridge}, calib.scale, calib_Z, calib.labels, None)
    order = np.argsort(scores, kind="stable")
    return {"ridge": ridge, "kernel": kernel, "calib_logits": calib_Z,
            "sorted_scores": scores[order], "sort_order": order}


def _check_lvd(state: dict, k: int, calib_scores: np.ndarray, **_) -> None:
    _check_reads(state, k, ("ridge", "kernel"))
    calib, scores, order = state["calib_logits"], state["sorted_scores"], state["sort_order"]
    if calib.shape[1] != k:
        raise ValidationError(f"model state 'calib_logits' must be an (m, {k}) array with m >= 1")
    m = len(calib)
    if scores.shape != (m,) or not (np.all(scores >= 0) and np.all(scores[1:] >= scores[:-1])):
        raise ValidationError(f"model state 'sorted_scores' must hold {m} scores >= 0 in non-decreasing order")
    if order.shape != (m,) or not np.array_equal(np.sort(order), np.arange(m)):
        raise ValidationError(f"model state 'sort_order' must be a permutation of 0..{m - 1}")
    # fit writes exactly these, and each query's quantile is read from them
    if calib_scores.shape != (m,) or not np.array_equal(scores, calib_scores[order]):
        raise ValidationError("model state 'sorted_scores' must be calib_scores in sort_order")
    # the kernel's reader checks any bandwidth given
    if state["kernel"].bandwidth is None:
        raise ValidationError("model state 'kernel' has no bandwidth")


def _lvd_exact_quantiles(model: CalibratedModel, Z: np.ndarray) -> np.ndarray:
    """Each query's local quantile from ``weights_batch``'s weights put in
    score order and added up by ``cumsum``, a block of queries at a time:
    the first sorted score whose cumulative weight reaches ``1 - alpha -
    1e-12``, or the largest score when none does."""
    state = model.state
    kernel, calib = state["kernel"], state["calib_logits"]
    sorted_scores, order = state["sorted_scores"], state["sort_order"]
    level = (1.0 - model.alpha) - _TOL
    qs = np.empty(len(Z))
    # a block of queries at a time keeps the (queries x m) arrays bounded
    step = _block_rows(len(calib))
    for r0 in range(0, len(Z), step):
        cum = np.cumsum(np.take(kernel.weights_batch(calib, Z[r0:r0 + step]), order, axis=1), axis=1)
        # first score index where the weighted mass reaches 1 - alpha
        idx = np.argmax(cum >= level, axis=1)
        reached = cum[np.arange(len(idx)), idx] >= level
        qs[r0:r0 + step] = sorted_scores[np.where(reached, idx, len(sorted_scores) - 1)]
    return qs


# Up to about this many (query, point) pairs the exact path is faster than
# locating and certifying, whose set-up costs more than one served point's
# whole exact predict.  Per call with 5 features (best of 7 x 50 calls,
# 2-core x86, one BLAS thread): one query against 250 points 48-51 us
# exact against 123-130 located; 4 x 1000 135-141 against 186-194; about
# even at 8000 pairs (8 x 1000: 195-215 against 191-201, 32 x 250: 184-188
# against 152-153); 16 x 1000 330-340 against 207-211; 32 x 1000 595 against
# 243-247.  Building the query rows once per call left these small calls'
# located cost where it was (8 x 1000 read 191-196 us before), so the
# crossover stays between 4000 and 8000 pairs.
_LOCATE_PAIRS = 10000

# located weights are summed this many columns at a time, so that each row
# needs one cumsum only inside the columns where it crosses the level
_MASS_COLUMNS = 64

# a bound on one exp result's absolute error when it is subnormal
_SUBNORMAL_ERR = 2.0 ** -1071


def _lvd_local_quantiles(model: CalibratedModel, Z: np.ndarray) -> np.ndarray:
    """:func:`_lvd_exact_quantiles` bit for bit, with each crossing located
    from approximate distances and certified against the exact sum.

    A block of queries at a time gets its kernel exponents d2 / c (c = -2
    bw^2) from one matrix product against the calibration points' Gram
    factor, into which 1 / c is folded (see
    ``estimators._gram_sq_distances``, which derives the per-query error
    bound eta).  The factor, padded with zero columns to whole column
    groups, the queries' Gram rows and every eta are built once per call.
    Each block's product is written straight into the weight buffer, exp
    runs there in place, and the pad columns go back to 0.  From the
    weights come their totals and each row's
    cumulative mass in score order: sums of ``_MASS_COLUMNS`` columns, then
    one cumsum inside the columns where the mass crosses ``level``.  The
    crossing index j stands when the located mass before it is below
    ``level - E`` and the mass at it is at least ``level + E``, where E
    (derived below) bounds the gap between the located and the exact
    cumulative mass.  The exact mass never decreases, so the exact path's
    index is j as well.

    Rows that fail, whose total weight is below e^-700 or whose E exceeds
    1e-6 (a row that never reaches the level fails too) go through the
    exact path in one batch.  So does a whole call of at most
    ``_LOCATE_PAIRS`` pairs, or with a standardized feature that is not
    finite or above 1e100 in magnitude (which keeps the exact path's
    errors), or with a bandwidth whose 2 bw^2 is below 1e-100 (outside
    eta's derivation).  Memory: a few (block x m) arrays, O(block * m),
    as on the exact path, plus one (queries x (k + 2)) array of Gram rows
    and a few per-query values."""
    state = model.state
    kernel, calib = state["kernel"], state["calib_logits"]
    m = len(calib)
    if len(Z) * m <= _LOCATE_PAIRS:
        return _lvd_exact_quantiles(model, Z)
    bw = kernel._fitted_bandwidth()
    c = -2.0 * bw * bw  # as weights_batch divides
    Xs = kernel._standardize(calib)[state["sort_order"]]
    Zs = kernel._standardize(Z)
    if abs(c) < 1e-100 or not (np.all(np.abs(Xs) <= 1e100) and np.all(np.abs(Zs) <= 1e100)):
        return _lvd_exact_quantiles(model, Z)
    level = (1.0 - model.alpha) - _TOL
    k = Xs.shape[1]
    width = -(-m // _MASS_COLUMNS) * _MASS_COLUMNS
    # the product gives the exponents d2 / c themselves, padded with zero
    # columns to whole column groups; the bound reads the real columns
    factor = np.zeros((k + 2, width))
    factor[:, :m] = _gram_factor(Xs, c)
    left = _gram_rows(Zs)
    # per query: eta, and the crossing index, the located mass at it and
    # before it (not yet normalized) and the total weight
    eta = _gram_bound(left[:, -1], factor, np.abs(factor[k, :m]).max())
    step = _block_rows(width)
    # a block's exponents, then in place its weights
    w = np.empty((min(step, len(Z)), width))
    ones = np.ones(_MASS_COLUMNS)
    idx = np.empty(len(Z), dtype=np.intp)
    at, prev, total = (np.empty(len(Z)) for _ in range(3))
    for r0 in range(0, len(Z), step):
        r1 = min(r0 + step, len(Z))
        n = r1 - r0
        block = _gram_product(left[r0:r1], factor, out=w[:n])
        # an exponent above 0 is a rounding error within eta, and a row
        # whose eta exceeds 1 is never certified (E > 4 eta); clamping its
        # block at 0 keeps exp and the sums from overflowing
        if eta[r0:r1].max() > 1.0:
            np.minimum(block, 0.0, out=block)
        np.exp(block, out=block)
        # the pad columns' exp(0) = 1 back to weight 0
        block[:, m:] = 0.0
        rows = np.arange(n)
        groups = block.reshape(n, -1, _MASS_COLUMNS)
        # the column groups' sums as one matrix-vector product
        group_cum = np.cumsum((block.reshape(-1, _MASS_COLUMNS) @ ones).reshape(n, -1), axis=1)
        target = level * group_cum[:, -1:]
        # the first column group and then the first column where the mass reaches the level
        g = np.argmax(group_cum >= target, axis=1)
        before = np.where(g > 0, group_cum[rows, g - 1], 0.0)
        cum = np.cumsum(groups[rows, g], axis=1)
        cum += before[:, None]
        j = np.argmax(cum >= target, axis=1)
        idx[r0:r1] = g * _MASS_COLUMNS + j
        total[r0:r1] = group_cum[:, -1]
        at[r0:r1] = cum[rows, j]
        prev[r0:r1] = np.where(j > 0, cum[rows, j - 1], before)
    # a row whose weights (nearly) all underflow is left to the exact path
    live = total >= math.exp(-700.0)
    total[~live] = 1.0
    at /= total
    prev /= total
    # E, per query.  The located exponents lie within eta of the exact
    # path's d2 / c: ``estimators._gram_sq_distances`` derives eta with c
    # folded into the factor, and it bounds both paths' roundings, the
    # exact path's division by c included, for exponents of any size.
    # So the true exp values differ by a factor of at most e^eta.  Taking
    # numpy's exp as within 4 ulps, the weights then differ by at most
    # rho w + tau, with rho = expm1(eta) + 18u and tau = _SUBNORMAL_ERR
    # (8 subnormal ulps, for results below the normal range).  So the
    # real totals W and prefix sums of the two paths differ by at most
    # rho times the located ones plus m tau, and the normalized masses
    # by 2 (rho + m tau / W) / (1 - rho - m tau / W).  Rounding: the
    # exact path's pairwise total, division and cumsum leave its mass
    # within about 2m u of the real one (Higham, *Accuracy and
    # Stability of Numerical Algorithms*, 2002, ch. 3-4), as do this
    # path's sums, in whatever order the matrix-vector product adds, and
    # its division: 4m u together.  E doubles the sum of
    # both.  It is used only with W >= e^-700, so m tau / W is
    # negligible and the exact path's nearest-point fallback cannot
    # apply, and with E <= 1e-6, so the denominator above is about 1.
    with np.errstate(over="ignore"):
        rho = np.expm1(eta) + 18 * _U
    E = 4.0 * (rho + m * _SUBNORMAL_ERR / total) + 8 * (m + 1) * _U
    certified = live & (E <= 1e-6) & (prev < level - E) & (at >= level + E)
    qs = state["sorted_scores"][np.minimum(idx, m - 1)]
    rest = np.flatnonzero(~certified)
    if rest.size:
        qs[rest] = _lvd_exact_quantiles(model, Z[rest])
    return qs


def _interval_lvd(model: CalibratedModel, Z: np.ndarray, y_hats):
    preds = model.state["ridge"].predict(Z)
    qs = _lvd_local_quantiles(model, Z)
    return preds - qs, preds + qs, None


# ---------------------------------------------------------------------------
# R2CCP: interpolated bin-density superlevel sets


def _bin_densities(classifier: BinClassifier, scale: LabelScale, Z: np.ndarray) -> np.ndarray:
    dens = classifier.predict_proba(Z)
    dens /= scale.step
    return dens


def _score_r2ccp(state: dict, scale: LabelScale, Z, y, y_hats) -> np.ndarray:
    """Each row's density interpolated at its label: ``np.interp`` per row,
    batched.  numpy's formula, its exact-hit branch (a label within grid
    tolerance of a bin is not on it) and its end clamps are kept, so the
    bits are equal; densities are finite or NaN, so its NaN retry never
    changes a result."""
    classifier = state["classifier"]
    bins = classifier.bins
    dens = _bin_densities(classifier, scale, Z)
    m = len(bins)
    rows = np.arange(len(y))
    # the last bin at or below each label (-1 below the grid)
    j = np.searchsorted(bins, y, side="right") - 1
    # below the grid, on a bin or at or past its end the label takes a bin's density
    at = np.clip(j, 0, m - 1)
    snap = (j < 0) | (j == m - 1) | (bins[at] == y)
    # elsewhere it lies between bins left and left + 1
    left = np.minimum(at, m - 2)
    slope = (dens[rows, left + 1] - dens[rows, left]) / (bins[left + 1] - bins[left])
    return np.where(snap, dens[rows, at], slope * (y - bins[left]) + dens[rows, left])


def _superlevel_spans(bins: np.ndarray, dens: np.ndarray, q: float):
    """(lo, hi, reached) per row of ``dens``: the span of {a : density(a)
    >= q}, with the density linear between bins, merged to a single
    interval.  A row whose density never reaches q is not ``reached``; its
    span is the full grid."""
    n, m = dens.shape
    above = dens >= q
    # edges[:, j] is where the density crosses q between bins j - 1 and j;
    # columns 0 and m are the grid's ends
    edges = np.empty((n, m + 1))
    edges[:, ::m] = bins[::max(m - 1, 1)]
    cross = edges[:, 1:m]
    np.subtract(q, dens[:, :-1], out=cross)
    cross *= bins[1:] - bins[:-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        cross /= dens[:, 1:] - dens[:, :-1]
    cross += bins[:-1]
    rows = np.arange(n)
    # the first bin above q starts the span and the last one ends it
    first = above.argmax(axis=1)
    lo = edges[rows, first]
    hi = edges[:, ::-1][rows, above[:, ::-1].argmax(axis=1)]
    return lo, hi, above[rows, first]


def _superlevel_interval(bins: np.ndarray, dens: np.ndarray, q: float, scale: LabelScale):
    """The one-row :func:`_superlevel_spans`: (lo, hi), or None when the
    density never reaches q.  ``scale`` is not used."""
    lo, hi, reached = _superlevel_spans(bins, np.asarray(dens, dtype=float)[None, :], q)
    return (lo[0], hi[0]) if reached[0] else None


def _interval_r2ccp(model: CalibratedModel, Z: np.ndarray, y_hats):
    classifier = model.state["classifier"]
    dens = _bin_densities(classifier, model.scale, Z)
    lo, hi, reached = _superlevel_spans(classifier.bins, dens, model.qhat)
    if reached.all():
        return lo, hi, [None] * len(lo)
    # the density never reaches qhat: fall back to its peak
    lost = ~reached
    lo[lost] = hi[lost] = classifier.bins[np.argmax(dens[lost], axis=1)]
    return lo, hi, np.where(lost, "degenerate", None).tolist()


# ---------------------------------------------------------------------------
# Ordinal growth methods


def _ordinal_growth_path(values: np.ndarray):
    """(left, right, mass), each (n, k): the greedy contiguous set after each
    growth step.  Step 0 is the modal label; every step adds the larger
    neighbour (ties go left), so step k-1 is the full support."""
    n, k = values.shape
    rows = np.arange(n)
    lefts = np.empty((n, k), dtype=np.int64)
    rights = np.empty((n, k), dtype=np.int64)
    masses = np.empty((n, k))
    left = np.argmax(values, axis=1)
    right = left.copy()
    mass = values[rows, left]
    lefts[:, 0], rights[:, 0], masses[:, 0] = left, right, mass
    for step in range(1, k):
        can_l = left > 0
        can_r = right < k - 1
        vl = np.where(can_l, values[rows, np.maximum(left - 1, 0)], -np.inf)
        vr = np.where(can_r, values[rows, np.minimum(right + 1, k - 1)], -np.inf)
        active = can_l | can_r
        go_left = active & (vl >= vr)
        go_right = active & ~go_left
        mass = mass + np.where(go_left, vl, 0.0) + np.where(go_right, vr, 0.0)
        left = np.where(go_left, left - 1, left)
        right = np.where(go_right, right + 1, right)
        lefts[:, step], rights[:, step], masses[:, step] = left, right, mass
    return lefts, rights, masses


def _ordinal_growth_predict(values: np.ndarray, ratings: np.ndarray, qhat: float):
    """Greedy contiguous set grown until its (weighted) mass reaches qhat;
    stops at full support if the mass never gets there."""
    lefts, rights, masses = _ordinal_growth_path(values)
    reached = masses >= qhat - _TOL
    step = np.where(reached.any(axis=1), np.argmax(reached, axis=1), values.shape[1] - 1)
    rows = np.arange(len(values))
    return lefts[rows, step], rights[rows, step]


def _ordinal_values(state: dict, Z: np.ndarray) -> np.ndarray:
    probs = np.atleast_2d(softmax(Z))
    weights = state.get("h")
    return probs if weights is None else probs * weights[None, :]


def _check_ordinal_rc(state: dict, k: int, **_) -> None:
    if state["h"].shape != (k,) or not np.all(state["h"] > 0):
        raise ValidationError(f"ordinal_rc needs {k} finite positive label weights 'h'")


def _fit_ordinal_rc(train: Dataset, calib: Dataset, alpha: float, h: dict) -> dict:
    state = {"h": np.ones(calib.k) if h["weights"] is None else h["weights"]}
    _check_ordinal_rc(state, calib.k)
    return state


def _score_ordinal(state: dict, scale: LabelScale, Z, y, y_hats) -> np.ndarray:
    """Accumulated (weighted) mass of the greedy contiguous set at the step
    where it first spans each true label."""
    ratings = rating_values(scale, Z.shape[1])
    lefts, rights, masses = _ordinal_growth_path(_ordinal_values(state, Z))
    inside = (ratings[lefts] - 1e-9 <= y[:, None]) & (y[:, None] <= ratings[rights] + 1e-9)
    first = np.argmax(inside, axis=1)
    return np.where(inside.any(axis=1), masses[np.arange(len(y)), first], np.nan)


def _interval_ordinal(model: CalibratedModel, Z: np.ndarray, y_hats):
    ratings = rating_values(model.scale, model.k)
    left, right = _ordinal_growth_predict(_ordinal_values(model.state, Z), ratings, model.qhat)
    return ratings[left], ratings[right], None


# ---------------------------------------------------------------------------
# The method table


_number = real()
_nonnegative = real(0)  # the qhat of a method whose scores are never negative


def _pair(value) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(f"expected two numbers, got {value!r}")
    return _number(value[0]), _number(value[1])


def _null(value) -> None:
    if value is not None:
        raise TypeError(f"expected null, got {value!r}")


# estimator readers look their class up when called, so a reader replaced there later is called
_FORESTS = {key: lambda d: QuantileForest.from_dict(d) for key in ("forest_lo", "forest_hi")}
_CLASSIFIER = {"classifier": lambda d: BinClassifier.from_dict(d)}
_RIDGE = {"ridge": lambda d: None if d is None else RidgePredictor.from_dict(d)}

_point_predictor = one_of("point predictor", POINT_PREDICTORS)
_levels = integer(1)  # chr's T

_METHOD_TABLE = {
    "split_abs": _Method(_fit_split_abs, _score_split_abs, conformal_quantile, _interval_split_abs,
                         {"point_predictor": _point_predictor, **_RIDGE}, _nonnegative,
                         {"point_predictor": ("raw_score", _point_predictor), **RIDGE_HYPER},
                         _check_split_abs),
    "cqr": _Method(lambda train, calib, alpha, h: _fit_forests(train, alpha / 2, h),
                   _score_cqr, conformal_quantile, _interval_cqr, _FORESTS, _number, FOREST_HYPER, _check_forests),
    # one correction per side
    "asym_cqr": _Method(lambda train, calib, alpha, h: _fit_forests(train, alpha, h),
                        _score_asym_cqr, _quantile_asym_cqr, _interval_cqr, _FORESTS, _pair, FOREST_HYPER,
                        _check_forests),
    "chr": _Method(lambda train, calib, alpha, h: {"classifier": _fit_classifier(train, h), "T": h["T"]},
                   _score_chr, conformal_quantile, _interval_chr, {**_CLASSIFIER, "T": _levels}, _nonnegative,
                   {"T": (100, _levels), **CLASSIFIER_HYPER}, _check_classifier),
    # lvd takes its quantile per query, from the kernel-weighted scores
    "lvd": _Method(_fit_lvd, _score_lvd, lambda scores, alpha: None, _interval_lvd,
                   {**_RIDGE, "kernel": lambda d: KernelSimilarity.from_dict(d), "calib_logits": array(2),
                    "sorted_scores": array(1), "sort_order": array(1, whole=True)}, _null,
                   {**RIDGE_HYPER, **KERNEL_HYPER}, _check_lvd),
    # low density is non-conforming, so r2ccp keeps the lower quantile
    "r2ccp": _Method(lambda train, calib, alpha, h: {"classifier": _fit_classifier(train, h)},
                     _score_r2ccp, lower_conformal_quantile, _interval_r2ccp, _CLASSIFIER, _nonnegative,
                     CLASSIFIER_HYPER, _check_classifier),
    "ordinal_aps": _Method(lambda train, calib, alpha, h: {},
                           _score_ordinal, conformal_quantile, _interval_ordinal, {}, _nonnegative, {}),
    # the weights' length and sign are checked against k by _check_ordinal_rc
    "ordinal_rc": _Method(_fit_ordinal_rc, _score_ordinal, conformal_quantile, _interval_ordinal, {"h": array(1)},
                          _nonnegative, {"weights": (None, or_none(array(1)))}, _check_ordinal_rc),
}

METHODS = tuple(_METHOD_TABLE)


def checked_hyper(method: str, hyper: dict | None = None, **kw) -> dict:
    """Every hyperparameter ``method`` declares: its default, overridden by
    ``hyper`` and then by ``kw``, each value checked.  An unknown method or
    name, a wrong type or an out-of-range value raises ValidationError."""
    if method not in _METHOD_TABLE:
        raise ValidationError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    declared = _METHOD_TABLE[method].hyper
    given = {**(hyper or {}), **kw}
    unknown = [name for name in given if name not in declared]
    if unknown:
        raise ValidationError(f"{method} has no hyperparameter {unknown[0]!r}; valid: {', '.join(declared) or 'none'}")
    return {name: check(given.get(name, default), f"{method} hyperparameter {name!r}")
            for name, (default, check) in declared.items()}


def calibrate(method: str, train: Dataset, calib: Dataset, alpha: float,
              hyper: dict | None = None, **kw) -> CalibratedModel:
    """Calibrate one method by name; see :data:`METHODS`.  Its hyperparameters,
    ``hyper`` updated by ``kw``, are checked before any fitting."""
    h = checked_hyper(method, hyper, **kw)
    spec = _METHOD_TABLE[method]
    state = spec.fit(train, calib, alpha, h)
    scores = spec.score(state, calib.scale, calib.logits, calib.labels, calib.raw_scores)
    return CalibratedModel(method, alpha, calib.scale, calib.k, spec.quantile(scores, alpha), state, scores)


def calibrate_ordinal_aps(calib: Dataset, alpha: float) -> CalibratedModel:
    return calibrate("ordinal_aps", calib, calib, alpha)


def calibrate_ordinal_rc(calib: Dataset, alpha: float, weights=None) -> CalibratedModel:
    return calibrate("ordinal_rc", calib, calib, alpha, weights=weights)


def predict_intervals_flagged(model: CalibratedModel, Z, y_hats=None):
    """Batch prediction returning (intervals, flags): an :class:`Intervals`
    batch clamped to the scale range, and one flag per row marking the rare
    degenerate fallback (currently only r2ccp's empty superlevel set)."""
    lo, hi, flags = _METHOD_TABLE[model.method].interval(model, _check_dim(model, Z), y_hats)
    intervals = Intervals._clamp(lo, hi, model.scale)
    return intervals, flags if flags is not None else [None] * len(intervals)


def predict_intervals(model: CalibratedModel, Z, y_hats=None) -> Intervals:
    return predict_intervals_flagged(model, Z, y_hats)[0]


def predict_interval(model: CalibratedModel, z, y_hat=None) -> Interval:
    """Prediction interval for a single point: row 0 of a one-row batch,
    clamped to the scale range and never empty before boundary adjustment."""
    y_hats = None if y_hat is None else np.asarray([y_hat])  # its dtype shows a string or bool to the check
    return predict_intervals(model, np.atleast_2d(np.asarray(z, dtype=float)), y_hats)[0]


def score_samples(model: CalibratedModel, dataset: Dataset) -> np.ndarray:
    """Non-conformity scores of samples under an already-calibrated model;
    on its own calibration set this reproduces ``model.calib_scores``."""
    Z = _check_dim(model, dataset.logits)
    return _METHOD_TABLE[model.method].score(model.state, model.scale, Z, dataset.labels, dataset.raw_scores)


# ---------------------------------------------------------------------------
# Serialization


def _encoded(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.to_dict() if hasattr(value, "to_dict") else value


def model_to_json(model: CalibratedModel) -> str:
    qhat = list(model.qhat) if isinstance(model.qhat, tuple) else model.qhat
    doc = {
        "format": "confjudge-model",
        "v": 1,
        "method": model.method,
        "alpha": model.alpha,
        "scale": model.scale.to_dict(),
        "k": model.k,
        "qhat": qhat,
        "state": {key: _encoded(value) for key, value in model.state.items()},
        "calib_scores": np.asarray(model.calib_scores).tolist(),
    }
    return json.dumps(doc)


# the reader of each top-level field's JSON value
_FIELD_READERS = {
    "alpha": _number,
    "scale": lambda v: LabelScale(*(_number(v[key], key) for key in ("min", "max", "step"))),
    "k": integer(1),
}


def _decoded(entries: dict, readers: dict, what: str) -> dict:
    out = {}
    for key, read in readers.items():
        try:
            out[key] = read(entries[key])
        except _RECORD_ERRORS as exc:
            raise ValidationError(f"model {what} {key!r} is missing or malformed: {exc}") from exc
    return out


def model_from_json(text: str) -> CalibratedModel:
    """Rebuild a model written by :func:`model_to_json`.  An unknown method,
    a missing or malformed field or state entry, a qhat of another shape
    than the method's, or a state that contradicts ``k``, the scale or
    itself raises ValidationError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model document is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "confjudge-model" or doc.get("v") != 1:
        raise ValidationError("unrecognized model document")
    method = doc.get("method")
    if method not in METHODS:
        raise ValidationError(f"model document has unknown method {method!r}; valid: {', '.join(METHODS)}")
    spec = _METHOD_TABLE[method]
    fields = _decoded(doc, {**_FIELD_READERS, "qhat": spec.qhat}, "field")
    # one score per calibration point, each of qhat's shape
    fields |= _decoded(doc, {"calib_scores": array(np.ndim(fields["qhat"]) + 1)}, "field")
    state = _decoded(doc.get("state"), spec.state, "state")
    if spec.check is not None:
        spec.check(state, **fields)
    return CalibratedModel(method=method, state=state, **fields)
