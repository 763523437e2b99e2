"""Coverage/width evaluation over seeds, midpoint scoring comparisons,
heteroscedasticity tests, calibration-size sweeps, and the human baseline.

Coverage counts use closed intervals (a label exactly on an endpoint is
covered) and an empty interval covers nothing; the nearest-label fallback
for shrink-emptied intervals enters width and midpoint accounting only.
All aggregation is deterministic: cells are keyed by (method, seed) and
reduced in sorted order.
"""

from __future__ import annotations

import concurrent.futures
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import conformal
from .adjust import AdjustmentPolicy, adjust_all, fallback_label, midpoint
from .core import Dataset, SplitSpec, ValidationError, conformal_quantile, integer, split
from .estimators import _block_rows, ols
from .ratings import weighted_average
from .special import chi2_sf, f_sf

__all__ = [
    "EvalRow",
    "EvalReport",
    "MidpointRow",
    "HetTestResult",
    "evaluate",
    "midpoint_report",
    "bp_test",
    "white_test",
    "calibration_sweep",
    "human_baseline",
    "weighted_average",
    "mse",
    "mae",
    "pearson",
    "spearman",
    "kendall_tau_b",
    "write_eval_csv",
    "write_midpoints_csv",
    "write_het_csv",
    "write_sweep_csv",
]


# ---------------------------------------------------------------------------
# Metrics


def mse(pred, truth) -> float:
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    return float(np.mean((p - t) ** 2))


def mae(pred, truth) -> float:
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    return float(np.mean(np.abs(p - t)))


def pearson(x, y) -> float:
    """Pearson correlation; 0 when either side has no variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt((xd ** 2).sum() * (yd ** 2).sum())
    if denom <= 1e-300:
        return 0.0
    return float((xd * yd).sum() / denom)


def _midranks(x: np.ndarray) -> np.ndarray:
    # a group of ties at sorted positions i..j-1 shares the rank (i + j - 1)/2 + 1
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (0.5 * (2 * ends - counts - 1) + 1.0)[inverse]


def spearman(x, y) -> float:
    """Spearman rho: Pearson on mid-ranks (ties get average ranks)."""
    return pearson(_midranks(np.asarray(x, dtype=float)), _midranks(np.asarray(y, dtype=float)))


def kendall_tau_b(x, y) -> float:
    """Tie-corrected Kendall tau; rating data is tie-heavy so the b variant
    is the meaningful one.  Returns 0 when either margin is all ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    # (sum of dx*dy, tied pairs in x, in y) over blocks of rows; integer-valued, so exact
    sums = np.zeros(3)
    step = _block_rows(n)
    for r0 in range(0, n, step):
        dx = np.sign(x[r0:r0 + step, None] - x[None, :])
        dy = np.sign(y[r0:r0 + step, None] - y[None, :])
        sums += ((dx * dy).sum(), np.count_nonzero(dx == 0), np.count_nonzero(dy == 0))
    n0 = n * (n - 1) / 2.0
    ties_x, ties_y = (sums[1:] - n) / 2.0
    denom = np.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom <= 1e-300:
        return 0.0
    return float(sums[0] / 2.0 / denom)


# ---------------------------------------------------------------------------
# Seeded evaluation


@dataclass(frozen=True)
class EvalRow:
    method: str
    seed: int
    policy: str
    mean_width: float
    coverage: float

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise ValidationError("coverage must lie in [0, 1]")
        if self.mean_width < 0.0:
            raise ValidationError("mean width must be >= 0")


@dataclass
class EvalReport:
    rows: list
    aggregates: dict
    errors: dict = field(default_factory=dict)
    empty_intervals: int = 0
    degenerate_intervals: int = 0


def _policy_name(policy: AdjustmentPolicy | None) -> str:
    if policy is None:
        return "none"
    if policy.kind == "nearest":
        return f"nearest({policy.lam:g})"
    return policy.kind


def _check_run(seeds: list, alpha: float, calib_fraction: float, inner_train_fraction: float = 0.5,
               methods: list = (), hyper: dict | None = None, policy: AdjustmentPolicy | None = None,
               scale=None, fractions: list | None = None, jobs: int = 1) -> None:
    """Raise ValidationError, before any split or draw, for a seeded run's
    bad configuration: no seeds or a repeated seed, a repeated method, an
    unknown method or bad hyperparameter among ``methods`` and ``hyper``
    (method -> its hyperparameters), a bad alpha, split fraction, policy
    (for ``scale``), sweep ``fractions`` (when given) or ``jobs``."""
    if not seeds:
        raise ValidationError("need at least one seed")
    if len(set(seeds)) < len(seeds):
        raise ValidationError(f"seeds {seeds} repeat a seed")
    if len(set(methods)) < len(methods):
        raise ValidationError(f"methods {methods} repeat a method")
    hyper = hyper or {}
    for m in dict.fromkeys([*methods, *hyper]):
        conformal.checked_hyper(m, hyper.get(m))
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    SplitSpec(0, calib_fraction, inner_train_fraction)  # checks the fractions
    if policy is not None:
        policy.validate_for(scale)
    if fractions is not None and not fractions:
        raise ValidationError("need at least one fraction")
    if not all(0.0 < f <= 1.0 for f in fractions or ()):
        raise ValidationError("fractions must lie in (0, 1]")
    integer(1)(jobs, "jobs")


def _cell(train: Dataset, calib: Dataset, test: Dataset, method: str, alpha: float, hyper: dict | None):
    """Calibrate ``method`` on train and calib and predict the test split:
    (intervals, flags)."""
    model = conformal.calibrate(method, train, calib, alpha, hyper)
    return conformal.predict_intervals_flagged(model, test.logits, test.raw_scores)


def _eval_seed(dataset: Dataset, args) -> list:
    """One seed's cells of ``dataset``, split once: per method, ((row,
    empties, degenerate), None) on success, (None, message) when the cell's
    data is invalid; a split that fails fails every method.  Any other
    exception propagates."""
    seed, methods, alpha, policy, calib_fraction, inner_train_fraction, hyper = args
    try:
        train, calib, test = split(dataset, SplitSpec(seed, calib_fraction, inner_train_fraction))
    except ValidationError as exc:
        return [(None, str(exc))] * len(methods)
    outcomes = []
    for method in methods:
        try:
            intervals, flags = _cell(train, calib, test, method, alpha, hyper.get(method))
            if policy is not None:
                intervals = adjust_all(intervals, dataset.scale, policy)
            coverage = int(intervals.covers(test.labels).sum()) / len(test)
            row = EvalRow(method, seed, _policy_name(policy), float(np.mean(intervals.width)), coverage)
        except ValidationError as exc:
            outcomes.append((None, str(exc)))
        else:
            outcomes.append(((row, int(intervals.empty.sum()), sum(1 for f in flags if f)), None))
    return outcomes


# the dataset of an evaluate worker process, sent once by the pool's initializer
_worker_dataset = None


def _init_worker(dataset: Dataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _worker_eval_seed(args) -> list:
    return _eval_seed(_worker_dataset, args)


def evaluate(dataset: Dataset, methods, seeds, alpha: float = 0.1,
             policy: AdjustmentPolicy | None = None, calib_fraction: float = 0.5,
             inner_train_fraction: float = 0.5, hyper: dict | None = None, jobs: int = 1) -> EvalReport:
    """Calibrate/predict each (method, seed) cell and aggregate width and
    coverage.  A cell that raises ValidationError is recorded and skipped
    rather than aborting the run; any other exception aborts it.  ``hyper``
    maps method name to a hyperparameter dict.  A bad configuration (see
    ``_check_run``: seeds, methods, hyperparameters, alpha, split fractions,
    policy, ``jobs``) raises ValidationError before any split.  Each seed
    is one task: one split, then every method of the seed on it, so chr and
    r2ccp share one classifier fit per training split.  With ``jobs`` > 1
    the tasks run in a pool of that many processes, each sent the dataset
    once.
    """
    methods = list(methods)
    seeds = list(seeds)
    hyper = hyper or {}
    _check_run(seeds, alpha, calib_fraction, inner_train_fraction, methods, hyper, policy, dataset.scale, jobs=jobs)
    tasks = [(s, methods, alpha, policy, calib_fraction, inner_train_fraction, hyper) for s in seeds]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                                    initargs=(dataset,)) as pool:
            outcomes = list(pool.map(_worker_eval_seed, tasks))
    else:
        outcomes = [_eval_seed(dataset, t) for t in tasks]
    results = {}
    errors = {}
    empties = 0
    degenerates = 0
    for seed, seed_outcomes in zip(seeds, outcomes):
        for method, (done, error) in zip(methods, seed_outcomes):
            if error is not None:
                errors[method, seed] = error
                continue
            row, n_empty, n_degen = done
            results[method, seed] = row
            empties += n_empty
            degenerates += n_degen

    rows = [results[k] for k in sorted(results)]
    aggregates = {}
    for m in methods:
        widths = [r.mean_width for r in rows if r.method == m]
        covs = [r.coverage for r in rows if r.method == m]
        if widths:
            aggregates[m] = {
                "mean_width": statistics.fmean(widths),
                "std_width": statistics.pstdev(widths) if len(widths) > 1 else 0.0,
                "mean_coverage": statistics.fmean(covs),
                "std_coverage": statistics.pstdev(covs) if len(covs) > 1 else 0.0,
            }
    return EvalReport(rows, aggregates, errors, empties, degenerates)


# ---------------------------------------------------------------------------
# Midpoint scoring comparison


@dataclass(frozen=True)
class MidpointRow:
    scorer: str
    mse: float
    mae: float
    pearson: float
    spearman: float
    kendall: float
    flagged: bool = False


_SCORERS = ("raw_score", "weighted_avg", "con_midpoint", "dis_midpoint")


def midpoint_report(dataset: Dataset, seeds, alpha: float = 0.1,
                    calib_fraction: float = 0.5, inner_train_fraction: float = 0.5,
                    hyper: dict | None = None) -> list:
    """Compare point scorers against human labels on the test split,
    averaged over seeds.  The interval scorers come from the density-based
    method: con = midpoint before boundary adjustment, dis = after full
    nearest adjustment (shrink-emptied intervals fall back to the nearest
    label)."""
    seeds = list(seeds)
    _check_run(seeds, alpha, calib_fraction, inner_train_fraction, ["r2ccp"], {"r2ccp": hyper})
    full = AdjustmentPolicy.full(dataset.scale)
    sums = {s: np.zeros(5) for s in _SCORERS}
    flagged = {s: False for s in _SCORERS}
    for seed in seeds:
        train, calib, test = split(dataset, SplitSpec(seed, calib_fraction, inner_train_fraction))
        intervals, _ = _cell(train, calib, test, "r2ccp", alpha, hyper)
        adjusted = adjust_all(intervals, dataset.scale, full)
        dis = fallback_label(intervals, dataset.scale)
        dis[~adjusted.empty] = midpoint(adjusted[~adjusted.empty])
        preds = {
            "raw_score": test.raw_scores,
            "weighted_avg": weighted_average(test.logits, dataset.scale),
            "con_midpoint": midpoint(intervals),
            "dis_midpoint": dis,
        }
        for name, p in preds.items():
            if float(np.std(p)) <= 1e-12:
                flagged[name] = True
            sums[name] += np.array([
                mse(p, test.labels),
                mae(p, test.labels),
                pearson(p, test.labels),
                spearman(p, test.labels),
                kendall_tau_b(p, test.labels),
            ])
    rows = []
    for name in _SCORERS:
        v = sums[name] / len(seeds)
        rows.append(MidpointRow(name, v[0], v[1], v[2], v[3], v[4], flagged[name]))
    return rows


# ---------------------------------------------------------------------------
# Heteroscedasticity tests


@dataclass(frozen=True)
class HetTestResult:
    lm_stat: float
    lm_p: float
    f_stat: float
    f_p: float
    df: int


def _lm_from_aux(Z_aux: np.ndarray, sq_resid: np.ndarray) -> HetTestResult:
    n, k = Z_aux.shape
    if n <= k + 1:
        raise ValidationError("need more observations than auxiliary regressors")
    design = np.column_stack([np.ones(n), Z_aux])
    aux = ols(design, sq_resid)
    r2 = aux.r_squared
    lm = n * r2
    f_stat = (r2 / k) / ((1.0 - r2) / (n - k - 1)) if r2 < 1.0 else float("inf")
    return HetTestResult(lm, chi2_sf(lm, k), f_stat, f_sf(f_stat, k, n - k - 1), k)


def bp_test(features, labels) -> HetTestResult:
    """Breusch-Pagan: regress squared OLS residuals on the covariates;
    LM = n * R-squared is asymptotically chi-square with k degrees of
    freedom, and the auxiliary regression's F statistic accompanies it."""
    Z = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float)
    n = Z.shape[0]
    base = ols(np.column_stack([np.ones(n), Z]), y)
    return _lm_from_aux(Z, base.residuals ** 2)


def _white_design(Z: np.ndarray) -> np.ndarray:
    n, k = Z.shape
    cols = [Z[:, j] for j in range(k)]
    cols += [Z[:, j] ** 2 for j in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            cols.append(Z[:, i] * Z[:, j])
    V = np.column_stack(cols)
    # constant or duplicate expanded columns are dropped (m shrinks with them)
    keep = []
    for j in range(V.shape[1]):
        c = V[:, j]
        if np.std(c) <= 1e-12:
            continue
        duplicate = False
        for kept in keep:
            d = V[:, kept]
            if np.allclose(c, d, rtol=1e-10, atol=1e-12):
                duplicate = True
                break
        if not duplicate:
            keep.append(j)
    if not keep:
        raise ValidationError("degenerate White design")
    return V[:, keep]


def white_test(features, labels) -> HetTestResult:
    """White test: the auxiliary design adds squares and cross products of
    the covariates before the LM statistic is formed."""
    Z = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float)
    n = Z.shape[0]
    base = ols(np.column_stack([np.ones(n), Z]), y)
    return _lm_from_aux(_white_design(Z), base.residuals ** 2)


# ---------------------------------------------------------------------------
# Calibration-size sweep


@dataclass(frozen=True)
class SweepRow:
    fraction: float
    mean_coverage: float
    std_coverage: float
    skipped: bool = False


def _subsample(ds: Dataset, fraction: float, rng) -> Dataset:
    if fraction >= 1.0:
        return ds
    m = int(round(fraction * len(ds)))
    idx = np.sort(rng.choice(len(ds), size=m, replace=False))
    return ds.subset(idx)


def calibration_sweep(dataset: Dataset, method: str, seeds, fractions,
                      alpha: float = 0.1, calib_fraction: float = 0.5,
                      inner_train_fraction: float = 0.5, hyper: dict | None = None,
                      point_predictor: str | None = None) -> list:
    """Coverage mean and std per calibration fraction.  Each seed is split
    once; per fraction its train and calib are subsampled (seeded by seed
    and fraction), recalibrated, and evaluated on the untouched test split.
    A fraction that leaves fewer than 5 calibration points for some seed is
    flagged and skipped.  ``point_predictor``, when given, overrides
    ``hyper``'s entry of that name, which only split_abs has."""
    seeds, fractions = list(seeds), list(fractions)
    if point_predictor is not None:
        hyper = {**(hyper or {}), "point_predictor": point_predictor}
    _check_run(seeds, alpha, calib_fraction, inner_train_fraction, [method], {method: hyper}, fractions=fractions)
    covs = [[] for _ in fractions]  # per fraction, its coverage per seed; None once skipped
    for seed in seeds:
        train, calib, test = split(dataset, SplitSpec(seed, calib_fraction, inner_train_fraction))
        for i, fraction in enumerate(fractions):
            if covs[i] is None:
                continue
            rng = np.random.default_rng([seed, int(round(fraction * 1_000_000))])
            sub_train, sub_calib = _subsample(train, fraction, rng), _subsample(calib, fraction, rng)
            if len(sub_calib) < 5:
                covs[i] = None
                continue
            intervals, _ = _cell(sub_train, sub_calib, test, method, alpha, hyper)
            covs[i].append(int(intervals.covers(test.labels).sum()) / len(test))
    return [SweepRow(f, float("nan"), float("nan"), skipped=True) if c is None
            else SweepRow(f, statistics.fmean(c), statistics.pstdev(c)) for f, c in zip(fractions, covs)]


# ---------------------------------------------------------------------------
# Human annotator baseline


def human_baseline(annotations, alpha: float = 0.1, seeds=(1,), calib_fraction: float = 0.5):
    """Split-absolute conformal intervals around one randomly chosen
    annotation per item, scored against the annotation mean.  Intervals are
    [pick - qhat, pick + qhat] without clamping, so the width is 2 * qhat.
    No seeds, or a bad alpha or calib_fraction, raises ValidationError
    before any draw, as for the other seeded runs."""
    seeds = list(seeds)
    _check_run(seeds, alpha, calib_fraction)
    ann = [np.asarray(a, dtype=float) for a in annotations]
    if any(len(a) < 2 for a in ann):
        raise ValidationError("need at least two annotations per sample")
    n = len(ann)
    if n < 4:
        raise ValidationError("need at least four annotated samples")
    truth = np.array([a.mean() for a in ann])
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        picks = np.array([a[rng.integers(len(a))] for a in ann])
        perm = rng.permutation(n)
        n_cal = int(round(calib_fraction * n))
        cal, test = perm[:n_cal], perm[n_cal:]
        if len(cal) == 0 or len(test) == 0:
            raise ValidationError("degenerate split")
        qhat = conformal_quantile(np.abs(picks[cal] - truth[cal]), alpha)
        covered = np.abs(picks[test] - truth[test]) <= qhat + 1e-9
        rows.append(EvalRow("human_baseline", seed, "none", 2.0 * qhat, float(np.mean(covered))))
    return rows


# ---------------------------------------------------------------------------
# CSV output (floats fixed to 6 decimals)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one comma-joined line per row of fields."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, fields)) + "\n" for fields in rows)


def write_eval_csv(path, rows) -> None:
    _write_csv(path, "method,seed,policy,mean_width,coverage",
               ((r.method, r.seed, r.policy, _fmt(r.mean_width), _fmt(r.coverage)) for r in rows))


def write_midpoints_csv(path, rows) -> None:
    _write_csv(path, "scorer,mse,mae,pearson,spearman,kendall,flagged",
               ((r.scorer, *map(_fmt, (r.mse, r.mae, r.pearson, r.spearman, r.kendall)), int(r.flagged))
                for r in rows))


def write_het_csv(path, entries) -> None:
    """``entries`` is a list of (dimension, test_name, HetTestResult)."""
    _write_csv(path, "dimension,test,lm_stat,lm_p,f_stat,f_p",
               ((dim, name, *map(_fmt, (res.lm_stat, res.lm_p, res.f_stat, res.f_p))) for dim, name, res in entries))


def write_sweep_csv(path, rows) -> None:
    _write_csv(path, "fraction,mean_coverage,std_coverage",
               (map(_fmt, (r.fraction, r.mean_coverage, r.std_coverage)) for r in rows))
