import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confjudge as cj
import confjudge.conformal as conformal
import confjudge.estimators as estimators
from confjudge.conformal import (
    _METHOD_TABLE,
    _chr_level_runs,
    _interval_chr,
    _lvd_exact_quantiles,
    _lvd_local_quantiles,
    _ordinal_growth_predict,
    _run_table,
    _score_chr,
    _score_r2ccp,
    _superlevel_interval,
    _superlevel_spans,
    checked_hyper,
    predict_intervals_flagged,
)
from confjudge.core import (
    GPA_THIRDS,
    GRID_TOL,
    Dataset,
    LabelScale,
    ValidationError,
    conformal_quantile,
)

DATA = Path(__file__).resolve().parent / "data"

LIKERT = LabelScale(1, 5, 1)
FINE = LabelScale(1, 5, 0.002)

SMALL_HYPER = {
    "cqr": {"n_trees": 30, "depth": 2, "min_leaf": 15, "lr": 0.1},
    "asym_cqr": {"n_trees": 30, "depth": 2, "min_leaf": 15, "lr": 0.1},
    "chr": {"epochs": 120},
    "r2ccp": {"epochs": 120},
}


def build_dataset(Z, raw, labels, scale=LIKERT, prefix="d"):
    return Dataset([f"{prefix}{i}" for i in range(len(labels))], Z, raw, labels, scale)


def peaked_split(seed=11, n=600, scale=LIKERT, sigma=0.6):
    ds, _ = cj.generate(cj.GeneratorSpec(seed=seed, n=n, noise=cj.Homoscedastic(sigma), scale=scale))
    return cj.split(ds, cj.SplitSpec(seed))


def calibrate_all(train, calib, alpha=0.1):
    models = {}
    for m in cj.METHODS:
        kw = {"point_predictor": "ridge"} if m == "split_abs" else {}
        models[m] = cj.calibrate(m, train, calib, alpha, SMALL_HYPER.get(m), **kw)
    return models


class TestSplitAbs:
    def test_zero_residuals_degenerate_interval(self):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(20, 5))
        raw = rng.choice([2.0, 3.0, 4.0], size=20)
        ds = build_dataset(Z, raw, raw)
        model = cj.calibrate("split_abs", ds, ds, 0.1)
        iv = cj.predict_interval(model, Z[0], y_hat=3.0)
        assert (iv.lo, iv.hi) == (3.0, 3.0)

    def test_unit_residuals(self):
        rng = np.random.default_rng(1)
        Z = rng.normal(size=(4, 5))
        raw = np.array([2.0, 3.0, 4.0, 5.0])
        ds = build_dataset(Z, raw, raw - 1.0)
        model = cj.calibrate("split_abs", ds, ds, 0.1)
        assert model.qhat == 1.0
        iv = cj.predict_interval(model, Z[0], y_hat=3.0)
        assert (iv.lo, iv.hi) == (2.0, 4.0)

    def test_clamped_to_scale(self):
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(4, 5))
        raw = np.array([2.0, 3.0, 4.0, 5.0])
        ds = build_dataset(Z, raw, raw - 1.0)
        model = cj.calibrate("split_abs", ds, ds, 0.1)
        iv = cj.predict_interval(model, Z[0], y_hat=5.0)
        assert (iv.lo, iv.hi) == (4.0, 5.0)

    def test_other_point_predictors(self):
        train, calib, test = peaked_split()
        for pp in ("weighted_average", "ridge"):
            model = cj.calibrate("split_abs", train, calib, 0.1, point_predictor=pp)
            ivals = cj.predict_intervals(model, test.logits)
            assert all(iv.lo <= iv.hi for iv in ivals)
        with pytest.raises(ValidationError, match="point predictor"):
            cj.calibrate("split_abs", train, calib, 0.1, point_predictor="mean")


class TestJudgeScoresChecked:
    """The raw_score predictor takes one finite judge score per row of Z."""

    @pytest.fixture
    def model(self):
        train, calib, _ = peaked_split()
        return cj.calibrate("split_abs", train, calib, 0.1)

    def test_fewer_scores_than_rows(self, model):
        # three intervals for five rows, before the check
        Z = np.zeros((5, model.k))
        with pytest.raises(ValidationError, match=r"expected 5 judge scores, one per row, got shape \(3,\)"):
            cj.predict_intervals(model, Z, np.array([2.0, 3.0, 4.0]))

    def test_column_of_scores(self, model):
        # 2-D bounds, before the check
        Z = np.zeros((5, model.k))
        with pytest.raises(ValidationError, match=r"shape \(5, 1\)"):
            cj.predict_intervals(model, Z, np.full((5, 1), 3.0))

    def test_nan_score(self, model):
        # Interval(nan, nan), on which scalar adjust raised ValueError
        with pytest.raises(ValidationError, match="finite"):
            cj.predict_interval(model, np.zeros(model.k), y_hat=np.nan)

    def test_infinite_score(self, model):
        # an interval clamped to [5, 5], before the check
        Z = np.zeros((2, model.k))
        with pytest.raises(ValidationError, match="finite"):
            cj.predict_intervals(model, Z, np.array([3.0, np.inf]))

    @pytest.mark.parametrize("y_hat", ["abc", "3", True, np.array(True)])
    def test_point_score_that_is_no_number(self, model, y_hat):
        # "abc" used to raise numpy's ValueError, and "3" and True to be read as numbers
        with pytest.raises(ValidationError, match="judge scores must be a 1-D array of finite numbers"):
            cj.predict_interval(model, np.zeros(model.k), y_hat=y_hat)

    @pytest.mark.parametrize("y_hats", [["3", "4"], [True, 3.0], [None, 3.0], np.array([True, False])])
    def test_batch_scores_that_are_no_numbers(self, model, y_hats):
        with pytest.raises(ValidationError, match="judge scores must be a 1-D array of finite numbers"):
            cj.predict_intervals(model, np.zeros((2, model.k)), y_hats)

    def test_ragged_scores(self, model):
        with pytest.raises(ValidationError, match="got shape ragged"):
            cj.predict_intervals(model, np.zeros((2, model.k)), [[3.0], [3.0, 4.0]])


class TestCqr:
    def test_constant_labels_zero_width(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(40, 5))
        ds = build_dataset(Z, np.full(40, 3.0), np.full(40, 3.0))
        model = cj.calibrate("cqr", ds, ds, 0.1, {"n_trees": 10})
        ivals = cj.predict_intervals(model, Z)
        assert all(iv.width == pytest.approx(0.0, abs=1e-9) for iv in ivals)

    def test_oracle_quantiles_give_small_correction(self):
        # constant conditional distribution: the n_trees=0 forest is the
        # empirical tau-quantile, which converges to the true quantile, so
        # the conformal correction should vanish
        rng = np.random.default_rng(4)
        n = 3000
        y = 3.0 + 0.5 * rng.standard_normal(n)
        y = np.clip(np.round((y - 1.0) / 0.002) * 0.002 + 1.0, 1.0, 5.0)
        Z = rng.normal(size=(n, 5))
        raw = np.full(n, 3.0)
        ds = build_dataset(Z, raw, y, scale=FINE)
        train, calib, test = cj.split(ds, cj.SplitSpec(4))
        model = cj.calibrate("cqr", train, calib, 0.1, {"n_trees": 0})
        assert abs(model.qhat) < 0.1
        iv = cj.predict_interval(model, test.logits[0])
        assert iv.lo == pytest.approx(3.0 - 0.5 * 1.6449, abs=0.15)
        assert iv.hi == pytest.approx(3.0 + 0.5 * 1.6449, abs=0.15)


class TestAsymCqr:
    def test_symmetric_data_balanced_corrections(self):
        rng = np.random.default_rng(5)
        n = 3000
        y = 3.0 + 0.5 * rng.standard_normal(n)
        y = np.clip(np.round((y - 1.0) / 0.002) * 0.002 + 1.0, 1.0, 5.0)
        Z = rng.normal(size=(n, 5))
        ds = build_dataset(Z, np.full(n, 3.0), y, scale=FINE)
        train, calib, _ = cj.split(ds, cj.SplitSpec(5))
        model = cj.calibrate("asym_cqr", train, calib, 0.1, {"n_trees": 0})
        q_lo, q_hi = model.qhat
        assert abs(q_lo - q_hi) < 0.15

    def test_constant_labels_zero_width(self):
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(30, 5))
        ds = build_dataset(Z, np.full(30, 4.0), np.full(30, 4.0))
        model = cj.calibrate("asym_cqr", ds, ds, 0.1, {"n_trees": 5})
        ivals = cj.predict_intervals(model, Z)
        assert all(iv.width == pytest.approx(0.0, abs=1e-9) for iv in ivals)


class TestChrFamily:
    def test_point_mass_stays_single_bin(self):
        probs = np.zeros((1, 5))
        probs[0, 2] = 1.0
        levels, run_lo, run_hi = _chr_level_runs(probs, 100)
        assert np.all(run_lo[levels[0]] == 2)
        assert np.all(run_hi[levels[0]] == 2)

    def test_uniform_needs_all_bins_at_level_09(self):
        probs = np.full((1, 5), 0.2)
        levels, run_lo, run_hi = _chr_level_runs(probs, 100)
        r = levels[0, 90]
        assert run_hi[r] - run_lo[r] + 1 == 5

    def test_nested_over_random_simplex_draws(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(5) * 0.4, size=1000)
        levels, run_lo, run_hi = _chr_level_runs(probs, 100)
        lo = run_lo[levels]
        hi = run_hi[levels]
        assert np.all(np.diff(lo, axis=1) <= 0)
        assert np.all(np.diff(hi, axis=1) >= 0)

    def test_end_to_end_grid_endpoints(self):
        train, calib, test = peaked_split()
        model = cj.calibrate("chr", train, calib, 0.1, SMALL_HYPER["chr"])
        ivals = cj.predict_intervals(model, test.logits)
        for iv in ivals[:50]:
            assert LIKERT.on_grid(iv.lo) and LIKERT.on_grid(iv.hi)


class TestLvd:
    def test_uniform_weights_reduce_to_global_quantile(self):
        train, calib, test = peaked_split()
        model = cj.calibrate("lvd", train, calib, 0.1, {"bandwidth": 1e9})
        scores = np.sort(model.calib_scores)
        expected = scores[math.ceil(0.9 * len(scores)) - 1]
        qs = _lvd_local_quantiles(model, test.logits[:20])
        np.testing.assert_allclose(qs, expected, atol=1e-9)

    def test_all_weight_on_one_point(self):
        train, calib, _ = peaked_split()
        model = cj.calibrate("lvd", train, calib, 0.1, {"bandwidth": 1e-6})
        j = 13
        iv = cj.predict_interval(model, calib.logits[j])
        pred = model.state["ridge"].predict(calib.logits[j:j + 1])[0]
        half = (iv.hi - iv.lo) / 2
        # clamping can cut one side; the uncut side sits at the local score
        assert max(iv.hi - pred, pred - iv.lo) == pytest.approx(model.calib_scores[j], abs=1e-9)
        assert half <= model.calib_scores[j] + 1e-9

    def test_local_coverage_beats_global_on_two_region_noise(self):
        wins = 0
        trials = 50
        for trial in range(trials):
            ds, oracle = cj.generate(
                cj.GeneratorSpec(seed=1000 + trial, n=1200, noise=cj.Heteroscedastic(1.0)))
            train, calib, test = cj.split(ds, cj.SplitSpec(trial + 1, 2 / 3, 1 / 4))
            test_idx = np.array([int(i[1:]) for i in test.ids])
            region = oracle.regions()[test_idx]
            devs = {}
            for m in ("lvd", "split_abs"):
                kw = {"point_predictor": "ridge"} if m == "split_abs" else {}
                hyper = {"bandwidth": 1.0} if m == "lvd" else None
                model = cj.calibrate(m, train, calib, 0.1, hyper, **kw)
                ivl = cj.predict_intervals(model, test.logits, test.raw_scores)
                cov = np.array([i.covers(y) for i, y in zip(ivl, test.labels)])
                devs[m] = max(abs(cov[region].mean() - 0.9), abs(cov[~region].mean() - 0.9))
            wins += devs["lvd"] < devs["split_abs"]
        assert wins >= 0.8 * trials


class TestR2ccp:
    def test_uniform_density_gives_full_range(self):
        rng = np.random.default_rng(8)
        Z = rng.normal(size=(40, 5))
        y = rng.choice(LIKERT.labels(), size=40)
        ds = build_dataset(Z, y, y)
        model = cj.calibrate("r2ccp", ds, ds, 0.1, {"epochs": 0})
        ivals = cj.predict_intervals(model, Z)
        assert all((iv.lo, iv.hi) == (1.0, 5.0) for iv in ivals)

    def test_two_modes_merge_to_spanning_interval(self):
        bins = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        dens = np.array([0.4, 0.05, 0.1, 0.05, 0.4])
        lo, hi = _superlevel_interval(bins, dens, 0.3, LIKERT)
        assert (lo, hi) == (1.0, 5.0)

    def test_merged_interval_contains_every_superlevel_point(self):
        rng = np.random.default_rng(9)
        bins = LIKERT.labels()
        grid = np.linspace(1, 5, 401)
        for _ in range(1000):
            dens = rng.dirichlet(np.ones(5) * 0.5)
            q = rng.uniform(0, dens.max())
            span = _superlevel_interval(bins, dens, q, LIKERT)
            assert span is not None
            lo, hi = span
            f = np.interp(grid, bins, dens)
            above = grid[f >= q]
            assert above.min() >= lo - 1e-9 and above.max() <= hi + 1e-9

    def test_degenerate_fallback_flagged(self):
        rng = np.random.default_rng(10)
        Z = rng.normal(size=(30, 5))
        y = rng.choice(LIKERT.labels(), size=30)
        ds = build_dataset(Z, y, y)
        model = cj.calibrate("r2ccp", ds, ds, 0.1, {"epochs": 30})
        forced = dataclasses.replace(model, qhat=1e9)
        ivals, flags = predict_intervals_flagged(forced, Z)
        assert all(f == "degenerate" for f in flags)
        assert all(iv.width == 0.0 and LIKERT.on_grid(iv.lo) for iv in ivals)

    def test_only_degenerate_rows_fall_back_to_their_peak(self):
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(40, 5))
        y = rng.choice(LIKERT.labels(), size=40)
        model = cj.calibrate("r2ccp", build_dataset(Z, y, y), build_dataset(Z, y, y), 0.1, {"epochs": 30})
        dens = model.state["classifier"].predict_proba(Z) / LIKERT.step
        forced = dataclasses.replace(model, qhat=float(np.median(dens.max(axis=1))))
        ivals, flags = predict_intervals_flagged(forced, Z)
        assert 0 < flags.count("degenerate") < len(flags)
        for row, iv, flag in zip(dens, ivals, flags):
            span = _superlevel_interval(LIKERT.labels(), row, forced.qhat, LIKERT)
            assert flag == (None if span else "degenerate")
            assert (iv.lo, iv.hi) == (span or (LIKERT.labels()[np.argmax(row)],) * 2)

    def test_density_uses_bin_width(self):
        thirds = LabelScale(1, 5, 1 / 3)
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(40, 5))
        y = rng.choice(thirds.labels(), size=40)
        raw = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=40)
        ds = build_dataset(Z, raw, y, scale=thirds)
        model = cj.calibrate("r2ccp", ds, ds, 0.1, {"epochs": 0})
        # uniform over 13 bins of width 1/3: density 3/13 everywhere
        assert model.calib_scores[0] == pytest.approx(3 / 13, abs=1e-9)


_FITTED = ("weights", "bias", "means", "stds")


@pytest.fixture
def counted_fits(monkeypatch):
    """The classifier fits run from here on, with no earlier fit kept."""
    monkeypatch.setattr(conformal, "_last_classifier_fit", (None, None))
    fits = []
    fit = estimators.BinClassifier.fit
    monkeypatch.setattr(estimators.BinClassifier, "fit", lambda clf, X, y: fits.append(clf) or fit(clf, X, y))
    return fits


def _same_fit(a, b) -> bool:
    return (all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in (*_FITTED, "bins"))
            and all(_bits(x).tobytes() == _bits(y).tobytes()
                    for x, y in ((a.loss_history, b.loss_history), (a.grad_norm, b.grad_norm))))


def _changed(part: str, train: Dataset, h: dict):
    """``train`` and ``h`` with one thing a classifier fit reads changed."""
    Z, y = train.logits.copy(), train.labels.copy()
    scale = train.scale
    if part == "logit bit":
        Z[3, 2] = np.nextafter(Z[3, 2], np.inf)
    elif part == "label":
        y[5] = 1.0 if y[5] != 1.0 else 2.0
    elif part == "rows swapped":
        Z[[0, 1]], y[[0, 1]] = Z[[1, 0]], y[[1, 0]]
        assert Z.tobytes() != train.logits.tobytes()
    elif part == "scale":
        scale = LabelScale(1, 5, 0.5)  # the same labels lie on it
    elif part == "epochs":
        h = {**h, "epochs": h["epochs"] + 1}
    elif part == "l2":
        h = {**h, "l2": float(np.nextafter(h["l2"], 1.0))}
    return Dataset(train.ids, Z, train.raw_scores, y, scale), h


class TestClassifierFitReuse:
    """chr and r2ccp fit one classifier per training split: the last fit
    is kept, keyed by a digest of everything it reads."""

    def test_chr_then_r2ccp_fit_once(self, counted_fits):
        train, calib, _ = peaked_split()
        chr_model = cj.calibrate("chr", train, calib, 0.1)
        r2ccp_model = cj.calibrate("r2ccp", train, calib, 0.1)
        assert len(counted_fits) == 1
        a, b = chr_model.state["classifier"], r2ccp_model.state["classifier"]
        assert a is not b
        for name in (*_FITTED, "bins"):
            assert not np.shares_memory(getattr(a, name), getattr(b, name)), name
        assert a.loss_history is not b.loss_history
        assert _same_fit(a, b)

    def test_a_reused_fit_has_the_bits_of_a_fresh_one(self, counted_fits, monkeypatch):
        train, calib, test = peaked_split()
        reused = cj.calibrate("r2ccp", train, calib, 0.1)
        reused = cj.calibrate("r2ccp", train, calib, 0.1)
        monkeypatch.setattr(conformal, "_last_classifier_fit", (None, None))
        fresh = cj.calibrate("r2ccp", train, calib, 0.1)
        assert len(counted_fits) == 2
        assert _same_fit(reused.state["classifier"], fresh.state["classifier"])
        assert reused.calib_scores.tobytes() == fresh.calib_scores.tobytes()
        assert list(cj.predict_intervals(reused, test.logits)) == list(cj.predict_intervals(fresh, test.logits))

    def test_writing_into_one_fit_changes_no_other(self, counted_fits):
        train, calib, _ = peaked_split()
        h = checked_hyper("chr")
        first = conformal._fit_classifier(train, h)
        second = conformal._fit_classifier(train, h)
        untouched = conformal._classifier_copy(second)

        def overwrite(clf):
            for name in (*_FITTED, "bins"):
                getattr(clf, name)[...] = 7.0
            clf.loss_history.append(-1.0)

        overwrite(first)
        assert _same_fit(second, untouched)
        assert _same_fit(conformal._fit_classifier(train, h), untouched)
        overwrite(second)
        assert _same_fit(conformal._fit_classifier(train, h), untouched)
        assert len(counted_fits) == 1

    @pytest.mark.parametrize("part", ["logit bit", "label", "rows swapped", "scale", "epochs", "l2"])
    def test_any_one_changed_input_refits(self, counted_fits, part):
        train, _, _ = peaked_split()
        h = checked_hyper("chr")
        conformal._fit_classifier(train, h)
        changed_train, changed_h = _changed(part, train, h)
        refit = conformal._fit_classifier(changed_train, changed_h)
        assert len(counted_fits) == 2
        assert counted_fits[-1] is refit
        conformal._fit_classifier(changed_train, changed_h)
        assert len(counted_fits) == 2

    def test_a_fit_that_raises_keeps_nothing(self, counted_fits):
        train, _, _ = peaked_split()
        h = checked_hyper("r2ccp")
        off_grid = SimpleNamespace(logits=train.logits, labels=train.labels + 0.5, scale=train.scale)
        for tries in (1, 2):
            with pytest.raises(ValidationError, match="off the bin grid"):
                conformal._fit_classifier(off_grid, h)
            assert len(counted_fits) == tries
            assert conformal._last_classifier_fit == (None, None)
        conformal._fit_classifier(train, h)
        assert len(counted_fits) == 3

    def test_the_kept_fit_holds_no_row_sized_array(self, counted_fits):
        rng = np.random.default_rng(13)
        Z = rng.normal(size=(20_000, 5))
        labels = np.clip(np.round(3.0 + Z[:, 0]), 1, 5)
        train = build_dataset(Z, labels, labels)
        h = checked_hyper("r2ccp", epochs=3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            clf = conformal._fit_classifier(train, h)
            del clf
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(counted_fits) == 1 and conformal._last_classifier_fit[0] is not None
        assert kept < 64 * 1024, kept


class TestOrdinal:
    def test_point_mass_single_label(self):
        Z = np.tile(np.array([-1000.0, -1000.0, 0.0, -1000.0, -1000.0]), (20, 1))
        ds = build_dataset(Z, np.full(20, 3.0), np.full(20, 3.0))
        for alpha in (0.05, 0.1, 0.3):
            model = cj.calibrate_ordinal_aps(ds, alpha)
            iv = cj.predict_interval(model, Z[0])
            assert (iv.lo, iv.hi) == (3.0, 3.0)

    def test_greedy_growth_example(self):
        values = np.array([[0.5, 0.3, 0.2, 0.0, 0.0]])
        left, right = _ordinal_growth_predict(values, np.arange(1.0, 6.0), 0.75)
        assert (left[0], right[0]) == (0, 1)

    def test_contiguity_and_argmax_containment(self):
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.ones(5) * 0.4, size=1000)
        qhats = rng.uniform(0.05, 1.0, size=1000)
        for p, q in zip(probs, qhats):
            left, right = _ordinal_growth_predict(p[None, :], np.arange(1.0, 6.0), q)
            peak = int(np.argmax(p))
            assert left[0] <= peak <= right[0]
            mass = p[left[0]:right[0] + 1].sum()
            assert mass >= q - 1e-9 or (left[0], right[0]) == (0, 4)

    def test_set_grown_to_own_score_spans_label(self):
        # a score is the mass at which the growth first spans the label, so
        # the set grown until it holds that mass covers the label
        _, calib, _ = peaked_split(seed=23)
        weights = np.array([1.0, 2.0, 1.0, 0.5, 1.0])
        model = cj.calibrate_ordinal_rc(calib, 0.1, weights)
        ratings = np.arange(1.0, 6.0)
        for v, y, s in zip(cj.softmax(calib.logits) * weights, calib.labels, model.calib_scores):
            left, right = _ordinal_growth_predict(v[None, :], ratings, s)
            assert ratings[left[0]] <= y <= ratings[right[0]]

    def test_rc_with_unit_weights_identical_to_aps(self):
        train, calib, test = peaked_split(seed=21)
        aps = cj.calibrate_ordinal_aps(calib, 0.1)
        rc = cj.calibrate_ordinal_rc(calib, 0.1, np.ones(5))
        assert rc.qhat == aps.qhat
        np.testing.assert_array_equal(rc.calib_scores, aps.calib_scores)
        iv_a = cj.predict_intervals(aps, test.logits)
        iv_r = cj.predict_intervals(rc, test.logits)
        assert [(a.lo, a.hi) for a in iv_a] == [(r.lo, r.hi) for r in iv_r]

    def test_weighted_growth_hand_simulation(self):
        # uniform probabilities, double weight on label 1: start at label 1,
        # first growth step adds label 2 (0.4 then 0.6 >= 0.5)
        values = np.full((1, 5), 0.2) * np.array([2.0, 1.0, 1.0, 1.0, 1.0])
        left, right = _ordinal_growth_predict(values, np.arange(1.0, 6.0), 0.5)
        assert (left[0], right[0]) == (0, 1)
        # same probabilities, double weight on label 4: start there, then one
        # tie-broken step toward the lower label (0.4, then 0.4 + 0.2 >= 0.5)
        values = np.full((1, 5), 0.2) * np.array([1.0, 1.0, 1.0, 2.0, 1.0])
        left, right = _ordinal_growth_predict(values, np.arange(1.0, 6.0), 0.5)
        assert (left[0], right[0]) == (2, 3)

    def test_non_positive_weight_rejected(self):
        _, calib, _ = peaked_split(seed=22)
        with pytest.raises(ValidationError, match="positive"):
            cj.calibrate_ordinal_rc(calib, 0.1, [1.0, 0.0, 1.0, 1.0, 1.0])


@pytest.fixture(scope="module")
def fitted():
    train, calib, test = peaked_split(seed=31, n=400)
    return train, calib, test, calibrate_all(train, calib)


class TestModelContract:
    def test_scores_reproduce_calibration(self, fitted):
        _, calib, _, models = fitted
        for name, model in models.items():
            again = cj.score_samples(model, calib)
            np.testing.assert_array_equal(again, model.calib_scores, err_msg=name)

    def test_table_covers_every_method(self):
        assert set(_METHOD_TABLE) == set(cj.METHODS)

    def test_prediction_uses_live_estimators(self, fitted, monkeypatch):
        _, calib, test, models = fitted

        def rebuilt(*args, **kwargs):
            raise AssertionError("estimator rebuilt from its dict")

        monkeypatch.setattr(cj.QuantileForest, "from_dict", rebuilt)
        monkeypatch.setattr(cj.BinClassifier, "from_dict", rebuilt)
        for model in models.values():
            cj.predict_intervals(model, test.logits, test.raw_scores)
            cj.predict_interval(model, test.logits[0], test.raw_scores[0])
            cj.score_samples(model, calib)

    @pytest.mark.parametrize("method, cls, calls", [
        ("cqr", cj.QuantileForest, 2), ("chr", cj.BinClassifier, 1), ("r2ccp", cj.BinClassifier, 1),
        ("lvd", cj.KernelSimilarity, 1), ("lvd", cj.RidgePredictor, 1), ("split_abs", cj.RidgePredictor, 1),
    ])
    def test_model_from_json_calls_the_reader_on_the_class(self, fitted, monkeypatch, method, cls, calls):
        # the readers used to be bound when conformal was imported, so a
        # reader replaced on its class later (as a tracer wraps it) was never called
        read = cls.__dict__["from_dict"].__func__
        seen = []

        def counted(klass, d):
            seen.append(d["kind"])
            return read(klass, d)

        monkeypatch.setattr(cls, "from_dict", classmethod(counted))
        cj.model_from_json(cj.model_to_json(fitted[3][method]))
        assert len(seen) == calls

    def test_single_point_is_the_batch_row(self, fitted):
        _, _, test, models = fitted
        assert set(models) == set(cj.METHODS)
        for name, model in models.items():
            batch = cj.predict_intervals(model, test.logits, test.raw_scores)
            assert isinstance(batch, cj.Intervals) and len(batch) == len(test)
            for i in range(0, len(test), 7):
                one = cj.predict_interval(model, test.logits[i], test.raw_scores[i])
                # a one-row matrix product may round the last bit differently
                assert (one.lo, one.hi) == pytest.approx((batch[i].lo, batch[i].hi), rel=0, abs=1e-12), (name, i)
                assert not one.empty and not batch[i].empty

    def test_deterministic_prediction(self, fitted):
        _, _, test, models = fitted
        for model in models.values():
            a = cj.predict_intervals(model, test.logits, test.raw_scores)
            b = cj.predict_intervals(model, test.logits, test.raw_scores)
            assert [(x.lo, x.hi) for x in a] == [(x.lo, x.hi) for x in b]

    def test_clamped_and_ordered(self, fitted):
        _, _, test, models = fitted
        for model in models.values():
            for iv in cj.predict_intervals(model, test.logits, test.raw_scores):
                assert 1.0 - 1e-9 <= iv.lo <= iv.hi <= 5.0 + 1e-9

    def test_dimension_mismatch(self, fitted):
        _, _, _, models = fitted
        with pytest.raises(ValidationError, match="dimensional"):
            cj.predict_interval(models["cqr"], np.zeros(4))

    @pytest.mark.parametrize("method", cj.METHODS)
    def test_three_dimensional_features_rejected(self, fitted, method):
        # (n, k, 1) features used to pass the dimension check: ordinal_aps
        # and ordinal_rc then raised "too many values to unpack"
        _, calib, test, models = fitted
        with pytest.raises(ValidationError, match="dimensional"):
            cj.predict_intervals(models[method], test.logits[:, :, None], test.raw_scores)
        # a Dataset holds only 2-D logits, so the scores get a stand-in
        rows = SimpleNamespace(logits=calib.logits[:, :, None], labels=calib.labels,
                               raw_scores=calib.raw_scores)
        with pytest.raises(ValidationError, match="dimensional"):
            cj.score_samples(models[method], rows)

    def test_serialization_roundtrip(self, fitted):
        _, _, test, models = fitted
        for name, model in models.items():
            back = cj.model_from_json(cj.model_to_json(model))
            iv_a = cj.predict_intervals(model, test.logits, test.raw_scores)
            iv_b = cj.predict_intervals(back, test.logits, test.raw_scores)
            assert [(x.lo, x.hi) for x in iv_a] == [(x.lo, x.hi) for x in iv_b], name

    @pytest.mark.parametrize("text", ["", "{", "not json", '{"format": "confjudge-model", "v": 2}', "[1, 2]"])
    def test_text_that_is_no_model_document_rejected(self, text):
        # text that is not JSON used to raise json.JSONDecodeError
        with pytest.raises(ValidationError, match="model document"):
            cj.model_from_json(text)

    def test_unknown_method_document_rejected(self, fitted):
        doc = json.loads(cj.model_to_json(fitted[3]["ordinal_aps"]))
        doc["method"] = "bogus"
        with pytest.raises(ValidationError, match="bogus"):
            cj.model_from_json(json.dumps(doc))

    def test_bad_state_entry_rejected(self, fitted):
        doc = json.loads(cj.model_to_json(fitted[3]["cqr"]))
        del doc["state"]["forest_hi"]
        with pytest.raises(ValidationError, match="forest_hi"):
            cj.model_from_json(json.dumps(doc))
        doc = json.loads(cj.model_to_json(fitted[3]["split_abs"]))
        doc["state"]["point_predictor"] = "bogus"
        with pytest.raises(ValidationError, match="point_predictor"):
            cj.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", ["qhat", "alpha", "k", "scale", "calib_scores"])
    def test_missing_or_malformed_field_rejected(self, fitted, field):
        doc = json.loads(cj.model_to_json(fitted[3]["cqr"]))
        # string scale bounds and numeric-string scores used to load
        malformed = {"scale": [{key: str(v) for key, v in doc["scale"].items()}, {**doc["scale"], "max": "5"}],
                     "calib_scores": [[str(v) for v in doc["calib_scores"]]]}
        del doc[field]
        with pytest.raises(ValidationError, match=field):
            cj.model_from_json(json.dumps(doc))
        for value in ["bogus", *malformed.get(field, [])]:
            doc[field] = value
            with pytest.raises(ValidationError, match=field):
                cj.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("method, qhat", [
        ("cqr", "pair"), ("asym_cqr", 0.5), ("asym_cqr", [0.5, 0.5, 0.5]), ("asym_cqr", None),
        ("lvd", 0.5), ("lvd", [0.5, 0.5]), ("chr", [3.0, 3.0]), ("split_abs", None),
        # these methods' scores are never negative; a chr qhat of -3 used to
        # load and serve level 0
        ("split_abs", -3.0), ("chr", -3.0), ("r2ccp", -3.0), ("ordinal_aps", -3.0), ("ordinal_rc", -3.0),
    ])
    def test_qhat_of_another_shape_rejected(self, fitted, method, qhat):
        doc = json.loads(cj.model_to_json(fitted[3][method]))
        # a cqr qhat turned into a pair used to be served as asym_cqr
        doc["qhat"] = [doc["qhat"], -5.0] if qhat == "pair" else qhat
        with pytest.raises(ValidationError, match="qhat"):
            cj.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("method, qhat", [("cqr", -3.0), ("asym_cqr", [-3.0, 0.5])])
    def test_negative_cqr_qhat_loads(self, fitted, method, qhat):
        # a CQR score is negative for a label inside both bounds
        doc = json.loads(cj.model_to_json(fitted[3][method]))
        doc["qhat"] = qhat
        model = cj.model_from_json(json.dumps(doc))
        assert model.qhat == (tuple(qhat) if isinstance(qhat, list) else qhat)

    @pytest.mark.parametrize("method", ["cqr", "asym_cqr"])
    def test_forest_features_beyond_k_rejected(self, method):
        text = (DATA / f"{method}_model_v1.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        doc["state"]["forest_lo"]["trees"][0]["feature"][0] = 7
        with pytest.raises(ValidationError, match="forest_lo"):
            cj.model_from_json(json.dumps(doc))
        doc = json.loads(text)
        doc["k"] = 3
        with pytest.raises(ValidationError, match="but k is 3"):
            cj.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("method, entry, corrupt", [
        ("cqr", "forest_lo", lambda e: e["trees"][0]["value"].__setitem__(-1, True)),
        ("asym_cqr", "forest_hi", lambda e: e["trees"][3]["thresh"].__setitem__(0, False)),
        ("chr", "classifier", lambda e: e["weights"][1].__setitem__(2, True)),
        ("r2ccp", "classifier", lambda e: e["bias"].__setitem__(0, True)),
    ])
    def test_bool_among_document_numbers_rejected(self, method, entry, corrupt):
        # numpy reads [0.5, true] as a float array, so a leaf value of true
        # used to load and serve 1.0
        doc = json.loads((DATA / f"{method}_model_v1.json").read_text(encoding="utf-8"))
        corrupt(doc["state"][entry])
        with pytest.raises(ValidationError, match=entry):
            cj.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("method, entry", [("split_abs", "ridge"), ("lvd", "ridge"), ("lvd", "kernel"),
                                               ("chr", "classifier"), ("r2ccp", "classifier")])
    def test_estimator_of_other_than_k_features_rejected(self, fitted, method, entry):
        # a well-formed estimator document fitted on 3 of the model's 5 features
        doc = json.loads(cj.model_to_json(fitted[3][method]))
        e = doc["state"][entry]
        for key in ("coef", "means", "stds"):
            if key in e:
                e[key] = e[key][:3]
        if "weights" in e:
            e["weights"] = [row[:3] for row in e["weights"]]
        with pytest.raises(ValidationError, match=f"'{entry}' reads 3 features, but k is 5"):
            cj.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("point_predictor", ["raw_score", "weighted_average"])
    def test_split_abs_ridge_without_the_ridge_predictor_rejected(self, fitted, point_predictor):
        # the ridge is unused unless the point predictor is ridge
        doc = json.loads(cj.model_to_json(fitted[3]["split_abs"]))
        doc["state"]["point_predictor"] = point_predictor
        with pytest.raises(ValidationError, match="ridge"):
            cj.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("method", ["cqr", "asym_cqr"])
    def test_forest_tree_count_other_than_n_trees_rejected(self, method):
        # forest_lo cut to 3 of its 8 trees used to load and serve
        doc = json.loads((DATA / f"{method}_model_v1.json").read_text(encoding="utf-8"))
        assert doc["state"]["forest_lo"]["n_trees"] == 8
        doc["state"]["forest_lo"]["trees"] = doc["state"]["forest_lo"]["trees"][:3]
        with pytest.raises(ValidationError, match="forest_lo"):
            cj.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("entry, corrupt", [
        ("calib_logits", lambda s: [row[:-1] for row in s["calib_logits"]]),
        ("calib_logits", lambda s: s["calib_logits"][0]),
        ("calib_logits", lambda s: []),
        ("sorted_scores", lambda s: s["sorted_scores"][:5]),
        ("sort_order", lambda s: s["sort_order"][:-1] + [len(s["sort_order"])]),
        ("sort_order", lambda s: s["sort_order"][:-1] + s["sort_order"][:1]),
        ("kernel", lambda s: {**s["kernel"], "means": s["kernel"]["means"][:3]}),
        ("kernel", lambda s: {**s["kernel"], "stds": s["kernel"]["stds"] + [1.0]}),
        ("kernel", lambda s: {**s["kernel"], "bandwidth": 0.0}),
        ("kernel", lambda s: {**s["kernel"], "bandwidth": -1.0}),
        ("kernel", lambda s: {**s["kernel"], "bandwidth": float("inf")}),
        ("kernel", lambda s: {**s["kernel"], "bandwidth": float("nan")}),
        ("kernel", lambda s: {**s["kernel"], "bandwidth": None}),
        ("kernel", lambda s: {**s["kernel"], "bandwidth": "1.5"}),
        ("kernel", lambda s: {**s["kernel"], "bandwidth": 10 ** 400}),
        # each of these used to load: reversed scores served a narrower
        # interval, and fractional sort entries were truncated
        ("sorted_scores", lambda s: s["sorted_scores"][::-1]),
        ("sorted_scores", lambda s: [-1.0] + s["sorted_scores"][1:]),
        ("sort_order", lambda s: [i + 0.5 for i in s["sort_order"]]),
        ("calib_logits", lambda s: [[str(x) for x in row] for row in s["calib_logits"]]),
        # halved scores, still ordered and non-negative, used to load and
        # serve intervals about half as wide
        ("sorted_scores", lambda s: [x / 2 for x in s["sorted_scores"]]),
    ])
    def test_inconsistent_lvd_state_rejected(self, fitted, entry, corrupt):
        doc = json.loads(cj.model_to_json(fitted[3]["lvd"]))
        doc["state"][entry] = corrupt(doc["state"])
        with pytest.raises(ValidationError, match=entry):
            cj.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("method, entry, corrupt", [
        ("split_abs", "ridge", lambda e: {**e, "coef": e["coef"][:3]}),
        ("split_abs", "ridge", lambda e: {**e, "means": e["means"][:3]}),
        ("split_abs", "ridge", lambda e: {**e, "stds": e["stds"] + [1.0]}),
        ("split_abs", "ridge", lambda e: {**e, "intercept": "three"}),
        ("split_abs", "ridge", lambda e: None),
        ("lvd", "ridge", lambda e: {**e, "coef": e["coef"][:3]}),
        ("lvd", "ridge", lambda e: {**e, "intercept": None}),
        ("chr", "classifier", lambda e: {**e, "weights": [row[:3] for row in e["weights"]]}),
        ("chr", "classifier", lambda e: {**e, "weights": e["weights"][:-1]}),
        ("chr", "classifier", lambda e: {**e, "bias": e["bias"][:-1]}),
        ("chr", "classifier", lambda e: {**e, "means": e["means"][:3]}),
        ("chr", "classifier", lambda e: {**e, "stds": e["stds"][:3]}),
        ("chr", "classifier", lambda e: {**e, "bins": [b + 0.5 for b in e["bins"]]}),
        ("chr", "T", lambda e: 0),
        ("chr", "T", lambda e: 2.5),
        ("r2ccp", "classifier", lambda e: {**e, "bins": e["bins"][:-1]}),
        ("r2ccp", "classifier", lambda e: {**e, "weights": [row[:3] for row in e["weights"]]}),
        # a NaN weight or a zero std used to serve [1, 5] for every point
        ("r2ccp", "classifier", lambda e: {**e, "weights": [[float("nan")] + e["weights"][0][1:]]
                                                          + e["weights"][1:]}),
        ("r2ccp", "classifier", lambda e: {**e, "stds": [0.0] + e["stds"][1:]}),
        ("r2ccp", "classifier", lambda e: {**e, "stds": [-1.0] + e["stds"][1:]}),
        ("r2ccp", "classifier", lambda e: {**e, "stds": [float("inf")] + e["stds"][1:]}),
        ("r2ccp", "classifier", lambda e: {**e, "means": [float("nan")] + e["means"][1:]}),
        ("chr", "classifier", lambda e: {**e, "bias": [float("-inf")] + e["bias"][1:]}),
        ("chr", "classifier", lambda e: {**e, "l2": -1.0}),
        ("chr", "classifier", lambda e: {**e, "epochs": 2.5}),
        ("ordinal_rc", "h", lambda e: e[:3]),
        ("ordinal_rc", "h", lambda e: [0.0] + e[1:]),
        # non-finite numbers used to load and serve NaN bounds, and a string
        # lr to raise numpy's UFuncTypeError in predict_intervals
        ("split_abs", "ridge", lambda e: {**e, "coef": [float("nan")] + e["coef"][1:]}),
        ("lvd", "ridge", lambda e: {**e, "stds": [0.0] + e["stds"][1:]}),
        ("lvd", "ridge", lambda e: None),
        ("lvd", "kernel", lambda e: {**e, "means": [float("inf")] + e["means"][1:]}),
        ("cqr", "forest_lo", lambda e: {**e, "base": float("nan")}),
        ("asym_cqr", "forest_hi", lambda e: {**e, "trees": [{**e["trees"][0], "value": [float("nan")]
                                                            * len(e["trees"][0]["value"])}] + e["trees"][1:]}),
        ("cqr", "forest_hi", lambda e: {**e, "lr": "x"}),
        ("ordinal_rc", "h", lambda e: [float("inf")] + e[1:]),
    ])
    def test_estimator_state_contradicting_the_document_rejected(self, fitted, method, entry, corrupt):
        # each of these used to load and then fail inside predict_intervals
        doc = json.loads(cj.model_to_json(fitted[3][method]))
        doc["state"][entry] = corrupt(doc["state"][entry])
        with pytest.raises(ValidationError, match=entry):
            cj.model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("method, hyper, name", [
        ("chr", {"T": 0}, "T"),
        ("chr", {"T": 2.5}, "T"),
        ("r2ccp", {"epochs": 2.5}, "epochs"),
        ("r2ccp", {"epochs": -1}, "epochs"),
        ("r2ccp", {"l2": -1.0}, "l2"),
        ("chr", {"l2": float("nan")}, "l2"),
    ])
    def test_bad_classifier_hyperparameters_rejected(self, fitted, method, hyper, name):
        # T = 0 used to divide by zero, epochs = 2.5 to raise TypeError, and
        # negative epochs or l2 to be accepted
        train, calib = fitted[0], fitted[1]
        with pytest.raises(ValidationError, match=name):
            cj.calibrate(method, train, calib, 0.1, hyper)

    @pytest.mark.parametrize("method, hyper, kw, name", [
        ("cqr", {"n_trees": "x"}, {}, "n_trees"),
        ("cqr", {"n_trees": True}, {}, "n_trees"),
        ("lvd", {"bandwdith": 1.0}, {}, "bandwdith"),
        ("cqr", {"depth": -1}, {}, "depth"),
        ("asym_cqr", {"min_leaf": 0}, {}, "min_leaf"),
        ("cqr", {"lr": float("nan")}, {}, "lr"),
        ("lvd", {"bandwidth": -1.0}, {}, "bandwidth"),
        ("lvd", {"bandwidth": 0}, {}, "bandwidth"),
        ("chr", {"T": np.int64(0)}, {}, "T"),
        ("cqr", None, {"point_predictor": "ridge"}, "point_predictor"),
        ("split_abs", {"point_predictor": "ridge"}, {"point_predictor": 3}, "point_predictor"),
        ("ordinal_aps", None, {"weights": [0.0] * 5}, "weights"),
        ("ordinal_rc", None, {"weights": "heavy"}, "weights"),
    ])
    def test_bad_hyperparameters_rejected(self, fitted, monkeypatch, method, hyper, kw, name):
        # each of these used to be accepted, ignored, or to fail inside a fit;
        # now the check comes before any fitting
        monkeypatch.setitem(_METHOD_TABLE, method, dataclasses.replace(_METHOD_TABLE[method], fit=None))
        with pytest.raises(ValidationError, match=f"^{method} .*'{name}'"):
            cj.calibrate(method, fitted[0], fitted[1], 0.1, hyper, **kw)

    def test_checked_hyper_fills_defaults_and_keywords_win(self):
        for method in cj.METHODS:
            assert checked_hyper(method) == {name: d for name, (d, _) in _METHOD_TABLE[method].hyper.items()}
        h = checked_hyper("lvd", {"l2": np.int64(2), "bandwidth": 1.0}, bandwidth=np.float32(0.5))
        assert h == {"l2": 2.0, "bandwidth": 0.5} and type(h["l2"]) is float

    def test_table_declares_the_estimators_hyperparameters(self):
        # one declaration per estimator: the constructors check with the
        # same (default, check) pairs the method table holds
        uses = {"split_abs": [estimators.RIDGE_HYPER], "cqr": [estimators.FOREST_HYPER],
                "asym_cqr": [estimators.FOREST_HYPER], "chr": [estimators.CLASSIFIER_HYPER],
                "lvd": [estimators.RIDGE_HYPER, estimators.KERNEL_HYPER],
                "r2ccp": [estimators.CLASSIFIER_HYPER]}
        for method, declarations in uses.items():
            for declared in declarations:
                for name, entry in declared.items():
                    assert _METHOD_TABLE[method].hyper[name] is entry, (method, name)

    def test_alpha_validated(self, fitted):
        _, _, _, models = fitted
        with pytest.raises(ValidationError):
            dataclasses.replace(models["cqr"], alpha=1.5)

    def test_unknown_method_lists_valid_names(self, fitted):
        train, calib, _, _ = fitted[0], fitted[1], fitted[2], fitted[3]
        with pytest.raises(ValidationError, match="split_abs"):
            cj.calibrate("quantile", train, calib, 0.1)


def _number_paths(value, path=()):
    """The path of every number in a JSON value, following only the first
    entry of each list."""
    if isinstance(value, dict):
        for key, entry in value.items():
            yield from _number_paths(entry, path + (key,))
    elif isinstance(value, list):
        yield from _number_paths(value[0], path + (0,)) if value else ()
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


@pytest.fixture(scope="module")
def small_documents():
    train, calib, _ = peaked_split(seed=23, n=200)
    hyper = {"split_abs": {"point_predictor": "ridge"}, "chr": {"epochs": 5, "T": 20}, "r2ccp": {"epochs": 5},
             **{m: {"n_trees": 3, "depth": 2, "min_leaf": 10, "lr": 0.1} for m in ("cqr", "asym_cqr")}}
    return {m: cj.model_to_json(cj.calibrate(m, train, calib, 0.1, hyper.get(m))) for m in cj.METHODS}


@pytest.mark.parametrize("method", cj.METHODS)
def test_every_number_in_a_document_is_checked(small_documents, method):
    # lvd's sorted_scores and calib_logits, and every method's calib_scores,
    # used to load a NaN or an infinity
    paths = list(_number_paths(json.loads(small_documents[method])))
    assert len(paths) > 5
    loaded = []
    for path in paths:
        for bad in (math.nan, math.inf):
            broken = json.loads(small_documents[method])
            entry = broken
            for key in path[:-1]:
                entry = entry[key]
            entry[path[-1]] = bad
            try:
                cj.model_from_json(json.dumps(broken))
            except ValidationError:
                continue
            loaded.append((path, bad))
    assert loaded == []


class TestWidthMonotoneInAlpha:
    def test_structurally_nested_methods(self):
        train, calib, test = peaked_split(seed=41, n=500)
        for m in ("split_abs", "chr", "lvd", "r2ccp", "ordinal_aps", "ordinal_rc"):
            kw = {"point_predictor": "ridge"} if m == "split_abs" else {}
            tight = cj.calibrate(m, train, calib, 0.05, SMALL_HYPER.get(m), **kw)
            loose = cj.calibrate(m, train, calib, 0.20, SMALL_HYPER.get(m), **kw)
            iv_t = cj.predict_intervals(tight, test.logits, test.raw_scores)
            iv_l = cj.predict_intervals(loose, test.logits, test.raw_scores)
            for a, b in zip(iv_t, iv_l):
                assert a.lo <= b.lo + 1e-9 and a.hi >= b.hi - 1e-9, m

    def test_cqr_nests_with_shared_estimator(self):
        # the conformal correction is monotone in alpha once the fitted
        # quantile estimator is held fixed; independently refit forests at
        # different tau levels are not pointwise ordered
        train, calib, test = peaked_split(seed=43, n=500)
        for m in ("cqr", "asym_cqr"):
            model = cj.calibrate(m, train, calib, 0.05, SMALL_HYPER[m])
            if m == "cqr":
                q_tight = model.qhat
                q_loose = conformal_quantile(model.calib_scores, 0.20)
                assert q_tight >= q_loose
            else:
                q_tight = model.qhat
                q_loose = (
                    conformal_quantile(model.calib_scores[:, 0], 0.10),
                    conformal_quantile(model.calib_scores[:, 1], 0.10),
                )
                assert q_tight[0] >= q_loose[0] and q_tight[1] >= q_loose[1]
            loose = dataclasses.replace(model, alpha=0.20, qhat=q_loose)
            iv_t = cj.predict_intervals(model, test.logits, test.raw_scores)
            iv_l = cj.predict_intervals(loose, test.logits, test.raw_scores)
            for a, b in zip(iv_t, iv_l):
                assert a.lo <= b.lo + 1e-9 and a.hi >= b.hi - 1e-9, m


class TestNoEmptyBeforeAdjustment:
    def test_every_method_returns_nonempty(self):
        train, calib, test = peaked_split(seed=51, n=400)
        for m, model in calibrate_all(train, calib).items():
            for iv in cj.predict_intervals(model, test.logits, test.raw_scores):
                assert not iv.empty, m


class TestForestDocumentCompatibility:
    """cqr and asym_cqr documents written by the recursive tree builder
    that preceded the level-wise one (8 trees each, tests/data)."""

    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads((DATA / "forest_models_v1_expected.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("method", ["cqr", "asym_cqr"])
    def test_old_documents_give_the_same_intervals(self, expected, method):
        model = cj.model_from_json((DATA / f"{method}_model_v1.json").read_text(encoding="utf-8"))
        intervals = cj.predict_intervals(model, np.asarray(expected["rows"]))
        assert [[iv.lo, iv.hi] for iv in intervals] == expected["intervals"][method]

    @pytest.mark.parametrize("method", ["cqr", "asym_cqr"])
    def test_refit_writes_the_same_document(self, expected, method):
        ds, _ = cj.generate(cj.GeneratorSpec(seed=expected["generator_seed"], n=expected["n"]))
        train, calib, _ = cj.split(ds, cj.SplitSpec(expected["split_seed"]))
        model = cj.calibrate(method, train, calib, expected["alpha"], expected["hyper"])
        assert cj.model_to_json(model) == (DATA / f"{method}_model_v1.json").read_text(encoding="utf-8")


class TestLvdDocumentCompatibility:
    """An lvd document written by the dense kernel that preceded the
    blocked one (tests/data)."""

    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads((DATA / "lvd_model_v1_expected.json").read_text(encoding="utf-8"))

    def test_old_document_gives_the_same_intervals(self, expected):
        model = cj.model_from_json((DATA / "lvd_model_v1.json").read_text(encoding="utf-8"))
        intervals = cj.predict_intervals(model, np.asarray(expected["rows"]))
        assert [[iv.lo, iv.hi] for iv in intervals] == expected["intervals"]

    def test_refit_writes_the_same_document(self, expected):
        ds, _ = cj.generate(cj.GeneratorSpec(seed=expected["generator_seed"], n=expected["n"]))
        train, calib, _ = cj.split(ds, cj.SplitSpec(expected["split_seed"]))
        model = cj.calibrate("lvd", train, calib, expected["alpha"], expected["hyper"])
        assert cj.model_to_json(model) == (DATA / "lvd_model_v1.json").read_text(encoding="utf-8")


class TestSplitAbsOrdinalDocumentCompatibility:
    """split_abs (ridge point predictor), ordinal_aps and ordinal_rc (label
    weights other than the default) documents written before the method
    table named each method's state readers (tests/data)."""

    METHODS = ("split_abs", "ordinal_aps", "ordinal_rc")

    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads((DATA / "split_abs_ordinal_v1_expected.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("method", METHODS)
    def test_old_documents_give_the_same_intervals(self, expected, method):
        model = cj.model_from_json((DATA / f"{method}_model_v1.json").read_text(encoding="utf-8"))
        intervals = cj.predict_intervals(model, np.asarray(expected["rows"]))
        assert [[iv.lo, iv.hi] for iv in intervals] == expected["intervals"][method]

    @pytest.mark.parametrize("method", METHODS)
    def test_refit_writes_the_same_document(self, expected, method):
        ds, _ = cj.generate(cj.GeneratorSpec(seed=expected["generator_seed"], n=expected["n"]))
        train, calib, _ = cj.split(ds, cj.SplitSpec(expected["split_seed"]))
        model = cj.calibrate(method, train, calib, expected["alpha"], expected["hyper"][method])
        assert cj.model_to_json(model) == (DATA / f"{method}_model_v1.json").read_text(encoding="utf-8")


class TestChrR2ccpDocumentCompatibility:
    """chr and r2ccp documents written by the per-level CHR loop and the
    per-row r2ccp span and score that preceded the batched ones, on a
    13-label heteroscedastic set (tests/data).  Their calib_scores pin the
    scores."""

    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads((DATA / "chr_r2ccp_v1_expected.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("method", ["chr", "r2ccp"])
    def test_old_documents_give_the_same_intervals(self, expected, method):
        model = cj.model_from_json((DATA / f"{method}_model_v1.json").read_text(encoding="utf-8"))
        intervals, flags = predict_intervals_flagged(model, np.asarray(expected["rows"]))
        assert [[iv.lo, iv.hi] for iv in intervals] == expected["intervals"][method]
        assert list(flags) == expected["flags"][method]

    @pytest.mark.parametrize("method", ["chr", "r2ccp"])
    def test_refit_writes_the_same_document(self, expected, method):
        assert expected["scale"] == "GPA_THIRDS"
        noise = cj.Heteroscedastic(expected["noise"]["heteroscedastic"])
        ds, _ = cj.generate(cj.GeneratorSpec(seed=expected["generator_seed"], n=expected["n"],
                                             scale=GPA_THIRDS, noise=noise))
        train, calib, _ = cj.split(ds, cj.SplitSpec(expected["split_seed"]))
        model = cj.calibrate(method, train, calib, expected["alpha"], expected["hyper"][method])
        assert cj.model_to_json(model) == (DATA / f"{method}_model_v1.json").read_text(encoding="utf-8")


# The per-level CHR loop, the scalar r2ccp span and the per-row np.interp
# score that preceded the batched code, kept as oracles.


def _chr_level_runs_per_level(probs, T):
    n, m = probs.shape
    run_lo, run_hi, contains = _run_table(m)
    csum = np.concatenate([np.zeros((n, 1)), np.cumsum(probs, axis=1)], axis=1)
    mass = csum[:, run_hi + 1] - csum[:, run_lo]
    cur = np.argmax(probs, axis=1)
    levels = np.empty((n, T + 1), dtype=np.int64)
    full = len(run_lo) - 1
    for t in range(T + 1):
        ok = (mass >= t / T - 1e-9) & contains[cur]
        ok[:, full] = True
        cur = np.argmax(ok, axis=1)
        levels[:, t] = cur
    return levels, run_lo, run_hi


def _scalar_superlevel_interval(bins, dens, q):
    above = dens >= q
    if not above.any():
        return None
    i0 = int(np.argmax(above))
    i1 = len(dens) - 1 - int(np.argmax(above[::-1]))
    if i0 == 0 or dens[i0 - 1] >= q:
        lo = bins[0] if i0 == 0 else bins[i0 - 1]
    else:
        lo = bins[i0 - 1] + (bins[i0] - bins[i0 - 1]) * (q - dens[i0 - 1]) / (dens[i0] - dens[i0 - 1])
    if i1 == len(dens) - 1 or dens[i1 + 1] >= q:
        hi = bins[-1] if i1 == len(dens) - 1 else bins[i1 + 1]
    else:
        hi = bins[i1] + (bins[i1 + 1] - bins[i1]) * (dens[i1] - q) / (dens[i1] - dens[i1 + 1])
    return lo, hi


def _per_row_r2ccp_scores(bins, dens, y):
    out = np.empty(len(y))
    for i in range(len(y)):
        out[i] = np.interp(y[i], bins, dens[i])
    return out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _chr_probs(m, T, rng):
    """Rows that exercise every branch of the CHR level rule."""
    rows = [rng.dirichlet(np.full(m, a)) for a in (0.2, 1.0, 5.0) for _ in range(20)]
    rows += list(np.eye(m))  # point masses
    rows.append(np.full(m, 1.0 / m))
    # rows summing to slightly under 1: only the full-run backstop reaches the top level
    rows += [r * (1.0 - 1e-7) for r in rows[:10]]
    rows.append(np.full(m, (1.0 - 1e-6) / m))
    # a one-bin and a two-bin run whose mass sits exactly on a level
    # t / T - 1e-9, and a one-bin run one ulp below it
    for t in range(1, T + 1):
        level = t / T - 1e-9
        for g in (level, np.nextafter(level, -1.0)):
            single = np.full(m, (1.0 - g) / max(m - 1, 1))
            single[0] = g
            rows.append(single)
        if m >= 2:
            pair = np.full(m, (1.0 - level) / max(m - 2, 1)) if m > 2 else np.zeros(m)
            pair[:2] = level / 2
            rows.append(pair)
    return np.asarray(rows)


class TestChrGrowthStepsMatchLevelOracle:
    @pytest.mark.parametrize("T", [1, 2, 7, 100])
    @pytest.mark.parametrize("m", [1, 2, 5, 13])
    def test_levels_bit_for_bit(self, m, T):
        probs = _chr_probs(m, T, np.random.default_rng(100 * m + T))
        levels, run_lo, run_hi = _chr_level_runs(probs, T)
        want, want_lo, want_hi = _chr_level_runs_per_level(probs, T)
        assert levels.dtype == want.dtype and np.array_equal(levels, want)
        assert np.array_equal(run_lo, want_lo) and np.array_equal(run_hi, want_hi)

    def test_non_finite_rows_match(self):
        probs = np.array([[np.nan] * 5, [0.2, np.nan, 0.3, 0.1, 0.4], [0.1, 0.2, 0.4, 0.2, 0.1]])
        with np.errstate(invalid="ignore"):
            want = _chr_level_runs_per_level(probs, 10)[0]
        assert np.array_equal(_chr_level_runs(probs, 10)[0], want)


# The dense CHR score and interval that preceded the growth-step walk:
# both read the whole (n, T+1) level matrix.


def _dense_chr_scores(probs, bins, y, T):
    levels, run_lo, run_hi = _chr_level_runs_per_level(probs, T)
    ybin = np.argmin(np.abs(y[:, None] - bins[None, :]), axis=1)
    inside = (run_lo[levels] <= ybin[:, None]) & (ybin[:, None] <= run_hi[levels])
    s = np.where(inside.any(axis=1), np.argmax(inside, axis=1), T + 1)
    return s.astype(float)


def _dense_chr_bounds(probs, bins, qhat, T):
    levels, run_lo, run_hi = _chr_level_runs_per_level(probs, T)
    runs = levels[:, min(int(qhat), T)]
    return bins[run_lo[runs]], bins[run_hi[runs]]


class TestChrStepsMatchDenseScoreAndInterval:
    """Scores and intervals read from the growth steps equal the dense
    level matrix's, bit for bit."""

    @staticmethod
    def rows(m, T):
        probs = _chr_probs(m, T, np.random.default_rng(7 * m + T))
        nan_rows = np.array([[np.nan] * m, [0.3] + [np.nan] * (m - 1), [np.nan] + [1.0 / m] * (m - 1)])
        return np.vstack([probs, nan_rows])

    @staticmethod
    def classifier(probs, bins):
        return SimpleNamespace(predict_proba=lambda Z: probs.copy(), bins=bins)

    @pytest.mark.parametrize("T", [1, 2, 7, 100])
    @pytest.mark.parametrize("m", [1, 2, 5, 13])
    def test_scores_bit_for_bit(self, m, T):
        probs = self.rows(m, T)
        bins = np.linspace(1.0, 5.0, m) if m > 1 else np.array([3.0])
        # every row against every bin, and against labels between bins
        y = np.concatenate([bins, (bins[1:] + bins[:-1]) / 2])
        P, Y = np.repeat(probs, len(y), axis=0), np.tile(y, len(probs))
        state = {"classifier": self.classifier(P, bins), "T": T}
        with np.errstate(invalid="ignore"):
            want = _dense_chr_scores(P, bins, Y, T)
        got = _score_chr(state, None, np.zeros((len(P), 1)), Y, None)
        assert _bits(got).tolist() == _bits(want).tolist()
        if m > 1:
            # point masses leave the other labels unreachable
            assert (want == T + 1).any()

    @pytest.mark.parametrize("T", [1, 2, 7, 100])
    @pytest.mark.parametrize("m", [1, 2, 5, 13])
    def test_intervals_bit_for_bit(self, m, T):
        probs = self.rows(m, T)
        bins = np.linspace(1.0, 5.0, m) if m > 1 else np.array([3.0])
        state = {"classifier": self.classifier(probs, bins), "T": T}
        # levels 0 and T, between levels, and past the top level
        for qhat in (0.0, 0.5, 1.0, T / 2, T - 0.25, T, T + 1, T + 7.5):
            model = SimpleNamespace(state=state, qhat=qhat)
            lo, hi, _ = _interval_chr(model, np.zeros((len(probs), 1)), None)
            with np.errstate(invalid="ignore"):
                want_lo, want_hi = _dense_chr_bounds(probs, bins, qhat, T)
            assert _bits(lo).tolist() == _bits(want_lo).tolist()
            assert _bits(hi).tolist() == _bits(want_hi).tolist()

    def test_quantile_below_level_0_reads_level_0(self):
        probs = self.rows(5, 10)
        bins = np.linspace(1.0, 5.0, 5)
        state = {"classifier": self.classifier(probs, bins), "T": 10}
        lo, hi, _ = _interval_chr(SimpleNamespace(state=state, qhat=-3.0), np.zeros((len(probs), 1)), None)
        with np.errstate(invalid="ignore"):
            want_lo, want_hi = _dense_chr_bounds(probs, bins, 0.0, 10)
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def test_chr_walks_stop_once_each_answer_is_fixed(monkeypatch):
    # eval-wide's shape: 13 bins, 4000 test rows.  A score reads only the
    # first run that holds the label and an interval only the run at level
    # qhat, so each walk drops a row there, not at the top level
    walked = []
    steps = conformal._chr_growth_steps

    def counted(probs, T, *args, **kw):
        walked.append(0)
        for rows, t, run in steps(probs, T, *args, **kw):
            walked[-1] += len(rows)
            yield rows, t, run

    ds, _ = cj.generate(cj.GeneratorSpec(seed=7, n=8000, k=5, noise=cj.Heteroscedastic(0.5), scale=GPA_THIRDS))
    for seed in (7001, 7002):
        train, calib, test = cj.split(ds, cj.SplitSpec(seed))
        model = cj.calibrate("chr", train, calib, 0.1)
        full = sum(len(rows) for rows, _, _ in steps(model.state["classifier"].predict_proba(test.logits),
                                                      model.state["T"]))
        with monkeypatch.context() as patch:
            patch.setattr(conformal, "_chr_growth_steps", counted)
            cj.score_samples(model, test)
            cj.predict_intervals(model, test.logits)
        score, interval = walked[-2:]
        assert score <= 0.5 * full and interval <= 0.75 * full, (score, interval, full)


class TestR2ccpBatchMatchesScalarOracle:
    @staticmethod
    def rows(m, q, rng):
        dens = rng.dirichlet(np.full(m, 0.5), size=200) * 2.0
        mid = slice(m // 2 - 1, m // 2 + 1)
        dens[0::6, 1] = q  # a bin density equal to q
        dens[1::6, mid] = dens[1::6, [m // 2]]  # a plateau
        dens[2::6, mid] = q  # a plateau at q
        dens[3::6] = q / 2  # never reaches q: degenerate
        dens[4::6, 0] = dens[4::6, -1] = 2 * q  # first above at 0, last at m - 1
        dens[5::6] = np.linspace(0, 2 * q, m)  # rising through q
        return dens

    @pytest.mark.parametrize("m", [2, 5, 13])
    def test_spans_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        bins = np.linspace(1.0, 5.0, m)
        for q in (0.3, 0.125, 1 / 3, 0.0):
            dens = self.rows(m, q, rng)
            lo, hi, reached = _superlevel_spans(bins, dens, q)
            for i, row in enumerate(dens):
                want = _scalar_superlevel_interval(bins, row, q)
                assert reached[i] == (want is not None)
                if want is not None:
                    assert _bits([lo[i], hi[i]]).tolist() == _bits(want).tolist()

    def test_one_row_is_its_batch_row(self):
        rng = np.random.default_rng(3)
        bins = np.linspace(1.0, 5.0, 13)
        dens = self.rows(13, 0.2, rng)
        lo, hi, reached = _superlevel_spans(bins, dens, 0.2)
        for i, row in enumerate(dens):
            span = _superlevel_interval(bins, row, 0.2, GPA_THIRDS)
            assert span == ((lo[i], hi[i]) if reached[i] else None)


class TestR2ccpScoreMatchesInterp:
    @pytest.mark.parametrize("scale", [LIKERT, GPA_THIRDS, LabelScale(0, 1, 0.5)])
    def test_scores_bit_for_bit(self, scale):
        rng = np.random.default_rng(5)
        bins, k = scale.labels(), 4
        clf = estimators.BinClassifier(bins, 0, 1e-3)
        clf.weights, clf.bias = rng.normal(size=(len(bins), k)), rng.normal(size=len(bins))
        clf.means, clf.stds = np.zeros(k), np.ones(k)
        near = np.concatenate([bins + GRID_TOL / 2, bins - GRID_TOL / 2,
                               np.nextafter(bins, np.inf), np.nextafter(bins, -np.inf)])
        y = np.concatenate([bins, near, (bins[1:] + bins[:-1]) / 2, [scale.min - 1, scale.max + 1],
                            rng.uniform(scale.min, scale.max, 50)])
        Z = rng.normal(size=(len(y), k))
        got = _score_r2ccp({"classifier": clf}, scale, Z, y, None)
        want = _per_row_r2ccp_scores(bins, clf.predict_proba(Z) / scale.step, y)
        assert _bits(got).tolist() == _bits(want).tolist()


# The dense kernel code that preceded the blocked one, kept as the oracle:
# it builds the (rows x points x features) difference tensor.


def _dense_median_bandwidth(kernel, X):
    Xs = kernel._standardize(X)
    d2 = np.sum((Xs[:, None, :] - Xs[None, :, :]) ** 2, axis=-1)
    tri = d2[np.triu_indices(len(Xs), k=1)]
    bw = float(np.sqrt(np.median(tri))) if tri.size else 1.0
    return bw if bw > 1e-12 else 1.0


def _dense_weights(kernel, X_calib, Z):
    bw = kernel.bandwidth
    Xc = kernel._standardize(X_calib)
    Zq = kernel._standardize(np.atleast_2d(Z))
    d2 = np.sum((Zq[:, None, :] - Xc[None, :, :]) ** 2, axis=-1)
    if not np.all(np.isfinite(d2)):
        raise ValidationError("degenerate features")
    w = np.exp(-d2 / (2.0 * bw * bw))
    totals = w.sum(axis=1, keepdims=True)
    dead = totals[:, 0] <= 0.0
    if dead.any():
        w[dead] = 0.0
        w[dead, np.argmin(d2[dead], axis=1)] = 1.0
        totals = w.sum(axis=1, keepdims=True)
    return w / totals


def _dense_lvd_quantiles(model, Z):
    state = model.state
    sorted_scores = state["sorted_scores"]
    w = _dense_weights(state["kernel"], state["calib_logits"], Z)[:, state["sort_order"]]
    cum = np.cumsum(w, axis=1)
    idx = np.argmax(cum >= (1.0 - model.alpha) - 1e-12, axis=1)
    reached = cum[np.arange(len(Z)), idx] >= (1.0 - model.alpha) - 1e-12
    idx = np.where(reached, idx, len(sorted_scores) - 1)
    return sorted_scores[idx]


def _lvd_model(rng, m, k, bandwidth=None):
    """An lvd model on m random calibration points with k features of
    unequal spread; the median heuristic sets the bandwidth unless given."""
    X = rng.normal(size=(m, k)) * rng.uniform(0.5, 3.0, size=k)
    return _lvd_model_on(X, rng.choice(LIKERT.labels(), size=m), bandwidth)


def _lvd_model_on(X, y, bandwidth=None, alpha=0.1):
    """An lvd model calibrated on the points X with labels y."""
    k = X.shape[1]
    ridge = cj.RidgePredictor(1.0).fit(X, y)
    kernel = cj.KernelSimilarity(bandwidth).fit(X)
    if bandwidth is None:
        kernel.bandwidth = kernel.median_bandwidth(X)
    scores = np.abs(ridge.predict(X) - y)
    order = np.argsort(scores, kind="stable")
    state = {"ridge": ridge, "kernel": kernel, "calib_logits": X,
             "sorted_scores": scores[order], "sort_order": order}
    return cj.CalibratedModel("lvd", alpha, LIKERT, k, None, state, scores)


def _small_blocks(monkeypatch, entries):
    """Blocks of ``entries`` pairs; below 8 features each one is summed
    feature by feature."""
    monkeypatch.setattr(estimators, "_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(estimators, "_TENSOR_PAIRS", 0)


class TestBlockedKernelMatchesDenseOracle:
    """Bandwidth, weights and lvd quantiles are bit-identical to the dense
    kernel's, whatever the block size."""

    @pytest.mark.parametrize("m, n, k, entries", [
        (37, 23, 3, 64),        # one row per block
        (50, 31, 6, 350),       # 7 rows per block, neither m nor n a multiple of 7
        (40, 1, 5, None),       # m below one block, a single query (through the tensor)
        (300, 500, 3, None),    # the real block size: 218 rows per block
        (50, 31, 13, 350),      # 8 features or more: the tensor, one row at a time
        (30, 9, 130, 120),      # 130 features
    ])
    def test_bandwidth_weights_and_quantiles(self, monkeypatch, m, n, k, entries):
        if entries is not None:
            _small_blocks(monkeypatch, entries)
        rng = np.random.default_rng(m + n + k)
        model = _lvd_model(rng, m, k)
        kernel, X = model.state["kernel"], model.state["calib_logits"]
        assert kernel.bandwidth == _dense_median_bandwidth(kernel, X)
        Z = rng.normal(size=(n, k)) * 2.0
        assert kernel.weights_batch(X, Z).tobytes() == _dense_weights(kernel, X, Z).tobytes()
        assert _lvd_local_quantiles(model, Z).tobytes() == _dense_lvd_quantiles(model, Z).tobytes()

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_bandwidth_with_fewer_than_two_pairs(self, m):
        kernel = cj.KernelSimilarity(None).fit(np.ones((3, 2)))
        X = np.arange(2.0 * m).reshape(m, 2)
        assert kernel.median_bandwidth(X) == _dense_median_bandwidth(kernel, X)

    def test_underflowing_kernels_fall_back_to_nearest_point(self, monkeypatch):
        _small_blocks(monkeypatch, 120)
        rng = np.random.default_rng(7)
        model = _lvd_model(rng, 60, 4, bandwidth=1e-6)
        X = model.state["calib_logits"]
        Z = np.vstack([rng.normal(size=(9, 4)), X[[3, 17]], rng.normal(size=(4, 4))])
        qs = _lvd_local_quantiles(model, Z)
        assert qs.tobytes() == _dense_lvd_quantiles(model, Z).tobytes()
        # every kernel underflows, so each query takes its nearest point's score
        kernel = model.state["kernel"]
        Xs, Zs = kernel._standardize(X), kernel._standardize(Z)
        nearest = np.argmin(((Zs[:, None] - Xs[None]) ** 2).sum(axis=-1), axis=1)
        np.testing.assert_array_equal(qs, model.calib_scores[nearest])

    def test_non_finite_features_rejected_in_any_block(self, monkeypatch):
        _small_blocks(monkeypatch, 100)
        rng = np.random.default_rng(8)
        model = _lvd_model(rng, 50, 3)
        Z = rng.normal(size=(12, 3))
        Z[9, 1] = np.nan
        with pytest.raises(ValidationError, match="degenerate features"):
            _dense_lvd_quantiles(model, Z)
        with pytest.raises(ValidationError, match="degenerate features"):
            _lvd_local_quantiles(model, Z)
        X = model.state["calib_logits"].copy()
        X[4, 0] = np.inf
        kernel = model.state["kernel"]
        with np.errstate(invalid="ignore"):
            assert kernel.median_bandwidth(X) == _dense_median_bandwidth(kernel, X)


@contextmanager
def _exact_rows(pairs=0):
    """Yields the row counts of the batches the exact lvd path gets, while
    every call of more than ``pairs`` (query, point) pairs is located."""
    batches = []
    exact = conformal._lvd_exact_quantiles

    def counted(model, Z):
        batches.append(len(Z))
        return exact(model, Z)

    with mock.patch.object(conformal, "_lvd_exact_quantiles", counted), \
            mock.patch.object(conformal, "_LOCATE_PAIRS", pairs):
        yield batches


def _level_alpha(c: float) -> float:
    """An alpha whose level ``(1 - alpha) - 1e-12`` is exactly c."""
    alpha = 1.0 - (c + 1e-12)
    for _ in range(64):
        level = (1.0 - alpha) - 1e-12
        if level == c:
            return alpha
        alpha = np.nextafter(alpha, 1.0 if level > c else 0.0)
    raise AssertionError(f"no alpha gives the level {c!r}")


class TestLocatedQuantilesMatchExactPath:
    """The located and certified lvd quantiles are the exact path's and the
    dense oracle's, bit for bit, and the rows the certificate cannot vouch
    for do go through the exact path."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 300), n=st.integers(1, 100), k=st.integers(1, 9),
           alpha=st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.5, 0.9]),
           bandwidth=st.sampled_from([None, 1e-6, 1e9]),
           distinct=st.integers(1, 300), repeated=st.integers(0, 10), seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_for_bit(self, m, n, k, alpha, bandwidth, distinct, repeated, seed):
        # calibration points drawn from ``distinct`` of them, so some repeat,
        # and ``repeated`` queries equal to calibration points
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(min(distinct, m), k)) * rng.uniform(0.5, 3.0, size=k)
        X = pool[rng.integers(0, len(pool), m)]
        model = _lvd_model_on(X, rng.choice(LIKERT.labels(), size=m), bandwidth, alpha)
        Z = np.vstack([rng.normal(size=(n, k)) * 2.0, X[rng.integers(0, m, repeated)]])
        with _exact_rows() as exact:
            got = _lvd_local_quantiles(model, Z)
        assert got.tobytes() == _dense_lvd_quantiles(model, Z).tobytes()
        assert sum(exact) <= len(Z) and len(exact) <= 1

    def test_rows_past_the_error_bound_are_exact(self):
        # with bw = 1e-6 the distance error over 2 bw^2 is far above 1e-6,
        # and most kernels underflow as well
        rng = np.random.default_rng(7)
        model = _lvd_model(rng, 60, 4, bandwidth=1e-6)
        Z = rng.normal(size=(15, 4))
        with _exact_rows() as exact:
            got = _lvd_local_quantiles(model, Z)
        assert exact == [15]
        assert got.tobytes() == _dense_lvd_quantiles(model, Z).tobytes()

    def test_positive_exponents_past_one_eta_are_clamped(self):
        # with bw = 1e-9 the exponents' error bound is in the thousands, so
        # a query on a calibration point may get an exponent far above 0;
        # unclamped, its exp would overflow
        rng = np.random.default_rng(9)
        model = _lvd_model(rng, 60, 4, bandwidth=1e-9)
        X = model.state["calib_logits"]
        Z = np.vstack([X * (1.0 + 1e-15), rng.normal(size=(5, 4))])
        with _exact_rows() as exact, warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _lvd_local_quantiles(model, Z)
        assert exact == [len(Z)]
        assert got.tobytes() == _dense_lvd_quantiles(model, Z).tobytes()

    def test_random_rows_are_all_certified(self):
        rng = np.random.default_rng(3)
        model = _lvd_model(rng, 300, 5)
        Z = rng.normal(size=(200, 5)) * 2.0
        with _exact_rows() as exact:
            got = _lvd_local_quantiles(model, Z)
        assert exact == []
        assert got.tobytes() == _lvd_exact_quantiles(model, Z).tobytes()

    def test_mass_landing_on_the_level_is_left_to_the_exact_path(self):
        # ten equal points weigh 0.1 each, and the exact cumsum reaches
        # 0.8999999999999999 at the ninth; alpha puts the level right there
        rng = np.random.default_rng(4)
        X = np.tile(rng.normal(size=(1, 3)), (10, 1))
        model = _lvd_model_on(X, np.array([1.0] * 8 + [2.0, 5.0]))
        Z = rng.normal(size=(1, 3))
        w = model.state["kernel"].weights_batch(X, Z)[:, model.state["sort_order"]]
        cum = np.cumsum(w, axis=1)[0]
        model = dataclasses.replace(model, alpha=_level_alpha(cum[8]))
        with _exact_rows() as exact:
            got = _lvd_local_quantiles(model, Z)
        assert exact == [1]
        assert got.tobytes() == _dense_lvd_quantiles(model, Z).tobytes()
        # the ninth score: the mass there equals the level, so it counts as reached
        assert got[0] == model.state["sorted_scores"][8] != model.state["sorted_scores"][9]

    def test_small_calls_take_the_exact_path(self):
        rng = np.random.default_rng(5)
        model = _lvd_model(rng, 250, 5)
        with _exact_rows(conformal._LOCATE_PAIRS) as exact:
            _lvd_local_quantiles(model, rng.normal(size=(1, 5)))
            _lvd_local_quantiles(model, rng.normal(size=(conformal._LOCATE_PAIRS // 250 + 1, 5)))
        # one served point against 250 calibration points stays exact
        assert exact == [1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e101])
    def test_degenerate_features_send_the_call_to_the_exact_path(self, bad):
        rng = np.random.default_rng(6)
        model = _lvd_model(rng, 40, 3)
        Z = rng.normal(size=(12, 3))
        Z[5, 1] = bad
        with _exact_rows() as exact:
            if np.isfinite(bad):
                assert _lvd_local_quantiles(model, Z).tobytes() == _dense_lvd_quantiles(model, Z).tobytes()
            else:
                with pytest.raises(ValidationError, match="degenerate features"):
                    _lvd_local_quantiles(model, Z)
        assert exact == [12]


def test_located_quantiles_at_eval_wide_size():
    # eval-wide's shape: 2000 calibration points against 4000 queries, 5
    # features.  The dense oracle's tensor for all 4000 would take 320 MB,
    # so it checks every 20th query.
    ds, _ = cj.generate(cj.GeneratorSpec(seed=7, n=8000, k=5, noise=cj.Heteroscedastic(0.5), scale=GPA_THIRDS))
    train, calib, test = cj.split(ds, cj.SplitSpec(7001))
    model = cj.calibrate("lvd", train, calib, 0.1)
    Z = test.logits
    assert (len(calib), len(Z)) == (2000, 4000)
    with _exact_rows(conformal._LOCATE_PAIRS) as exact:
        got = _lvd_local_quantiles(model, Z)
    assert exact == []
    assert got.tobytes() == _lvd_exact_quantiles(model, Z).tobytes()
    assert got[::20].tobytes() == _dense_lvd_quantiles(model, Z[::20]).tobytes()


def test_located_call_builds_its_row_factors_once(monkeypatch):
    # the queries' Gram rows [-2z, 1, |z|^2] and their bounds are made once
    # for the whole call, and each block takes its slice
    built = []
    gram_rows = conformal._gram_rows
    monkeypatch.setattr(conformal, "_gram_rows", lambda Z: built.append(len(Z)) or gram_rows(Z))
    rng = np.random.default_rng(3)
    model = _lvd_model(rng, 300, 5)
    Z = rng.normal(size=(1000, 5)) * 2.0
    with _exact_rows() as exact:
        got = _lvd_local_quantiles(model, Z)
    assert exact == [] and built == [len(Z)]
    # five blocks of queries
    assert len(Z) > 4 * estimators._block_rows(320)
    assert got.tobytes() == _lvd_exact_quantiles(model, Z).tobytes()


class TestMedianBandwidthBySelection:
    """The bandwidth selected pass by pass is the dense median's, bit for
    bit, whichever path the selection takes."""

    @pytest.fixture(autouse=True)
    def passes(self, monkeypatch):
        """Each selection pass's (lo, hi, below, inside, kept or None).
        Bisection alone needs at most 64 passes per middle rank, so more
        than 200 means the selection does not converge."""
        seen = []
        counted = estimators._pair_pass

        def recorded(Xs, lo, hi):
            assert len(seen) < 200, "the selection does not converge"
            below, inside, kept = counted(Xs, lo, hi)
            seen.append((lo, hi, below, inside, kept))
            return below, inside, kept

        monkeypatch.setattr(estimators, "_pair_pass", recorded)
        return seen

    @staticmethod
    def check(X):
        kernel = cj.KernelSimilarity(None).fit(X)
        bw = kernel.median_bandwidth(X)
        assert bw == _dense_median_bandwidth(kernel, X)
        return bw

    @pytest.mark.parametrize("cap", [None, 4])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 9, 10, 64, 65])
    def test_odd_and_even_pair_counts(self, monkeypatch, m, cap):
        # 1, 3, 6, 10, 15, 36, 45, 2016 and 2080 pairs
        if cap is not None:
            monkeypatch.setattr(estimators, "_SELECT_CAP", cap)
        self.check(np.random.default_rng(m).normal(size=(m, 3)))

    @pytest.mark.parametrize("cap", [None, 50, 300])
    def test_ties_across_the_median(self, monkeypatch, cap):
        # with a cap of 300 the sampled pivots fall on the bracket's own
        # bounds, so the selection must bisect to narrow it
        if cap is not None:
            monkeypatch.setattr(estimators, "_SELECT_CAP", cap)
        X = np.random.default_rng(0).integers(0, 3, size=(70, 2)).astype(float)
        self.check(X)
        Xs = cj.KernelSimilarity(None).fit(X)._standardize(X)
        d2 = np.sum((Xs[:, None] - Xs[None]) ** 2, axis=-1)[np.triu_indices(70, k=1)]
        n, median = len(d2), np.median(d2)
        # the median value repeats on both sides of the middle ranks
        assert (d2 < median).sum() <= (n - 1) // 2 - 10 and n - 1 - (d2 > median).sum() >= n // 2 + 10

    @pytest.mark.parametrize("cap", [None, 10])
    def test_all_points_equal(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(estimators, "_SELECT_CAP", cap)
        assert self.check(np.full((40, 3), 2.5)) == 1.0

    @pytest.mark.parametrize("k", [8, 13])
    def test_eight_or_more_features(self, monkeypatch, k):
        monkeypatch.setattr(estimators, "_SELECT_CAP", 100)
        self.check(np.random.default_rng(k).normal(size=(57, k)) * np.arange(1, k + 1))

    @pytest.mark.parametrize("entries", [1, 7, 64])
    def test_tiny_blocks(self, monkeypatch, entries):
        _small_blocks(monkeypatch, entries)
        monkeypatch.setattr(estimators, "_SELECT_CAP", 30)
        self.check(np.random.default_rng(entries).normal(size=(43, 4)))

    @pytest.mark.parametrize("fake", [0.0, 1e-300, 1e300], ids=["zero", "below", "above"])
    def test_forced_bracket_miss(self, monkeypatch, passes, fake):
        # a sample that says nothing about the distances
        monkeypatch.setattr(estimators, "_pair_sample", lambda Xs, size: np.full(size, fake))
        monkeypatch.setattr(estimators, "_SELECT_CAP", 40)
        m = 50
        self.check(np.random.default_rng(4).normal(size=(m, 3)))
        n_pairs = m * (m - 1) // 2
        lo, hi, below, inside, _ = passes[0]
        assert not below <= (n_pairs - 1) // 2 < n_pairs // 2 < below + inside
        assert passes[-1][4] is not None

    def test_forced_cap_overflow(self, monkeypatch, passes):
        # a 1000-pair sample brackets about 2500 of the 19900 distances
        monkeypatch.setattr(estimators, "_SELECT_CAP", 1000)
        self.check(np.random.default_rng(5).normal(size=(200, 3)))
        assert passes[0][3] > 1000 and passes[0][4] is None
        assert passes[-1][4] is not None

    def test_real_cap_one_pass(self, passes):
        # eval-wide's calibration size: one pass keeps the bracket.  The
        # oracle's tensor would take 160 MB here, so the pairs go row by row.
        X = np.random.default_rng(6).normal(size=(2000, 5))
        kernel = cj.KernelSimilarity(None).fit(X)
        Xs = kernel._standardize(X)
        pairs = np.concatenate([np.sum((Xs[i] - Xs[i + 1:]) ** 2, axis=-1) for i in range(len(Xs) - 1)])
        assert kernel.median_bandwidth(X) == float(np.sqrt(np.median(pairs)))
        assert len(passes) == 1 and len(passes[0][4]) <= estimators._SELECT_CAP

    def test_nan_distances_rejected(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        kernel = cj.KernelSimilarity(None).fit(X)
        for bad in (np.nan, np.inf):
            Y = X.copy()
            Y[[4, 9], 1] = bad  # NaN, or inf - inf between two points
            with pytest.raises(ValidationError, match="degenerate features"):
                kernel.median_bandwidth(Y)

    def test_overflowing_median_rejected(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 3))
        kernel = cj.KernelSimilarity(None).fit(X)
        # the dense median is inf here
        with np.errstate(over="ignore"):
            assert _dense_median_bandwidth(kernel, X * 1e200) == np.inf
        with pytest.raises(ValidationError, match="degenerate features"), np.errstate(over="ignore"):
            kernel.median_bandwidth(X * 1e200)


class TestLocatedPairPass:
    """A bracket narrower than [0, inf] is located by one Gram product per
    block, and only the pairs in it or within the product's bound of its
    ends get exact distances; each pass counts and keeps what the exact
    pass would."""

    @pytest.fixture(autouse=True)
    def work(self, monkeypatch):
        """The (row, point) entries of the Gram products and the pairs given
        exact distances one by one, and each pass's (lo, hi, result)."""
        seen = {"gram": 0, "exact": 0, "passes": []}
        gram, paired, counted = estimators._gram_product, estimators._paired_sq_distances, estimators._pair_pass

        def gram_counted(rows, factor, out=None):
            seen["gram"] += len(rows) * factor.shape[1]
            return gram(rows, factor, out)

        def paired_counted(X, i, j):
            seen["exact"] += len(i)
            return paired(X, i, j)

        def recorded(Xs, lo, hi):
            result = counted(Xs, lo, hi)
            seen["passes"].append((lo, hi, result))
            return result

        monkeypatch.setattr(estimators, "_gram_product", gram_counted)
        monkeypatch.setattr(estimators, "_paired_sq_distances", paired_counted)
        monkeypatch.setattr(estimators, "_pair_pass", recorded)
        return seen

    @staticmethod
    def pairs(Xs):
        return np.sum((Xs[:, None] - Xs[None]) ** 2, axis=-1)[np.triu_indices(len(Xs), k=1)]

    @pytest.mark.parametrize("cap", [20, 60, 200])
    def test_lattice_distances_on_the_bracket_ends(self, monkeypatch, work, cap):
        # integer features 0..2: the few distinct distances are shared by
        # many pairs, so the sampled pivots fall on distances that pairs
        # sit exactly on, and the Gram product misses some of them
        monkeypatch.setattr(estimators, "_SELECT_CAP", cap)
        X = np.random.default_rng(cap).integers(0, 3, size=(80, 3)).astype(float)
        kernel = cj.KernelSimilarity(None).fit(X)
        assert kernel.median_bandwidth(X) == _dense_median_bandwidth(kernel, X)
        Xs = kernel._standardize(X)
        d2 = self.pairs(Xs)
        gram = estimators._gram_sq_distances(Xs, estimators._gram_factor(Xs))[0][np.triu_indices(len(Xs), k=1)]
        narrow = [(lo, hi, result) for lo, hi, result in work["passes"] if hi < np.inf]
        assert narrow and work["gram"] > 0
        on_ends = off_by_rounding = 0
        for lo, hi, (below, inside, kept) in narrow:
            held = (d2 >= lo) & (d2 <= hi)
            assert (below, inside) == (np.count_nonzero(d2 < lo), np.count_nonzero(held))
            if kept is not None:
                assert np.sort(kept).tobytes() == np.sort(d2[held]).tobytes()
            ends = (d2 == lo) | (d2 == hi)
            on_ends += np.count_nonzero(ends)
            off_by_rounding += np.count_nonzero(ends & (gram != d2))
        assert on_ends > 0 and off_by_rounding > 0

    def test_eval_wide_size_recomputes_only_the_bracket(self, work):
        # eval-wide's calibration set: 2000 points, 5 features, 1999000
        # pairs in one pass; the oracle goes row by row
        ds, _ = cj.generate(cj.GeneratorSpec(seed=7, n=8000, k=5, noise=cj.Heteroscedastic(0.5), scale=GPA_THIRDS))
        _, calib, _ = cj.split(ds, cj.SplitSpec(7001))
        X = calib.logits
        kernel = cj.KernelSimilarity(None).fit(X)
        Xs = kernel._standardize(X)
        pairs = np.concatenate([np.sum((Xs[i] - Xs[i + 1:]) ** 2, axis=-1) for i in range(len(Xs) - 1)])
        assert kernel.median_bandwidth(X) == float(np.sqrt(np.median(pairs)))
        [(lo, hi, (below, inside, kept))] = work["passes"]
        assert 0 < lo <= hi < np.inf and len(kept) == inside <= estimators._SELECT_CAP
        # every pair went through the product, once per block of rows
        assert len(pairs) <= work["gram"] <= len(pairs) + len(X) * estimators._block_rows(len(X))
        # the bands of width e about lo and hi hold next to no pairs
        assert inside <= work["exact"] <= inside + 100
        assert work["exact"] < len(pairs) // 10

    @pytest.mark.parametrize("k, scale", [(8, 1.0), (13, 1.0), (3, 1e120)], ids=["k8", "k13", "past-1e100"])
    def test_exact_pass_kept(self, monkeypatch, work, k, scale):
        # from 8 features numpy adds a pair's terms pairwise, and the Gram
        # bound does not cover features past 1e100
        monkeypatch.setattr(estimators, "_SELECT_CAP", 100)
        X = np.random.default_rng(k).normal(size=(57, k)) * np.arange(1, k + 1)
        kernel = cj.KernelSimilarity(None).fit(X)
        Y = X * np.where(np.arange(k) == 0, scale, 1.0)
        assert kernel.median_bandwidth(Y) == _dense_median_bandwidth(kernel, Y)
        assert any(hi < np.inf for _, hi, _ in work["passes"])
        assert work["gram"] == work["exact"] == 0


def test_located_pass_computes_its_pairs_a_group_at_a_time(monkeypatch):
    # numpy keeps up to 7 freed buffers of each byte size under 1 KB; one
    # candidate array per block, of a size that changed block by block,
    # grew malloc's in-use bytes by 1.3 MB over 100 eval-wide medians
    groups = []
    paired = estimators._paired_sq_distances
    monkeypatch.setattr(estimators, "_paired_sq_distances", lambda X, i, j: groups.append(len(i)) or paired(X, i, j))
    ds, _ = cj.generate(cj.GeneratorSpec(seed=7, n=8000, k=5, noise=cj.Heteroscedastic(0.5), scale=GPA_THIRDS))
    for seed in (7001, 7002):
        _, calib, _ = cj.split(ds, cj.SplitSpec(seed))
        kernel = cj.KernelSimilarity(None).fit(calib.logits)
        kernel.median_bandwidth(calib.logits)
        # one narrow pass, whose last group takes what is left
        assert len(groups) > 10 and min(groups[:-1]) >= 1024, groups
        groups.clear()


def test_lvd_memory_stays_bounded():
    # the dense kernel peaked at 412 MB calibrating and 826 MB predicting here
    rng = np.random.default_rng(9)
    k = 5

    def dataset(n, prefix):
        Z = rng.normal(size=(n, k))
        labels = np.clip(np.round(3.0 + Z[:, 0]), 1, 5)
        return build_dataset(Z, labels, labels, prefix=prefix)

    train, calib = dataset(500, "t"), dataset(3000, "c")
    Z = rng.normal(size=(6000, k))
    mb = 2 ** 20
    tracemalloc.start()
    try:
        model = cj.calibrate("lvd", train, calib, 0.1)
        calibrate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        intervals = cj.predict_intervals(model, Z)
        predict_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(intervals) == 6000
    assert calibrate_peak < 64 * mb, calibrate_peak / mb
    assert predict_peak < 32 * mb, predict_peak / mb


def _traced_peak(run) -> int:
    """Peak traced bytes of ``run()`` above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_lvd_and_chr_peaks_grow_only_with_their_rows():
    # From n to 4n rows the peak may grow by per-row arrays of a few values
    # per feature or bin (here 4 per column plus 8) and one block, not with
    # the m(m-1)/2 pair distances of lvd's median (15 MB more from 500 to
    # 2000 calibration points) or chr's (n, T+1) level matrices (3.6 MB
    # more to predict 4000 rows than 1000, 5.3 MB to score them).
    rng = np.random.default_rng(12)
    k = 5
    block = estimators._BLOCK_ENTRIES * 8

    def dataset(n, prefix):
        # eval-wide's 13-label grid: chr's blocks hold 720 rows, so both
        # sizes fill whole blocks
        Z = rng.normal(size=(n, k))
        labels = GPA_THIRDS.nearest_label(3.0 + Z[:, 0])
        return build_dataset(Z, labels, labels, scale=GPA_THIRDS, prefix=prefix)

    def growth(peak, n, width):
        small, large = peak(n), peak(4 * n)
        return large - small, 3 * n * 8 * (4 * width + 8) + block

    train = dataset(300, "t")
    calib = {m: dataset(m, "c") for m in (500, 2000)}
    grew, bound = growth(lambda m: _traced_peak(lambda: cj.calibrate("lvd", train, calib[m], 0.1)), 500, k)
    assert grew <= bound, ("lvd calibrate", grew, bound)

    model = cj.calibrate("chr", train, dataset(300, "c"), 0.1)
    bins = len(GPA_THIRDS.labels())
    test = {n: dataset(n, "s") for n in (1000, 4000)}
    grew, bound = growth(lambda n: _traced_peak(lambda: cj.score_samples(model, test[n])), 1000, bins)
    assert grew <= bound, ("chr score", grew, bound)
    grew, bound = growth(lambda n: _traced_peak(lambda: cj.predict_intervals(model, test[n].logits)), 1000, bins)
    assert grew <= bound, ("chr predict", grew, bound)
