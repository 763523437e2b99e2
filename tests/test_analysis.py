import hashlib
import multiprocessing
import statistics
import tracemalloc

import numpy as np
import pytest

import confjudge as cj
from confjudge import analysis, conformal, estimators
from confjudge.analysis import (
    EvalRow,
    _lm_from_aux,
    _midranks,
    bp_test,
    calibration_sweep,
    evaluate,
    human_baseline,
    kendall_tau_b,
    mae,
    midpoint_report,
    mse,
    pearson,
    spearman,
    weighted_average,
    white_test,
    write_eval_csv,
    write_het_csv,
    write_midpoints_csv,
    write_sweep_csv,
)
from confjudge.core import LabelScale, ValidationError, conformal_quantile

LIKERT = LabelScale(1, 5, 1)
REFERENCE_LOGITS = (-12.69, -9.06, -5.06, -1.06, -0.44)


class PolicyWithoutKind:
    """Passes evaluate's up-front policy check, then fails inside a cell the
    way a bug would."""

    def validate_for(self, scale):
        pass


def kendall_brute(x, y):
    # O(n^2) pair-counting oracle with tie correction
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx * dy > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) / 2
    denom = np.sqrt((n0 - ties_x) * (n0 - ties_y))
    return 0.0 if denom == 0 else (concordant - discordant) / denom


def kendall_dense(x, y):
    # the n x n sign-matrix formula the blocked sums replace
    n = len(x)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    concordant_minus_discordant = float((dx * dy).sum()) / 2.0
    n0 = n * (n - 1) / 2.0
    ties_x = (np.count_nonzero(dx == 0) - n) / 2.0
    ties_y = (np.count_nonzero(dy == 0) - n) / 2.0
    denom = np.sqrt((n0 - ties_x) * (n0 - ties_y))
    return 0.0 if denom <= 1e-300 else concordant_minus_discordant / denom


def midranks_loop(x):
    # the tie-group walk np.unique replaces
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j < len(x) and sx[j] == sx[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0
        i = j
    return ranks


def spearman_brute(x, y):
    def ranks(v):
        v = np.asarray(v, dtype=float)
        out = np.empty(len(v))
        for i, val in enumerate(v):
            less = np.sum(v < val)
            equal = np.sum(v == val)
            out[i] = less + (equal + 1) / 2.0
        return out

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    return 0.0 if denom == 0 else float((rx * ry).sum() / denom)


class TestMetrics:
    def test_perfect_and_shifted_scorers(self):
        y = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        assert mse(y, y) == 0.0 and mae(y, y) == 0.0
        assert pearson(y, y) == pytest.approx(1.0)
        assert spearman(y, y) == pytest.approx(1.0)
        assert kendall_tau_b(y, y) == pytest.approx(1.0)
        shifted = y + 1.0
        assert mse(shifted, y) == 1.0 and mae(shifted, y) == 1.0
        assert spearman(shifted, y) == pytest.approx(1.0)
        assert kendall_tau_b(shifted, y) == pytest.approx(1.0)

    def test_constant_column_reports_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        c = np.ones(3)
        assert pearson(c, y) == 0.0
        assert spearman(c, y) == 0.0
        assert kendall_tau_b(c, y) == 0.0

    def test_kendall_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for n in (5, 20, 100, 200):
            x = rng.integers(1, 6, size=n).astype(float)
            y = rng.integers(1, 6, size=n).astype(float)
            assert kendall_tau_b(x, y) == pytest.approx(kendall_brute(x, y), abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 150, 300, 1000])
    def test_blocked_kendall_equals_dense_formula(self, n):
        # rating data is tie-heavy: few distinct values on both sides, and
        # n >= 300 spans more than one block of rows
        rng = np.random.default_rng(n)
        for x, y in [(rng.integers(1, 6, size=n), rng.integers(1, 4, size=n)),
                     (rng.integers(1, 3, size=n), rng.normal(size=n).round(1)),
                     (np.full(n, 2.0), rng.integers(1, 6, size=n))]:
            x, y = x.astype(float), y.astype(float)
            assert kendall_tau_b(x, y) == kendall_dense(x, y)

    def test_kendall_memory_is_bounded(self):
        rng = np.random.default_rng(3)
        x, y = rng.integers(1, 6, size=(2, 4000)).astype(float)
        tracemalloc.start()
        try:
            kendall_tau_b(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each dense 4000 x 4000 sign matrix alone is 128 MB
        assert peak < 8 * 2 ** 20, peak / 2 ** 20

    def test_midranks_equal_the_sorting_loop(self):
        rng = np.random.default_rng(2)
        for x in (rng.integers(1, 6, size=200).astype(float), rng.normal(size=50), np.ones(7), np.array([])):
            np.testing.assert_array_equal(_midranks(x), midranks_loop(x))
        # the loop never ended on a NaN (NaN == NaN is false); the NaNs now share the last rank
        np.testing.assert_array_equal(_midranks(np.array([2.0, np.nan, 1.0, np.nan])), [2.0, 3.5, 1.0, 3.5])

    def test_spearman_matches_midrank_oracle(self):
        rng = np.random.default_rng(1)
        for n in (5, 50, 200):
            x = rng.integers(1, 6, size=n).astype(float)
            y = rng.normal(size=n)
            assert spearman(x, y) == pytest.approx(spearman_brute(x, y), abs=1e-12)


class TestWeightedAverage:
    def test_reference_logit_fixture(self):
        assert weighted_average(REFERENCE_LOGITS) == pytest.approx(4.64, abs=0.005)

    def test_second_logit_fixture(self):
        # same summary judged twice with a different raw score still lands
        # on nearly the same weighted average
        assert weighted_average((-11.67, -7.67, -3.67, -0.55, -0.92)) == pytest.approx(4.37, abs=0.005)

    def test_one_hot(self):
        assert weighted_average((-1e3, -1e3, 0.0, -1e3, -1e3)) == pytest.approx(3.0, abs=1e-9)

    def test_uniform(self):
        assert weighted_average((0.0,) * 5) == pytest.approx(3.0, abs=1e-12)

    def test_scale_mapping(self):
        thirds = LabelScale(1, 5, 1 / 3)
        assert weighted_average((0.0,) * 5, thirds) == pytest.approx(3.0, abs=1e-12)


@pytest.fixture(scope="module")
def dataset():
    ds, _ = cj.generate(cj.GeneratorSpec(seed=5, n=400, noise=cj.Homoscedastic(0.5)))
    return ds


class TestEvaluate:

    def test_basic_run_and_determinism(self, dataset):
        kw = dict(methods=["split_abs", "ordinal_aps"], seeds=[1, 2, 3], alpha=0.1)
        a = evaluate(dataset, **kw)
        b = evaluate(dataset, **kw)
        assert [r for r in a.rows] == [r for r in b.rows]
        assert set(a.aggregates) == {"split_abs", "ordinal_aps"}
        for r in a.rows:
            assert 0.0 <= r.coverage <= 1.0 and r.mean_width >= 0.0

    def test_adjusted_coverage_never_below_continuous(self, dataset):
        seeds = [1, 2, 3, 4]
        plain = evaluate(dataset, ["split_abs"], seeds)
        adjusted = evaluate(dataset, ["split_abs"], seeds,
                            policy=cj.AdjustmentPolicy.full(dataset.scale))
        for p, a in zip(plain.rows, adjusted.rows):
            assert a.coverage >= p.coverage

    def test_cell_error_recorded_not_fatal(self, dataset):
        # logits of +-1e308 overflow lvd's kernel distances; the raw score
        # split_abs serves does not read them
        Z = dataset.logits.copy()
        Z[:, 0] = np.where(np.arange(len(Z)) % 2 == 0, 1e308, -1e308)
        bad = cj.Dataset(dataset.ids, Z, dataset.raw_scores, dataset.labels, dataset.scale)
        with np.errstate(invalid="ignore", over="ignore"):
            report = evaluate(bad, ["split_abs", "lvd"], seeds=[1])
        assert ("split_abs", 1) in {(r.method, r.seed) for r in report.rows}
        assert report.errors == {("lvd", 1): "degenerate features"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_programming_error_propagates(self, dataset, jobs):
        # an AttributeError inside a cell is a bug, not a per-cell data problem
        with pytest.raises(AttributeError):
            evaluate(dataset, ["split_abs", "cqr"], seeds=[1], policy=PolicyWithoutKind(), jobs=jobs)

    @pytest.mark.parametrize("kw, match", [
        ({"alpha": 1.5}, r"alpha must lie in \(0, 1\)"),
        ({"alpha": 0.0}, r"alpha must lie in \(0, 1\)"),
        ({"policy": cj.AdjustmentPolicy("nearest", 0.9)}, "lambda must not exceed step/2"),
        ({"calib_fraction": 1.0}, "calib_fraction"),
        ({"inner_train_fraction": 0.0}, "inner_train_fraction"),
        # jobs 0 or -1 used to run serially without a word, and True as one job
        ({"jobs": 0}, "jobs must be an integer >= 1"),
        ({"jobs": -1}, "jobs must be an integer >= 1"),
        ({"jobs": True}, "jobs must be an integer >= 1"),
    ])
    def test_bad_alpha_policy_or_fraction_rejected_before_any_split(self, dataset, monkeypatch, kw, match):
        # each used to be filed once per cell as a data error, after the split
        calls = []
        monkeypatch.setattr(analysis, "split", lambda *a: calls.append(a) or cj.split(*a))
        with pytest.raises(ValidationError, match=match):
            evaluate(dataset, ["split_abs", "cqr"], seeds=[1, 2], **kw)
        assert calls == []

    @pytest.mark.parametrize("policy", [None, cj.AdjustmentPolicy("shrink"), cj.AdjustmentPolicy.full(LIKERT)])
    def test_rows_equal_the_scalar_path(self, dataset, policy):
        # each cell rebuilt one interval at a time with adjust and Interval.covers;
        # at alpha = 0.5 the intervals are narrow, and shrinking empties some
        methods, seeds = ["lvd", "ordinal_aps", "r2ccp", "split_abs"], [1, 2]  # the order of report.rows
        report = evaluate(dataset, methods, seeds, alpha=0.5, policy=policy)
        rows, empties = [], 0
        for method in methods:
            for seed in seeds:
                train, calib, test = cj.split(dataset, cj.SplitSpec(seed))
                model = cj.calibrate(method, train, calib, 0.5)
                intervals = cj.predict_intervals(model, test.logits, test.raw_scores)
                if policy is not None:
                    intervals = [cj.adjust(iv, dataset.scale, policy) for iv in intervals]
                widths = [0.0 if iv.empty else iv.width for iv in intervals]
                covered = sum(iv.covers(y) for iv, y in zip(intervals, test.labels))
                empties += sum(iv.empty for iv in intervals)
                rows.append(EvalRow(method, seed, analysis._policy_name(policy),
                                    float(np.mean(widths)), covered / len(test)))
        assert report.rows == rows
        assert report.empty_intervals == empties
        assert (empties > 0) == (policy == cj.AdjustmentPolicy("shrink"))

    @pytest.mark.parametrize("hyper, match", [
        ({"median": {}}, "unknown method 'median'"),
        ({"cqr": {"n_trees": "x"}}, "cqr hyperparameter 'n_trees'"),
        ({"lvd": {"bandwdith": 1.0}}, "lvd has no hyperparameter 'bandwdith'"),
        # checked although r2ccp does not run
        ({"r2ccp": {"epochs": -1}}, "r2ccp hyperparameter 'epochs'"),
    ])
    def test_bad_hyperparameters_rejected_before_any_split(self, dataset, monkeypatch, hyper, match):
        calls = []
        monkeypatch.setattr(analysis, "split", lambda *a: calls.append(a) or cj.split(*a))
        with pytest.raises(ValidationError, match=match):
            evaluate(dataset, ["split_abs", "cqr", "lvd"], seeds=[1, 2], hyper=hyper)
        assert calls == []
        evaluate(dataset, ["ordinal_aps"], seeds=[1])
        assert len(calls) == 1

    def test_one_split_per_seed(self, dataset, monkeypatch):
        # every (method, seed) cell, and every (fraction, seed) sweep cell, used to split again
        calls = []
        monkeypatch.setattr(analysis, "split", lambda *a: calls.append(a) or cj.split(*a))
        report = evaluate(dataset, ["split_abs", "ordinal_aps", "ordinal_rc"], seeds=[1, 2])
        assert len(report.rows) == 6 and len(calls) == 2
        calibration_sweep(dataset, "split_abs", [1, 2], [0.5, 0.75, 1.0])
        assert len(calls) == 4

    def test_failed_split_fails_every_method_of_its_seed(self, dataset):
        report = evaluate(dataset.subset([0, 1]), ["split_abs", "ordinal_aps"], seeds=[1, 2])
        assert report.rows == []
        assert report.errors == {(m, s): "degenerate split" for m in ("split_abs", "ordinal_aps") for s in (1, 2)}

    def test_unknown_method(self, dataset):
        with pytest.raises(ValidationError, match="valid"):
            evaluate(dataset, ["median"], seeds=[1])

    def test_parallel_matches_serial(self, dataset):
        kw = dict(methods=["split_abs", "ordinal_rc"], seeds=[1, 2], alpha=0.1)
        serial = evaluate(dataset, **kw, jobs=1)
        parallel = evaluate(dataset, **kw, jobs=2)
        assert serial.rows == parallel.rows

    def test_pool_sends_the_dataset_once_per_worker(self, dataset, monkeypatch):
        # every cell used to carry the dataset, pickled once per cell
        pickled = []
        reduce = cj.Dataset.__reduce__
        monkeypatch.setattr(cj.Dataset, "__reduce__", lambda ds: pickled.append(ds) or reduce(ds))
        report = evaluate(dataset, ["split_abs", "ordinal_rc", "ordinal_aps"], seeds=[1, 2, 3], jobs=2)
        assert len(report.rows) == 9 and not report.errors
        assert len(pickled) <= 2

    def test_a_seeds_classifier_methods_share_one_fit(self, dataset, monkeypatch, tmp_path):
        # run method by method, every chr fit would be replaced by the next
        # seed's before r2ccp of its seed ran: 6 fits for 3 seeds.  A pool
        # that hands out one cell per task leaves a seed's two cells to
        # different workers, each fitting its own classifier.  Forked
        # workers inherit the patched fit, which logs each fit to a file
        log = tmp_path / "fits"
        fit = estimators.BinClassifier.fit

        def logged(clf, X, y):
            with open(log, "a") as f:
                f.write("fit\n")
            return fit(clf, X, y)

        def fits():
            return log.read_text().count("fit") if log.exists() else 0

        monkeypatch.setattr(estimators.BinClassifier, "fit", logged)
        kw = dict(methods=["chr", "r2ccp"], seeds=[1, 2, 3])
        reports = {}
        for jobs in (1, 2):
            monkeypatch.setattr(conformal, "_last_classifier_fit", (None, None), raising=False)
            before = fits()
            reports[jobs] = evaluate(dataset, **kw, jobs=jobs)
            if jobs == 1 or multiprocessing.get_start_method() == "fork":
                assert fits() - before == 3, jobs
        serial, pooled = reports[1], reports[2]
        assert len(serial.rows) == 6 and not serial.errors
        assert (serial.rows, serial.aggregates, serial.errors) == (pooled.rows, pooled.aggregates, pooled.errors)

    def test_row_validation(self):
        with pytest.raises(ValidationError):
            EvalRow("m", 1, "none", 1.0, 1.5)


ALL_METHODS = ["split_abs", "cqr", "asym_cqr", "chr", "lvd", "r2ccp", "ordinal_aps", "ordinal_rc"]


@pytest.mark.parametrize("shape, expected", [
    ("readme", "cac004c179576157e16d7c4a9b7c300e6d328863e706f39d37b85ad03f1816c6"),
    ("eval_wide", "6ed1a7d0f853cc688ff269cca8e98728e4e73da1058a95356b922546b90eaa42"),
])
def test_evaluate_keeps_its_bits(tmp_path, shape, expected):
    """The sha256 of eval.csv for fixed seeds: the README workload's shape
    (n = 1000, all 8 methods, seeds 1-2) and the eval-wide benchmark's
    (n = 8000 on the thirds grid, heteroscedastic noise, full adjustment,
    seed 1).  A change that moves any width or coverage digit fails here."""
    if shape == "readme":
        ds = cj.generate(cj.GeneratorSpec(seed=1, n=1000))[0]
        report = evaluate(ds, ALL_METHODS, [1, 2])
    else:
        ds = cj.generate(cj.GeneratorSpec(seed=1, n=8000, scale=cj.GPA_THIRDS, noise=cj.Heteroscedastic(0.5)))[0]
        methods = [m for m in ALL_METHODS if m not in ("cqr", "asym_cqr")]
        report = evaluate(ds, methods, [1], policy=cj.AdjustmentPolicy.full(ds.scale))
    path = tmp_path / "eval.csv"
    write_eval_csv(path, report.rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


class TestMidpointReport:
    def test_biased_judge_direction(self):
        # judge reads the latent quality, labels sit one step above it:
        # interval midpoints track labels, the raw score keeps the bias
        ds, _ = cj.generate(cj.GeneratorSpec(seed=9, n=600, noise=cj.Asymmetric(1.0, 0.25)))
        rows = {r.scorer: r for r in midpoint_report(ds, seeds=[1, 2, 3], hyper={"epochs": 150})}
        assert rows["con_midpoint"].mse < rows["raw_score"].mse
        assert rows["dis_midpoint"].mse < rows["raw_score"].mse

    def test_row_shape(self):
        ds, _ = cj.generate(cj.GeneratorSpec(seed=10, n=300))
        rows = midpoint_report(ds, seeds=[1], hyper={"epochs": 60})
        assert [r.scorer for r in rows] == ["raw_score", "weighted_avg", "con_midpoint", "dis_midpoint"]

    def test_interval_scorers_equal_the_scalar_path(self):
        # midpoints rebuilt one interval at a time with adjust, midpoint and fallback_label
        ds, _ = cj.generate(cj.GeneratorSpec(seed=11, n=300, scale=cj.GPA_THIRDS))
        seeds, full = [1, 2], cj.AdjustmentPolicy.full(ds.scale)
        sums = {"con_midpoint": np.zeros(5), "dis_midpoint": np.zeros(5)}
        for seed in seeds:
            train, calib, test = cj.split(ds, cj.SplitSpec(seed))
            model = cj.calibrate("r2ccp", train, calib, 0.1, {"epochs": 60})
            intervals = list(cj.predict_intervals(model, test.logits))
            snapped = [cj.adjust(iv, ds.scale, full) for iv in intervals]
            preds = {"con_midpoint": np.array([cj.midpoint(iv) for iv in intervals]),
                     "dis_midpoint": np.array([cj.fallback_label(iv, ds.scale) if a.empty else cj.midpoint(a)
                                               for iv, a in zip(intervals, snapped)])}
            for name, p in preds.items():
                sums[name] += [mse(p, test.labels), mae(p, test.labels), pearson(p, test.labels),
                               spearman(p, test.labels), kendall_tau_b(p, test.labels)]
        rows = {r.scorer: r for r in midpoint_report(ds, seeds, hyper={"epochs": 60})}
        for name, v in sums.items():
            v = v / len(seeds)
            assert (rows[name].mse, rows[name].mae, rows[name].pearson, rows[name].spearman,
                    rows[name].kendall) == tuple(v), name


class TestHetTests:
    @staticmethod
    def lm_oracle(Z, y):
        # independent normal-equations route for the LM statistic
        n = Z.shape[0]
        X = np.column_stack([np.ones(n), Z])
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        e2 = (y - X @ beta) ** 2
        gamma = np.linalg.solve(X.T @ X, X.T @ e2)
        fitted = X @ gamma
        ssr = np.sum((e2 - fitted) ** 2)
        sst = np.sum((e2 - e2.mean()) ** 2)
        r2 = 1.0 - ssr / sst
        return n * r2

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            Z = rng.normal(size=(40, 3))
            y = Z @ rng.normal(size=3) + rng.normal(size=40)
            res = bp_test(Z, y)
            assert res.lm_stat == pytest.approx(self.lm_oracle(Z, y), abs=1e-8)

    def test_constant_squared_residuals_give_zero_lm(self):
        # R-squared is scale-free, so the homoscedastic-by-construction
        # claim is exercised on an exactly constant squared-residual vector
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(50, 2))
        res = _lm_from_aux(Z, np.ones(50))
        assert res.lm_stat == 0.0
        assert res.lm_p == 1.0
        assert res.f_p == 1.0

    def test_planted_heteroscedasticity_detected(self):
        rng = np.random.default_rng(4)
        Z = rng.uniform(0, 1, size=(500, 3))
        y = Z @ np.array([1.0, 0.5, -0.5]) + rng.normal(size=500) * (0.2 + 2.0 * Z[:, 0])
        assert bp_test(Z, y).lm_p < 0.01
        assert white_test(Z, y).lm_p < 0.01

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(80, 3))
        y = Z @ np.array([1.0, 2.0, 3.0]) + rng.normal(size=80)
        a = bp_test(Z, y).lm_stat
        b = bp_test(Z, 5.0 * y - 7.0).lm_stat
        assert a == pytest.approx(b, abs=1e-8)

    def test_white_expansion_dimensions(self):
        rng = np.random.default_rng(6)
        z1 = rng.normal(size=(60, 1))
        assert white_test(z1, rng.normal(size=60)).df == 2
        z5 = rng.normal(size=(120, 5))
        assert white_test(z5, rng.normal(size=120)).df == 20

    def test_white_drops_degenerate_columns(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(80, 2))
        Z = np.column_stack([base, np.full(80, 2.0)])
        res = white_test(Z, rng.normal(size=80))
        assert res.df < 3 + 3 + 3

    def test_needs_enough_rows(self):
        with pytest.raises(ValidationError):
            bp_test(np.zeros((3, 3)), np.zeros(3))

    def test_constant_sigma_synth_mostly_calm(self):
        # label snapping and edge clamping leave the residual variance only
        # approximately constant; small n and sigma keep that artifact
        # below the test's detection power
        calm = 0
        for seed in range(100):
            ds, _ = cj.generate(cj.GeneratorSpec(seed=seed, n=200, noise=cj.Homoscedastic(0.25)))
            calm += bp_test(ds.logits, ds.labels).lm_p > 0.05
        assert calm >= 90


@pytest.fixture(scope="module")
def sweep_dataset():
    ds, _ = cj.generate(cj.GeneratorSpec(seed=20, n=600, noise=cj.Homoscedastic(0.5)))
    return ds


class TestCalibrationSweep:

    def test_full_fraction_matches_plain_evaluate(self, sweep_dataset):
        # both run the same cell, so at fraction 1 every seed's coverage is evaluate's, bit for bit
        seeds = [1, 2, 3]
        report = evaluate(sweep_dataset, ["split_abs"], seeds)
        for row in report.rows:
            assert calibration_sweep(sweep_dataset, "split_abs", [row.seed], [1.0])[0].mean_coverage == row.coverage
        rows = calibration_sweep(sweep_dataset, "split_abs", seeds, [1.0])
        assert rows[0].mean_coverage == report.aggregates["split_abs"]["mean_coverage"]

    def test_point_predictor_from_hyper(self, sweep_dataset):
        # the keyword's default used to override hyper, giving raw-score rows
        seeds, fractions = [1, 2], [0.5, 1.0]
        by_hyper = calibration_sweep(sweep_dataset, "split_abs", seeds, fractions,
                                     hyper={"point_predictor": "ridge"})
        by_keyword = calibration_sweep(sweep_dataset, "split_abs", seeds, fractions, point_predictor="ridge")
        raw = calibration_sweep(sweep_dataset, "split_abs", seeds, fractions)
        assert by_hyper == by_keyword
        assert by_hyper != raw
        # other methods used to ignore the keyword without a word
        with pytest.raises(ValidationError, match="ordinal_aps has no hyperparameter 'point_predictor'"):
            calibration_sweep(sweep_dataset, "ordinal_aps", seeds, fractions, point_predictor="ridge")

    def test_cells_equal_the_documented_draw(self, sweep_dataset):
        # each (seed, fraction) cell subsamples train, then calib, with one
        # generator seeded by [seed, round(fraction * 1e6)]
        seeds, fraction, covs = [1, 2], 0.5, []
        for seed in seeds:
            train, calib, test = cj.split(sweep_dataset, cj.SplitSpec(seed))
            rng = np.random.default_rng([seed, 500_000])
            train, calib = [d.subset(np.sort(rng.choice(len(d), size=round(fraction * len(d)), replace=False)))
                            for d in (train, calib)]
            model = cj.calibrate("split_abs", train, calib, 0.1, point_predictor="ridge")
            intervals = cj.predict_intervals(model, test.logits, test.raw_scores)
            covs.append(int(intervals.covers(test.labels).sum()) / len(test))
        (row,) = calibration_sweep(sweep_dataset, "split_abs", seeds, [fraction], point_predictor="ridge")
        assert (row.mean_coverage, row.std_coverage) == (statistics.fmean(covs), statistics.pstdev(covs))

    def test_tiny_fraction_skipped(self, sweep_dataset):
        rows = calibration_sweep(sweep_dataset, "split_abs", [1], [0.01])
        assert rows[0].skipped

    def test_bad_fraction(self, sweep_dataset):
        with pytest.raises(ValidationError):
            calibration_sweep(sweep_dataset, "split_abs", [1], [1.5])


def _seeded_run(name, dataset, seeds=(1, 2), hyper=None, fractions=(0.5, 1.0), **kw):
    """One of the three seeded runs on split_abs (midpoint_report always runs r2ccp)."""
    if name == "evaluate":
        return evaluate(dataset, ["split_abs"], seeds, hyper=hyper and {"split_abs": hyper}, **kw)
    if name == "midpoint_report":
        return midpoint_report(dataset, seeds, hyper=hyper, **kw)
    return calibration_sweep(dataset, "split_abs", seeds, fractions, hyper=hyper, **kw)


_BAD_RUNS = [
    ({"seeds": []}, "need at least one seed"),
    ({"alpha": 0.0}, r"alpha must lie in \(0, 1\)"),
    ({"alpha": 1.5}, r"alpha must lie in \(0, 1\)"),
    ({"calib_fraction": 1.0}, "calib_fraction"),
    ({"hyper": {"bogus": 1}}, "has no hyperparameter 'bogus'"),
]


class TestSeededRunChecks:
    @pytest.mark.parametrize("run, kw, match", [
        (run, kw, match) for run in ("evaluate", "midpoint_report", "calibration_sweep") for kw, match in _BAD_RUNS
    ] + [("calibration_sweep", {"fractions": [0.5, 1.5]}, r"fractions must lie in \(0, 1\]")])
    def test_bad_configuration_rejected_before_any_split(self, dataset, monkeypatch, run, kw, match):
        # the sweep used to return skipped rows for no seeds, fit every 0.5 cell
        # before rejecting 1.5, and report alpha 0 as a forest's "tau must lie
        # in (0, 1)"; the midpoint report checked only its seeds
        def no_split(*args):
            raise AssertionError("split before the configuration was checked")

        monkeypatch.setattr(analysis, "split", no_split)
        with pytest.raises(ValidationError, match=match):
            _seeded_run(run, dataset, **kw)



class TestRepeatedSeedsAndMethods:
    @pytest.fixture()
    def no_split(self, monkeypatch):
        def split(*args):
            raise AssertionError("split before the configuration was checked")

        monkeypatch.setattr(analysis, "split", split)

    @pytest.mark.parametrize("run", ["evaluate", "midpoint_report", "calibration_sweep"])
    def test_repeated_seed_rejected_before_any_split(self, dataset, no_split, run):
        # midpoint_report and calibration_sweep used to count seed 1 twice,
        # and evaluate to fit its cells twice and keep one row
        with pytest.raises(ValidationError, match="repeat a seed"):
            _seeded_run(run, dataset, seeds=[1, 2, 1])

    def test_repeated_seed_rejected_by_human_baseline(self):
        with pytest.raises(ValidationError, match="repeat a seed"):
            human_baseline([[1, 2, 3]] * 20, seeds=[3, 3])

    def test_repeated_method_rejected_before_any_split(self, dataset, no_split):
        # every cqr cell used to be fitted twice
        with pytest.raises(ValidationError, match="repeat a method"):
            evaluate(dataset, ["cqr", "split_abs", "cqr"], seeds=[1])

class TestHumanBaseline:
    def test_identical_annotators(self):
        rows = human_baseline([[3.0, 3.0, 3.0]] * 40, seeds=[1, 2])
        for r in rows:
            assert r.mean_width == 0.0 and r.coverage == 1.0

    def test_enumeration_oracle(self):
        # annotations {y-1, y, y+1}: the mean is y, so residuals are 0 for
        # the middle pick and 1 otherwise; qhat is 1 unless at least
        # ceil((n_cal+1) * 0.9) calibration picks hit the middle
        rng_check = np.random.default_rng(0)
        ann = [[2.0, 3.0, 4.0]] * 60
        for seed in (1, 2, 3, 4, 5):
            rng = np.random.default_rng(seed)
            picks = np.array([a[rng.integers(3)] for a in ann])
            perm = rng.permutation(60)
            cal = perm[:30]
            resid = np.abs(picks[cal] - 3.0)
            expected = conformal_quantile(resid, 0.1)
            row = human_baseline(ann, alpha=0.1, seeds=[seed])[0]
            assert row.mean_width == pytest.approx(2.0 * expected)
        _ = rng_check

    def test_third_step_annotations_give_fractional_quantiles(self):
        # {y, y, y+2}: mean y + 2/3, residuals {2/3, 2/3, 4/3}; which one
        # becomes qhat depends on the draw (alpha = 0.4 makes both likely)
        ann = [[3.0, 3.0, 5.0]] * 50
        widths = set()
        for seed in range(1, 40):
            row = human_baseline(ann, alpha=0.4, seeds=[seed])[0]
            widths.add(round(row.mean_width, 9))
        assert widths == {round(4 / 3, 9), round(8 / 3, 9)}

    def test_validation(self):
        with pytest.raises(ValidationError, match="two annotations"):
            human_baseline([[1.0]] * 10)

    @pytest.mark.parametrize("kw, message", [
        ({"seeds": []}, "need at least one seed"),
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": 1.5}, "alpha"),
        ({"calib_fraction": 0.0}, "calib_fraction"),
        ({"calib_fraction": 1.0}, "calib_fraction"),
    ])
    def test_bad_run_configuration_rejected_before_any_draw(self, monkeypatch, kw, message):
        # an empty seed list used to return [] and a bad alpha to fail only
        # after the first draw
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking the configuration")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValidationError, match=message):
            human_baseline([[1, 2, 3]] * 20, **kw)


class TestCsvWriters:
    def test_fixed_headers_and_decimals(self, tmp_path):
        rows = [EvalRow("cqr", 1, "none", 1.23456789, 0.9)]
        path = tmp_path / "eval.csv"
        write_eval_csv(path, rows)
        text = path.read_text().splitlines()
        assert text[0] == "method,seed,policy,mean_width,coverage"
        assert text[1] == "cqr,1,none,1.234568,0.900000"

    def test_other_writers(self, tmp_path):
        ds, _ = cj.generate(cj.GeneratorSpec(seed=30, n=200))
        mrows = midpoint_report(ds, seeds=[1], hyper={"epochs": 20})
        write_midpoints_csv(tmp_path / "midpoints.csv", mrows)
        head = (tmp_path / "midpoints.csv").read_text().splitlines()[0]
        assert head == "scorer,mse,mae,pearson,spearman,kendall,flagged"

        res = bp_test(ds.logits, ds.labels)
        write_het_csv(tmp_path / "het.csv", [("all", "bp", res)])
        head = (tmp_path / "het.csv").read_text().splitlines()[0]
        assert head == "dimension,test,lm_stat,lm_p,f_stat,f_p"

        srows = calibration_sweep(ds, "split_abs", [1, 2], [0.5, 1.0])
        write_sweep_csv(tmp_path / "sweep.csv", srows)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "fraction,mean_coverage,std_coverage"
        assert len(lines) == 3
