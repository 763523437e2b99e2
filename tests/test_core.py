import hashlib
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from confjudge.core import (
    _CHUNK_ROWS,
    Dataset,
    Interval,
    Intervals,
    LabelScale,
    SplitSpec,
    ValidationError,
    array,
    conformal_quantile,
    integer,
    lower_conformal_quantile,
    read_samples,
    real,
    row_problems,
    split,
    to_fine_grid,
    write_samples,
)

LIKERT = LabelScale(1, 5, 1)
THIRDS = LabelScale(1, 5, 1 / 3)


def brute_quantile(scores, alpha):
    # independent sort-and-index oracle
    ordered = sorted(scores)
    n = len(ordered)
    m = min(math.ceil((n + 1) * (1 - alpha)), n)
    return ordered[m - 1]


def make_dataset(n=20, scale=LIKERT, k=5, seed=0):
    rng = np.random.default_rng(seed)
    labels = scale.labels()
    rows = [(rng.choice(labels), rng.normal(size=k), rng.integers(1, 6)) for _ in range(n)]
    y, z, raw = zip(*rows)
    return Dataset([f"id{i}" for i in range(n)], z, raw, y, scale)


def one_row(logits=(0.0,) * 5, raw=3.0, label=3.0, sid="a"):
    return Dataset([sid], [logits], [raw], [label], LIKERT)


class TestConformalQuantile:
    def test_nine_scores_alpha_point1_takes_max(self):
        scores = [0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6]
        assert conformal_quantile(scores, 0.1) == max(scores)

    def test_degenerate_residuals(self):
        assert conformal_quantile([0.0, 0.0, 0.0, 0.0], 0.1) == 0.0

    def test_uniform_hundred_is_91st_order_statistic(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(size=100)
        assert conformal_quantile(scores, 0.1) == np.sort(scores)[90]
        assert conformal_quantile(scores, 0.1) == brute_quantile(scores, 0.1)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_matches_brute_force_all_sizes(self, alpha):
        rng = np.random.default_rng(11)
        for n in range(1, 201):
            scores = rng.normal(size=n)
            assert conformal_quantile(scores, alpha) == brute_quantile(scores, alpha)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=60),
        st.floats(0.01, 0.5),
        st.floats(0.01, 0.5),
    )
    def test_monotone_in_coverage_demand(self, scores, a1, a2):
        lo_alpha, hi_alpha = min(a1, a2), max(a1, a2)
        assert conformal_quantile(scores, lo_alpha) >= conformal_quantile(scores, hi_alpha)

    def test_error_messages(self):
        with pytest.raises(ValidationError, match="empty calibration"):
            conformal_quantile([], 0.1)
        with pytest.raises(ValidationError, match="invalid score"):
            conformal_quantile([1.0, math.nan], 0.1)
        with pytest.raises(ValidationError):
            conformal_quantile([1.0], 1.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
    def test_alpha_outside_unit_interval(self, alpha):
        for quantile in (conformal_quantile, lower_conformal_quantile):
            with pytest.raises(ValidationError, match="alpha must lie in"):
                quantile(np.arange(100.0), alpha)

    def test_ties_stable(self):
        assert conformal_quantile([1.0, 1.0, 2.0, 2.0], 0.5) == 2.0


class TestSplit:
    def test_sizes_ten_samples(self):
        ds = make_dataset(10)
        train, calib, test = split(ds, SplitSpec(3))
        assert len(test) == 5
        assert len(train) + len(calib) == 5
        assert len(train) in (2, 3) and len(calib) in (2, 3)

    def test_same_seed_identical(self):
        ds = make_dataset(40)
        a = split(ds, SplitSpec(9))
        b = split(ds, SplitSpec(9))
        for x, y in zip(a, b):
            assert x.ids == y.ids

    def test_is_partition(self):
        ds = make_dataset(33)
        train, calib, test = split(ds, SplitSpec(5, 0.6, 0.4))
        ids = [i for part in (train, calib, test) for i in part.ids]
        assert sorted(ids) == sorted(ds.ids)
        assert len(set(ids)) == len(ids)

    def test_thirty_seeds_distinct_test_sets(self):
        ds = make_dataset(1600)
        digests = set()
        for seed in range(1, 31):
            _, _, test = split(ds, SplitSpec(seed))
            digest = hashlib.sha256(",".join(test.ids).encode()).hexdigest()
            digests.add(digest)
        assert len(digests) == 30

    def test_degenerate_split_errors(self):
        ds = make_dataset(2)
        with pytest.raises(ValidationError, match="degenerate split"):
            split(ds, SplitSpec(1, 0.5, 0.5))
        with pytest.raises(ValidationError):
            SplitSpec(1, 0.0, 0.5)


class TestFineGrid:
    def test_thirds_maps_to_1_13(self):
        a, b = to_fine_grid(THIRDS)
        assert a * (14 / 3) + b == pytest.approx(12, abs=1e-9)
        assert a * 1.0 + b == pytest.approx(1, abs=1e-12)
        assert a * 5.0 + b == pytest.approx(13, abs=1e-9)

    def test_likert_identity(self):
        a, b = to_fine_grid(LIKERT)
        assert (a, b) == (1.0, 0.0)

    def test_interval_endpoints_on_fine_grid(self):
        a, b = to_fine_grid(THIRDS)
        assert a * 4.6 + b == pytest.approx(11.8, abs=1e-9)
        assert a * 4.9 + b == pytest.approx(12.7, abs=1e-9)

    def test_roundtrip_on_grid(self):
        for scale in (LIKERT, THIRDS, LabelScale(0, 10, 0.5)):
            a, b = to_fine_grid(scale)
            for y in scale.labels():
                assert (a * y + b - b) / a == pytest.approx(y, abs=1e-9)


class TestScale:
    def test_label_grid(self):
        assert LIKERT.n_labels == 5
        assert THIRDS.n_labels == 13
        np.testing.assert_allclose(LIKERT.labels(), [1, 2, 3, 4, 5])

    def test_invalid_scales(self):
        with pytest.raises(ValidationError):
            LabelScale(1, 5, 0)
        with pytest.raises(ValidationError):
            LabelScale(1, 5, 0.3)
        with pytest.raises(ValidationError):
            LabelScale(5, 1, 1)

    def test_on_grid_and_nearest(self):
        assert THIRDS.on_grid(14 / 3)
        assert not THIRDS.on_grid(4.5)
        assert THIRDS.nearest_label(4.6) == pytest.approx(14 / 3)
        assert LIKERT.nearest_label(7.2) == 5

    def test_nearest_label_elementwise(self):
        values = np.array([-3.0, 1.49, 1.5, 2.5, 3.5000001, 4.6, 7.2])
        # halves go to the even grid index, as Python's round does
        np.testing.assert_array_equal(LIKERT.nearest_label(values), [1, 1, 1, 3, 4, 5, 5])
        assert [LIKERT.nearest_label(v) for v in values] == LIKERT.nearest_label(values).tolist()


class TestIntervals:
    def test_coverage_fraction_from_example(self):
        intervals = Intervals([2, 4, 1], [4, 5, 2])
        assert intervals.covers(np.array([3.0, 4.0, 5.0])).mean() == pytest.approx(2 / 3)
        assert not intervals.empty.any()

    def test_zero_width_at_label_covers(self):
        intervals = Intervals([3, 5], [3, 5])
        assert intervals.covers(np.array([3.0, 5.0])).mean() == 1.0 and intervals.width.mean() == 0.0

    def test_empty_counts_nothing(self):
        intervals = Intervals([np.nan, 1], [np.nan, 5], [True, False])
        assert intervals.covers(np.array([3.0, 3.0])).mean() == 0.5 and intervals.empty.sum() == 1
        np.testing.assert_array_equal(intervals.width, [0.0, 4.0])

    def test_rows_match_scalar_intervals(self):
        rows = [Interval(2.0, 4.0), Interval(3.0, 3.0), Interval.make_empty(), Interval(1.0, 5.0)]
        batch = Intervals([r.lo for r in rows], [r.hi for r in rows], [r.empty for r in rows])
        labels = np.array([4.0 + 1e-10, 3.0, 3.0, 0.5])
        assert len(batch) == 4
        np.testing.assert_array_equal(batch.covers(labels), [r.covers(y) for r, y in zip(rows, labels)])
        np.testing.assert_array_equal(batch.width, [r.width for r in rows])
        assert batch[0] == rows[0] and batch[-1] == rows[-1] and batch[np.int64(1)] == rows[1]
        assert batch[2].empty and math.isnan(batch[2].lo)
        assert [(r.lo, r.hi) for r in batch[::3]] == [(2.0, 4.0), (1.0, 5.0)]
        assert [r.lo for r in batch[batch.width > 1.0]] == [2.0, 1.0]
        assert [r.hi for r in batch][:2] == [4.0, 3.0]
        with pytest.raises(IndexError):
            batch[4]

    def test_columns_are_read_only_copies(self):
        lo = np.array([1.0, 2.0])
        batch = Intervals(lo, [2.0, 2.0])
        lo[0] = 5.0
        assert batch.lo[0] == 1.0
        for copy in (batch, batch[:], Intervals._clamp(np.array([0.0, 2.0]), np.array([3.0, 9.0]), LIKERT)):
            for column in (copy.lo, copy.hi, copy.empty):
                with pytest.raises(ValueError):
                    column[0] = column[1]

    def test_invalid_batches_rejected(self):
        with pytest.raises(ValidationError, match="lo > hi"):
            Intervals([1.0, 3.0], [2.0, 2.0])
        with pytest.raises(ValidationError, match="equal length"):
            Intervals([1.0, 2.0], [2.0])
        with pytest.raises(ValidationError, match="equal length"):
            Intervals([[1.0]], [[2.0]])
        Intervals([3.0], [2.0], [True])  # an empty row's bounds are not compared

    def test_clamped_to_the_scale(self):
        batch = Intervals._clamp(np.array([0.2, 4.5, 5.5, 3.0]), np.array([1.5, 6.0, 7.0, 2.0]), LIKERT)
        assert [(r.lo, r.hi) for r in batch] == [(1.0, 1.5), (4.5, 5.0), (5.0, 5.0), (3.0, 3.0)]


class TestSamples:
    def test_off_grid_label_rejected(self):
        with pytest.raises(ValidationError, match="'a': label 3.2 off the scale grid"):
            one_row(label=3.2)

    def test_wrong_logit_count(self, tmp_path):
        path = tmp_path / "short.jsonl"
        recs = [{"id": "a", "logits": [0.0] * 5, "raw_score": 3.0, "label": 3.0},
                {"id": "b", "logits": [0.0] * 4, "raw_score": 3.0, "label": 3.0}]
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(ValidationError, match="line 2: sample 'b': expected 5 logits, got 4"):
            read_samples(path, LIKERT)
        # the whole file used to be parsed first, so a later line's parse error won
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ValidationError, match="line 2: sample 'b': expected 5 logits, got 4"):
            read_samples(path, LIKERT)

    def test_non_finite_logit(self):
        with pytest.raises(ValidationError, match="'a': non-finite"):
            one_row(logits=(0.0, 1.0, math.inf, 0.0, 0.0))
        with pytest.raises(ValidationError, match="non-finite"):
            one_row(logits=(0.0, math.nan, 0.0, 0.0, 0.0))

    def test_raw_score_range(self):
        with pytest.raises(ValidationError, match="'a': raw_score 6.0 outside scale range"):
            one_row(raw=6.0)
        with pytest.raises(ValidationError, match="outside scale range"):
            one_row(raw=math.nan)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate sample id 'a'"):
            Dataset(["a", "a"], np.zeros((2, 5)), [3.0, 3.0], [3.0, 3.0], LIKERT)

    def test_first_bad_row_raises(self):
        ds = make_dataset(6)
        labels = np.array(ds.labels)
        labels[[2, 4]] = 3.5
        with pytest.raises(ValidationError, match="'id2'"):
            Dataset(ds.ids, ds.logits, ds.raw_scores, labels, LIKERT)

    def test_row_problems_first_reason_per_row(self):
        logits = np.zeros((5, 5))
        logits[1, 0] = math.inf
        problems = row_problems(["a", "b", "a", "c", "b"], logits,
                                np.array([3.0, 9.0, 3.0, 3.0, 3.0]),
                                np.array([3.0, 3.5, 3.0, math.nan, 3.0]), LIKERT)
        assert problems == [(1, "sample 'b': non-finite logit"),
                            (2, "duplicate sample id 'a'"),
                            (3, "sample 'c': label nan off the scale grid"),
                            (4, "duplicate sample id 'b'")]

    def test_repeated_ids_of_mixed_types(self):
        # hash(-1) == hash(-2), and 1 == 1.0 as a set would count them
        assert row_problems([-1, "a", -2, (1, 2), 1, "1", 1.0, (1, 2)], np.zeros((8, 5)),
                            np.full(8, 3.0), np.full(8, 3.0), LIKERT) == [
            (6, "duplicate sample id 1.0"), (7, "duplicate sample id (1, 2)")]
        assert Dataset([-1, "a", -2, (1, 2)], np.zeros((4, 5)), [3.0] * 4, [3.0] * 4, LIKERT).ids[2] == -2

    def test_duplicate_check_holds_no_set_of_ids(self):
        # a set of these 20 000 ids took 2.6 MB; the columns' own checks
        # take about 0.2 MB
        n = 20000
        ids = tuple(f"sample-{i:06d}" for i in range(n))
        columns = np.zeros((n, 5)), np.full(n, 3.0), np.full(n, 3.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert row_problems(ids, *columns, LIKERT) == []
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_label_grid_tolerance_matches_on_grid(self):
        labels = np.array([1.0, 4.0 + 5e-7, 4.0 + 2e-6, 14 / 3, 4.5, 5.0 + 5e-7, 5.0 + 2e-6])
        expected = [THIRDS.on_grid(float(y)) for y in labels]
        assert expected == [True, True, False, True, False, True, False]
        assert list(THIRDS.on_grid(labels)) == expected

    def test_column_shapes_checked(self):
        with pytest.raises(ValidationError, match="logit matrix"):
            Dataset(["a", "b"], np.zeros((3, 5)), [3.0, 3.0], [3.0, 3.0], LIKERT)
        with pytest.raises(ValidationError, match="logit matrix"):
            Dataset(["a"], np.zeros(5), [3.0], [3.0], LIKERT)
        with pytest.raises(ValidationError, match="meta"):
            Dataset(["a"], np.zeros((1, 5)), [3.0], [3.0], LIKERT, meta=[{}, {}])


class TestDatasetColumns:
    def test_columns_are_read_only(self):
        ds = make_dataset(4)
        for column in (ds.logits, ds.raw_scores, ds.labels):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
        with pytest.raises(TypeError):
            ds.ids[0] = "x"
        with pytest.raises(TypeError):
            ds.meta[0] = {}

    def test_constructor_copies_its_inputs(self):
        z, meta = np.zeros((2, 5)), [{"dimension": "x"}, {}]
        ds = Dataset(["a", "b"], z, [3.0, 3.0], [3.0, 3.0], LIKERT, meta)
        z[0, 0], meta[0]["dimension"] = 7.0, "y"
        assert ds.logits[0, 0] == 0.0 and ds.meta[0] == {"dimension": "x"}
        assert ds.meta[1] == {} and ds.k == 5

    def test_subset_indexes_the_columns(self):
        ds = make_dataset(6)
        sub = ds.subset([4, 1, -1])
        assert sub.ids == ("id4", "id1", "id5")
        np.testing.assert_array_equal(sub.logits, ds.logits[[4, 1, 5]])
        np.testing.assert_array_equal(sub.labels, ds.labels[[4, 1, 5]])
        with pytest.raises(ValidationError, match="duplicate"):
            ds.subset([1, 1])

    def test_pickle_keeps_columns_read_only(self):
        ds = make_dataset(4)
        back = pickle.loads(pickle.dumps(ds, protocol=4))
        assert back.ids == ds.ids
        np.testing.assert_array_equal(back.logits, ds.logits)
        assert not back.logits.flags.writeable and not back.labels.flags.writeable


def wide_dataset(n: int, k: int = 13) -> Dataset:
    """n rows on the thirds grid with k logits each, meta on every third row."""
    rng = np.random.default_rng(n)
    labels = THIRDS.labels()
    return Dataset([f"s{i}" for i in range(n)], rng.normal(size=(n, k)), rng.choice(labels, n),
                   rng.choice(labels, n), THIRDS, [{"dimension": f"d{i}"} if i % 3 == 0 else {} for i in range(n)])


def with_meta(n: int) -> Dataset:
    ds = make_dataset(n)
    meta = [{"dimension": f"d{i % 3}"} if i % 2 else {} for i in range(n)]
    return Dataset(ds.ids, ds.logits, ds.raw_scores, ds.labels, LIKERT, meta)


class TestSubsetContract:
    """A subset gathers the parent's checked rows: it validates nothing
    again and rejects only a row picked twice."""

    @pytest.mark.parametrize("indices", [[5, -1], [0, 3, 0], [-6, 0], [2, 4, 1, 4]])
    def test_repeated_row_rejected_also_through_a_negative_alias(self, indices):
        ds = make_dataset(6)
        repeated = ds.ids[[i % 6 for i in indices][-1]]
        with pytest.raises(ValidationError, match=f"duplicate sample id '{repeated}'"):
            ds.subset(indices)

    def test_subset_of_a_subset_equals_the_direct_subset(self):
        ds = with_meta(10)
        outer = [7, -2, 0, 3, 9, 5]
        inner = [4, 0, -1, 2]
        nested, direct = ds.subset(outer).subset(inner), ds.subset([outer[i] for i in inner])
        assert nested.ids == direct.ids and nested.meta == direct.meta and nested.scale == direct.scale
        for a, b in ((nested.logits, direct.logits), (nested.raw_scores, direct.raw_scores),
                     (nested.labels, direct.labels)):
            assert np.array_equal(a, b) and not a.flags.writeable
        assert len(ds.subset([])) == 0 and ds.subset([4]).ids == ("id4",)

    def test_meta_rows_are_shared_read_only_mappings(self):
        ds = with_meta(6)
        sub = ds.subset([3, 0, 5])
        assert all(a is b for a, b in zip(sub.meta, (ds.meta[3], ds.meta[0], ds.meta[5])))
        assert sub.meta[0] == {"dimension": "d0"} and sub.meta[1] == {}
        with pytest.raises(TypeError):
            ds.meta[0]["x"] = "y"
        with pytest.raises(TypeError):
            sub.meta[0]["dimension"] = "y"
        assert make_dataset(3).meta[0] is make_dataset(3).meta[2]

    def test_meta_pickles_and_the_copy_stays_read_only(self):
        ds = with_meta(5)
        back = pickle.loads(pickle.dumps(ds, protocol=4))
        assert back.ids == ds.ids and back.meta == ds.meta and back.scale == ds.scale
        for a, b in ((back.logits, ds.logits), (back.raw_scores, ds.raw_scores), (back.labels, ds.labels)):
            assert np.array_equal(a, b) and not a.flags.writeable
        with pytest.raises(TypeError):
            back.meta[1]["x"] = "y"

    def test_read_then_write_keeps_the_bytes_with_meta(self, tmp_path):
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        write_samples(first, with_meta(7))
        back = read_samples(first, LIKERT)
        assert back.meta[1] == {"dimension": "d1"} and back.meta[0] == {}
        with pytest.raises(TypeError):
            back.meta[1]["x"] = "y"
        write_samples(again, back)
        assert again.read_bytes() == first.read_bytes()


class TestInterval:
    def test_closed_endpoints(self):
        iv = Interval(2.0, 4.0)
        assert iv.covers(2.0) and iv.covers(4.0) and iv.covers(3.0)
        assert not iv.covers(4.0000001)

    def test_empty(self):
        iv = Interval.make_empty()
        assert iv.empty and iv.width == 0.0 and not iv.covers(3.0)

    def test_inverted_rejected(self):
        with pytest.raises(ValidationError):
            Interval(3.0, 2.0)


class TestSampleIO:
    def test_roundtrip(self, tmp_path):
        ds = make_dataset(12)
        path = tmp_path / "samples.jsonl"
        write_samples(path, ds)
        back = read_samples(path, LIKERT)
        assert len(back) == 12
        np.testing.assert_allclose(back.logits, ds.logits)
        np.testing.assert_allclose(back.labels, ds.labels)

    def test_roundtrip_keeps_every_column(self, tmp_path):
        ds = make_dataset(3, scale=THIRDS)
        ds = Dataset(ds.ids, ds.logits, ds.raw_scores, ds.labels, THIRDS,
                     [{"dimension": "coherence"}, {}, {"dimension": "fluency"}])
        path = tmp_path / "samples.jsonl"
        write_samples(path, ds)
        back = read_samples(path, THIRDS)
        assert back.ids == ds.ids and back.meta == ds.meta
        for a, b in ((back.logits, ds.logits), (back.raw_scores, ds.raw_scores), (back.labels, ds.labels)):
            np.testing.assert_array_equal(a, b)
        write_samples(tmp_path / "again.jsonl", back)
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_invariant_errors_name_their_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"id": "x", "logits": [0.0] * 5, "raw_score": 3.0, "label": 3.0}
        lines = [good, {**good, "id": "y", "label": 3.3}, {**good, "id": "x"}]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        with pytest.raises(ValidationError, match="line 2: sample 'y': label 3.3 off the scale grid"):
            read_samples(path, LIKERT)
        path.write_text("".join(json.dumps(r) + "\n\n" for r in lines[::2]))
        with pytest.raises(ValidationError, match="line 3: duplicate sample id 'x'"):
            read_samples(path, LIKERT)
        path.write_text(json.dumps({**good, "meta": ["not", "a", "dict"]}) + "\n")
        with pytest.raises(ValidationError, match="line 1: malformed sample record"):
            read_samples(path, LIKERT)

    def test_line_numbered_json_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        ds = make_dataset(2)
        write_samples(path, ds)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_samples(path, LIKERT)

    def test_line_numbered_invariant_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "x", "logits": [0.0] * 5, "raw_score": 3.0, "label": 3.3, "meta": {}}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValidationError, match="line 1"):
            read_samples(path, LIKERT)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="no samples"):
            read_samples(path, LIKERT)

    @pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS])
    def test_roundtrip_across_chunk_boundaries(self, tmp_path, n):
        ds = wide_dataset(n)
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        write_samples(first, ds)
        back = read_samples(first, THIRDS)
        assert back.ids == ds.ids and back.meta == ds.meta
        for a, b in ((back.logits, ds.logits), (back.raw_scores, ds.raw_scores), (back.labels, ds.labels)):
            np.testing.assert_array_equal(a, b)
        write_samples(again, back)
        assert again.read_bytes() == first.read_bytes()

    def test_errors_in_a_later_chunk_name_their_line(self, tmp_path):
        # a blank line in the first chunk shifts every later line by one
        path = tmp_path / "bad.jsonl"
        write_samples(path, wide_dataset(_CHUNK_ROWS + 10))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        bad = _CHUNK_ROWS + 5

        def write(rows):
            lines = [json.dumps(r) + "\n" for r in rows]
            path.write_text("".join(lines[:3] + ["\n"] + lines[3:]))

        write([*rows[:bad], {**rows[bad], "logits": rows[bad]["logits"][:4]}, *rows[bad + 1:]])
        with pytest.raises(ValidationError, match=f"line {bad + 2}: sample 's{bad}': expected 13 logits, got 4"):
            read_samples(path, THIRDS)
        write([*rows[:bad], {**rows[bad], "label": 1.1}, *rows[bad + 1:]])
        with pytest.raises(ValidationError, match=f"line {bad + 2}: sample 's{bad}': label 1.1 off the scale grid"):
            read_samples(path, THIRDS)

    def test_read_and_write_hold_one_chunk_of_rows(self, tmp_path):
        # reading used to peak at 3.3 times what the returned dataset keeps,
        # as every record stayed Python lists until the end, and writing 1.2
        # times above it, as whole columns were converted to lists at once
        path = tmp_path / "samples.jsonl"
        write_samples(path, wide_dataset(20_000, k=5))
        tracemalloc.start()
        try:
            back = read_samples(path, THIRDS)
            kept, read_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            write_samples(tmp_path / "again.jsonl", back)
            write_peak = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        assert kept >= back.logits.nbytes + back.raw_scores.nbytes + back.labels.nbytes
        assert read_peak < 2 * kept
        assert write_peak < kept / 4


# the second line of a sample file; each used to load, raise an error other
# than ValidationError, or (meta) be read as an empty mapping
_GOOD_SAMPLE = {"id": "x", "logits": [0.0] * 5, "raw_score": 3.0, "label": 3.0}
_BAD_SAMPLES = {  # each with the message naming the field and value that break a type rule
    "logits a numeric string": ({**_GOOD_SAMPLE, "logits": "12345"}, "logits must be a list of numbers, got '12345'"),
    "raw_score a numeric string": ({**_GOOD_SAMPLE, "raw_score": "3"}, "raw_score must be a number, got '3'"),
    "label a bool": ({**_GOOD_SAMPLE, "label": True}, "label must be a number, got True"),
    "a bool among the logits": ({**_GOOD_SAMPLE, "logits": [True, 0.0, 0.0, 0.0, 0.0]},
                                "logits[0] must be a number, got True"),
    "label null": ({**_GOOD_SAMPLE, "label": None}, "label must be a number, got None"),
    "logits null": ({**_GOOD_SAMPLE, "logits": None}, "logits must be a list of numbers, got None"),
    "logits a nested list": ({**_GOOD_SAMPLE, "logits": [[0.0] * 5]}, "logits[0] must be a number, got [0.0,"),
    "meta a list": ({**_GOOD_SAMPLE, "meta": [1, 2]}, "meta must be an object, got [1, 2]"),
    "meta null": ({**_GOOD_SAMPLE, "meta": None}, "meta must be an object, got None"),
    "id null": ({**_GOOD_SAMPLE, "id": None}, "id must be a string or an integer, got None"),
    "id a bool": ({**_GOOD_SAMPLE, "id": True}, "id must be a string or an integer, got True"),
    "raw_score too large for a float": ({**_GOOD_SAMPLE, "raw_score": 10 ** 400},
                                        "raw_score must fit a float, got 1000"),
    "a logit too large for a float": ({**_GOOD_SAMPLE, "logits": [10 ** 400, 0, 0, 0, 0]},
                                      "logits[0] must fit a float, got 1000"),
    "record a list": ([1, 2], "record must be an object, got [1, 2]"),
    "record a string": ("x", "record must be an object, got 'x'"),
}


class TestSampleRecordTypes:
    @pytest.mark.parametrize("record, problem", list(_BAD_SAMPLES.values()), ids=list(_BAD_SAMPLES))
    def test_bad_record_names_its_line(self, tmp_path, record, problem):
        # a number-type defect used to be reported without naming its field
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({**_GOOD_SAMPLE, "id": "w"}) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match="line 2: malformed sample record") as err:
            read_samples(path, LIKERT)
        assert problem in str(err.value)

    def test_integers_load_as_floats(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text(json.dumps({"id": 7, "logits": [0, 1, 2, 3, 4], "raw_score": 3, "label": 4}) + "\n")
        ds = read_samples(path, LIKERT)
        assert ds.ids == ("7",) and ds.logits.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0]]
        assert ds.raw_scores.tolist() == [3.0] and ds.labels.tolist() == [4.0]

    def test_line_nested_past_the_recursion_limit_names_its_line(self, tmp_path):
        # it used to raise RecursionError, an internal error on the command line
        path = tmp_path / "deep.jsonl"
        path.write_text(json.dumps(_GOOD_SAMPLE) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(ValidationError, match="line 2: invalid JSON"):
            read_samples(path, LIKERT)

    def test_line_not_utf8_names_its_line(self, tmp_path):
        # it used to raise UnicodeDecodeError, an internal error on the command line
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(json.dumps(_GOOD_SAMPLE).encode() + b"\n" + b'{"id": "\xe9"}\n')
        with pytest.raises(ValidationError, match="line 2: invalid JSON"):
            read_samples(path, LIKERT)


class TestValueChecks:
    @pytest.mark.parametrize("value", [True, "3", None, [3], 10 ** 400, math.nan])
    def test_real_rejects(self, value):
        with pytest.raises(ValidationError, match="finite number"):
            real()(value)

    def test_real_reads_numpy_scalars(self):
        assert real()(np.float32(1.5)) == 1.5 and real()(np.int64(2)) == 2.0

    @pytest.mark.parametrize("value", [True, 3.0, "3", -1])
    def test_integer_rejects(self, value):
        with pytest.raises(ValidationError, match="integer >= 0"):
            integer(0)(value)

    @pytest.mark.parametrize("ndim, value", [(1, [True, 0.5]), (2, [[1.0, True]]), (1, np.array([True, False])),
                                             (1, ["1", 2.0]), (1, [None, 1.0]), (1, [[1.0]]), (2, [1.0]),
                                             (1, [10 ** 400])])
    def test_array_rejects(self, ndim, value):
        # numpy reads [True, 0.5] as a float array, so a bool among numbers used to pass
        with pytest.raises(ValidationError, match=f"{ndim}-D array"):
            array(ndim)(value)

    def test_array_reads_numpy_entries(self):
        assert array(1)([np.float64(1.5), np.int64(2), 3]).tolist() == [1.5, 2.0, 3.0]
        assert array(2, whole=True)(np.array([[1, 2]])).tolist() == [[1, 2]]
