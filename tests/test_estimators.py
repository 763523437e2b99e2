import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confjudge as cj
import confjudge.estimators as estimators
from confjudge.core import Dataset, LabelScale, ValidationError
from confjudge.estimators import (
    BinClassifier,
    KernelSimilarity,
    QuantileForest,
    RidgePredictor,
    _SegmentQuantiles,
    _Tree,
    ols,
    pinball_loss,
)

LIKERT = LabelScale(1, 5, 1)


def dataset_from_arrays(Z, y, scale=LIKERT):
    return Dataset([f"s{i}" for i in range(len(y))], Z, np.clip(np.round(y), 1, 5), y, scale)


class TestQuantileForest:
    def test_constant_labels(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        y = np.full(50, 3.0)
        qf = QuantileForest(0.5, n_trees=20, depth=2, lr=0.05, min_leaf=5).fit(X, y)
        np.testing.assert_allclose(qf.predict(rng.normal(size=(10, 3))), 3.0)

    def test_zero_trees_is_empirical_quantile(self):
        X = np.zeros((5, 2))
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        qf = QuantileForest(0.5, n_trees=0, depth=3, lr=0.05, min_leaf=10).fit(X, y)
        np.testing.assert_allclose(qf.predict(np.zeros((3, 2))), 3.0)

    def test_beats_constant_model_on_heteroscedastic_signal(self):
        # oracle: the constant empirical-quantile model, refit per run
        wins = 0
        runs = 50
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            X = rng.uniform(0, 4, size=(300, 2))
            y = X[:, 0] + rng.normal(0, 0.3, size=300)
            Xt = rng.uniform(0, 4, size=(200, 2))
            yt = Xt[:, 0] + rng.normal(0, 0.3, size=200)
            qf = QuantileForest(0.9, n_trees=60, depth=2, lr=0.1, min_leaf=10).fit(X, y)
            fitted = pinball_loss(yt, qf.predict(Xt), 0.9)
            constant = pinball_loss(yt, np.full(200, np.quantile(y, 0.9)), 0.9)
            wins += fitted < constant
        assert wins >= 48

    def test_unconditional_coverage_near_tau(self):
        rng = np.random.default_rng(3)
        for tau in (0.1, 0.5, 0.9):
            X = rng.uniform(0, 4, size=(2000, 2))
            y = X[:, 0] + rng.normal(0, 0.5, size=2000)
            qf = QuantileForest(tau, n_trees=80, depth=2, lr=0.1, min_leaf=20).fit(X, y)
            Xt = rng.uniform(0, 4, size=(2000, 2))
            yt = Xt[:, 0] + rng.normal(0, 0.5, size=2000)
            cover = np.mean(yt <= qf.predict(Xt))
            assert abs(cover - tau) < 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 4))
        y = rng.normal(size=100)
        a = QuantileForest(0.7, n_trees=15, depth=3, lr=0.05, min_leaf=10).fit(X, y).predict(X)
        b = QuantileForest(0.7, n_trees=15, depth=3, lr=0.05, min_leaf=10).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        qf = QuantileForest(0.5, n_trees=10, depth=3, lr=0.05, min_leaf=10).fit(X, y)
        back = QuantileForest.from_dict(qf.to_dict())
        np.testing.assert_array_equal(qf.predict(X), back.predict(X))
        # v1 documents also carried an unused "seed" entry
        legacy = QuantileForest.from_dict({**qf.to_dict(), "seed": 0})
        np.testing.assert_array_equal(qf.predict(X), legacy.predict(X))

    def test_fit_from_dataset(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(60, 5))
        y = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=60)
        ds = dataset_from_arrays(Z, y)
        qf = QuantileForest(0.5, n_trees=5, depth=3, lr=0.05, min_leaf=10).fit(ds.logits, ds.labels)
        assert np.all(np.isfinite(qf.predict(Z)))

    @pytest.mark.parametrize("kw", [{"lr": float("nan")}, {"lr": 0.0}, {"lr": "0.1"}, {"depth": -1},
                                    {"depth": 2.5}, {"min_leaf": 0}, {"n_trees": -1}, {"n_trees": True}])
    def test_bad_hyperparameters_rejected(self, kw):
        # lr = nan used to fit and predict NaN, and depth -1 or min_leaf 0 to be accepted
        with pytest.raises(ValidationError, match=f"forest {next(iter(kw))}"):
            QuantileForest(0.5, **{"n_trees": 5, "depth": 3, "lr": 0.05, "min_leaf": 10, **kw})

    @pytest.mark.parametrize("tau", ["x", None, True, 0.0, 1.0, 1.5, float("nan")])
    def test_bad_tau_rejected(self, tau):
        # a string used to raise TypeError from the comparison with 0 and 1
        with pytest.raises(ValidationError, match="forest tau"):
            QuantileForest(tau, n_trees=5, depth=3, lr=0.05, min_leaf=10)

    def test_hyperparameters_stored_as_plain_numbers(self):
        qf = QuantileForest(0.5, n_trees=np.int64(5), depth=np.int64(2), lr=np.float32(0.5), min_leaf=np.int64(3))
        assert [type(v) for v in (qf.n_trees, qf.depth, qf.lr, qf.min_leaf)] == [int, int, float, int]


# The recursive, one-feature-at-a-time builder that QuantileForest.fit
# replaced, kept as the oracle: it grows every round's tree afresh, so the
# presorted depth-first builder, which numbers each node as it takes it off
# an explicit stack and reuses a sign pattern's cuts whenever the pattern
# recurs, must give the same splits, thresholds, leaf values and node
# numbering.


def _best_split(X: np.ndarray, g: np.ndarray, min_leaf: int):
    n = g.shape[0]
    if n < 2 * min_leaf:
        return None
    best = None
    total = g.sum()
    total_sq = (g * g).sum()
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        gs = g[order]
        csum = np.cumsum(gs)[:-1]
        csq = np.cumsum(gs * gs)[:-1]
        k = np.arange(1, n)
        valid = (xs[1:] > xs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not valid.any():
            continue
        sse = (csq - csum * csum / k) + ((total_sq - csq) - (total - csum) ** 2 / (n - k))
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        if not math.isfinite(sse[i]):
            continue
        thr = 0.5 * (xs[i] + xs[i + 1])
        if best is None or sse[i] < best[2] - 1e-12:
            best = (j, thr, float(sse[i]))
    return best


def _reference_fit(tau, n_trees, depth, lr, min_leaf, X, y) -> dict:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    keys = ("feature", "thresh", "left", "right", "value")

    def build(tree, g, resid, rows, depth_left):
        node = len(tree["value"])
        for key, empty in zip(keys, (-1, 0.0, -1, -1, 0.0)):
            tree[key].append(empty)
        split = _best_split(X[rows], g[rows], min_leaf) if depth_left > 0 else None
        if split is None:
            tree["value"][node] = float(np.quantile(resid[rows], tau))
            return node
        j, thr, _ = split
        tree["feature"][node] = j
        tree["thresh"][node] = thr
        mask = X[rows, j] <= thr
        tree["left"][node] = build(tree, g, resid, rows[mask], depth_left - 1)
        tree["right"][node] = build(tree, g, resid, rows[~mask], depth_left - 1)
        return node

    base = float(np.quantile(y, tau))
    trees = []
    pred = np.full(len(y), base)
    for _ in range(n_trees):
        resid = y - pred
        g = np.where(resid > 0, tau, tau - 1.0)
        tree = {key: [] for key in keys}
        build(tree, g, resid, np.arange(len(y)), depth)
        tree = _Tree(*(tree[key] for key in keys))
        trees.append(tree.to_dict())
        pred = pred + lr * tree.predict(X)
    return {"kind": "quantile_forest", "v": 1, "tau": tau, "n_trees": n_trees, "depth": depth,
            "lr": lr, "min_leaf": min_leaf, "base": base, "trees": trees}


def _oracle_data(kind: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = X[:, 0] + rng.normal(0.0, 0.5, size=n)
    if kind == "rounded":
        X, y = np.round(X, 1), np.round(y)
    elif kind == "discrete":
        X = rng.integers(0, 3, size=(n, 4)).astype(float)
        y = np.round(X[:, 1] + rng.normal(0.0, 0.7, size=n))
    elif kind == "constant_column":
        X[:, 0] = 2.5
    return X, y


class TestLevelWiseBuilderMatchesRecursiveOracle:
    @pytest.mark.parametrize("tau", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("kind", ["continuous", "rounded", "discrete", "constant_column"])
    def test_grid(self, tau, kind):
        X, y = _oracle_data(kind, 60, seed=int(tau * 100))
        for depth in range(5):
            for min_leaf in (1, 3, 10, 25):
                args = (tau, 4, depth, 0.1, min_leaf)
                got = QuantileForest(*args).fit(X, y).to_dict()
                assert got == _reference_fit(*args, X, y), (depth, min_leaf)

    @pytest.mark.parametrize("n", [1, 2, 9, 19])
    def test_fewer_rows_than_two_leaves(self, n):
        X, y = _oracle_data("rounded", n, seed=n)
        for min_leaf in (1, 10):
            args = (0.5, 3, 3, 0.1, min_leaf)
            assert QuantileForest(*args).fit(X, y).to_dict() == _reference_fit(*args, X, y)

    def test_zero_trees(self):
        X, y = _oracle_data("continuous", 30, seed=1)
        args = (0.95, 0, 3, 0.1, 5)
        assert QuantileForest(*args).fit(X, y).to_dict() == _reference_fit(*args, X, y)

    def test_tied_values_keep_row_order(self):
        # on this data, summing the gradients of tied rows in another order
        # than row order moves a cut
        X = np.array([float(c) for c in "02021220212000220100101120200100201222202211102022111121100220101"])
        y = np.array([float(c) for c in "42001343310231333331212224403310030410204023031313243422200301442"])
        args = (0.1, 6, 3, 0.1, 4)
        assert QuantileForest(*args).fit(X[:, None], y).to_dict() == _reference_fit(*args, X[:, None], y)

    def test_midpoint_rounding_to_upper_value(self):
        # the midpoint of 1+2^-52 and 1+2^-51 rounds to the upper value, so
        # the rows at the cut route left; both builders must agree on that
        a, b = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
        X = np.array([[a]] * 4 + [[b]] * 4 + [[2.0]] * 4)
        y = np.array([0.0] * 4 + [5.0] * 8)
        args = (0.5, 3, 1, 0.1, 2)
        got = QuantileForest(*args).fit(X, y).to_dict()
        assert got == _reference_fit(*args, X, y)
        assert got["trees"][0]["thresh"][0] == b

    def test_midpoint_rounding_that_empties_a_side_keeps_a_leaf(self):
        # the recursive builder crashed here (quantile of an empty leaf)
        a, b = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
        X = np.array([[a]] * 4 + [[b]] * 4)
        y = np.array([0.0] * 4 + [5.0] * 4)
        qf = QuantileForest(0.5, n_trees=3, depth=2, lr=0.1, min_leaf=2).fit(X, y)
        assert all(len(t.feature) == 1 for t in qf.trees)
        assert np.all(np.isfinite(qf.predict(X)))

    def test_non_finite_labels_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            QuantileForest(0.5, n_trees=2, depth=3, lr=0.05, min_leaf=10).fit(np.zeros((3, 1)), np.array([1.0, np.nan, 2.0]))


def _sign_patterns(doc: dict, X, y) -> list:
    """The residual sign pattern of each round of a forest document."""
    pred, patterns = np.full(len(y), doc["base"]), []
    for tree in doc["trees"]:
        patterns.append((y - pred > 0).tobytes())
        pred = pred + doc["lr"] * _Tree(**tree).predict(X)
    return patterns


class TestRepeatedGradientsReuseTheTree:
    """Every gradient is tau or tau - 1, so rounds with one residual sign
    pattern have one gradient; fit grows each pattern's cuts once, reuses
    them in the pattern's later rounds, and counts in ``n_grown`` only the
    rounds it grew.  Either way the forest must equal the oracle's."""

    @pytest.mark.parametrize("tau", [0.05, 0.95])
    def test_rounded_labels_reuse_most_rounds(self, tau):
        X, y = _oracle_data("discrete", 80, seed=1)
        args = (tau, 40, 3, 0.05, 5)
        qf = QuantileForest(*args).fit(X, y)
        assert qf.to_dict() == _reference_fit(*args, X, y)
        # g changed after the first round, yet most rounds reused a tree
        assert 2 <= qf.n_grown <= 10

    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.7])
    def test_continuous_labels_grow_every_round(self, tau):
        X, y = _oracle_data("continuous", 80, seed=4)
        args = (tau, 40, 3, 0.5, 5)
        qf = QuantileForest(*args).fit(X, y)
        assert qf.n_grown == 40
        assert qf.to_dict() == _reference_fit(*args, X, y)

    @pytest.mark.parametrize("kind, tau, n, seed", [("rounded", 0.05, 60, 4), ("rounded", 0.95, 80, 2)])
    def test_recurring_patterns_grow_once(self, kind, tau, n, seed):
        X, y = _oracle_data(kind, n, seed)
        args = (tau, 40, 3, 0.05, 5)
        reference = _reference_fit(*args, X, y)
        qf = QuantileForest(*args).fit(X, y)
        assert qf.to_dict() == reference
        patterns = _sign_patterns(reference, X, y)
        # rounds whose pattern is not the previous round's: each grew before
        runs = sum(a != b for a, b in zip(patterns, [None] + patterns))
        # so fewer distinct patterns than runs means a pattern came back
        # after another one (A, B, A)
        assert qf.n_grown == len(set(patterns)) < runs

    def test_bounded_memory_across_rounds(self):
        # continuous labels grow every round; what fit keeps per sign pattern
        # must hold no row-sized array, or 100 rounds of 20 000 rows would
        # add ~15 MB
        X, y = _oracle_data("continuous", 20_000, seed=6)
        peaks = []
        for rounds in (10, 100):
            qf = QuantileForest(0.5, rounds, 3, 0.05, 10)
            tracemalloc.start()
            try:
                qf.fit(X, y)
                fit_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                qf.predict(X)
                current, peak = tracemalloc.get_traced_memory()
                peaks.append((fit_peak, peak - current))
            finally:
                tracemalloc.stop()
            assert qf.n_grown == rounds
        # predict, likewise, holds no row-to-leaf map past its trees' last use
        assert peaks[1][0] - peaks[0][0] < 4e6 and peaks[1][1] - peaks[0][1] < 4e6

    def test_counter_is_not_part_of_the_document(self):
        X, y = _oracle_data("rounded", 40, seed=5)
        qf = QuantileForest(0.5, 6, 2, 0.1, 3).fit(X, y)
        assert QuantileForest(0.5, 0, 2, 0.1, 3).fit(X, y).n_grown == 0
        assert "n_grown" not in qf.to_dict()
        assert QuantileForest.from_dict(qf.to_dict()).n_grown is None


def _tree_by_tree(qf, X):
    out = np.full(len(X), qf.base)
    for tree in qf.trees:
        out += qf.lr * tree.predict(X)
    return out


class TestPredictRoutesEachShapeOnce:
    """Trees that share their cut arrays send every row to the same leaf, so
    predict routes the rows once per run of such trees and reuses their
    leaves.  Its sum must still be the tree-by-tree one, bit for bit."""

    @pytest.mark.parametrize("kind, tau, few_shapes", [("discrete", 0.05, True), ("rounded", 0.95, True),
                                                        ("continuous", 0.5, False)])
    def test_equals_the_tree_by_tree_sum(self, kind, tau, few_shapes):
        X, y = _oracle_data(kind, 80, seed=2)
        qf = QuantileForest(tau, 40, 3, 0.5, 5).fit(X, y)
        assert (qf.n_grown < 20) if few_shapes else (qf.n_grown == 40)
        Xt = _oracle_data(kind, 50, seed=3)[0]
        got = qf.predict(Xt)
        assert np.array_equal(got, _tree_by_tree(qf, Xt))
        assert np.array_equal(QuantileForest.from_dict(qf.to_dict()).predict(Xt), got)

    @pytest.mark.parametrize("cut", ["thresh", "left", "right"])
    def test_trees_sharing_only_some_cut_arrays_are_routed_apart(self, cut):
        shared = {"feature": np.array([0, -1, -1]), "thresh": np.array([0.0, 0.0, 0.0]),
                  "left": np.array([1, -1, -1]), "right": np.array([2, -1, -1])}
        other = {"thresh": np.array([2.0, 0.0, 0.0]), "left": np.array([2, -1, -1]),
                 "right": np.array([1, -1, -1])}
        value = np.array([0.0, -1.0, 1.0])
        first = _Tree(**shared, value=value)
        second = _Tree(**{**shared, cut: other[cut]}, value=value)
        assert first.feature is second.feature
        qf = QuantileForest(0.5, 2, 1, 1.0, 1)
        qf.trees, qf.min_features = [first, second], 1
        X = np.array([[-1.0], [1.0], [3.0]])
        got = qf.predict(X)
        assert np.array_equal(got, _tree_by_tree(qf, X))
        # the case tells the two apart: one routing for both trees reads otherwise
        assert not np.array_equal(got, qf.base + value[first.leaves(X)] * 2)

    def test_routes_once_per_grown_round_or_loaded_tree(self):
        X, y = _oracle_data("rounded", 80, seed=2)
        qf = QuantileForest(0.95, 40, 3, 0.05, 5).fit(X, y)
        loaded = QuantileForest.from_dict(qf.to_dict())
        # routing once per run of trees sharing cut arrays would route this often
        runs = sum(a.thresh is not getattr(b, "thresh", None) for a, b in zip(qf.trees, [None] + qf.trees))
        with mock.patch.object(_Tree, "leaves", autospec=True, side_effect=_Tree.leaves) as leaves:
            qf.predict(X)
            assert leaves.call_count == qf.n_grown < runs
            leaves.reset_mock()
            loaded.predict(X)
            assert leaves.call_count == 40


# cut and feature values on one small grid, so rows often sit exactly on a
# cut and the `<=` decides them
_GRID = (-1.0, 0.0, 0.5, 2.0)
_TREE_KEYS = ("feature", "thresh", "left", "right", "value")


@st.composite
def _tree_documents(draw, n_features: int):
    """A tree document numbered depth-first, with leaves at mixed depths."""
    nodes = []

    def grow(depth):
        v = len(nodes)
        nodes.append([-1, 0.0, -1, -1, draw(st.sampled_from([-1.5, -0.25, 0.0, 0.75, 3.0]))])
        if depth < 4 and draw(st.booleans()):
            nodes[v][:2] = draw(st.integers(0, n_features - 1)), draw(st.sampled_from(_GRID))
            nodes[v][2] = grow(depth + 1)
            nodes[v][3] = grow(depth + 1)
        return v

    grow(0)
    return dict(zip(_TREE_KEYS, map(list, zip(*nodes))))


def _walk(tree: dict, x) -> int:
    """The leaf one row reaches, one node at a time."""
    node = 0
    while tree["feature"][node] >= 0:
        go_left = x[tree["feature"][node]] <= tree["thresh"][node]
        node = tree["left"][node] if go_left else tree["right"][node]
    return node


def _depth(tree: dict, node: int = 0) -> int:
    """The most splits a walk from ``node`` passes on its way to a leaf."""
    if tree["feature"][node] < 0:
        return 0
    return 1 + max(_depth(tree, tree["left"][node]), _depth(tree, tree["right"][node]))


def _walked(doc: dict, X) -> np.ndarray:
    """A forest document's predictions, each row walked down each tree."""
    out = []
    for x in X:
        pred = doc["base"]
        for tree in doc["trees"]:
            pred = pred + doc["lr"] * tree["value"][_walk(tree, x)]
        out.append(pred)
    return np.array(out, dtype=float)


def _rows(n_features: int, max_size: int = 8):
    """Rows on the cut grid, NaN features included."""
    cells = st.one_of(st.sampled_from(_GRID + (math.nan,)), st.floats(-3.0, 3.0))
    return st.lists(st.lists(cells, min_size=n_features, max_size=n_features), min_size=1, max_size=max_size)


class TestRouting:
    """Routing runs a tree's depth in whole-batch steps, with rows at a leaf
    staying put; every row must still reach the leaf a walk down the tree
    reaches."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda m: st.tuples(
        st.lists(_tree_documents(m), min_size=1, max_size=4), _rows(m))))
    def test_random_trees_route_as_a_walk(self, case):
        trees, X = case
        X = np.array(X)
        doc = {"kind": "quantile_forest", "v": 1, "tau": 0.5, "n_trees": len(trees), "depth": 1,
               "lr": 0.5, "min_leaf": 1, "base": 0.25, "trees": trees}
        expected = _walked(doc, X)
        loaded = QuantileForest.from_dict(doc)
        # as fit builds them: each tree with the depth it grew to
        built = QuantileForest(0.5, len(trees), 4, 0.5, 1)
        built.base, built.min_features = doc["base"], loaded.min_features
        built.trees = [_Tree(*(t[key] for key in _TREE_KEYS), _depth(t)) for t in trees]
        for qf in (loaded, built):
            assert np.array_equal(qf.predict(X), expected)
            assert np.array_equal(qf.predict(X[:1]), expected[:1])

    @settings(max_examples=40, deadline=None)
    @given(_rows(2, max_size=30).filter(lambda X: len(X) >= 4),
           st.lists(st.sampled_from(_GRID), min_size=30, max_size=30), st.sampled_from([0.1, 0.5, 0.9]), _rows(2))
    def test_fitted_forests_route_as_a_walk(self, X, y, tau, Xt):
        X = np.nan_to_num(np.array(X))
        qf = QuantileForest(tau, 6, 3, 0.5, 1).fit(X, np.array(y[:len(X)]))
        doc = qf.to_dict()
        Xt = np.vstack([np.array(Xt), X[:3]])
        expected = _walked(doc, Xt)
        for forest in (qf, QuantileForest.from_dict(doc)):
            assert np.array_equal(forest.predict(Xt), expected)
            assert np.array_equal(forest.predict(Xt[:1]), expected[:1])

    def test_tree_deeper_than_its_declared_depth_routes_in_full(self):
        # a hand-edited document: the forest declares depth 1, its first
        # tree splits three times on the way to its deepest leaf
        X, y = _oracle_data("continuous", 40, seed=3)
        doc = QuantileForest(0.5, 3, 1, 0.1, 5).fit(X, y).to_dict()
        doc["trees"][0] = {"feature": [0, -1, 1, 2, -1, -1, -1], "thresh": [0.0, 0.0, 0.5, -0.5, 0.0, 0.0, 0.0],
                           "left": [1, -1, 3, 4, -1, -1, -1], "right": [2, -1, 6, 5, -1, -1, -1],
                           "value": [0.0, -1.0, 0.0, 0.0, 2.0, 3.0, 4.0]}
        loaded = QuantileForest.from_dict(doc)
        assert loaded.depth == 1 and loaded.trees[0].depth == 3
        Xt = np.vstack([X, [[1.0, 0.0, -1.0, 0.0]]])
        got = loaded.predict(Xt)
        assert np.array_equal(got, _walked(doc, Xt))
        # the row that takes three steps reaches the leaf worth 2.0
        assert _walk(doc["trees"][0], Xt[-1]) == 4

    def test_all_leaf_forest_on_zero_columns_returns_its_sum(self):
        # every tree a single leaf: no column is read, whatever the declared depth
        y = np.array([1.0, 2.0, 4.0, 8.0])
        fitted = QuantileForest(0.5, 3, 3, 0.5, 1).fit(np.zeros((4, 0)), y)
        doc = fitted.to_dict()
        assert all(t["feature"] == [-1] for t in doc["trees"])
        for qf in (fitted, QuantileForest.from_dict(doc)):
            assert qf.min_features == 0
            assert np.array_equal(qf.predict(np.zeros((2, 0))), _walked(doc, np.zeros((2, 0))))
        doc["trees"] = [{**t, "value": [0.0]} for t in doc["trees"]]
        assert np.array_equal(QuantileForest.from_dict(doc).predict(np.zeros((1, 0))), [doc["base"]])


_TAUS = st.one_of(
    st.sampled_from([1e-12, 1e-3, 0.05, 0.5, 0.95, 1 - 1e-3, 1 - 1e-12, float(np.nextafter(1.0, 0.0))]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
# zeros are all -0.0, so the bit patterns below are well defined and numpy's
# handling of a one-value segment (b - 0 * 0, which keeps the sign) is pinned
_VALUES = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6, allow_nan=False)).map(
    lambda v: v or -0.0)


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestSegmentQuantiles:
    @given(st.lists(st.tuples(st.integers(0, 6), _VALUES), min_size=1, max_size=40), _TAUS)
    def test_matches_numpy_per_segment(self, pairs, tau):
        seg = np.array([s for s, _ in pairs], dtype=np.intp)
        values = np.array([v for _, v in pairs])
        quantiles = _SegmentQuantiles(seg, tau)
        np.testing.assert_array_equal(quantiles.ids, np.unique(seg))
        assert _bits(quantiles(values)) == _bits([np.quantile(values[seg == s], tau) for s in quantiles.ids])

    def test_short_segments_and_duplicates(self):
        values = np.array([3.0, 1.0, 1.0, 2.0, 2.0, 2.0, 7.0, -1.0, -0.0])
        seg = np.array([0, 1, 1, 2, 2, 2, 3, 3, 5])
        for tau in (1e-9, 0.5, 0.7, 1 - 1e-9):
            quantiles = _SegmentQuantiles(seg, tau)
            assert quantiles.ids.tolist() == [0, 1, 2, 3, 5]
            assert _bits(quantiles(values)) == _bits([np.quantile(values[seg == s], tau) for s in quantiles.ids])

    @given(st.lists(st.tuples(st.integers(0, 6), _VALUES, _VALUES), min_size=1, max_size=40), _TAUS)
    def test_one_layout_serves_new_values(self, rows, tau):
        # fit keeps one layout over the rounds that reuse a tree's leaves
        seg = np.array([s for s, _, _ in rows], dtype=np.intp)
        quantiles = _SegmentQuantiles(seg, tau)
        for values in (np.array([v for _, v, _ in rows]), np.array([w for _, _, w in rows])):
            assert _bits(quantiles(values)) == _bits([np.quantile(values[seg == s], tau) for s in quantiles.ids])


def _small_forest_dict() -> dict:
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 2))
    y = X[:, 0] + rng.normal(size=40)
    d = QuantileForest(0.5, n_trees=2, depth=2, lr=0.05, min_leaf=3).fit(X, y).to_dict()
    assert d["trees"][0]["feature"][0] >= 0
    return d


def _unequal_lengths(t):
    t["value"] = t["value"][:1]


def _child_out_of_range(t):
    t["left"][0] = 99


def _missing_child(t):
    t["right"][0] = -1


def _negative_feature(t):
    t["feature"][0] = -2


def _routing_cycle(t):
    t["left"][0] = 0


def _leaf_with_children(t):
    t["feature"][0] = -1


def _nan_threshold(t):
    t["thresh"][0] = math.nan


def _infinite_value(t):
    t["value"][-1] = -math.inf


class TestStrictForestDecoding:
    @pytest.mark.parametrize("corrupt", [_unequal_lengths, _child_out_of_range, _missing_child,
                                         _negative_feature, _routing_cycle, _leaf_with_children,
                                         _nan_threshold, _infinite_value])
    def test_malformed_tree_rejected(self, corrupt):
        d = _small_forest_dict()
        corrupt(d["trees"][0])
        with pytest.raises(ValueError):
            QuantileForest.from_dict(d)

    @pytest.mark.parametrize("node", [{"feature": 0.9, "left": 1.5, "right": 2.5}, {"feature": 0.5},
                                      {"left": 1.5}, {"right": 2.5}, {"feature": 1e20},
                                      {"feature": math.inf}, {"feature": math.nan}])
    def test_fractional_or_huge_feature_or_child_rejected(self, node):
        # features 0.9 and children 1.5 and 2.5 used to load as 0, 1 and 2,
        # and a feature of 1e20 or inf to raise OverflowError
        d = _small_forest_dict()
        for key, value in node.items():
            d["trees"][0][key][0] = value
        with pytest.raises(ValidationError, match=r"tree '(feature|left|right)' must be a 1-D array of finite whole"):
            QuantileForest.from_dict(d)

    def test_whole_numbers_as_floats_load(self):
        d = _small_forest_dict()
        for t in d["trees"]:
            for key in ("feature", "left", "right"):
                t[key] = [float(v) for v in t[key]]
        loaded = QuantileForest.from_dict(d)
        assert loaded.to_dict() == _small_forest_dict()
        assert all(t.feature.dtype == np.int64 and t.left.dtype == np.int64 for t in loaded.trees)

    def test_empty_tree_rejected(self):
        d = _small_forest_dict()
        d["trees"][1] = {key: [] for key in ("feature", "thresh", "left", "right", "value")}
        with pytest.raises(ValidationError, match="non-empty"):
            QuantileForest.from_dict(d)

    def test_child_outside_its_own_tree_rejected(self):
        # the second tree's root splits, and its left child's index lies
        # inside the concatenated lists but past its own tree
        d = _small_forest_dict()
        second = d["trees"][1]
        assert second["feature"][0] >= 0
        second["left"][0] = len(second["value"])
        with pytest.raises(ValidationError, match="numbered after it in its tree"):
            QuantileForest.from_dict(d)

    @pytest.mark.parametrize("key", ["feature", "thresh", "left", "right", "value"])
    def test_numeric_strings_in_tree_lists_rejected(self, key):
        # each of these used to load: the tree lists were parsed as floats
        d = _small_forest_dict()
        d["trees"][1][key] = [str(v) for v in d["trees"][1][key]]
        with pytest.raises(ValidationError, match=f"tree '{key}'"):
            QuantileForest.from_dict(d)

    def test_zero_trees_round_trip_and_predict_base(self):
        d = {**_small_forest_dict(), "n_trees": 0, "trees": []}
        loaded = QuantileForest.from_dict(d)
        assert loaded.trees == [] and loaded.min_features == 0
        assert loaded.to_dict() == d
        np.testing.assert_array_equal(loaded.predict(np.zeros((3, 2))), np.full(3, d["base"]))

    @pytest.mark.parametrize("trees", [lambda t: t[:1], lambda t: [], lambda t: t + t[:1]])
    def test_tree_count_other_than_n_trees_rejected(self, trees):
        d = _small_forest_dict()
        d["trees"] = trees(d["trees"])
        with pytest.raises(ValueError, match="n_trees"):
            QuantileForest.from_dict(d)


_READERS = {"ridge": RidgePredictor, "classifier": BinClassifier, "kernel": KernelSimilarity,
            "forest": QuantileForest}


def _fitted_document(kind: str) -> dict:
    X = np.random.default_rng(8).normal(size=(40, 3))
    y = np.clip(np.round(3 + X[:, 0]), 1, 5)
    fit = {"ridge": lambda: RidgePredictor(1.0).fit(X, y),
           "classifier": lambda: BinClassifier(LIKERT.labels(), epochs=3, l2=1e-3).fit(X, y),
           "kernel": lambda: KernelSimilarity(None).fit(X),
           "forest": lambda: QuantileForest(0.5, n_trees=2, depth=2, lr=0.05, min_leaf=3).fit(X, y)}
    return fit[kind]().to_dict()


def _with(key, change):
    """A corruption that replaces the document's ``key`` by ``change(value)``."""
    return lambda d: {**d, key: change(d[key])}


_HEADER = {"wrong kind": _with("kind", lambda v: "ridge" if v != "ridge" else "kernel_similarity"),
           "v 2": _with("v", lambda v: 2),
           "no header": lambda d: {k: v for k, v in d.items() if k not in ("kind", "v")}}
_SCALING = {"NaN mean": _with("means", lambda v: [math.nan] + v[1:]),
            "inf std": _with("stds", lambda v: v[:-1] + [math.inf]),
            "std 0": _with("stds", lambda v: [0.0] + v[1:]),
            "std -1": _with("stds", lambda v: [-1.0] + v[1:]),
            "short means": _with("means", lambda v: v[:-1]),
            "long stds": _with("stds", lambda v: v + [1.0])}
_OWN_SHAPES = {
    "ridge": {"NaN coef": _with("coef", lambda v: [math.nan] + v[1:]),
              "short coef": _with("coef", lambda v: v[:-1]),
              "inf intercept": _with("intercept", lambda v: math.inf),
              "list intercept": _with("intercept", lambda v: [v]),
              # numeric strings used to load, though a string l2 did not
              "coef of numeric strings": _with("coef", lambda v: [str(x) for x in v]),
              "intercept a numeric string": _with("intercept", lambda v: "0.3")},
    "classifier": {"inf weight": _with("weights", lambda v: [[math.inf] + v[0][1:]] + v[1:]),
                   "NaN bias": _with("bias", lambda v: [math.nan] + v[1:]),
                   "weights of one bin less": _with("weights", lambda v: v[:-1]),
                   "weights of one feature less": _with("weights", lambda v: [row[:-1] for row in v]),
                   "bias of one bin less": _with("bias", lambda v: v[:-1]),
                   "one bin less": _with("bins", lambda v: v[:-1]),
                   "NaN bin": _with("bins", lambda v: [math.nan] + v[1:]),
                   "bins a string": _with("bins", lambda v: "x"),
                   "bins of numeric strings": _with("bins", lambda v: [str(b) for b in v])},
    "kernel": {"zero bandwidth": _with("bandwidth", lambda v: 0.0),
               "all-bool means": _with("means", lambda v: [i % 2 == 0 for i in range(len(v))])},
    "forest": {"NaN base": _with("base", lambda v: math.nan),
               "inf base": _with("base", lambda v: math.inf),
               "list base": _with("base", lambda v: [v]),
               "trees not a list": _with("trees", lambda v: None),
               "tau a string": _with("tau", lambda v: "x"),
               "tree without feature": _with("trees", lambda v: [{k: x for k, x in v[0].items() if k != "feature"}]
                                             + v[1:]),
               "tree not a dict": _with("trees", lambda v: [v[0]["value"]] + v[1:]),
               "tree of strings": _with("trees", lambda v: [{**v[0], "thresh": "x"}] + v[1:]),
               "no trees": lambda d: {k: v for k, v in d.items() if k != "trees"}},
}
_CORRUPT_DOCUMENTS = [(kind, name, corrupt) for kind in _READERS
                      for name, corrupt in {**_HEADER, **({} if kind == "forest" else _SCALING),
                                            **_OWN_SHAPES[kind]}.items()]


class TestStrictDocuments:
    @pytest.mark.parametrize("kind", list(_READERS))
    def test_document_round_trips(self, kind):
        d = _fitted_document(kind)
        assert d["kind"] and d["v"] == 1
        loaded = _READERS[kind].from_dict(d)
        assert loaded.to_dict() == d
        # a single number loads as a float, as a fit leaves it
        for name in ("intercept", "base"):
            assert name not in d or type(getattr(loaded, name)) is float

    @pytest.mark.parametrize("kind, corrupt", [(kind, corrupt) for kind, _, corrupt in _CORRUPT_DOCUMENTS],
                             ids=[f"{kind}-{name}" for kind, name, _ in _CORRUPT_DOCUMENTS])
    def test_corrupt_document_rejected(self, kind, corrupt):
        # the ridge, classifier and kernel readers, and every header check,
        # used to load these: a zero std predicted inf, a short weight matrix
        # raised numpy's broadcast ValueError
        with pytest.raises(ValidationError):
            _READERS[kind].from_dict(corrupt(_fitted_document(kind)))


_FITS = {
    "forest": lambda X, y: QuantileForest(0.5, n_trees=3, depth=2, lr=0.1, min_leaf=2).fit(X, y),
    "classifier": lambda X, y: BinClassifier(LIKERT.labels(), epochs=5, l2=1e-3).fit(X, y),
    "ridge": lambda X, y: RidgePredictor(1.0).fit(X, y),
}


class TestTrainingShapes:
    Y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 3.0])

    @pytest.mark.parametrize("fit", list(_FITS), ids=list(_FITS))
    @pytest.mark.parametrize("X, y", [
        (np.ones(6), Y),
        (np.ones((5, 2)), Y),
        (np.ones((7, 2)), Y),
        (np.ones((6, 2, 1)), Y),
        (np.ones((6, 2)), Y[:, None]),
        (np.ones((1, 2)), np.float64(3.0)),
    ], ids=["1-D X", "fewer rows", "more rows", "3-D X", "2-D y", "0-D y"])
    def test_features_without_one_row_per_label_rejected(self, fit, X, y):
        # these used to raise numpy's AxisError, IndexError or a broadcast,
        # matmul or reshape ValueError
        with pytest.raises(ValidationError, match="one row per label"):
            _FITS[fit](X, y)


class TestPredictionShapes:
    X = np.random.default_rng(9).normal(size=(30, 3))
    Y = np.clip(np.round(3 + X[:, 0] + X[:, 2]), 1, 5)
    PREDICTS = {
        "classifier": lambda X, y: _FITS["classifier"](X, y).predict_proba,
        "ridge": lambda X, y: _FITS["ridge"](X, y).predict,
        "kernel": lambda X, y: KernelSimilarity(None).fit(X).median_bandwidth,
    }

    @pytest.mark.parametrize("fit", list(PREDICTS), ids=list(PREDICTS))
    @pytest.mark.parametrize("bad", [lambda X: X[:, :1], lambda X: X[:, :, None], lambda X: X[0],
                                     lambda X: np.hstack([X, X[:, :1]])],
                             ids=["one column", "3-D", "1-D", "four columns"])
    def test_rows_of_other_than_the_fitted_features_rejected(self, fit, bad):
        # one column used to broadcast against the three fitted ones, and
        # (n, 3, 1) features to give 3-D output
        predict = self.PREDICTS[fit](self.X, self.Y)
        predict(self.X)
        with pytest.raises(ValidationError, match="prediction features"):
            predict(bad(self.X))

    def test_forest_needs_a_column_past_its_largest_split_feature(self):
        qf = _FITS["forest"](self.X, self.Y)
        need = 1 + max(int(t.feature.max()) for t in qf.trees)
        for forest in (qf, QuantileForest.from_dict(qf.to_dict())):
            assert forest.min_features == need
            # a 1-D row used to raise IndexError
            for X in (self.X[0], self.X[:, :, None], self.X[:, :need - 1]):
                with pytest.raises(ValidationError, match="prediction features"):
                    forest.predict(X)
            assert np.array_equal(forest.predict(np.hstack([self.X, self.X])), forest.predict(self.X))


class TestBinClassifier:
    def test_zero_epochs_uniform(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        y = rng.choice([1.0, 2.0, 3.0], size=30)
        clf = BinClassifier([1.0, 2.0, 3.0], epochs=0, l2=1e-3).fit(X, y)
        np.testing.assert_allclose(clf.predict_proba(X), 1 / 3, atol=1e-12)

    def test_simplex_output(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 5))
        y = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=60)
        clf = BinClassifier(LIKERT.labels(), epochs=100, l2=1e-3).fit(X, y)
        probs = clf.predict_proba(rng.normal(size=(40, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_linearly_separable_perfect_accuracy(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(-3, 0.5, size=(60, 2)), rng.normal(3, 0.5, size=(60, 2))])
        y = np.array([1.0] * 60 + [2.0] * 60)
        clf = BinClassifier([1.0, 2.0], epochs=400, l2=1e-3).fit(X, y)
        Xt = np.vstack([rng.normal(-3, 0.5, size=(40, 2)), rng.normal(3, 0.5, size=(40, 2))])
        yt = np.array([1.0] * 40 + [2.0] * 40)
        preds = clf.bins[np.argmax(clf.predict_proba(Xt), axis=1)]
        assert np.all(preds == yt)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 3))
        y = rng.choice([1.0, 2.0, 3.0], size=12)
        clf = BinClassifier([1.0, 2.0, 3.0], epochs=0, l2=1e-3).fit(X, y)
        clf.weights = rng.normal(size=clf.weights.shape) * 0.3
        clf.bias = rng.normal(size=clf.bias.shape) * 0.3
        Xs = clf._standardize(X)
        target = (np.arange(12), clf._bin_index(y))
        _, grad_w, grad_b, _ = clf._loss_grad(Xs, target)
        h = 1e-6
        for arr, grad in ((clf.weights, grad_w), (clf.bias, grad_b)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _, _, _ = clf._loss_grad(Xs, target)
                arr[idx] = orig - h
                down, _, _, _ = clf._loss_grad(Xs, target)
                arr[idx] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                assert abs(numeric - grad[idx]) / denom < 1e-4

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 5)) * 10
        y = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=80)
        clf = BinClassifier(LIKERT.labels(), epochs=200, l2=1e-3).fit(X, y)
        diffs = np.diff(clf.loss_history)
        assert np.all(diffs <= 1e-6)

    def test_label_off_grid_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValidationError, match="off the bin grid"):
            BinClassifier([1.0, 2.0], epochs=500, l2=1e-3).fit(X, np.array([1.0, 1.5, 2.0, 2.0]))

    def test_empty_bins_allowed(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        y = rng.choice([1.0, 2.0], size=30)
        clf = BinClassifier(LIKERT.labels(), epochs=50, l2=1e-3).fit(X, y)
        assert clf.predict_proba(X).shape == (30, 5)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 4))
        y = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=40)
        ds = dataset_from_arrays(np.hstack([X, X[:, :1]]), y)
        clf = BinClassifier(ds.scale.labels(), epochs=30, l2=1e-3).fit(ds.logits, ds.labels)
        back = BinClassifier.from_dict(clf.to_dict())
        Z = np.hstack([X, X[:, :1]])
        np.testing.assert_allclose(clf.predict_proba(Z), back.predict_proba(Z), atol=1e-12)
        # v1 documents also carried an unused "seed" entry, and the step
        # size "lr" of the gradient-descent fit
        assert "lr" not in clf.to_dict()
        legacy = BinClassifier.from_dict({**clf.to_dict(), "seed": 0, "lr": 0.1})
        np.testing.assert_allclose(clf.predict_proba(Z), legacy.predict_proba(Z), atol=1e-12)

    @pytest.mark.parametrize("kw", [{"epochs": 2.5}, {"epochs": -1}, {"epochs": True}, {"epochs": "9"},
                                    {"l2": -1.0}, {"l2": float("nan")}, {"l2": float("inf")},
                                    {"l2": "0.1"}, {"l2": None}])
    def test_bad_hyperparameters_rejected(self, kw):
        with pytest.raises(ValidationError, match=next(iter(kw))):
            BinClassifier(LIKERT.labels(), **{"epochs": 500, "l2": 1e-3, **kw})

    @pytest.mark.parametrize("bins", ["x", None, [[1.0, 2.0]], [1.0, float("nan")], [1.0, float("inf")]])
    def test_bad_bins_rejected(self, bins):
        # a string used to raise numpy's ValueError
        with pytest.raises(ValidationError, match="classifier bins"):
            BinClassifier(bins, epochs=5, l2=1e-3)

    def test_hyperparameters_stored_as_plain_numbers(self):
        clf = BinClassifier(LIKERT.labels(), epochs=np.int64(7), l2=np.float32(0.5))
        assert type(clf.epochs) is int and type(clf.l2) is float


def _eval_wide_train():
    """A training split the size of the eval-wide benchmark's: 2000 rows,
    5 features, the 13 GPA bins."""
    ds, _ = cj.generate(cj.GeneratorSpec(seed=7, n=8000, noise=cj.Heteroscedastic(0.5), scale=cj.GPA_THIRDS))
    return cj.split(ds, cj.SplitSpec(7))[0]


def _target(clf, y):
    return np.arange(len(y)), clf._bin_index(y)


def _flat_grad(clf, Xs, target):
    _, grad_w, grad_b, _ = clf._loss_grad(Xs, target)
    return np.hstack([grad_w, grad_b[:, None]]).ravel()


class TestNewtonSolver:
    def test_hessian_matches_finite_differences_of_the_gradient(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(25, 3))
        y = rng.choice(LIKERT.labels(), size=25)
        clf = BinClassifier(LIKERT.labels(), epochs=0, l2=0.3).fit(X, y)
        m, k = clf.weights.shape
        theta = rng.normal(size=(m, k + 1)) * 0.5
        Xs, target = clf._standardize(X), _target(clf, y)

        def grad_at(t):
            clf.weights, clf.bias = t[:, :k].copy(), t[:, k].copy()
            return _flat_grad(clf, Xs, target)

        grad_at(theta)
        Xt = np.hstack([Xs, np.ones((len(y), 1))])
        H = clf._hessian(Xt, clf._probs(Xs), np.tile(np.arange(k + 1) < k, m))
        h = 1e-6
        numeric = np.empty_like(H)
        for j in range(theta.size):
            step = np.zeros(theta.size)
            step[j] = h
            step = step.reshape(theta.shape)
            numeric[:, j] = (grad_at(theta + step) - grad_at(theta - step)) / (2 * h)
        np.testing.assert_allclose(H, H.T, atol=1e-15)
        np.testing.assert_allclose(H, numeric, atol=1e-7)

    def test_converges_on_an_eval_wide_sized_split(self):
        train = _eval_wide_train()
        clf = BinClassifier(train.scale.labels(), epochs=500, l2=1e-3).fit(train.logits, train.labels)
        assert len(clf.loss_history) - 1 <= 30
        grad = _flat_grad(clf, clf._standardize(train.logits), _target(clf, train.labels))
        assert np.abs(grad).max() <= 1e-8
        assert clf.grad_norm == pytest.approx(np.abs(grad).max(), abs=1e-15)

    def test_probabilities_do_not_depend_on_the_cap_once_converged(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(200, 4))
        y = np.clip(np.round(3 + X[:, 0] + rng.normal(size=200)), 1, 5)
        Xt = rng.normal(size=(50, 4))
        probs = [BinClassifier(LIKERT.labels(), epochs=e, l2=1e-3).fit(X, y).predict_proba(Xt) for e in (40, 500, 5000)]
        np.testing.assert_allclose(probs[0], probs[1], atol=1e-12)
        np.testing.assert_allclose(probs[0], probs[2], atol=1e-12)

    @pytest.mark.parametrize("case", ["empty_bins", "separable", "separable_unpenalized"])
    def test_hard_cases_end_within_the_cap(self, case):
        rng = np.random.default_rng(13)
        if case == "empty_bins":
            X = rng.normal(size=(30, 3))
            y = rng.choice([1.0, 2.0], size=30)
            bins, l2 = LIKERT.labels(), 1e-3
        else:
            X = np.vstack([rng.normal(-3, 0.5, size=(60, 2)), rng.normal(3, 0.5, size=(60, 2))])
            y = np.array([1.0] * 60 + [2.0] * 60)
            bins, l2 = [1.0, 2.0], 0.0 if case == "separable_unpenalized" else 1e-3
        clf = BinClassifier(bins, epochs=100, l2=l2).fit(X, y)
        assert len(clf.loss_history) - 1 < 100
        assert np.isfinite(clf.weights).all() and np.isfinite(clf.bias).all()
        assert np.all(np.diff(clf.loss_history) <= 0)
        assert clf.grad_norm <= 1e-8


# The Newton loop that BinClassifier.fit replaced, kept as the oracle: it
# recomputes the probabilities for each Hessian, builds the ones-augmented
# design per Hessian, and takes the log-likelihood as a one-hot row sum.
# The fit that reuses each accepted step's probabilities must give the
# same weights, bias, loss history and final gradient, bit for bit.


def _reference_classifier_fit(clf: BinClassifier, X, y) -> BinClassifier:
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    n, k, m = X.shape[0], X.shape[1], len(clf.bins)
    clf.means, clf.stds = estimators._scaling(X)
    Xs = clf._standardize(X)
    onehot = np.zeros((n, m))
    onehot[np.arange(n), clf._bin_index(y)] = 1.0

    def loss_grad():
        probs = clf._probs(Xs)
        ll = -np.mean(np.log(np.maximum((probs * onehot).sum(axis=1), 1e-300)))
        loss = ll + 0.5 * clf.l2 * float((clf.weights ** 2).sum())
        diff = probs - onehot
        return loss, diff.T @ Xs / n + clf.l2 * clf.weights, diff.mean(axis=0)

    def hessian():
        probs = clf._probs(Xs)
        Xt = np.hstack([Xs, np.ones((n, 1))])
        A = (probs[:, :, None] * Xt[:, None, :]).reshape(n, m * (k + 1))
        H = -(A.T @ A)
        blocks = H.reshape(m, k + 1, m, k + 1)
        a = np.arange(m)
        blocks[a, :, a, :] += (A.T @ Xt).reshape(m, k + 1, k + 1)
        H /= n
        weight_entries = np.tile(np.arange(k + 1) < k, m)
        H[weight_entries, weight_entries] += clf.l2
        return H

    clf.weights, clf.bias = np.zeros((m, k)), np.zeros(m)
    loss, grad_w, grad_b = loss_grad()
    clf.loss_history = [loss]
    for _ in range(clf.epochs):
        grad = np.hstack([grad_w, grad_b[:, None]])
        if np.abs(grad).max() <= estimators._GRAD_TOL:
            break
        H = hessian()
        H[np.diag_indices_from(H)] += estimators._NEWTON_RIDGE
        step = np.linalg.solve(H, grad.ravel()).reshape(m, k + 1)
        w_old, b_old = clf.weights, clf.bias
        t = 1.0
        for _ in range(estimators._MAX_HALVINGS):
            clf.weights, clf.bias = w_old - t * step[:, :k], b_old - t * step[:, k]
            new_loss, new_gw, new_gb = loss_grad()
            if new_loss <= loss:
                break
            t *= 0.5
        else:
            clf.weights, clf.bias = w_old, b_old
            break
        loss, grad_w, grad_b = new_loss, new_gw, new_gb
        clf.loss_history.append(loss)
    clf.grad_norm = float(max(np.abs(grad_w).max(), np.abs(grad_b).max()))
    return clf


def _likert_train():
    """A Likert-5 training split of 250 rows."""
    ds, _ = cj.generate(cj.GeneratorSpec(seed=3, n=1000))
    return cj.split(ds, cj.SplitSpec(3))[0]


def _separable_train():
    rng = np.random.default_rng(14)
    X = np.vstack([rng.normal(-3, 0.5, size=(40, 2)), rng.normal(3, 0.5, size=(40, 2))])
    return X, np.array([1.0] * 40 + [2.0] * 40), [1.0, 2.0]


class TestNewtonLoopMatchesOracle:
    @pytest.mark.parametrize("case", ["eval_wide", "likert_250", "zero_epochs", "gradient_tolerance"])
    def test_fit_equals_the_oracle_bit_for_bit(self, case):
        if case == "gradient_tolerance":
            X, y, bins = _separable_train()
            epochs, l2 = 100, 1.0
        else:
            train = _eval_wide_train() if case == "eval_wide" else _likert_train()
            X, y, bins = train.logits, train.labels, train.scale.labels()
            epochs, l2 = (0 if case == "zero_epochs" else 500), 1e-3
        got = BinClassifier(bins, epochs, l2).fit(X, y)
        want = _reference_classifier_fit(BinClassifier(bins, epochs, l2), X, y)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
        assert _bits(got.loss_history) == _bits(want.loss_history)
        assert _bits(got.grad_norm) == _bits(want.grad_norm)
        iterations = len(got.loss_history) - 1
        if case == "eval_wide":
            assert len(bins) == 13 and 5 <= iterations < epochs
        if case == "likert_250":
            assert len(y) == 250 and 5 <= iterations < epochs
        if case == "zero_epochs":
            assert iterations == 0 and not got.weights.any()
        if case == "gradient_tolerance":
            assert got.grad_norm <= estimators._GRAD_TOL and iterations < epochs


class TestKernelSimilarity:
    def test_exact_match_takes_all_weight_as_bandwidth_vanishes(self):
        rng = np.random.default_rng(0)
        Xc = rng.normal(size=(20, 3))
        sim = KernelSimilarity(bandwidth=1e-4).fit(Xc)
        w = sim.weights_batch(Xc, Xc[7])[0]
        assert w[7] == pytest.approx(1.0, abs=1e-9)

    def test_two_equidistant_points(self):
        Xc = np.array([[0.0, 1.0], [0.0, -1.0]])
        sim = KernelSimilarity(bandwidth=1.0)
        sim.means = np.zeros(2)
        sim.stds = np.ones(2)
        w = sim.weights_batch(Xc, np.array([0.0, 0.0]))[0]
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        Xc = rng.normal(size=(50, 4))
        sim = KernelSimilarity(None).fit(Xc)
        sim.bandwidth = sim.median_bandwidth(Xc)
        W = sim.weights_batch(Xc, rng.normal(size=(30, 4)))
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(W >= 0)

    def test_rescaling_invariance_after_standardization(self):
        rng = np.random.default_rng(2)
        Xc = rng.normal(size=(40, 3))
        q = rng.normal(size=3)
        scale_vec = np.array([10.0, 0.1, 3.0])
        a = KernelSimilarity(1.0).fit(Xc).weights_batch(Xc, q)
        b = KernelSimilarity(1.0).fit(Xc * scale_vec).weights_batch(Xc * scale_vec, q * scale_vec)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_degenerate_features_error(self):
        Xc = np.array([[0.0, np.nan], [1.0, 2.0]])
        sim = KernelSimilarity(1.0)
        sim.means = np.zeros(2)
        sim.stds = np.ones(2)
        with pytest.raises(ValidationError, match="degenerate features"):
            sim.weights_batch(Xc, np.zeros(2))

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf"), "1.5"])
    def test_bad_bandwidth_rejected(self, bandwidth):
        # a zero bandwidth used to serve NaN weights
        with pytest.raises(ValidationError, match="kernel bandwidth"):
            KernelSimilarity(bandwidth)

    def test_kernel_weights_on_dataset(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(25, 5))
        y = rng.choice([1.0, 2.0, 3.0], size=25)
        ds = dataset_from_arrays(Z, y)
        sim = KernelSimilarity(None).fit(Z)
        sim.bandwidth = sim.median_bandwidth(Z)
        w = sim.weights_batch(ds.logits, Z[0])[0]
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


# values that differ widely in magnitude, so the addition order shows
_WIDE_FLOATS = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-30, 30))


class TestSquaredDistances:
    """Both paths of the distance helper give np.sum's bits: per-feature
    terms below 8 features, the difference tensor a few rows at a time
    above."""

    @staticmethod
    def _dense(A, B):
        return np.sum((A[:, None] - B[None]) ** 2, axis=-1)

    @given(st.integers(1, 40), st.integers(1, 4), st.integers(1, 4), st.data())
    def test_bitwise_equal_to_numpy_sum(self, k, a, b, data):
        A = np.array(data.draw(st.lists(_WIDE_FLOATS, min_size=a * k, max_size=a * k))).reshape(a, k)
        B = np.array(data.draw(st.lists(_WIDE_FLOATS, min_size=b * k, max_size=b * k))).reshape(b, k)
        dense = self._dense(A, B).tobytes()
        assert estimators._sq_distances(A, B).tobytes() == dense
        # every input through the per-feature terms, or one row per tensor block
        with mock.patch.multiple(estimators, _TENSOR_PAIRS=0, _BLOCK_ENTRIES=1):
            assert estimators._sq_distances(A, B).tobytes() == dense

    @pytest.mark.parametrize("k", [7, 8, 130])
    def test_many_rows_in_blocks(self, k):
        rng = np.random.default_rng(k)
        A = rng.normal(size=(700, k)) * 10.0 ** rng.integers(-12, 12, size=(700, k))
        B = rng.normal(size=(90, k)) * 10.0 ** rng.integers(-12, 12, size=(90, k))
        assert estimators._sq_distances(A, B).tobytes() == self._dense(A, B).tobytes()


class TestFoldedGramBound:
    """With the kernel's divisor c folded into the Gram factor, the product's
    exponents lie within the returned eta of the exact path's
    ``_sq_distances / c``, and so do they clamped at 0."""

    @settings(max_examples=300, deadline=None)
    @given(a=st.integers(1, 20), b=st.integers(1, 40), k=st.integers(1, 9),
           centre=st.sampled_from([0.0, 1.0, 1e4, 1e8, 1e50, 1e99]),
           spread=st.sampled_from([1e-8, 1e-3, 1.0, 1e3]),
           bandwidth=st.sampled_from([1e-6, 1.0, 1e9]), seed=st.integers(0, 2 ** 32 - 1))
    def test_exponents_within_eta(self, a, b, k, centre, spread, bandwidth, seed):
        # points around one centre far from 0: large norms, small distances
        rng = np.random.default_rng(seed)
        offset = centre * rng.uniform(-1.0, 1.0, size=k)
        A = offset + spread * rng.normal(size=(a, k))
        B = np.vstack([offset + spread * rng.normal(size=(b, k)), A[: b // 2]])
        c = -2.0 * bandwidth * bandwidth
        got, eta = estimators._gram_sq_distances(A, estimators._gram_factor(B, c))
        exact = np.divide(estimators._sq_distances(A, B), c)
        assert got.shape == exact.shape and eta.shape == (a,)
        assert np.all(np.abs(got - exact) <= eta[:, None])
        assert np.all(np.abs(np.minimum(got, 0.0) - exact) <= eta[:, None])


class TestRidge:
    def test_reproducible(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        a = RidgePredictor(1.0).fit(X, y).predict(X)
        b = RidgePredictor(1.0).fit(X, y).predict(X)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_recovers_linear_signal(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 3))
        y = 2.0 * X[:, 0] - X[:, 1] + 0.5
        pred = RidgePredictor(1e-6).fit(X, y).predict(X)
        np.testing.assert_allclose(pred, y, atol=1e-6)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        rp = RidgePredictor(0.5).fit(X, y)
        back = RidgePredictor.from_dict(rp.to_dict())
        np.testing.assert_allclose(rp.predict(X), back.predict(X), atol=1e-12)


class TestOls:
    def test_exact_fit(self):
        x = np.linspace(1, 10, 20)
        fit = ols(x[:, None], 2.0 * x)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)

    def test_orthogonal_response(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])[:, :1]
        y = np.array([1.0, -1.0, 1.0, -1.0])
        fit = ols(X, y)
        assert fit.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.normal(size=(20, 3))
            y = rng.normal(size=20)
            fit = ols(X, y)
            oracle = np.linalg.solve(X.T @ X, X.T @ y)
            np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 3))])
        y = rng.normal(size=60)
        fit = ols(X, y)
        bound = 1e-8 * np.linalg.norm(X) * np.linalg.norm(y)
        assert np.max(np.abs(X.T @ fit.residuals)) <= bound

    def test_rank_deficient_uses_pseudo_inverse(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(30, 2))
        X = np.column_stack([base, base[:, 0] + base[:, 1]])
        y = rng.normal(size=30)
        fit = ols(X, y)
        assert np.all(np.isfinite(fit.coefficients))

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            ols(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValidationError, match="fewer rows"):
            ols(np.zeros((2, 3)), np.zeros(2))
