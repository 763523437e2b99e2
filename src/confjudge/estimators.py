"""Fitted predictors wrapped by the conformal methods.

Everything here is deterministic given data order and hyperparameters, uses
plain numpy, and serializes to a versioned dict so calibrated models can be
saved and reloaded.

A v1 document is ``kind`` and ``v: 1``, the hyperparameters, then the
fitted numbers, arrays as lists.  ``from_dict`` raises ValidationError
unless the header is its kind at v1, the constructor accepts the
hyperparameters, every fitted number is a finite JSON number (by the value
checks ``real`` and ``array`` of ``core``), ``means`` and ``stds`` are
vectors of one length with stds > 0, and its class's shapes hold: ridge
``coef`` like ``means`` and one ``intercept``; classifier ``weights`` of
shape (bins, means) and a ``bias`` per bin; one forest ``base`` and
``n_trees`` well-formed trees with finite thresholds and values.  Other keys (an older classifier's
``lr`` and ``seed``) are ignored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, array, integer, or_none, real

__all__ = [
    "QuantileForest",
    "BinClassifier",
    "KernelSimilarity",
    "RidgePredictor",
    "OlsFit",
    "ols",
    "pinball_loss",
]


def pinball_loss(y, pred, tau: float) -> float:
    """Mean pinball loss; its minimizer is the conditional tau-quantile."""
    d = np.asarray(y, dtype=float) - np.asarray(pred, dtype=float)
    return float(np.mean(np.maximum(tau * d, (tau - 1.0) * d)))


def _training_arrays(X, y):
    """X and y as float arrays; raises ValidationError unless X is 2-D with
    one row per entry of the 1-D y."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != len(y):
        raise ValidationError(f"training features of shape {X.shape} do not give one row "
                              f"per label for labels of shape {y.shape}")
    return X, y


def _prediction_features(X, n_features: int, at_least: bool = False):
    """X as a float array; raises ValidationError unless X is 2-D with
    ``n_features`` columns, or at least that many when ``at_least``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (X.shape[1] < n_features if at_least else X.shape[1] != n_features):
        raise ValidationError(f"prediction features of shape {X.shape} are not rows of "
                              f"{'at least ' if at_least else ''}{n_features} features")
    return X


def _scaling(X: np.ndarray):
    """The column means and stds that standardize X (std 1 for a constant column)."""
    stds = X.std(axis=0)
    return X.mean(axis=0), np.where(stds > 1e-12, stds, 1.0)


# ---------------------------------------------------------------------------
# v1 estimator documents.  confbench/tracing.py wraps ``from_dict``, ``fit``,
# ``predict``, ``predict_proba``, ``median_bandwidth`` and ``weights_batch``
# as found in each ``cls.__dict__``, so they stay in the class bodies.


def _document(est, kind: str, names) -> dict:
    """The v1 document of ``est``: the header, then its attributes ``names``, arrays as lists."""
    d = {"kind": kind, "v": 1}
    for name in names:
        value = getattr(est, name)
        d[name] = value.tolist() if isinstance(value, np.ndarray) else value
    return d


def _from_document(cls, d: dict, kind: str, hyper, fitted: dict):
    """``cls`` built from the ``hyper`` entries of its v1 ``kind`` document
    ``d``, with each ``fitted`` entry set as read by the value check it
    maps to.  Raises ValidationError for another header, a missing entry, a
    hyperparameter the constructor rejects, a value its check rejects, or
    ``stds`` unlike ``means`` or not all > 0."""
    names = (*hyper, *fitted)
    if not isinstance(d, dict) or d.get("kind") != kind or d.get("v") != 1 or not d.keys() >= set(names):
        raise ValidationError(f"not a v1 {kind!r} document with entries {', '.join(names)}")
    est = cls(**{name: d[name] for name in hyper})
    for name, check in fitted.items():
        setattr(est, name, check(d[name], f"{kind} {name!r}"))
    if "means" in fitted and (est.stds.shape != est.means.shape or not np.all(est.stds > 0)):
        raise ValidationError(f"{kind} 'means' and 'stds' must be of one length, with stds > 0")
    return est


# ---------------------------------------------------------------------------
# Boosted quantile trees


def _route(X: np.ndarray, feature, thresh, left, right, depth: int) -> np.ndarray:
    """The leaf each row of X reaches through a tree's cut arrays, in
    ``depth`` whole-batch steps, where no walk from the root takes more.

    A step moves every row to the larger of its node and the child its cut
    picks.  A split's children are numbered after it, so a row there moves
    on; a leaf's children are -1, so a row there stays, and the column its
    feature -1 reads decides nothing."""
    rows = np.arange(X.shape[0])
    idx = np.zeros(X.shape[0], dtype=np.int64)
    for _ in range(depth):
        go = X[rows, feature[idx]] <= thresh[idx]
        idx = np.maximum(np.where(go, left[idx], right[idx]), idx)
    return idx


def _depths(left: np.ndarray, right: np.ndarray, sizes) -> list:
    """The depth of each of the trees whose child arrays (-1 at a leaf, else
    an index after the node's own in its tree) are ``left`` and ``right``
    concatenated, tree i holding ``sizes[i]`` nodes: the most steps any walk
    down it takes."""
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    split = np.flatnonzero(left >= 0)
    parent = np.concatenate([split, split])
    child = np.concatenate([left[split], right[split]]) + starts[parent]
    # the longest walk ending at each node, one more level per pass
    steps = np.zeros(len(left), dtype=np.int64)
    while True:
        longer = steps.copy()
        np.maximum.at(longer, child, steps[parent] + 1)
        if np.array_equal(longer, steps):
            break
        steps = longer
    tree = np.repeat(np.arange(len(sizes)), sizes)
    depth = np.zeros(len(sizes), dtype=np.int64)
    np.maximum.at(depth, tree, steps)
    return depth.tolist()


class _Tree:
    """Depth-limited regression tree stored as flat arrays for fast routing.

    Nodes are numbered depth-first (a node, its left subtree, then its right
    subtree), so every child's index exceeds its parent's.  A leaf has
    feature -1 and no children.  ``depth`` is the most steps a row takes
    to its leaf, which :func:`_route` runs: a fitted tree gets it from its
    growth, and a tree built without one has it counted from its children."""

    __slots__ = ("feature", "thresh", "left", "right", "value", "depth")

    def __init__(self, feature, thresh, left, right, value, depth=None):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.thresh = np.asarray(thresh, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)
        self.depth = _depths(self.left, self.right, [len(self.left)])[0] if depth is None else depth

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """The leaf each row of X reaches."""
        return _route(X, self.feature, self.thresh, self.left, self.right, self.depth)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.leaves(X)]

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _TREE_LISTS}


# a tree document's lists, one entry per node, with the value check of each
_TREE_LISTS = {"feature": array(1, whole=True), "thresh": array(1), "left": array(1, whole=True),
               "right": array(1, whole=True), "value": array(1)}


def _best_cut(xs: np.ndarray, gs: np.ndarray, total, total_sq, lo: int):
    """Least-squares cut of one node's gradient targets, over all features
    at once.

    Row f of ``xs`` holds the node's values of feature f in sorted order
    (ties by row index) and row f of ``gs`` the gradients in that order;
    ``total`` and ``total_sq`` are the node's sums in row order.  A cut
    after k rows needs at least ``lo`` >= 1 rows on each side and distinct
    values across it.  The best cut per feature is its first minimum; a later
    feature wins only when it beats the best so far by more than 1e-12.
    Returns (feature, k - 1) or None when no cut qualifies."""
    m = xs.shape[1]
    k = np.arange(lo, m - lo + 1)
    csum = np.cumsum(gs, axis=1)[:, lo - 1:m - lo]
    csq = np.cumsum(gs * gs, axis=1)[:, lo - 1:m - lo]
    sse = (csq - csum * csum / k) + ((total_sq - csq) - (total - csum) ** 2 / (m - k))
    sse = np.where(xs[:, lo:m - lo + 1] > xs[:, lo - 1:m - lo], sse, np.inf)
    cut = np.argmin(sse, axis=1)
    best = None
    for j, s in enumerate(sse[np.arange(len(cut)), cut].tolist()):
        if math.isfinite(s) and (best is None or s < best_sse - 1e-12):
            best, best_sse = j, s
    return None if best is None else (best, lo - 1 + int(cut[best]))


class _SegmentQuantiles:
    """``np.quantile(values[seg == s], tau)`` for every segment id s in
    ``ids``, for any values over one fixed ``seg``.

    The constructor does the work that depends on ``seg`` and ``tau`` alone:
    each segment's count, and where in the values sorted by (segment, value)
    numpy's 'linear' method reads its two neighbours and with what fraction.
    A call then runs one lexsort, two gathers and the interpolation,
    including numpy's interpolation from the upper neighbour when the
    fraction is at least 0.5, so each result is bit-identical.  ``seg``
    holds non-negative ids and ``values`` no NaN."""

    __slots__ = ("seg", "ids", "lo", "hi", "gamma", "upper")

    def __init__(self, seg: np.ndarray, tau: float):
        self.seg = seg
        count = np.bincount(seg)
        self.ids = np.flatnonzero(count)
        count = count[self.ids]
        last = np.cumsum(count) - 1
        index = (count - 1) * tau
        prev = np.floor(index)
        # at or past the end numpy takes the last value, with prev -1
        top = index >= count - 1
        prev[top] = -1.0
        self.lo = np.where(top, last, last - (count - 1) + prev.astype(np.intp))
        self.hi = np.where(top, last, self.lo + 1)
        self.gamma = index - prev
        self.upper = self.gamma >= 0.5

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The quantiles of ``values``, one per entry of ``ids``."""
        v = values[np.lexsort((values, self.seg))]
        a, b = v[self.lo], v[self.hi]
        diff = b - a
        return np.where(self.upper, b - diff * (1 - self.gamma), a + diff * self.gamma)


# each forest hyperparameter's (default, check), as the method table declares them
FOREST_HYPER = {"n_trees": (200, integer(0)), "depth": (3, integer(0)), "lr": (0.05, real(0, strict=True)),
                "min_leaf": (10, integer(1))}


class QuantileForest:
    """Gradient-boosted trees minimizing the pinball loss at level ``tau``.

    The initial prediction is the empirical tau-quantile of the training
    labels; each round fits a least-squares tree to the pinball gradient and
    re-estimates leaf values as the tau-quantile of the current residuals,
    matching the usual boosted quantile-regression update.

    Each feature is sorted once per fit.  Trees grow depth-first from an
    explicit stack, so each node gets its document number (see
    :class:`_Tree`) when it is taken off the stack.  A node's candidate cuts
    for all features come from its rows in each feature's presorted order,
    which a child takes from its parent's with one stable mask; every
    leaf's quantile comes from one lexsort, and the training predictions
    are updated from the rows' leaves without routing them through the new
    tree.

    The cuts depend on the features and the gradients alone, and every
    gradient is tau or tau - 1, so the residuals' sign pattern fixes them.
    The fit runs the cut search once per pattern and keeps its cut arrays
    (no row-sized array), which every round with that pattern shares.  Such
    a round recomputes only the leaf values; it takes the row-to-leaf map
    from the previous round when that had the same pattern, else by routing
    the rows through the cuts with the tests that grew them.  ``n_grown``
    counts the distinct sign patterns of the last fit; a forest rebuilt
    from a document has None.

    ``predict`` routes the rows once per distinct set of cut arrays, keeping
    their leaves up to the last tree holding them, and adds the trees'
    values in order.  So a fitted forest routes its input
    ``n_grown`` times per call, and a forest rebuilt from a document, whose
    trees share no arrays, ``n_trees`` times.  A routing takes as many
    whole-batch steps as its tree is deep (see :func:`_route`): a fitted
    tree's depth comes with its cuts, a loaded tree's is counted once in
    ``from_dict``, so a document tree deeper than the declared ``depth``
    routes in full and an all-leaf forest reads no column.  Its input needs
    at least ``min_features`` columns: one more than the largest split
    feature.
    """

    def __init__(self, tau: float, n_trees: int, depth: int, lr: float, min_leaf: int):
        self.tau = real(0, strict=True)(tau, "forest tau")
        if not self.tau < 1.0:
            raise ValidationError(f"forest tau must lie in (0, 1), got {tau!r}")
        self.n_trees = FOREST_HYPER["n_trees"][1](n_trees, "forest n_trees")
        self.depth = FOREST_HYPER["depth"][1](depth, "forest depth")
        self.lr = FOREST_HYPER["lr"][1](lr, "forest lr")
        self.min_leaf = FOREST_HYPER["min_leaf"][1](min_leaf, "forest min_leaf")
        self.base = 0.0
        self.trees: list[_Tree] = []
        self.n_grown = None
        self.min_features = 0

    def _grow(self, X, order, xs, g):
        """Find one tree's cuts for the gradients g; returns its (feature,
        thresh, left, right) arrays, nodes numbered as in its document, its
        depth, and each row's leaf."""
        lo = self.min_leaf  # fewest rows a side may keep
        leaf = np.empty(len(g), dtype=np.intp)
        nodes = []  # each node's [feature, thresh, left, right]
        # a node to number: its rows in row order; its parent's rows in each
        # feature's sorted order and their values there, with the mask that
        # keeps this node's (None at the root); its depth; and the node
        # whose right child it is (-1 for a left child or the root).  The
        # right child is pushed first, so the left one is numbered next.
        stack = [(np.arange(len(g)), order, xs, None, 0, -1)]
        deepest = 0
        while stack:
            rows, o, xv, keep, depth, parent = stack.pop()
            deepest = max(deepest, depth)
            v = len(nodes)
            if parent >= 0:
                nodes[parent][3] = v
            nodes.append([-1, 0.0, -1, -1])
            cut = None
            if depth < self.depth and len(rows) >= 2 * lo:
                if keep is not None:
                    o, xv = o[keep].reshape(len(o), -1), xv[keep].reshape(len(o), -1)
                gr = g[rows]
                cut = _best_cut(xv, g[o], gr.sum(), (gr * gr).sum(), lo)
            if cut is not None:
                j, i = cut
                thr = 0.5 * (xv[j, i] + xv[j, i + 1])
                go_left = X[rows, j] <= thr
            # the midpoint of two adjacent floats can round up to the upper
            # one and leave the right side empty: keep the leaf
            if cut is None or go_left.all():
                leaf[rows] = v
                continue
            nodes[v][:3] = j, thr, v + 1
            # masking the sorted orders keeps ties in row order
            mask = X[o, j] <= thr
            stack.append((rows[~go_left], o, xv, ~mask, depth + 1, v))
            stack.append((rows[go_left], o, xv, mask, depth + 1, -1))
        return tuple(map(np.asarray, zip(*nodes))), deepest, leaf

    def fit(self, X, y) -> "QuantileForest":
        X, y = _training_arrays(X, y)
        if len(y) == 0:
            raise ValidationError("empty training set")
        # the leaf quantiles sort residuals, which NaN labels would poison
        if not np.all(np.isfinite(y)):
            raise ValidationError("non-finite training labels")
        self.base = float(np.quantile(y, self.tau))
        self.trees = []
        # ties keep row order, as a stable sort of any node's rows would
        order = np.argsort(X.T, axis=1, kind="stable")
        xs = np.take_along_axis(X.T, order, axis=1)
        pred = np.full(len(y), self.base)
        self.n_grown = self.min_features = 0
        grown = {}  # each sign pattern's cut arrays and depth, which its rounds share
        key = None
        for _ in range(self.n_trees):
            resid = y - pred
            positive = resid > 0
            # g, and so the cuts and leaves, follow from the signs alone: a
            # repeated pattern changes only the values
            last, key = key, np.packbits(positive).tobytes()
            if key != last:
                shape = grown.get(key)
                if shape is None:
                    cuts, depth, leaf = self._grow(X, order, xs, np.where(positive, self.tau, self.tau - 1.0))
                    grown[key] = cuts, depth
                    self.n_grown += 1
                    self.min_features = max(self.min_features, int(cuts[0].max()) + 1)
                else:
                    cuts, depth = shape
                    leaf = _route(X, *cuts, depth)
                quantiles = _SegmentQuantiles(leaf, self.tau)
            value = np.zeros(len(cuts[0]))
            value[quantiles.ids] = quantiles(resid)
            self.trees.append(_Tree(*cuts, value, depth))
            pred = pred + self.lr * value[leaf]
        return self

    def predict(self, X) -> np.ndarray:
        X = _prediction_features(X, self.min_features, at_least=True)
        out = np.full(X.shape[0], self.base)
        # self.trees keeps every cut array alive, so no id is reused in this call
        cuts = [(id(t.feature), id(t.thresh), id(t.left), id(t.right)) for t in self.trees]
        last = {key: i for i, key in enumerate(cuts)}
        leaves = {}  # the rows' leaves for each set of cut arrays still to come
        for i, (tree, key) in enumerate(zip(self.trees, cuts)):
            leaf = leaves.get(key)
            if leaf is None:
                leaf = leaves[key] = tree.leaves(X)
            if last[key] == i:
                del leaves[key]
            out += self.lr * tree.value[leaf]
        return out

    def to_dict(self) -> dict:
        return {**_document(self, "quantile_forest", ("tau", "n_trees", "depth", "lr", "min_leaf", "base")),
                "trees": [t.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, d: dict) -> "QuantileForest":
        """Rebuild a forest from its document.  Raises ValidationError unless
        ``trees`` holds ``n_trees`` dicts of five non-empty lists of equal
        length, each list read across all trees by one value check, and
        every node is a leaf (feature and children -1) or has a feature and
        two children numbered after it in its own tree (which also rules
        out routing cycles).  Each tree's depth is counted here, for all
        trees at once."""
        qf = _from_document(cls, d, "quantile_forest", ("tau", "n_trees", "depth", "lr", "min_leaf"), {"base": real()})
        trees = d.get("trees")
        if not isinstance(trees, list) or len(trees) != qf.n_trees:
            raise ValidationError(f"forest needs a list of n_trees = {qf.n_trees} trees")
        sizes = []
        for t in trees:
            lists = [t.get(name) for name in _TREE_LISTS] if isinstance(t, dict) else [None]
            if not all(isinstance(v, list) and v and len(v) == len(lists[0]) for v in lists):
                raise ValidationError(f"a tree must be a dict of the non-empty lists {', '.join(_TREE_LISTS)} "
                                      "of one length")
            sizes.append(len(lists[0]))
        arrays = [
            check(list(itertools.chain.from_iterable(t[name] for t in trees)), f"quantile_forest tree {name!r}")
            for name, check in _TREE_LISTS.items()]
        feature, _, left, right, _ = arrays
        ends = np.cumsum(sizes, dtype=np.int64)
        starts = ends - sizes
        # each node's index within its tree, and the size of its tree
        node, n = np.arange(len(feature)) - np.repeat(starts, sizes), np.repeat(sizes, sizes)
        leaf = (feature == -1) & (left == -1) & (right == -1)
        internal = (feature >= 0) & (left > node) & (left < n) & (right > node) & (right < n)
        if not np.all(leaf | internal):
            raise ValidationError("forest tree node is neither a leaf nor a split into two children "
                                  "numbered after it in its tree")
        qf.trees = [_Tree(*(a[start:end] for a in arrays), depth)
                    for start, end, depth in zip(starts.tolist(), ends.tolist(), _depths(left, right, sizes))]
        qf.min_features = int(feature.max(initial=-1)) + 1
        return qf


# ---------------------------------------------------------------------------
# Linear softmax bin classifier

# the fit stops once every gradient entry is this small
_GRAD_TOL = 1e-10
# added to the Newton system's diagonal, far below the curvature of any
# bin that holds labels
_NEWTON_RIDGE = 1e-12
# step halvings per Newton iteration before the fit stops
_MAX_HALVINGS = 30


# each classifier hyperparameter's (default, check), as the method table declares them
CLASSIFIER_HYPER = {"epochs": (500, integer(0)), "l2": (1e-3, real(0))}


class BinClassifier:
    """Multinomial logistic model over the scale's label grid, fit by damped
    Newton on cross-entropy + 0.5 * l2 * ||weights||^2.

    Features are standardized internally.  Each iteration solves the Newton
    system and halves the step until the loss does not increase, so
    ``loss_history`` (the starting loss, then one entry per iteration) is
    non-increasing.  The objective is convex, so the fit stops at its
    optimum: when max |gradient| <= ``_GRAD_TOL``, when no halved step
    lowers the loss any more, or after ``epochs`` iterations, the cap.
    ``grad_norm`` holds the final max |gradient|.  Zero epochs leave the
    zero-initialized weights in place (uniform probabilities).
    """

    def __init__(self, bins, epochs: int, l2: float):
        self.bins = array(1)(bins, "classifier bins")
        self.epochs = CLASSIFIER_HYPER["epochs"][1](epochs, "classifier epochs")
        self.l2 = CLASSIFIER_HYPER["l2"][1](l2, "classifier l2")
        self.weights = None
        self.bias = None
        self.means = None
        self.stds = None
        self.loss_history: list[float] = []
        self.grad_norm = None

    def _bin_index(self, y: np.ndarray) -> np.ndarray:
        diffs = np.abs(y[:, None] - self.bins[None, :])
        idx = np.argmin(diffs, axis=1)
        if np.any(diffs[np.arange(len(y)), idx] > 1e-6):
            raise ValidationError("label off the bin grid")
        return idx

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.means) / self.stds

    def _probs(self, Xs: np.ndarray) -> np.ndarray:
        logits = Xs @ self.weights.T + self.bias
        logits -= logits.max(axis=1, keepdims=True)
        expv = np.exp(logits)
        return expv / expv.sum(axis=1, keepdims=True)

    def _loss_grad(self, Xs, target):
        """Loss, weight and bias gradients, and the probabilities, at the
        current parameters.  ``target`` is the (rows, bins) index pair of
        the labels' entries in the probability matrix."""
        n = Xs.shape[0]
        probs = self._probs(Xs)
        ll = -np.mean(np.log(np.maximum(probs[target], 1e-300)))
        loss = ll + 0.5 * self.l2 * float((self.weights ** 2).sum())
        diff = probs.copy()
        diff[target] -= 1.0
        grad_w = diff.T @ Xs / n + self.l2 * self.weights
        grad_b = diff.mean(axis=0)
        return loss, grad_w, grad_b, probs

    def _hessian(self, Xt: np.ndarray, probs: np.ndarray, weight_entries: np.ndarray) -> np.ndarray:
        """Hessian of the loss over the parameters ``[weights | bias]``,
        flattened class by class: (1/n) sum_i (diag p_i - p_i p_i^T) kron
        x_i x_i^T with x_i = [Xs_i, 1] the rows of ``Xt`` and p_i those of
        ``probs``, plus l2 on the ``weight_entries``."""
        n, k1 = Xt.shape
        m = probs.shape[1]
        # row i of A is p_i kron x_i, so A^T A is the p p^T term and
        # A^T Xt stacks the per-class blocks Xt^T diag(p_a) Xt
        A = (probs[:, :, None] * Xt[:, None, :]).reshape(n, m * k1)
        H = -(A.T @ A)
        blocks = H.reshape(m, k1, m, k1)
        a = np.arange(m)
        blocks[a, :, a, :] += (A.T @ Xt).reshape(m, k1, k1)
        H /= n
        H[weight_entries, weight_entries] += self.l2
        return H

    def fit(self, X, y) -> "BinClassifier":
        X, y = _training_arrays(X, y)
        m, k = len(self.bins), X.shape[1]
        self.means, self.stds = _scaling(X)
        Xs = self._standardize(X)
        target = (np.arange(len(y)), self._bin_index(y))
        Xt = np.hstack([Xs, np.ones((len(y), 1))])
        weight_entries = np.tile(np.arange(k + 1) < k, m)
        self.weights = np.zeros((m, k))
        self.bias = np.zeros(m)
        loss, grad_w, grad_b, probs = self._loss_grad(Xs, target)
        self.loss_history = [loss]
        for _ in range(self.epochs):
            grad = np.hstack([grad_w, grad_b[:, None]])
            if np.abs(grad).max() <= _GRAD_TOL:
                break
            H = self._hessian(Xt, probs, weight_entries)
            # a common shift of the biases leaves the probabilities alone,
            # so H is singular along it; the ridge makes the system solvable
            H[np.diag_indices_from(H)] += _NEWTON_RIDGE
            step = np.linalg.solve(H, grad.ravel()).reshape(m, k + 1)
            w_old, b_old = self.weights, self.bias
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                self.weights, self.bias = w_old - t * step[:, :k], b_old - t * step[:, k]
                new_loss, new_gw, new_gb, new_probs = self._loss_grad(Xs, target)
                if new_loss <= loss:
                    break
                t *= 0.5
            else:
                # no step lowers the loss: the optimum is within rounding
                self.weights, self.bias = w_old, b_old
                break
            loss, grad_w, grad_b, probs = new_loss, new_gw, new_gb, new_probs
            self.loss_history.append(loss)
        self.grad_norm = float(max(np.abs(grad_w).max(), np.abs(grad_b).max()))
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.weights is None:
            raise ValidationError("classifier not fitted")
        return self._probs(self._standardize(_prediction_features(X, len(self.means))))

    def to_dict(self) -> dict:
        return _document(self, "bin_classifier", ("bins", "epochs", "l2", "weights", "bias", "means", "stds"))

    @classmethod
    def from_dict(cls, d: dict) -> "BinClassifier":
        bc = _from_document(cls, d, "bin_classifier", ("bins", "epochs", "l2"),
                            {"weights": array(2), "bias": array(1), "means": array(1), "stds": array(1)})
        if bc.weights.shape != (len(bc.bins), len(bc.means)) or bc.bias.shape != bc.bins.shape:
            raise ValidationError("bin_classifier needs per bin a 'bias' and a row of 'weights' "
                                  "with one entry per mean")
        return bc


# ---------------------------------------------------------------------------
# Gaussian kernel similarity

# float64 entries of one (rows x points) block: 512 KB, so the few arrays
# of a block stay in a 2 MB L2 cache (on eval-wide's kernel, blocks of 2^16
# and 2^17 entries ran about 20% faster than 2^19)
_BLOCK_ENTRIES = 1 << 16

# up to about this many (row, point) pairs the difference tensor is cheaper
# than three numpy calls per feature: per weights_batch call with one query
# and 5 features, 51 vs 62 us at 250 points, 70 vs 74 at 500, even at 750,
# 101 vs 91 at 1000
_TENSOR_PAIRS = 512


def _block_rows(m: int) -> int:
    """Rows per block against m points, so a block holds ``_BLOCK_ENTRIES`` entries."""
    return max(1, _BLOCK_ENTRIES // max(m, 1))


def _sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``np.sum((A[:, None] - B[None]) ** 2, axis=-1)`` bit for bit, without
    a (rows x points x features) tensor larger than one block.

    numpy adds fewer than 8 numbers in sequence, so below 8 features the
    same bits come from adding one 2-D squared-difference term per feature
    in order.  That builds no tensor and, beyond ``_TENSOR_PAIRS`` pairs,
    runs faster (a 32 x 2000 block with 5 features: 0.64 ms against 2.3 ms).
    Otherwise the expression itself runs on blocks of rows whose tensor
    holds at most ``_BLOCK_ENTRIES`` entries."""
    n, m, k = len(A), len(B), A.shape[1]
    if 0 < k < 8 and n * m > _TENSOR_PAIRS:
        # feature-major copies, so each term reads two contiguous rows
        At, Bt = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)
        out = np.subtract.outer(At[0], Bt[0])
        out *= out
        for a, b in zip(At[1:], Bt[1:]):
            d = np.subtract.outer(a, b)
            d *= d
            out += d
        return out
    step = _block_rows(m * k)
    if n <= step:
        return np.sum((A[:, None] - B[None]) ** 2, axis=-1)
    out = np.empty((n, m))
    for r0 in range(0, n, step):
        out[r0:r0 + step] = np.sum((A[r0:r0 + step, None] - B[None]) ** 2, axis=-1)
    return out


# float64 unit roundoff
_U = 2.0 ** -53


def _gram_factor(B: np.ndarray, c: float = 1.0) -> np.ndarray:
    """The right factor of :func:`_gram_sq_distances` for the points B and
    the divisor c: a (features + 2, points) array whose columns are
    [b, |b|^2, 1] / c, one division per entry."""
    return np.vstack([B.T, np.einsum("ij,ij->i", B, B), np.ones(len(B))]) / c


def _gram_rows(A: np.ndarray) -> np.ndarray:
    """The left factor of :func:`_gram_sq_distances` for the rows A: a
    (rows, features + 2) array whose rows are [-2a, 1, |a|^2].  A caller
    that takes a block of rows at a time builds it once, for every row,
    and slices it."""
    return np.hstack([-2.0 * A, np.ones((len(A), 1)), np.einsum("ij,ij->i", A, A)[:, None]])


def _gram_product(rows: np.ndarray, factor: np.ndarray, out=None) -> np.ndarray:
    """The (rows, points) product of a slice of :func:`_gram_rows` with a
    slice of :func:`_gram_factor`, written into ``out`` when given: each
    entry is a squared distance divided by c, within
    :func:`_gram_bound`."""
    return np.matmul(rows, factor, out=out)


def _gram_bound(s, factor: np.ndarray, t_max: float):
    """:func:`_gram_sq_distances`'s bound for rows whose |a|^2 (the last
    column of :func:`_gram_rows`) are ``s``, against the columns of
    ``factor`` whose largest |t / c| is ``t_max``.  Every rounding in it
    is monotone in s, so the bound at the largest of some rows' s is the
    largest of their bounds."""
    k = len(factor) - 2
    return (10 * k + 24) * _U * (s * abs(factor[k + 1, 0]) + t_max) + k * 1e-122


def _gram_sq_distances(A: np.ndarray, factor: np.ndarray):
    """The squared distances of A's rows to the points B of ``factor``,
    divided by the c it was made with (see :func:`_gram_factor`), as
    (|a|^2 + |b|^2 - 2 a.b) / c from one matrix product; and per row of A a
    bound on how far they may lie from ``np.divide(_sq_distances(A, B),
    c)``'s bits.  Returns ((rows, points), (rows,)).  A value may lie on
    the wrong side of 0 by up to its bound; clamping it at 0 only moves it
    closer.

    In any order, a sum of n products is within gamma_n = nu / (1 - nu)
    times the sum of their magnitudes of its true value (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, ch. 3; u = 2^-53).  With
    k features, s = |a|^2, t = |b|^2 and the true distance d <= 2 (s + t),
    to first order in u:

    - :func:`_sq_distances` adds k terms fl(fl(a_i - b_i)^2), each within 3u
      of (a_i - b_i)^2, so it lies within gamma_{k+2} d of d, and dividing
      by c rounds once more: within (k + 3) u d / |c| <= 2 (k + 3) u (s +
      t) / |c| of d / c;
    - here the computed s and t are each within gamma_k of their true
      values, and the factor's entries b_i / c, t / c and 1 / c round once
      more.  That moves the k + 2 terms -2 a_i b_i / c (the factor 2 is
      exact), t / c and s / c by at most (k + 2) u (s + t) / |c| together,
      since 2 sum |a_i b_i| <= s + t.  The product adds them within
      gamma_{k+2} of their sum of magnitudes, at most 2 (s + t) / |c|.  So
      it lies within (3k + 6) u (s + t) / |c| of d / c.

    So the two lie within (5k + 12) u (s + t) / |c| of each other.  The
    bound doubles that, for the higher-order terms and for the computed
    norms (and s times the factor's 1 / c) standing in for the true ones,
    and takes the largest |t / c| of the factor so that one bound holds
    along a row.  Each rounding that falls below the normal range adds at
    most 2^-1075; with every |a_i| and |b_i| at most 1e100 and |c| at
    least 1e-100, as the callers ensure, those add less than k 1e-122,
    which the bound adds too.  It holds for finite inputs whose terms do
    not overflow.  (With c = 1 the divisions are exact, and the bound is
    looser than it need be.)

    This is the product and bound of one call; :func:`_gram_rows`,
    :func:`_gram_product` and :func:`_gram_bound` are its three steps, for
    callers that go a block of rows at a time and build the rows and bounds
    once."""
    rows = _gram_rows(A)
    return _gram_product(rows, factor), _gram_bound(rows[:, -1], factor, np.abs(factor[A.shape[1]]).max())


def _paired_sq_distances(X: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The squared distances of X's rows i to its rows j, pair by pair,
    with :func:`_sq_distances`'s bits below 8 features: one squared
    difference per feature, added in order."""
    d = np.take(X, i, axis=0)
    d -= np.take(X, j, axis=0)
    d *= d
    out = d[:, 0].copy()
    for column in d.T[1:]:
        out += column
    return out


# the pair distances a median pass keeps, and the pairs its sample draws,
# at most: 2 MB each
_SELECT_CAP = 1 << 18

# a located pass computes the pairs it marks a group of consecutive blocks
# at a time: once _GATHER are marked, when the group holds _GROUP_BLOCKS
# blocks, and at the end.  So the arrays made of a group's pairs (a mask
# holds one byte per pair) are seldom under 1 KB.  numpy keeps up to 7 freed
# buffers of each byte size under 1 KB, and arrays of one block's pairs,
# their size changing from block to block, would pile up there
_GATHER = 4096
_GROUP_BLOCKS = 8


def _pair_sample(Xs: np.ndarray, size: int) -> np.ndarray:
    """Sorted distances of ``size`` pairs i != j drawn with a fixed seed,
    a block of pairs at a time."""
    m = len(Xs)
    rng = np.random.default_rng(0)
    out = np.empty(size)
    step = _block_rows(Xs.shape[1])
    for c0 in range(0, size, step):
        c = min(step, size - c0)
        i = rng.integers(0, m, c)
        j = rng.integers(0, m - 1, c)
        j += j >= i
        out[c0:c0 + c] = np.sum((Xs[i] - Xs[j]) ** 2, axis=-1)
    out.sort()
    return out


def _pair_pass(Xs: np.ndarray, lo: float, hi: float):
    """One blocked pass over the squared distances of the pairs i < j:
    ``(below, inside, kept)``, the numbers of them under ``lo`` and in
    [lo, hi], and those in [lo, hi] unless more than ``_SELECT_CAP`` are
    (then None).  The distances are :func:`_sq_distances`'s bits; see
    :func:`_bracket_candidates` for which pairs get them."""
    everything = lo <= 0.0 and hi == np.inf
    below = inside = 0
    kept = []
    for certain, d in _bracket_candidates(Xs, lo, hi):
        below += certain
        if everything:
            n_in = d.size
        else:
            lt = d < lo
            le = d <= hi
            n_lt = np.count_nonzero(lt)
            n_in = np.count_nonzero(le) - n_lt
            below += n_lt
        inside += n_in
        if kept is not None and n_in:
            if inside > _SELECT_CAP:
                kept = None
            else:
                kept.append(d.ravel() if everything else d[le ^ lt])
    if kept is not None:
        kept = np.concatenate(kept) if kept else np.empty(0)
    return below, inside, kept


def _bracket_candidates(Xs: np.ndarray, lo: float, hi: float):
    """Per group of rows, (n, d): the number n of pairs i < j whose squared
    distance is certainly below ``lo``, and the exact squared distances d
    of other pairs, among which are all those in [lo, hi].  Together they
    cover every pair once.  Each block of rows splits into the triangle of
    pairs among its own rows and the rectangle against the rows after it.

    The bracket [0, inf] holds every pair, so each block's distances come
    from :func:`_sq_distances` and n is 0.  So do any bracket's from 8
    features on, where numpy no longer adds a pair's terms in sequence, and
    when a feature is not finite or above 1e100 in magnitude, outside
    :func:`_gram_sq_distances`'s bound.  Otherwise a block's
    distances come from one product against the Gram factor of the rows
    from its own on, within that function's bound e (the largest of the
    block's rows): those under lo - e are counted in n, those over hi + e
    dropped, and only the rest, the bracket's contents and two bands of
    width about e, are computed exactly, by :func:`_paired_sq_distances`.
    Consecutive blocks mark those pairs in one mask until ``_GATHER`` of
    them are marked, and a group's pairs are computed together."""
    m, k = Xs.shape
    step = _block_rows(m)
    upper = np.triu(np.ones((min(step, m),) * 2, dtype=bool), 1)
    if not ((lo > 0.0 or hi < np.inf) and 0 < k < 8 and bool(np.all(np.abs(Xs) <= 1e100))):
        for r0 in range(0, m - 1, step):
            r1 = min(r0 + step, m)
            rows = Xs[r0:r1]
            yield 0, _sq_distances(rows, rows)[upper[:r1 - r0, :r1 - r0]]
            yield 0, _sq_distances(rows, Xs[r1:])
        return
    factor = _gram_factor(Xs)
    rows = _gram_rows(Xs)
    # each block's largest bound, against the columns from its own first
    # row on: from the largest |a|^2 of its rows and the suffix maximum of
    # |t| (a bracket narrower than [0, inf] comes with m >= 2, so there is
    # a last block, and it ends at row min(r0 + step, m))
    starts = np.arange(0, m - 1, step)
    s_max = np.maximum.reduceat(rows[:min(starts[-1] + step, m), -1], starts)
    t_max = np.maximum.accumulate(np.abs(factor[k, ::-1]))[::-1]
    bounds = _gram_bound(s_max, factor, t_max[starts])
    group_rows = _GROUP_BLOCKS * step
    buffer = np.empty(group_rows * m, dtype=bool)
    g0 = certain = marked = 0
    for r0, e in zip(starts.tolist(), bounds.tolist()):
        r1 = min(r0 + step, m)
        if r0 == g0:
            # the marks of a group starting at row g0: row i - g0, column j - g0
            marks = buffer[:group_rows * (m - g0)].reshape(group_rows, m - g0)
        d2 = _gram_product(rows[r0:r1], factor[:, r0:])
        # the thresholds rounded outwards, so each side of them is certain
        lt = d2 < np.nextafter(lo - e, -np.inf)
        marks[r0 - g0:r1 - g0, :r0 - g0] = False
        le = np.less_equal(d2, np.nextafter(hi + e, np.inf), out=marks[r0 - g0:r1 - g0, r0 - g0:])
        mask = upper[:r1 - r0, :r1 - r0]
        lt[:, :r1 - r0] &= mask
        le[:, :r1 - r0] &= mask
        le ^= lt
        certain += np.count_nonzero(lt)
        marked += np.count_nonzero(le)
        if marked >= _GATHER or r1 - g0 + step > group_rows or r1 >= m - 1:
            i, j = np.divmod(np.flatnonzero(marks[:r1 - g0]), m - g0)
            i += g0
            j += g0
            yield certain, _paired_sq_distances(Xs, i, j)
            g0, certain, marked = r1, 0, 0


def _bracket(sample: np.ndarray, lo: float, hi: float, p_lo: float, p_hi: float):
    """Pivots inside [lo, hi] around the fractions p_lo..p_hi of its values:
    the sampled values there with a margin of four standard deviations,
    when that halves them and narrows [lo, hi]; else the midpoint of
    [lo, hi] in bit order (two non-negative floats order as their bits)."""
    a, b = np.searchsorted(sample, lo, side="left"), np.searchsorted(sample, hi, side="right")
    n = b - a
    margin = 2.0 * math.sqrt(n) + 1.0
    i, j = math.floor(p_lo * n - margin), math.ceil(p_hi * n + margin)
    if j - i <= n / 2:
        l, h = (sample[a + i] if i >= 0 else lo), (sample[a + j] if j < n else hi)
        if (l, h) != (lo, hi):
            return l, h
    bits = np.array([lo, hi]).view(np.int64)
    mid = float((bits[:1] + (bits[1] - bits[0]) // 2).view(np.float64)[0])
    return mid, mid


def _pair_distance_ranks(Xs: np.ndarray, ranks: list, state=None, sample=None) -> list:
    """The squared pair distances of the given ascending ranks (0-based,
    among the m(m-1)/2 pairs i < j), exactly, by bracketed selection
    (Floyd & Rivest, CACM 1975), holding at most ``_SELECT_CAP`` of them.

    ``state`` is a bracket [lo, hi] known to hold the ranks, with the
    numbers of distances below it and in it; at first every distance is in
    [0, inf].  While the bracket holds more than the cap, a fixed-seed
    sample of pairs picks a narrower one around the ranks and a pass counts
    and keeps what lies in it.  A pass whose bracket misses the ranks
    narrows [lo, hi] past it.  The counts are exact, so the sample only
    sets how many passes run, never the result.  A pass over [0, inf]
    computes every distance exactly; a narrower one locates the pairs by
    Gram products and computes exactly only those in or next to the
    bracket (:func:`_bracket_candidates`)."""
    m = len(Xs)
    n_pairs = m * (m - 1) // 2
    lo, hi, n_below, n_in = state or (0.0, np.inf, 0, n_pairs)
    while True:
        if n_in <= _SELECT_CAP:
            l, h = lo, hi
        elif lo == hi:
            return [lo] * len(ranks)
        else:
            if sample is None:
                # about cap / 2 distances fall in the first bracket
                sample = _pair_sample(Xs, min(_SELECT_CAP, (8 * n_pairs // _SELECT_CAP) ** 2 + 1024))
            l, h = _bracket(sample, lo, hi, (ranks[0] - n_below) / n_in, (ranks[-1] + 1 - n_below) / n_in)
        below, inside, kept = _pair_pass(Xs, l, h)
        first, last = ranks[0] - below, ranks[-1] - below
        if 0 <= first and last < inside:
            if kept is not None:
                at = [k - below for k in ranks]
                kept.partition(at)
                return list(kept[at])
            if l == h:
                return [l] * len(ranks)
            lo, hi, n_below, n_in = l, h, below, inside
        elif last < 0:
            hi, n_in = np.nextafter(l, -np.inf), below - n_below
        elif first >= inside:
            lo, n_in, n_below = np.nextafter(h, np.inf), n_below + n_in - below - inside, below + inside
        else:
            # a pivot falls between the two middle ranks: select each alone
            return [v for k in ranks for v in _pair_distance_ranks(Xs, [k], (lo, hi, n_below, n_in), sample)]


# Up to about this many (query, point) pairs the exact path of
# ``KernelSimilarity.local_quantiles`` is faster than locating and
# certifying, whose set-up costs more than one served point's whole exact
# predict.  Per call with 5 features (best of 7 x 50 calls, 2-core x86, one
# BLAS thread): one query against 250 points 48-51 us exact against 123-130
# located; 4 x 1000 135-141 against 186-194; about even at 8000 pairs (8 x
# 1000: 195-215 against 191-201, 32 x 250: 184-188 against 152-153); 16 x
# 1000 330-340 against 207-211; 32 x 1000 595 against 243-247.  Building the
# query rows once per call left these small calls' located cost where it
# was (8 x 1000 read 191-196 us before), so the crossover stays between 4000
# and 8000 pairs.
_LOCATE_PAIRS = 10000

# located weights are summed this many columns at a time, so that each row
# needs one cumsum only inside the columns where it crosses the level
_MASS_COLUMNS = 64

# a bound on one exp result's absolute error when it is subnormal
_SUBNORMAL_ERR = 2.0 ** -1071

# the kernel's bandwidth (default, check), as the method table declares it
KERNEL_HYPER = {"bandwidth": (None, or_none(real(0, strict=True)))}


class KernelSimilarity:
    """Gaussian kernel on standardized features.  The bandwidth defaults to
    the median pairwise distance of the calibration features (median
    heuristic) unless set explicitly.

    ``weights_batch`` gives the weights bit for bit from the exact squared
    distances of :func:`_sq_distances`.  ``local_quantiles`` and
    ``median_bandwidth`` get their distances from one matrix product per
    block against a Gram factor instead (:func:`_gram_sq_distances`), and
    that function's error bound tells them what the product settles: where
    each query's cumulative weight crosses a level, and which pairs lie in
    or next to a selection bracket.  What it cannot settle they compute
    exactly, through ``weights_batch`` or pair by pair.  Both build the Gram
    rows (:func:`_gram_rows`) and bounds once per call and give each block
    its slice.

    Memory: ``weights_batch`` holds a few (queries x m) arrays, and no
    (queries x m x features) tensor larger than one block, so a caller that
    passes a block of queries at a time uses O(block * m) memory, as
    ``local_quantiles`` does, plus O(queries * features) for its Gram rows;
    ``median_bandwidth`` holds one block (with the exact distances
    of its pairs in or next to the bracket), a sample of at most
    ``_SELECT_CAP`` pairs and at most that many kept distances, whatever m
    is: 2 MB each, against 16 MB for all pairs at m = 2000 and 2.5 GB at
    m = 25000."""

    def __init__(self, bandwidth: float | None):
        self.bandwidth = KERNEL_HYPER["bandwidth"][1](bandwidth, "kernel bandwidth")
        self.means = None
        self.stds = None

    def fit(self, X) -> "KernelSimilarity":
        self.means, self.stds = _scaling(np.asarray(X, dtype=float))
        return self

    def _standardize(self, X) -> np.ndarray:
        return (_prediction_features(X, len(self.means)) - self.means) / self.stds

    def median_bandwidth(self, X) -> float:
        """The square root of ``np.median`` over the squared distances of
        the m(m-1)/2 pairs of ``X``'s points, bit for bit (1.0 when it is 0
        or there are no pairs), found by selection without keeping them.
        Raises ValidationError when a distance is NaN or the median
        overflows."""
        Xs = self._standardize(X)
        # a distance is NaN exactly when a feature is, or when two points
        # share an infinite one
        shared_inf = any((np.count_nonzero(Xs == v, axis=0) > 1).any() for v in (np.inf, -np.inf))
        if shared_inf or np.isnan(Xs).any():
            raise ValidationError("degenerate features")
        n_pairs = len(Xs) * (len(Xs) - 1) // 2
        if n_pairs == 0:
            return 1.0
        # np.median's mean of the one or two middle values
        d2 = np.mean(_pair_distance_ranks(Xs, sorted({(n_pairs - 1) // 2, n_pairs // 2})))
        if not np.isfinite(d2):
            raise ValidationError("degenerate features")
        bw = float(np.sqrt(d2))
        return bw if bw > 1e-12 else 1.0

    def _fitted_bandwidth(self) -> float:
        if self.means is None:
            raise ValidationError("kernel not fitted")
        if self.bandwidth is None:
            raise ValidationError("bandwidth not set")
        return self.bandwidth

    def weights_batch(self, X_calib, Z) -> np.ndarray:
        """(queries, m) row-normalized kernel weights of each query against
        the m calibration points."""
        bw = self._fitted_bandwidth()
        Xc = self._standardize(X_calib)
        Zq = self._standardize(np.atleast_2d(Z))
        d2 = _sq_distances(Zq, Xc)
        if not np.all(np.isfinite(d2)):
            raise ValidationError("degenerate features")
        # equal to exp(-d2 / (2 bw^2)): IEEE division is symmetric in sign
        w = np.divide(d2, -2.0 * bw * bw)
        np.exp(w, out=w)
        totals = w.sum(axis=1, keepdims=True)
        # queries so far from every point that all kernels underflow fall
        # back to nearest-neighbour weighting
        dead = totals[:, 0] <= 0.0
        if dead.any():
            w[dead] = 0.0
            w[dead, np.argmin(d2[dead], axis=1)] = 1.0
            totals = w.sum(axis=1, keepdims=True)
        w /= totals
        return w

    def local_quantiles(self, X_calib, Z, sorted_scores, order, level: float) -> np.ndarray:
        """Each query's weighted quantile of the calibration scores: the
        first of ``sorted_scores`` (the scores of the points ``X_calib`` put
        in ``order``) whose cumulative ``weights_batch`` weight in that
        order reaches ``level``, or the largest score when none does.  The
        rows of Z (a 1-D Z is one query, as for ``weights_batch``) get the
        bits of :meth:`_exact_quantiles`, which adds up the weights by
        ``cumsum``, with each crossing located from approximate distances
        and certified against the exact sum.

        A block of queries at a time gets its kernel exponents d2 / c (c =
        -2 bw^2) from one matrix product against the calibration points'
        Gram factor, into which 1 / c is folded (:func:`_gram_sq_distances`
        derives the per-query error bound eta).  The factor, padded with
        zero columns to whole column groups, the queries' Gram rows and
        every eta are built once per call.  Each block's product is written
        straight into the weight buffer, exp runs there in place, and the
        pad columns go back to 0.  From the weights come their totals and
        each row's cumulative mass in score order: sums of
        ``_MASS_COLUMNS`` columns, then one cumsum inside the columns where
        the mass crosses ``level``.  The crossing index j stands when the
        located mass before it is below ``level - E`` and the mass at it is
        at least ``level + E``, where E (derived below) bounds the gap
        between the located and the exact cumulative mass.  The exact mass
        never decreases, so the exact path's index is j as well.

        Rows that fail, whose total weight is below e^-700 or whose E
        exceeds 1e-6 (a row that never reaches the level fails too) go
        through the exact path in one batch.  So does a whole call of at
        most ``_LOCATE_PAIRS`` pairs, or with a standardized feature that is
        not finite or above 1e100 in magnitude (which keeps the exact path's
        errors), or with a bandwidth whose 2 bw^2 is below 1e-100 (outside
        eta's derivation).  Memory: a few (block x m) arrays, O(block * m),
        as on the exact path, plus one (queries x (k + 2)) array of Gram
        rows and a few per-query values."""
        Z = np.atleast_2d(Z)
        m = len(X_calib)
        if len(Z) * m <= _LOCATE_PAIRS:
            return self._exact_quantiles(X_calib, Z, sorted_scores, order, level)
        bw = self._fitted_bandwidth()
        c = -2.0 * bw * bw  # as weights_batch divides
        Xs = self._standardize(X_calib)[order]
        Zs = self._standardize(Z)
        if abs(c) < 1e-100 or not (np.all(np.abs(Xs) <= 1e100) and np.all(np.abs(Zs) <= 1e100)):
            return self._exact_quantiles(X_calib, Z, sorted_scores, order, level)
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
        # path's d2 / c: :func:`_gram_sq_distances` derives eta with c folded
        # into the factor, and it bounds both paths' roundings, the exact
        # path's division by c included, for exponents of any size.  So the
        # true exp values differ by a factor of at most e^eta.  Taking
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
        # its division: 4m u together.  E doubles the sum of both.  It is
        # used only with W >= e^-700, so m tau / W is negligible and the
        # exact path's nearest-point fallback cannot apply, and with E <=
        # 1e-6, so the denominator above is about 1.
        with np.errstate(over="ignore"):
            rho = np.expm1(eta) + 18 * _U
        E = 4.0 * (rho + m * _SUBNORMAL_ERR / total) + 8 * (m + 1) * _U
        certified = live & (E <= 1e-6) & (prev < level - E) & (at >= level + E)
        qs = sorted_scores[np.minimum(idx, m - 1)]
        rest = np.flatnonzero(~certified)
        if rest.size:
            qs[rest] = self._exact_quantiles(X_calib, Z[rest], sorted_scores, order, level)
        return qs

    def _exact_quantiles(self, X_calib, Z, sorted_scores, order, level: float) -> np.ndarray:
        """:meth:`local_quantiles` from ``weights_batch``'s weights put in
        ``order`` and added up by ``cumsum``, a block of queries at a time
        (which keeps the (queries x m) arrays bounded)."""
        qs = np.empty(len(Z))
        step = _block_rows(len(X_calib))
        for r0 in range(0, len(Z), step):
            cum = np.cumsum(np.take(self.weights_batch(X_calib, Z[r0:r0 + step]), order, axis=1), axis=1)
            # first score index where the weighted mass reaches the level
            idx = np.argmax(cum >= level, axis=1)
            reached = cum[np.arange(len(idx)), idx] >= level
            qs[r0:r0 + step] = sorted_scores[np.where(reached, idx, len(sorted_scores) - 1)]
        return qs

    def to_dict(self) -> dict:
        return _document(self, "kernel_similarity", ("bandwidth", "means", "stds"))

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSimilarity":
        return _from_document(cls, d, "kernel_similarity", ("bandwidth",), {"means": array(1), "stds": array(1)})


# ---------------------------------------------------------------------------
# Ridge point predictor


# the ridge penalty's (default, check), as the method table declares it
RIDGE_HYPER = {"l2": (1.0, real(0))}


class RidgePredictor:
    """Closed-form ridge regression on standardized features."""

    def __init__(self, l2: float):
        self.l2 = RIDGE_HYPER["l2"][1](l2, "ridge l2")
        self.coef = None
        self.intercept = 0.0
        self.means = None
        self.stds = None

    def fit(self, X, y) -> "RidgePredictor":
        X, y = _training_arrays(X, y)
        self.means, self.stds = _scaling(X)
        Xs = (X - self.means) / self.stds
        y_mean = y.mean()
        A = Xs.T @ Xs + self.l2 * np.eye(X.shape[1])
        self.coef = np.linalg.solve(A, Xs.T @ (y - y_mean))
        self.intercept = float(y_mean)
        return self

    def predict(self, X) -> np.ndarray:
        X = _prediction_features(X, len(self.means))
        return ((X - self.means) / self.stds) @ self.coef + self.intercept

    def to_dict(self) -> dict:
        return _document(self, "ridge", ("l2", "coef", "intercept", "means", "stds"))

    @classmethod
    def from_dict(cls, d: dict) -> "RidgePredictor":
        rp = _from_document(cls, d, "ridge", ("l2",),
                            {"coef": array(1), "intercept": real(), "means": array(1), "stds": array(1)})
        if rp.coef.shape != rp.means.shape:
            raise ValidationError("ridge needs one 'coef' entry per mean")
        return rp


# ---------------------------------------------------------------------------
# Ordinary least squares


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    residuals: np.ndarray
    r_squared: float
    fitted: np.ndarray


def ols(design, response) -> OlsFit:
    """Minimum-norm least squares; rank-deficient designs go through the
    pseudo-inverse.  R-squared is centered (0 when the response has no
    variance around its mean)."""
    X = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(response, dtype=float)
    if X.shape[0] == 0:
        raise ValidationError("empty design")
    if X.shape[0] < X.shape[1]:
        raise ValidationError("fewer rows than columns")
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ coef
    resid = y - fitted
    sst = float(np.sum((y - y.mean()) ** 2))
    ssr = float(np.sum(resid ** 2))
    r2 = 0.0 if sst <= 1e-300 else max(0.0, 1.0 - ssr / sst)
    return OlsFit(coefficients=coef, residuals=resid, r_squared=r2, fitted=fitted)
