"""Incremental decision tree with Hoeffding-bound split decisions."""

from __future__ import annotations

import math

import numpy as np

from ..utils import as_rows, check_positive_integer, check_real, check_width
from .base import IncrementalClassifier, repeat_rows
from .naive_bayes import VARIANCE_FLOOR

_SQRT2 = math.sqrt(2.0)


def hoeffding_bound(value_range, delta, n):
    """Confidence radius sqrt(R^2 * ln(1/delta) / (2n)).

    delta=1 is the degenerate boundary where the radius collapses to 0.
    """
    check_real("value_range", value_range, 0, low_open=True, high_open=True)
    check_real("delta", delta, 0, 1, low_open=True)
    check_real("n", n, 1, high_open=True)
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))


def _normal_cdf(z):
    """Standard normal CDF of each entry of z, one ``math.erf`` call each."""
    erf = np.fromiter(map(math.erf, (z / _SQRT2).ravel().tolist()), float, count=z.size)
    return 0.5 * (1.0 + erf.reshape(z.shape))


def _entropy_bits(counts):
    """Entropy in bits of one count vector."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def _entropy_bits_cols(counts):
    """Entropy in bits of each column of counts, whose axis 0 holds the
    classes; 0 for an empty column."""
    totals = counts.sum(axis=0)
    p = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return -np.sum(p * logs, axis=0)


def _thresholds(lo, hi, n):
    """(J, n) split candidates: the inner points of np.linspace(lo[j], hi[j],
    n + 2) for each j, by linspace's own arithmetic, so bit for bit."""
    step = (hi - lo) / (n + 1)
    out = np.arange(1.0, n + 1.0) * step[:, None] + lo[:, None]
    # linspace takes another path where a step underflows to zero.
    for j in np.flatnonzero(step == 0):
        out[j] = np.linspace(lo[j], hi[j], n + 2)[1:-1]
    return out


class _Leaf:
    __slots__ = ("class_counts", "mean", "m2", "f_min", "f_max", "since_attempt", "proba")

    def __init__(self, n_classes, n_features):
        self.class_counts = np.zeros(n_classes)
        self.mean = np.zeros((n_classes, n_features))
        self.m2 = np.zeros((n_classes, n_features))
        self.f_min = np.full(n_features, np.inf)
        self.f_max = np.full(n_features, -np.inf)
        self.since_attempt = 0
        self.proba = None  # class distribution, cached until the leaf learns

    def learn(self, X, y, rows):
        """Learn the rows of X at these indices, with y their labels: one
        Welford step per row, in arrival order within each class, whose
        moments no other class reads; then the feature range once, exactly,
        as a minimum and a maximum do not round."""
        self.proba = None
        by_class = {}
        for i in rows:
            by_class.setdefault(y[i], []).append(X[i])
        for c, xs in by_class.items():
            mean, m2, n = self.mean[c], self.m2[c], self.class_counts[c]
            for x in xs:
                n += 1.0
                delta = x - mean
                mean += delta / n
                m2 += delta * (x - mean)
            self.class_counts[c] = n
        if len(rows) == 1:  # row-by-row training: no gather, no reduction
            lo = hi = x
        else:
            block = X[rows]
            lo, hi = block.min(axis=0), block.max(axis=0)
        np.minimum(self.f_min, lo, out=self.f_min)
        np.maximum(self.f_max, hi, out=self.f_max)
        self.since_attempt += len(rows)

    def distribution(self):
        """Class frequencies of the instances learned, uniform when none."""
        if self.proba is None:
            total = self.class_counts.sum()
            n_classes = len(self.class_counts)
            self.proba = (
                self.class_counts / total if total > 0 else np.full(n_classes, 1.0 / n_classes)
            )
        return self.proba


class HoeffdingTreeClassifier(IncrementalClassifier):
    """Very fast decision tree for streams.

    Leaves keep per-class Gaussian estimators for each numeric feature.
    Every grace_period instances a leaf evaluates candidate binary splits
    by information gain and commits when the gain margin over the runner-up
    feature exceeds the Hoeffding bound (or the bound falls below the tie
    threshold). Split decisions are never revisited.

    Parameters
    ----------
    grace_period : int
        Instances a leaf accumulates between split attempts, at least 1.
        The default is sized for chunk-scale training (around a thousand
        instances per learner); raise it for long-lived trees.
    split_confidence : float
        Delta of the Hoeffding bound, in (0, 1].
    tie_threshold : float
        Bound below which near-ties split anyway; finite and nonnegative.
        Chunk-scale default: with equally informative features the gain
        margin never resolves, so ties must break within a chunk's worth of
        instances.
    n_split_candidates : int
        Candidate thresholds per feature, at least 1, evenly spaced over the
        observed range.
    """

    def __init__(
        self,
        grace_period=50,
        split_confidence=1e-7,
        tie_threshold=0.1,
        n_split_candidates=10,
        n_classes=None,
    ):
        super().__init__(n_classes=n_classes)
        self.grace_period = check_positive_integer("grace_period", grace_period)
        self.split_confidence = check_real(
            "split_confidence", split_confidence, 0, 1, low_open=True
        )
        self.tie_threshold = check_real("tie_threshold", tie_threshold, 0, high_open=True)
        self.n_split_candidates = check_positive_integer("n_split_candidates", n_split_candidates)
        # The tree as one list addressed by position, root first: a leaf is
        # its _Leaf, a split a (feature, threshold, left, right) tuple whose
        # children are positions after its own. Empty until the shape is set.
        self._nodes = []
        # Class-count mass retired when a leaf is replaced by a split node;
        # leaf totals plus this tally equal the instances ever fitted.
        self.retired_count_ = 0

    # Inherited, restated on the class because the benchmark's tracer
    # (perfbench/spans.py) wraps HoeffdingTreeClassifier.partial_fit by name.
    partial_fit = IncrementalClassifier.partial_fit

    def _set_shape(self, n_classes, n_features):
        super()._set_shape(n_classes, n_features)
        if not self._nodes:
            self._nodes.append(_Leaf(self.n_classes_, self.n_features_))

    def _learn(self, X, y, weights):
        """Learn each row as many times in a row as its weight says, so a
        leaf that splits partway through a row's copies sends the rest of
        them to its new children.

        Rows are routed one at a time with the current tree, and each leaf
        buffers the indices of the rows it reaches. A leaf learns its buffer
        when the buffer would bring it to a split attempt, right before that
        attempt, and every other buffer is learned when the call ends. This
        trains the tree exactly as learning each row on arrival would: a row
        changes only the leaf it reaches, so deferring it changes nothing
        that another row reads before that leaf's next attempt; a leaf
        learns its rows in their order of arrival (see ``_Leaf.learn``); and
        a split changes the routing only of rows that arrive after it, which
        are routed after it here too.
        """
        X, y = repeat_rows(X, y, weights)
        y = y.tolist()
        pending = {}  # leaf position -> indices of the rows it has reached, in order
        for i, x in enumerate(X):
            j = self._route(x)
            rows = pending.setdefault(j, [])
            rows.append(i)
            leaf = self._nodes[j]
            if leaf.since_attempt + len(rows) >= self.grace_period:
                leaf.learn(X, y, pending.pop(j))
                leaf.since_attempt = 0
                split = self._evaluate_split(leaf)
                if split is not None:
                    self._split(j, *split)
        for j, rows in pending.items():
            self._nodes[j].learn(X, y, rows)

    def _route(self, x):
        """Position of the leaf that the row x reaches."""
        nodes, j = self._nodes, 0
        while isinstance(nodes[j], tuple):
            feature, threshold, left, right = nodes[j]
            j = left if x[feature] <= threshold else right
        return j

    def _split(self, j, feature, threshold):
        """Turn the leaf at position j into a split on feature at threshold
        whose children are two fresh leaves, appended, and retire its counts."""
        nodes = self._nodes
        self.retired_count_ += int(nodes[j].class_counts.sum())
        nodes[j] = (feature, threshold, len(nodes), len(nodes) + 1)
        nodes += (_Leaf(self.n_classes_, self.n_features_) for _ in range(2))

    def _evaluate_split(self, leaf):
        """The (feature, threshold) to split the leaf on, or None.

        Every feature whose observed range is not a point is searched at
        once, as (class, feature, threshold) arrays; each class's mass below
        a threshold is its count times its Gaussian CDF there.
        """
        counts = leaf.class_counts
        total = counts.sum()
        if np.count_nonzero(counts) < 2:
            return None
        features = np.flatnonzero(leaf.f_max > leaf.f_min)
        if len(features) == 0:
            return None
        parent_h = _entropy_bits(counts)
        seen = counts > 0
        denom = np.maximum(counts - 1.0, 1.0)[:, None]
        sigma = np.sqrt(np.maximum(leaf.m2 / denom, VARIANCE_FLOOR))

        thresholds = _thresholds(
            leaf.f_min[features], leaf.f_max[features], self.n_split_candidates
        )
        z = (thresholds - leaf.mean[seen][:, features, None]) / sigma[seen][:, features, None]
        # sides[:, 0] is the mass below each threshold, sides[:, 1] above.
        sides = np.zeros((len(counts), 2) + thresholds.shape)
        sides[seen, 0] = counts[seen, None, None] * _normal_cdf(z)
        sides[:, 1] = counts[:, None, None] - sides[:, 0]
        n_sides = sides.sum(axis=0)
        h_sides = _entropy_bits_cols(sides)
        gains = parent_h - (n_sides[0] * h_sides[0] + n_sides[1] * h_sides[1]) / total
        best_t = np.argmax(gains, axis=1)
        top = gains[np.arange(len(features)), best_t]

        best_gain, second_gain, best = 0.0, 0.0, None
        for k, gain in enumerate(top.tolist()):
            if gain > best_gain:
                second_gain = best_gain
                best_gain = gain
                best = (int(features[k]), float(thresholds[k, best_t[k]]))
            elif gain > second_gain:
                second_gain = gain

        if best is None or best_gain <= 0.0:
            return None
        eps = hoeffding_bound(
            math.log2(self.n_classes_), self.split_confidence, total
        )
        if best_gain - second_gain > eps or eps < self.tie_threshold:
            return best
        return None

    def predict_proba(self, X):
        """Class distributions of the leaves the rows reach.

        All rows descend together: each split node partitions the row
        positions that reach it with the same ``<=`` test as training, so a
        NaN feature goes right. A branch no row takes is never visited. A
        fitted tree raises ValueError for rows of another width than it was
        trained on.
        """
        X = as_rows(X)
        if not self._nodes:
            return self._uniform_proba(len(X))
        check_width(X.shape[1], self.n_features_)
        out = np.empty((len(X), self.n_classes_))
        nodes = self._nodes
        # rows is every row of X until a node splits them.
        pending = [(nodes[0], slice(None))]
        while pending:
            node, rows = pending.pop()
            while isinstance(node, tuple):
                feature, threshold, left_child, right_child = node
                left = X[rows, feature] <= threshold
                n_left = np.count_nonzero(left)
                if n_left == len(left):
                    node = nodes[left_child]
                elif n_left == 0:
                    node = nodes[right_child]
                else:
                    if isinstance(rows, slice):
                        rows = np.arange(len(X))
                    pending.append((nodes[right_child], rows[~left]))
                    node, rows = nodes[left_child], rows[left]
            out[rows] = node.distribution()
        return out

    def _leaves(self):
        return [node for node in self._nodes if isinstance(node, _Leaf)]

    @property
    def n_leaves(self):
        return max(len(self._leaves()), 1)

    @property
    def leaf_class_totals(self):
        """Summed class counts over all leaves; equals the instances fitted."""
        leaves = self._leaves()
        if not leaves:
            return np.zeros(self.n_classes_ or 1)
        return np.sum([leaf.class_counts for leaf in leaves], axis=0)


class CompiledForest:
    """A list of frozen Hoeffding trees as flat node arrays, queried all at once.

    The trees' node lists are laid end to end, so a node keeps its position
    in its tree plus the tree's offset, and its children the same offset. A
    split node holds its feature, its threshold and its two children; a leaf
    is its own child on both sides, so a query may step past it, and holds a
    copy of its own ``distribution()``. ``predict_proba`` tests every split
    node against the row with the training ``<=`` test, so a NaN feature
    goes right, and then steps every tree's cursor ``depth`` times, so it
    returns exactly what each tree's own ``predict_proba`` returns. The
    trees must not learn after compiling.
    """

    def __init__(self, trees):
        feature, threshold, children, leaves, roots = [], [], [], {}, []
        self.depth = 0
        for tree in trees:
            offset = len(feature)
            roots.append(offset)
            # A child follows its parent, so one forward pass knows each depth.
            depth = [0] * len(tree._nodes)
            # An untrained tree holds no node and answers the uniform distribution.
            for j, node in enumerate(tree._nodes or [None]):
                here = offset + j
                if isinstance(node, tuple):
                    split_on, at, left, right = node
                    feature.append(split_on)
                    threshold.append(at)
                    # Column 1 is taken when the test holds, column 0 otherwise.
                    children.append((offset + right, offset + left))
                    depth[left] = depth[right] = depth[j] + 1
                else:
                    feature.append(0)
                    threshold.append(0.0)
                    children.append((here, here))
                    leaves[here] = (
                        tree._uniform_proba(1)[0] if node is None else node.distribution()
                    )
            self.depth = max([self.depth, *depth])
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold)
        self.children = np.array(children, dtype=np.intp)
        self.roots = np.array(roots, dtype=np.intp)
        self.values = np.zeros((len(feature), len(next(iter(leaves.values())))))
        for i, proba in leaves.items():
            self.values[i] = proba

    def predict_proba(self, x):
        """(P, C) posteriors of the P trees on the one row x."""
        goes_left = (x[self.feature] <= self.threshold).view(np.int8)
        node = self.roots
        for _ in range(self.depth):
            node = self.children[node, goes_left[node]]
        return self.values[node]
