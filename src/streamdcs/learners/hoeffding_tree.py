"""Incremental decision tree with Hoeffding-bound split decisions."""

from __future__ import annotations

import math

import numpy as np

from .base import IncrementalClassifier, repeat_rows
from .naive_bayes import VARIANCE_FLOOR

_SQRT2 = math.sqrt(2.0)


def hoeffding_bound(value_range, delta, n):
    """Confidence radius sqrt(R^2 * ln(1/delta) / (2n)).

    delta=1 is the degenerate boundary where the radius collapses to 0.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    if n < 1:
        raise ValueError("n must be at least 1")
    if value_range <= 0:
        raise ValueError("value range must be positive")
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))


def _normal_cdf(z):
    flat = z.ravel()
    out = np.empty(flat.shape)
    for i, v in enumerate(flat):
        out[i] = 0.5 * (1.0 + math.erf(v / _SQRT2))
    return out.reshape(z.shape)


def _entropy_bits(counts):
    """Entropy in bits of one count vector."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def _entropy_bits_cols(counts):
    """Column-wise entropy in bits of a (C, T) count matrix."""
    totals = counts.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        logs = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    h = -np.sum(p * logs, axis=0)
    return np.where(totals > 0, h, 0.0)


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

    def learn(self, x, c):
        self.proba = None
        self.class_counts[c] += 1.0
        delta = x - self.mean[c]
        self.mean[c] += delta / self.class_counts[c]
        self.m2[c] += delta * (x - self.mean[c])
        np.minimum(self.f_min, x, out=self.f_min)
        np.maximum(self.f_max, x, out=self.f_max)
        self.since_attempt += 1

    def distribution(self):
        """Class frequencies of the instances learned, uniform when none."""
        if self.proba is None:
            total = self.class_counts.sum()
            n_classes = len(self.class_counts)
            self.proba = (
                self.class_counts / total if total > 0 else np.full(n_classes, 1.0 / n_classes)
            )
        return self.proba


class _Split:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature, threshold, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


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
        Instances a leaf accumulates between split attempts. The default is
        sized for chunk-scale training (around a thousand instances per
        learner); raise it for long-lived trees.
    split_confidence : float
        Delta of the Hoeffding bound.
    tie_threshold : float
        Bound below which near-ties split anyway. Chunk-scale default: with
        equally informative features the gain margin never resolves, so ties
        must break within a chunk's worth of instances.
    n_split_candidates : int
        Candidate thresholds per feature, evenly spaced over the observed range.
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
        self.grace_period = grace_period
        self.split_confidence = split_confidence
        self.tie_threshold = tie_threshold
        self.n_split_candidates = n_split_candidates
        self._root = None
        # Class-count mass retired when a leaf is replaced by a split node;
        # leaf totals plus this tally equal the instances ever fitted.
        self.retired_count_ = 0

    # Inherited, restated on the class because the benchmark's tracer
    # (perfbench/spans.py) wraps HoeffdingTreeClassifier.partial_fit by name.
    partial_fit = IncrementalClassifier.partial_fit

    def _learn(self, X, y, weights):
        """Learn each row as many times in a row as its weight says, so a
        leaf that splits partway through a row's copies sends the rest of
        them to its new children."""
        if self._root is None:
            self._root = _Leaf(self.n_classes_, self.n_features_)
        X, y = repeat_rows(X, y, weights)
        for x, c in zip(X, y):
            leaf, parent, side = self._route(x)
            leaf.learn(x, c)
            if leaf.since_attempt >= self.grace_period:
                leaf.since_attempt = 0
                split = self._evaluate_split(leaf)
                if split is not None:
                    self.retired_count_ += int(leaf.class_counts.sum())
                    node = _Split(
                        split[0],
                        split[1],
                        _Leaf(self.n_classes_, self.n_features_),
                        _Leaf(self.n_classes_, self.n_features_),
                    )
                    if parent is None:
                        self._root = node
                    else:
                        setattr(parent, side, node)

    def _route(self, x):
        node, parent, side = self._root, None, None
        while isinstance(node, _Split):
            parent = node
            side = "left" if x[node.feature] <= node.threshold else "right"
            node = getattr(node, side)
        return node, parent, side

    def _evaluate_split(self, leaf):
        counts = leaf.class_counts
        total = counts.sum()
        if np.count_nonzero(counts) < 2:
            return None
        parent_h = _entropy_bits(counts)
        seen = counts > 0
        denom = np.maximum(counts - 1.0, 1.0)[:, None]
        sigma = np.sqrt(np.maximum(leaf.m2 / denom, VARIANCE_FLOOR))

        best_gain, second_gain, best = 0.0, 0.0, None
        for j in range(self.n_features_):
            lo, hi = leaf.f_min[j], leaf.f_max[j]
            if not hi > lo:
                continue
            thresholds = np.linspace(lo, hi, self.n_split_candidates + 2)[1:-1]
            below = np.zeros((len(counts), len(thresholds)))
            z = (thresholds[None, :] - leaf.mean[seen, j, None]) / sigma[seen, j, None]
            below[seen] = counts[seen, None] * _normal_cdf(z)
            above = counts[:, None] - below
            n_below = below.sum(axis=0)
            n_above = above.sum(axis=0)
            mixed = (
                n_below * _entropy_bits_cols(below)
                + n_above * _entropy_bits_cols(above)
            ) / total
            gains = parent_h - mixed
            t = int(np.argmax(gains))
            if gains[t] > best_gain:
                second_gain = best_gain
                best_gain, best = float(gains[t]), (j, float(thresholds[t]))
            elif gains[t] > second_gain:
                second_gain = float(gains[t])

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
        NaN feature goes right. A branch no row takes is never visited.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self._root is None:
            return self._uniform_proba(len(X))
        out = np.empty((len(X), self.n_classes_))
        # rows is every row of X until a node splits them.
        pending = [(self._root, slice(None))]
        while pending:
            node, rows = pending.pop()
            while isinstance(node, _Split):
                left = X[rows, node.feature] <= node.threshold
                n_left = np.count_nonzero(left)
                if n_left == len(left):
                    node = node.left
                elif n_left == 0:
                    node = node.right
                else:
                    if isinstance(rows, slice):
                        rows = np.arange(len(X))
                    pending.append((node.right, rows[~left]))
                    node, rows = node.left, rows[left]
            out[rows] = node.distribution()
        return out

    def _leaves(self):
        if self._root is None:
            return []
        stack, leaves = [self._root], []
        while stack:
            node = stack.pop()
            if isinstance(node, _Split):
                stack.extend((node.left, node.right))
            else:
                leaves.append(node)
        return leaves

    @property
    def n_leaves(self):
        return max(len(self._leaves()), 1) if self._root is not None else 1

    @property
    def leaf_class_totals(self):
        """Summed class counts over all leaves; equals the instances fitted."""
        leaves = self._leaves()
        if not leaves:
            return np.zeros(self.n_classes_ or 1)
        return np.sum([leaf.class_counts for leaf in leaves], axis=0)
