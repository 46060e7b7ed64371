"""Incremental Gaussian naive Bayes.

The arithmetic is written once over a leading member axis: ``welford_steps``
trains a stack of M learners' moments, and ``stacked_proba`` scores them.
A lone ``GaussianNaiveBayes`` is a stack of one; an online-bagging ensemble
of naive-Bayes members trains and votes all of them through one stack.
"""

from __future__ import annotations

import numpy as np

from .base import IncrementalClassifier

VARIANCE_FLOOR = 1e-9


def variances(counts, m2):
    """Sample variances (ddof=1) where defined, floored everywhere; counts is
    (..., C) and m2 is (..., C, d)."""
    return np.maximum(m2 / np.maximum(counts - 1.0, 1.0)[..., None], VARIANCE_FLOOR)


def welford_steps(counts, mean, m2, X, y, weights):
    """Weighted Welford steps (West, 1979) for a stack of M learners, in place.

    counts is (M, C), mean and m2 are (M, C, d), and weights is (n, M): row i
    moves learner m's moments as weights[i, m] copies of it would. With a
    weight of 1 every result equals the unweighted step's, bit for bit. A
    learner with weight 0 is left bit-identical, with no 0/0: its denominator
    is floored at 1 (a count that moved is at least 1), so the step adds a
    signed zero, and its moments, which start at +0.0, never hold -0.0 for
    that zero to flip.
    """
    for x, c, w in zip(X, y.tolist(), weights[:, :, None].astype(np.float64)):
        n, class_mean, class_m2 = counts[:, c, None], mean[:, c], m2[:, c]  # views
        n += w
        delta = x - class_mean
        delta *= w
        class_mean += delta / np.maximum(n, 1.0)
        class_m2 += delta * (x - class_mean)


def stacked_proba(counts, mean, m2, X):
    """(M, n, C) posteriors of a stack of M learners over the rows of X.

    A learner that has seen no instance answers the uniform distribution.
    """
    n_features = mean.shape[2]
    if X.shape[1] != n_features:
        raise ValueError(f"feature dimension mismatch: expected {n_features}, got {X.shape[1]}")
    var = variances(counts, m2)
    total = counts.sum(axis=1, keepdims=True)  # a whole number: 0 or at least 1
    with np.errstate(divide="ignore"):
        log_prior = np.log(counts / np.maximum(total, 1.0))
    # log P(x|c) summed over features, vectorized over (M, n, C, d)
    diff = X[None, :, None, :] - mean[:, None, :, :]
    log_like = -0.5 * np.sum(
        np.log(2.0 * np.pi * var)[:, None, :, :] + diff * diff / var[:, None, :, :],
        axis=3,
    )
    joint = log_prior[:, None, :] + log_like
    np.copyto(joint, -np.inf, where=(counts == 0)[:, None, :])
    # An unfit learner's rows are constant, so exactly 1 / C once normalised.
    np.copyto(joint, 0.0, where=(total == 0)[:, :, None])
    shifted = joint - joint.max(axis=2, keepdims=True)
    proba = np.exp(shifted)
    return proba / proba.sum(axis=2, keepdims=True)


class GaussianNaiveBayes(IncrementalClassifier):
    """Naive Bayes with per-(class, feature) running Gaussian moments.

    Moments are maintained with Welford accumulators, so fitting a batch at
    once or one instance at a time yields the same result, and a row of
    integer weight k counts as k copies of it. Variances are floored at
    query time to remove zero-variance singularities.

    The moment arrays are allocated once, when the shape is fixed, and only
    ever updated in place: an online-bagging ensemble binds them to rows of
    its own stack.
    """

    def __init__(self, n_classes=None):
        super().__init__(n_classes=n_classes)
        self._counts = None  # (C,) instances per class
        self._mean = None  # (C, d)
        self._m2 = None  # (C, d) sum of squared deviations

    # Inherited, restated on the class because the benchmark's tracer
    # (perfbench/spans.py) wraps GaussianNaiveBayes.partial_fit by name.
    partial_fit = IncrementalClassifier.partial_fit

    def _set_shape(self, n_classes, n_features):
        super()._set_shape(n_classes, n_features)
        if self._counts is None:
            self._counts = np.zeros(self.n_classes_)
            self._mean = np.zeros((self.n_classes_, self.n_features_))
            self._m2 = np.zeros((self.n_classes_, self.n_features_))

    def _stack_of_one(self):
        return self._counts[None], self._mean[None], self._m2[None]

    def _learn(self, X, y, weights):
        welford_steps(*self._stack_of_one(), X, y, weights[:, None])

    def _variances(self):
        return variances(self._counts, self._m2)

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self._counts is None:
            return self._uniform_proba(len(X))
        return stacked_proba(*self._stack_of_one(), X)[0]

    @property
    def class_priors_(self):
        if self._counts is None or self._counts.sum() == 0:
            return None
        return self._counts / self._counts.sum()
