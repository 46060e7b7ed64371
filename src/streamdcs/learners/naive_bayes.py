"""Incremental Gaussian naive Bayes."""

from __future__ import annotations

import numpy as np

from .base import IncrementalClassifier

VARIANCE_FLOOR = 1e-9


class GaussianNaiveBayes(IncrementalClassifier):
    """Naive Bayes with per-(class, feature) running Gaussian moments.

    Moments are maintained with Welford accumulators, so fitting a batch at
    once or one instance at a time yields the same result, and a row of
    integer weight k counts as k copies of it. Variances are floored at
    query time to remove zero-variance singularities.
    """

    def __init__(self, n_classes=None):
        super().__init__(n_classes=n_classes)
        self._counts = None  # (C,) instances per class
        self._mean = None  # (C, d)
        self._m2 = None  # (C, d) sum of squared deviations

    # Inherited, restated on the class because the benchmark's tracer
    # (perfbench/spans.py) wraps GaussianNaiveBayes.partial_fit by name.
    partial_fit = IncrementalClassifier.partial_fit

    def _learn(self, X, y, weights):
        """Weighted Welford steps (West, 1979): a row of weight w moves the
        moments as w copies of it would. With w = 1 the arithmetic is the
        unweighted step's, operation for operation."""
        if self._counts is None:
            self._counts = np.zeros(self.n_classes_)
            self._mean = np.zeros((self.n_classes_, self.n_features_))
            self._m2 = np.zeros((self.n_classes_, self.n_features_))
        counts, mean, m2 = self._counts, self._mean, self._m2
        for x, c, w in zip(X, y.tolist(), weights.tolist()):
            if w:
                counts[c] += w
                class_mean = mean[c]  # a view: updated in place
                delta = x - class_mean
                class_mean += delta * w / counts[c]
                m2[c] += w * delta * (x - class_mean)

    def _variances(self):
        # Sample variance (ddof=1) where defined, floored everywhere.
        denom = np.maximum(self._counts - 1.0, 1.0)[:, None]
        var = self._m2 / denom
        return np.maximum(var, VARIANCE_FLOOR)

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self._counts is None or self._counts.sum() == 0:
            return self._uniform_proba(len(X))
        var = self._variances()
        with np.errstate(divide="ignore"):
            log_prior = np.log(self._counts / self._counts.sum())
        # log P(x|c) summed over features, vectorized over (n, C, d)
        diff = X[:, None, :] - self._mean[None, :, :]
        log_like = -0.5 * np.sum(
            np.log(2.0 * np.pi * var)[None, :, :] + diff * diff / var[None, :, :],
            axis=2,
        )
        joint = log_prior[None, :] + log_like
        joint[:, self._counts == 0] = -np.inf
        shifted = joint - joint.max(axis=1, keepdims=True)
        proba = np.exp(shifted)
        return proba / proba.sum(axis=1, keepdims=True)

    @property
    def class_priors_(self):
        if self._counts is None or self._counts.sum() == 0:
            return None
        return self._counts / self._counts.sum()
