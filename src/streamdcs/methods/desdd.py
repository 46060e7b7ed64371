"""Ensemble-of-ensembles with diversity via spread Poisson rates."""

from __future__ import annotations

from collections import deque

import numpy as np

from ..learners import GaussianNaiveBayes, OnlineBaggingEnsemble
from .base import BaseStreamClassifier


class DesddClassifier(BaseStreamClassifier):
    """Several online-bagging sub-ensembles trained in parallel, each with
    its own Poisson rate; the sub-ensemble most accurate on a sliding
    window of recent instances answers all queries until the next
    re-selection at a chunk boundary.

    Parameters
    ----------
    n_subensembles : int
        How many sub-ensembles compete.
    subensemble_size : int
        Members per sub-ensemble.
    learner_factory : callable
        Zero-argument factory for fresh members. Every incoming instance
        trains every member, so the default is the cheap Gaussian NB.
    lambda_range : (float, float)
        Poisson rates are spaced evenly across this closed interval.
    chunk_size : int
        Re-selection cadence in instances; positive.
    window_size : int or None
        Validation window length, positive; defaults to chunk_size.
    seed : int or SeedSequence
        Drives all replication draws.
    """

    def __init__(
        self,
        n_subensembles=10,
        subensemble_size=5,
        learner_factory=GaussianNaiveBayes,
        lambda_range=(1.0, 10.0),
        chunk_size=1000,
        window_size=None,
        seed=None,
    ):
        super().__init__()
        if n_subensembles < 1 or subensemble_size < 1:
            raise ValueError("ensemble dimensions must be positive")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if window_size is not None and window_size < 1:
            raise ValueError(f"window_size must be positive or None, got {window_size}")
        self.n_subensembles = n_subensembles
        self.subensemble_size = subensemble_size
        self.learner_factory = learner_factory
        self.lambda_range = lambda_range
        self.chunk_size = chunk_size
        self.window_size = window_size
        self.seed = seed

        self.lambdas_ = np.linspace(lambda_range[0], lambda_range[1], n_subensembles)
        entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = entropy.spawn(n_subensembles)
        self.subensembles_ = [
            OnlineBaggingEnsemble(
                [learner_factory() for _ in range(subensemble_size)],
                lam=float(lam),
                seed=child,
            )
            for lam, child in zip(self.lambdas_, children)
        ]
        self.selected_index_ = 0
        self._window = deque(maxlen=chunk_size if window_size is None else window_size)
        self._seen = 0
        # Per-sub-ensemble count of instances delivered for training.
        self.instances_delivered_ = np.zeros(n_subensembles, dtype=np.int64)

    @property
    def is_ready(self):
        return self._seen > 0

    def _set_shape(self, n_classes, n_features):
        super()._set_shape(n_classes, n_features)
        for sub in self.subensembles_:
            sub._set_shape(self.n_classes_, self.n_features_)

    def _learn_batch(self, X, y):
        # X and y were validated once by partial_fit; the sub-ensembles and
        # their members learn them without checking again.
        offset = 0
        while offset < len(X):
            boundary = self.chunk_size - (self._seen % self.chunk_size)
            take = min(boundary, len(X) - offset)
            seg_X, seg_y = X[offset : offset + take], y[offset : offset + take]
            ones = np.ones(take, dtype=np.int64)
            for sub in self.subensembles_:
                sub._learn(seg_X, seg_y, ones)
            self.instances_delivered_ += take
            for row, label in zip(seg_X, seg_y):
                self._window.append((row, label))
            self._seen += take
            offset += take
            if self._seen % self.chunk_size == 0:
                self._reselect()

    def _reselect(self):
        X = np.stack([row for row, _ in self._window])
        y = np.array([label for _, label in self._window])
        accuracies = [np.mean(sub.predict(X) == y) for sub in self.subensembles_]
        self.selected_index_ = int(np.argmax(accuracies))

    def _predict_one(self, x):
        return int(self.subensembles_[self.selected_index_].predict(x.reshape(1, -1))[0])
