"""Online bagging via per-instance Poisson replication."""

from __future__ import annotations

import numpy as np

from ..utils import as_feature_matrix, as_label_vector
from .base import IncrementalClassifier


class OnlineBaggingEnsemble(IncrementalClassifier):
    """Fixed pool of incremental members trained with Poisson(lambda) weights.

    Each incoming instance is presented to every member k times, where k is
    drawn independently per (instance, member) from Poisson(lam). Prediction
    is the majority vote of the members, ties to the lowest class index.

    Parameters
    ----------
    members : sequence of incremental classifiers
        Fixed at construction; never grown or pruned.
    lam : float
        Poisson rate; lam=0 disables training entirely.
    seed : int, SeedSequence or Generator
        Drives the replication draws.
    """

    def __init__(self, members, lam=1.0, seed=None):
        super().__init__()
        if lam < 0:
            raise ValueError("lambda must be nonnegative")
        self.members = list(members)
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        self.lam = float(lam)
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def partial_fit(self, X, y, n_classes=None):
        X = as_feature_matrix(X, self.n_features_)
        y = as_label_vector(y, len(X), n_classes)
        if len(X) == 0:
            return self
        if self.n_classes_ is None:
            self.n_classes_ = int(n_classes) if n_classes else int(y.max()) + 1
        if self.n_features_ is None:
            self.n_features_ = X.shape[1]
        # Row-major draw order: instance-major, member-minor.
        reps = self._rng.poisson(self.lam, size=(len(X), len(self.members)))
        for m, member in enumerate(self.members):
            k = reps[:, m]
            sel = k > 0
            if not sel.any():
                continue
            member.partial_fit(
                np.repeat(X[sel], k[sel], axis=0),
                np.repeat(y[sel], k[sel]),
                n_classes=self.n_classes_,
            )
        return self

    def predict_proba(self, X):
        """Share of the members voting for each class, row by row."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self.n_classes_ is None:
            return self._uniform_proba(len(X))
        votes = np.stack([m.predict(X) for m in self.members])  # (M, n)
        counts = (votes[:, :, None] == np.arange(self.n_classes_)).sum(axis=0)
        return counts / len(self.members)

    # The inherited argmax, restated on the class because the benchmark's
    # tracer (perfbench/spans.py) wraps OnlineBaggingEnsemble.predict by name.
    def predict(self, X):
        """Majority vote of the members, ties to the lowest class index."""
        return np.argmax(self.predict_proba(X), axis=1)
