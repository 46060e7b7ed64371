"""Shared machinery for the stream-facing classification methods."""

from __future__ import annotations

import numpy as np

from ..utils import FitValidationMixin, ParamsMixin, as_feature_matrix, check_positive_integer


class Pool:
    """Ordered, bounded collection of classifiers with birth metadata."""

    def __init__(self, max_size):
        check_positive_integer("max_size", max_size)
        self.max_size = int(max_size)
        self._members = []
        self._births = []
        # Bumped by every change to the membership, so caches can key on it.
        self.version = 0

    def __len__(self):
        return len(self._members)

    @property
    def learners(self):
        return list(self._members)

    @property
    def births(self):
        return list(self._births)

    def append(self, learner, birth_index):
        if self._births and birth_index < self._births[-1]:
            raise ValueError("birth indices must be nondecreasing")
        self._members.append(learner)
        self._births.append(int(birth_index))
        self.version += 1

    @property
    def over_capacity(self):
        return len(self._members) > self.max_size

    def evict(self, position):
        self._members.pop(position)
        self._births.pop(position)
        self.version += 1


class BaseStreamClassifier(ParamsMixin, FitValidationMixin):
    """partial_fit/predict contract shared by all stream methods.

    predict never raises on an untrained model: until the method is ready
    it returns class 0, so prequential evaluation can start at instance 1.
    """

    def __init__(self):
        self.n_classes_ = None
        self.n_features_ = None

    @property
    def is_ready(self):
        return False

    def partial_fit(self, X, y, n_classes=None):
        prepared = self._validate_fit(X, y, n_classes)
        if prepared is not None:
            self._learn_batch(*prepared)
        return self

    def _learn_batch(self, X, y):
        raise NotImplementedError

    def predict(self, X):
        X = as_feature_matrix(X, self.n_features_)
        predictions = np.zeros(len(X), dtype=np.int64)
        if self.is_ready:
            for i, x in enumerate(X):
                predictions[i] = self._predict_one(x)
        return predictions

    def _predict_one(self, x):
        raise NotImplementedError
