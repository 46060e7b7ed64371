"""Shared machinery for the stream-facing classification methods."""

from __future__ import annotations

import numpy as np

from ..streams import Chunk
from ..utils import FitValidationMixin, ParamsMixin, as_feature_matrix
from ..validation import ValidationSet, member_posteriors


class Pool:
    """Ordered, bounded collection of classifiers with birth metadata."""

    def __init__(self, max_size):
        if max_size < 1:
            raise ValueError("pool size must be positive")
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
        if prepared is None:
            return self
        self._learn_batch(*prepared)
        return self

    def _learn_batch(self, X, y):
        raise NotImplementedError

    def predict(self, X):
        X = as_feature_matrix(X, self.n_features_)
        if not self.is_ready:
            return np.zeros(len(X), dtype=np.int64)
        return np.array([self._predict_one(x) for x in X], dtype=np.int64)

    def _predict_one(self, x):
        raise NotImplementedError


class ChunkedStreamClassifier(BaseStreamClassifier):
    """Buffers the stream into fixed-size chunks and reacts at boundaries.

    Holds a bounded pool of members and a validation window of the most
    recent chunks, plus the members' posteriors over that window. A member
    is frozen once pooled, so the posteriors change only with the pool or
    the window, and each state is scored once rather than once per query.
    """

    def __init__(self, chunk_size, max_pool_size, window_chunks):
        super().__init__()
        if chunk_size < 1:
            raise ValueError("chunk size must be positive")
        self._buffer = Chunk(chunk_size)
        self._chunk_index = 0
        self.learners_created = 0
        self.pool_ = Pool(max_pool_size)
        self.validation_ = ValidationSet(window_chunks)
        self._posteriors = None
        self._posteriors_state = None

    @property
    def is_ready(self):
        return len(self.pool_) > 0 and len(self.validation_) > 0

    def _window_posteriors(self):
        """The pool's (P, N, C) posteriors over the validation window's flat
        view, refilled in place after any change to the pool or the window."""
        state = (self.pool_.version, self.validation_.version)
        if state != self._posteriors_state:
            self._posteriors = member_posteriors(
                self.pool_.learners, self.validation_.features, out=self._posteriors
            )
            self._posteriors_state = state
        return self._posteriors

    def _learn_batch(self, X, y):
        offset = 0
        while offset < len(X):
            offset += self._buffer.add(X[offset:], y[offset:])
            if self._buffer.is_full:
                self._on_chunk(self._buffer)
                self._chunk_index += 1
                self._buffer = Chunk(self._buffer.capacity)

    def _on_chunk(self, chunk):
        raise NotImplementedError
