"""Shared machinery for the stream-facing classification methods."""

from __future__ import annotations

import numpy as np

from ..learners.hoeffding_tree import CompiledForest, HoeffdingTreeClassifier
from ..streams import Chunk
from ..utils import FitValidationMixin, ParamsMixin, as_feature_matrix, check_positive_integer
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
    recent chunks, plus the members' posteriors over that window and
    whether each is right on each row. A member is frozen once pooled, so
    both change only with the pool or the window, and each state is scored
    once rather than once per query.

    Each full chunk trains a fresh member from ``learner_factory``, which
    joins the pool; then every member is scored by ``_member_scores``, the
    lowest score leaves if the pool overflows (ties to the oldest), and the
    chunk slides into the window. ``scores_`` keeps the surviving members'
    scores from the last boundary.
    """

    def __init__(self, chunk_size, max_pool_size, window_chunks):
        super().__init__()
        check_positive_integer("chunk_size", chunk_size)
        check_positive_integer("max_pool_size", max_pool_size)
        check_positive_integer("window_chunks", window_chunks)
        self._buffer = Chunk(chunk_size)
        self._chunk_index = 0
        self.learners_created = 0
        self.pool_ = Pool(max_pool_size)
        self.validation_ = ValidationSet(window_chunks)
        self._posteriors = None
        self._correctness = None
        self._window_state = None
        self._forest = None
        self._forest_state = None
        self.scores_ = []

    @property
    def is_ready(self):
        return len(self.pool_) > 0 and len(self.validation_) > 0

    def _window_cache(self):
        """The pool's (P, N, C) posteriors over the validation window's flat
        view, and the (P, N) matrix of whether each member's argmax on a row
        (ties to the lowest class) is the row's label; both are refilled in
        place after any change to the pool or the window."""
        state = (self.pool_.version, self.validation_.version)
        if state != self._window_state:
            features, labels = self.validation_.features, self.validation_.labels
            shape = (len(self.pool_), len(labels))
            if self._correctness is None or self._correctness.shape != shape:
                self._correctness = np.empty(shape, dtype=bool)
            self._posteriors = member_posteriors(
                self.pool_.learners, features, out=self._posteriors
            )
            # One member at a time, so no (P, N) array of indices is held.
            for member, row in zip(self._posteriors, self._correctness):
                np.equal(member.argmax(axis=1), labels, out=row)
            self._window_state = state
        return self._posteriors, self._correctness

    def _query_posteriors(self, x):
        """The pool's (P, C) posteriors on the query row x through one
        forest compiled per pool state, when every member is a Hoeffding
        tree; otherwise None, and each member is asked in turn."""
        if self._forest_state != self.pool_.version:
            learners = self.pool_.learners
            trees = all(type(m) is HoeffdingTreeClassifier for m in learners)
            self._forest = CompiledForest(learners) if trees else None
            self._forest_state = self.pool_.version
        return None if self._forest is None else self._forest.predict_proba(x)

    def _learn_batch(self, X, y):
        offset = 0
        while offset < len(X):
            offset += self._buffer.add(X[offset:], y[offset:])
            if self._buffer.is_full:
                self._on_chunk(self._buffer)
                self._chunk_index += 1
                self._buffer = Chunk(self._buffer.capacity)

    def _on_chunk(self, chunk):
        learner = self.learner_factory()
        learner.partial_fit(chunk.features, chunk.labels, n_classes=self.n_classes_)
        self.pool_.append(learner, self._chunk_index)
        self.learners_created += 1
        self.scores_ = list(self._member_scores(chunk))
        if self.pool_.over_capacity:
            victim = int(np.argmin(self.scores_))
            self.pool_.evict(victim)
            self.scores_.pop(victim)
        self.validation_.push_chunk(chunk)

    def _member_scores(self, chunk):
        """One score per pooled member, oldest first, given the new chunk
        before it enters the window."""
        raise NotImplementedError
