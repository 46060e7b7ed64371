"""Minority-driven chunk ensemble for imbalanced streams."""

from __future__ import annotations

import math

import numpy as np

from ..evaluation import confusion_matrix, gmean
from ..learners import HoeffdingTreeClassifier
from ..utils import majority_vote
from .base import ChunkedStreamClassifier


class MdeClassifier(ChunkedStreamClassifier):
    """Chunk ensemble that votes through members proven competent on the
    minority class.

    Each full chunk trains a fresh learner about which all members are then
    rescored by the geometric mean of their per-class recalls on that chunk;
    the lowest-scoring member leaves when the pool overflows (ties evict the
    oldest). At query time the members correct on at least half of the k
    nearest minority-class validation instances vote; with no competent
    member, or no minority instance in the window, the whole pool votes.

    Parameters
    ----------
    learner_factory : callable
        Zero-argument factory for fresh base learners.
    chunk_size : int
        Instances per training chunk.
    max_pool_size : int
        Upper bound on pool membership.
    k : int
        Minority neighbors consulted per query.
    window_chunks : int
        Chunks retained as validation data.
    """

    def __init__(
        self,
        learner_factory=HoeffdingTreeClassifier,
        chunk_size=1000,
        max_pool_size=10,
        k=7,
        window_chunks=4,
    ):
        super().__init__(chunk_size, max_pool_size, window_chunks)
        self.learner_factory = learner_factory
        self.chunk_size = chunk_size
        self.max_pool_size = max_pool_size
        self.k = k
        self.window_chunks = window_chunks
        self.scores_ = []
        self.minority_class_ = None
        self._minority_mask = None
        self._minority_state = None

    def _on_chunk(self, chunk):
        self.minority_class_ = self._minority_label(chunk.labels)
        learner = self.learner_factory()
        learner.partial_fit(chunk.features, chunk.labels, n_classes=self.n_classes_)
        self.pool_.append(learner, self._chunk_index)
        self.learners_created += 1
        self.scores_ = [
            self._score_member(m, chunk) for m in self.pool_.learners
        ]
        if self.pool_.over_capacity:
            victim = int(np.argmin(self.scores_))
            self.pool_.evict(victim)
            self.scores_.pop(victim)
        self.validation_.push_chunk(chunk)

    def _minority_label(self, labels):
        counts = np.bincount(labels, minlength=self.n_classes_)
        present = np.flatnonzero(counts > 0)
        return int(present[np.argmin(counts[present])])

    def _score_member(self, member, chunk):
        predictions = member.predict(chunk.features)
        return gmean(confusion_matrix(chunk.labels, predictions, self.n_classes_))

    def _minority_rows(self):
        """Mask of the window's minority-class rows, kept per window state."""
        state = (self.validation_.version, self.minority_class_)
        if state != self._minority_state:
            self._minority_mask = self.validation_.labels == self.minority_class_
            self._minority_state = state
        return self._minority_mask

    def _predict_one(self, x):
        query = x.reshape(1, -1)
        votes = np.array([m.predict(query)[0] for m in self.pool_.learners])
        minority = self._minority_rows()
        if minority.any():
            neighborhood = self.validation_.knn_query(x, self.k, where=minority)
            predictions = self._window_posteriors()[:, neighborhood.indices].argmax(axis=2)
            correct = np.sum(predictions == neighborhood.labels, axis=1)
            competent = correct >= math.ceil(self.k / 2)
            if competent.any():
                votes = votes[competent]
        return majority_vote(votes, self.n_classes_)
