"""Chunk-based ensemble with per-query dynamic selection."""

from __future__ import annotations

import numpy as np

from ..dcs import DCSRule, build_context, make_rule
from ..learners import HoeffdingTreeClassifier
from .base import ChunkedStreamClassifier


class DynseClassifier(ChunkedStreamClassifier):
    """Dynamic selection over a pool of chunk-trained classifiers.

    Every full chunk trains one fresh learner, which joins a bounded pool,
    and then slides into the validation window. Queries build a region of
    competence from the window and delegate the decision to the configured
    selection rule.

    Parameters
    ----------
    learner_factory : callable
        Zero-argument factory for fresh base learners.
    dcs_rule : str or DCSRule
        Selection rule applied per query (e.g. "knora-e").
    chunk_size : int
        Instances per training chunk.
    max_pool_size : int
        Upper bound on pool membership.
    k : int
        Region-of-competence size.
    window_chunks : int
        Chunks retained in the validation window.
    pruning : {"age", "accuracy"}
        Eviction policy when the pool overflows: drop the oldest member, or
        the member with the lowest accuracy on the current validation set
        (ties to the oldest).
    """

    def __init__(
        self,
        learner_factory=HoeffdingTreeClassifier,
        dcs_rule="knora-e",
        chunk_size=1000,
        max_pool_size=10,
        k=7,
        window_chunks=4,
        pruning="age",
    ):
        super().__init__(chunk_size, max_pool_size, window_chunks)
        if pruning not in ("age", "accuracy"):
            raise ValueError("pruning must be 'age' or 'accuracy'")
        self.learner_factory = learner_factory
        self.dcs_rule = dcs_rule
        self.chunk_size = chunk_size
        self.max_pool_size = max_pool_size
        self.k = k
        self.window_chunks = window_chunks
        self.pruning = pruning
        self._selector = dcs_rule if isinstance(dcs_rule, DCSRule) else make_rule(dcs_rule)

    def _on_chunk(self, chunk):
        learner = self.learner_factory()
        learner.partial_fit(chunk.features, chunk.labels, n_classes=self.n_classes_)
        self.pool_.append(learner, self._chunk_index)
        self.learners_created += 1
        if self.pool_.over_capacity:
            self.pool_.evict(self._victim_position())
        self.validation_.push_chunk(chunk)

    def _victim_position(self):
        if self.pruning == "age":
            return 0
        predictions = self._window_posteriors().argmax(axis=2)
        accuracies = np.mean(predictions == self.validation_.labels, axis=1)
        return int(np.argmin(accuracies))

    def _predict_one(self, x):
        ctx = build_context(
            self.pool_.learners,
            self.validation_,
            x,
            self.k,
            space=self._selector.neighborhood_space,
            n_classes=self.n_classes_,
            posteriors=self._window_posteriors(),
        )
        return self._selector.select(ctx).prediction
