"""Chunk-based ensemble with per-query dynamic selection."""

from __future__ import annotations

import numpy as np

from ..dcs import DCSRule, build_context, make_rule
from ..learners import HoeffdingTreeClassifier
from ..utils import check_positive_integer
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
        How members are scored for eviction when the pool overflows: by
        birth, so the oldest leaves, or by accuracy on the validation window
        before the new chunk joins it (ties to the oldest).
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
        check_positive_integer("k", k)
        self.learner_factory = learner_factory
        self.dcs_rule = dcs_rule
        self.chunk_size = chunk_size
        self.max_pool_size = max_pool_size
        self.k = k
        self.window_chunks = window_chunks
        self.pruning = pruning
        self._selector = dcs_rule if isinstance(dcs_rule, DCSRule) else make_rule(dcs_rule)

    def _member_scores(self, chunk):
        # A window is empty only at the first chunk, which cannot overflow.
        if self.pruning == "accuracy" and len(self.validation_):
            return np.mean(self._window_cache()[1], axis=1)
        return self.pool_.births

    def _query_rows(self):
        """Mask of the window rows a query searches; None searches them all."""
        return None

    def _predict_one(self, x):
        # The forest is compiled before the window cache is refilled and
        # MDE's mask after it: of the orders tried, this one peaked lowest
        # in resident memory.
        query_posteriors = self._query_posteriors(x)
        posteriors, correctness = self._window_cache()
        where = self._query_rows()
        ctx = build_context(
            self.pool_.learners,
            self.validation_,
            x,
            self.k,
            space=self._selector.neighborhood_space,
            n_classes=self.n_classes_,
            posteriors=posteriors,
            where=where,
            query_posteriors=query_posteriors,
            correctness=correctness,
        )
        return self._selector.select(ctx).prediction
