"""Chunk-based ensemble with per-query dynamic selection."""

from __future__ import annotations

import numpy as np

from ..dcs import DCSRule, build_context, make_rule
from ..learners.hoeffding_tree import CompiledForest, HoeffdingTreeClassifier
from ..streams import Chunk
from ..utils import check_positive_integer
from ..validation import ValidationSet, member_posteriors
from .base import BaseStreamClassifier, Pool


class DynseClassifier(BaseStreamClassifier):
    """Dynamic selection over a pool of chunk-trained classifiers.

    Every full chunk of the stream trains one fresh learner, which joins a
    bounded pool; then every member is scored by ``_member_scores``, the
    lowest score leaves if the pool overflows (ties to the oldest), and the
    chunk slides into a validation window of the most recent chunks.
    ``scores_`` keeps the surviving members' scores from the last boundary.

    A query builds a region of competence from the window and delegates the
    decision to the selection rule. Pooled members are frozen, so their
    posteriors over the window, and whether each is right on each row, are
    computed once per pool and window state rather than once per query.

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
        super().__init__()
        check_positive_integer("chunk_size", chunk_size)
        check_positive_integer("max_pool_size", max_pool_size)
        check_positive_integer("window_chunks", window_chunks)
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
        self._buffer = Chunk(chunk_size)
        self.learners_created = 0
        self.pool_ = Pool(max_pool_size)
        self.validation_ = ValidationSet(window_chunks)
        # (key, forest, posteriors, correctness, rows); see _query_state.
        self._query_cache = (None,) * 5
        self.scores_ = []

    @property
    def is_ready(self):
        return len(self.pool_) > 0 and len(self.validation_) > 0

    def _query_state(self):
        """The forest, window posteriors, correctness matrix and row mask
        every query reads, refilled together, in that order, at the first
        query after a change to the pool or the window.

        The forest is the pool compiled when every member is a Hoeffding
        tree, else None. The (P, N, C) posteriors over the window's flat view
        and the (P, N) matrix of whether each member's argmax on a row (ties
        to the lowest class) is its label reuse the last buffers that fit.
        The mask is ``_query_rows()``. Of the fill orders tried, this one
        peaked lowest in resident memory.
        """
        key = (self.pool_.version, self.validation_.version)
        if self._query_cache[0] != key:
            learners = self.pool_.learners
            trees = all(type(m) is HoeffdingTreeClassifier for m in learners)
            forest = CompiledForest(learners) if trees else None
            _, _, posteriors, correctness, _ = self._query_cache
            posteriors = member_posteriors(learners, self.validation_.features, out=posteriors)
            if correctness is None or correctness.shape != posteriors.shape[:2]:
                correctness = np.empty(posteriors.shape[:2], dtype=bool)
            # One member at a time, so no (P, N) array of indices is held.
            labels = self.validation_.labels
            for member, row in zip(posteriors, correctness):
                np.equal(member.argmax(axis=1), labels, out=row)
            self._query_cache = (key, forest, posteriors, correctness, self._query_rows())
        return self._query_cache[1:]

    def _learn_batch(self, X, y):
        offset = 0
        while offset < len(X):
            offset += self._buffer._store(X[offset:], y[offset:])
            if self._buffer.is_full:
                self._on_chunk(self._buffer)
                self._buffer = Chunk(self._buffer.capacity)

    def _on_chunk(self, chunk):
        learner = self.learner_factory()
        learner.partial_fit(chunk.features, chunk.labels, n_classes=self.n_classes_)
        self.pool_.append(learner, self.learners_created)
        self.learners_created += 1
        self.scores_ = list(self._member_scores(chunk))
        if self.pool_.over_capacity:
            victim = int(np.argmin(self.scores_))
            self.pool_.evict(victim)
            self.scores_.pop(victim)
        self.validation_.push_chunk(chunk)

    def _member_scores(self, chunk):
        """One score per member, oldest first, before the chunk joins the window."""
        # A window is empty only at the first chunk, which cannot overflow.
        if self.pruning == "accuracy" and len(self.validation_):
            labels = self.validation_.labels
            posteriors = member_posteriors(self.pool_.learners, self.validation_.features)
            return [np.mean(member.argmax(axis=1) == labels) for member in posteriors]
        return self.pool_.births

    def _query_rows(self):
        """Mask of the window rows a query searches; None searches them all."""
        return None

    def _predict_one(self, x):
        forest, posteriors, correctness, rows = self._query_state()
        ctx = build_context(
            self.pool_.learners,
            self.validation_,
            x,
            self.k,
            space=self._selector.neighborhood_space,
            posteriors=posteriors,
            where=rows,
            query_posteriors=None if forest is None else forest.predict_proba(x),
            correctness=correctness,
        )
        return self._selector.select(ctx).prediction
