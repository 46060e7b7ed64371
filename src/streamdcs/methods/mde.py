"""Minority-driven chunk ensemble for imbalanced streams."""

from __future__ import annotations

import numpy as np

from ..dcs import MDEVote
from ..evaluation import confusion_matrix, gmean
from ..learners import HoeffdingTreeClassifier
from .dynse import DynseClassifier


class MdeClassifier(DynseClassifier):
    """Chunk ensemble that votes through members proven competent on the
    minority class.

    DYNSE's pool and window with three choices fixed. Each full chunk's
    least frequent class becomes the minority class, and every member is
    scored by the geometric mean of its per-class recalls on that chunk, so
    the lowest G-mean leaves when the pool overflows (ties evict the
    oldest). A query searches only the window's minority-class rows, and
    the rule is MDEVote: members correct on at least half of the k nearest
    of those rows vote; with no competent member, or no minority row in the
    window, the whole pool votes.

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
        super().__init__(learner_factory, MDEVote(k), chunk_size, max_pool_size, k, window_chunks)
        self.minority_class_ = None

    def _member_scores(self, chunk):
        # The chunk that rescores the pool also names the class queries search.
        counts = np.bincount(chunk.labels, minlength=self.n_classes_)
        present = np.flatnonzero(counts > 0)
        self.minority_class_ = int(present[np.argmin(counts[present])])
        return [
            gmean(confusion_matrix(chunk.labels, m.predict(chunk.features), self.n_classes_))
            for m in self.pool_.learners
        ]

    def _query_rows(self):
        """Mask of the window's minority-class rows. The class moves only at
        a chunk boundary, which also changes the pool, so the mask is kept
        with the rest of the query state."""
        return self.validation_.labels == self.minority_class_
