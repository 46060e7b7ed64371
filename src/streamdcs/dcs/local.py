"""Local-accuracy selection rules: OLA, LCA, MCB, rank-based."""

from __future__ import annotations

import numbers

import numpy as np

from .base import DCSRule


class OLA(DCSRule):
    """Overall local accuracy: the single member with the highest fraction
    of correctly classified neighbors wins (ties to the lowest index)."""

    def select(self, ctx):
        accuracy = ctx.correctness.mean(axis=1)
        return self._single(ctx, np.argmax(accuracy), len(ctx.neighborhood))


class LCA(DCSRule):
    """Local class accuracy.

    A member predicting class c on the query is scored by its accuracy on
    the neighbors whose true label is c; members whose predicted class is
    absent from the neighborhood score 0.
    """

    def select(self, ctx):
        return self._single(ctx, np.argmax(self._competence(ctx)), len(ctx.neighborhood))

    @staticmethod
    def _competence(ctx):
        mine = ctx.labels == ctx.query_predictions[:, None]  # (P, k')
        counts = mine.sum(axis=1)
        hits = (ctx.correctness & mine).sum(axis=1)
        return np.divide(hits, counts, out=np.zeros(ctx.n_members), where=counts > 0)


class MCB(DCSRule):
    """Multiple classifier behavior.

    Neighbors whose behavior vector (the tuple of all members' predictions)
    agrees with the query's on at least similarity_threshold of positions
    define the region; if none qualifies the full neighborhood is kept.
    Overall local accuracy then picks the winner on the filtered region.
    """

    def __init__(self, similarity_threshold=0.7):
        t = similarity_threshold
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not 0 <= t <= 1:
            raise ValueError(f"similarity_threshold must be a finite number in [0, 1], got {t!r}")
        self.similarity_threshold = similarity_threshold

    def select(self, ctx):
        neighbor_behavior = ctx.posteriors.argmax(axis=2)  # (P, k')
        agree = neighbor_behavior == ctx.query_predictions[:, None]
        similarity = agree.mean(axis=0)
        keep = similarity >= self.similarity_threshold
        if not keep.any():
            keep = np.ones(len(ctx.neighborhood), dtype=bool)
        accuracy = ctx.correctness[:, keep].mean(axis=1)
        return self._single(ctx, np.argmax(accuracy), int(keep.sum()))


class DCSRank(DCSRule):
    """Rank-based selection: the member correct on the longest prefix of
    neighbors, nearest first, wins (ties to the lowest index)."""

    def select(self, ctx):
        padded = np.hstack(
            [ctx.correctness, np.zeros((ctx.n_members, 1), dtype=bool)]
        )
        ranks = np.argmax(~padded, axis=1)
        return self._single(ctx, np.argmax(ranks), len(ctx.neighborhood))
