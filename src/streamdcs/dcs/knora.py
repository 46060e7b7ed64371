"""k-nearest-oracle selection rules."""

from __future__ import annotations

import math

import numpy as np

from ..utils import check_positive_integer, majority_vote
from .base import DCSRule, SelectionResult


class KNORAE(DCSRule):
    """k-nearest oracles, eliminate variant.

    Keeps only members that classify every neighbor correctly. When no
    member is perfect, the farthest neighbor is dropped and the search
    restarts; if the neighborhood empties, the whole pool votes. The
    surviving members decide the query by majority vote.
    """

    def select(self, ctx):
        # Each member's run of correct neighbors, nearest first: the members
        # with the longest run, m, are exactly the perfect ones on the
        # largest prefix that dropping the farthest neighbor reaches.
        runs = np.add.reduce(np.logical_and.accumulate(ctx.correctness, axis=1), axis=1)
        runs = runs.tolist()
        m = max(runs)
        if m == 0:
            return self._fallback(ctx, n_neighbors_used=0)
        perfect = [i for i, run in enumerate(runs) if run == m]
        # A vote of at most P members costs less counted on a list than in
        # any numpy call; ties go to the lowest class.
        predictions = ctx.query_predictions.tolist()
        votes = [0] * ctx.n_classes
        for i in perfect:
            votes[predictions[i]] += 1
        return SelectionResult(
            selected=tuple(perfect), prediction=votes.index(max(votes)), n_neighbors_used=m
        )


class KNORAU(DCSRule):
    """k-nearest oracles, union variant.

    Every member votes for its query prediction with weight equal to the
    number of neighbors it classifies correctly. All-zero weights fall back
    to an unweighted vote of the whole pool.
    """

    def select(self, ctx):
        weights = ctx.correctness.sum(axis=1).astype(np.float64)
        if not weights.any():
            return self._fallback(ctx, n_neighbors_used=len(ctx.neighborhood))
        votes = np.bincount(
            ctx.query_predictions, weights=weights, minlength=ctx.n_classes
        )
        selected = np.flatnonzero(weights > 0)
        return SelectionResult(
            selected=tuple(int(i) for i in selected),
            prediction=int(np.argmax(votes)),
            weights=tuple(float(w) for w in weights[selected]),
            n_neighbors_used=len(ctx.neighborhood),
        )


class KNOP(KNORAU):
    """K-nearest output profiles: KNORA-U aggregation over a neighborhood
    located in output-profile space rather than feature space."""

    neighborhood_space = "profile"


class MDEVote(DCSRule):
    """The selection of MDE (minority-driven ensemble).

    Members that classify at least ceil(k / 2) of the neighbors correctly
    decide the query by majority vote; with none, or with no neighbor at
    all, the whole pool votes. k is the requested neighborhood size, so a
    neighborhood clamped below it raises the bar for every member alike.
    """

    def __init__(self, k=7):
        check_positive_integer("k", k)
        self.k = k

    def select(self, ctx):
        correct = ctx.correctness.sum(axis=1)
        competent = np.flatnonzero(correct >= math.ceil(self.k / 2))
        if not len(competent):
            return self._fallback(ctx, n_neighbors_used=len(ctx.neighborhood))
        return SelectionResult(
            selected=tuple(int(i) for i in competent),
            prediction=majority_vote(ctx.query_predictions[competent], ctx.n_classes),
            n_neighbors_used=len(ctx.neighborhood),
        )
