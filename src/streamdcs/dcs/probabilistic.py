"""Probability-weighted selection rules."""

from __future__ import annotations

import numpy as np

from .base import DCSRule, distance_weights


class APriori(DCSRule):
    """Competence is the distance-weighted mean posterior each member
    assigns to the neighbors' true classes, before seeing the member's own
    query prediction."""

    def select(self, ctx):
        w = distance_weights(ctx.distances)
        true_post = ctx.posteriors[
            :, np.arange(len(ctx.neighborhood)), ctx.labels
        ]  # (P, k')
        competence = (true_post * w).sum(axis=1) / w.sum()
        return self._single(ctx, np.argmax(competence), len(ctx.neighborhood))


class APosteriori(DCSRule):
    """Competence conditions on the member's query prediction c: the
    distance-weighted posterior mass for c on neighbors truly of class c,
    normalized by the mass for c over the whole neighborhood."""

    def select(self, ctx):
        return self._single(ctx, np.argmax(self._competence(ctx)), len(ctx.neighborhood))

    @staticmethod
    def _competence(ctx):
        w = distance_weights(ctx.distances)
        predictions = ctx.query_predictions
        mass = ctx.posteriors[np.arange(ctx.n_members), :, predictions] * w  # (P, k')
        denominator = mass.sum(axis=1)
        # Summed over each class's own neighbors, gathered in order into a
        # row-major block, so each member's sum adds the terms of its own
        # mass[labels == c] in one order.
        numerator = np.zeros(ctx.n_members)
        for c in np.unique(predictions).tolist():
            members = np.flatnonzero(predictions == c)
            numerator[members] = mass[np.ix_(members, ctx.labels == c)].sum(axis=1)
        return np.divide(numerator, denominator, out=np.zeros(ctx.n_members), where=denominator > 0)
