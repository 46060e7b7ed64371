"""Competence contexts and the selection-rule interface."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import NotReadyError
from ..utils import ParamsMixin, majority_vote
from ..validation import Neighborhood, member_posteriors

# Stand-in for a zero distance when inverting distances into weights.
EPS_DISTANCE = 1e-12


@dataclass(frozen=True)
class CompetenceContext:
    """Everything a selection rule needs for one query.

    correctness[i, n] is True when member i predicts neighbor n's true
    label (argmax of its posterior, ties to the lowest class index).
    """

    neighborhood: Neighborhood
    correctness: np.ndarray  # bool (P, k')
    posteriors: np.ndarray  # (P, k', C)
    query_predictions: np.ndarray  # (P,)
    query_posteriors: np.ndarray  # (P, C)
    n_classes: int

    @property
    def n_members(self):
        return len(self.query_predictions)

    @property
    def distances(self):
        return self.neighborhood.distances

    @property
    def labels(self):
        return self.neighborhood.labels


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection: who voted and what they decided.

    selected is empty only together with fallback_used; on a fallback the
    whole pool votes. n_neighbors_used records how much of the neighborhood
    the decision was based on (KNORA-E may shrink it, MCB may filter it).
    """

    selected: tuple[int, ...]
    prediction: int
    fallback_used: bool = False
    weights: tuple[float, ...] | None = None
    n_neighbors_used: int = 0


class DCSRule(ParamsMixin):
    """A selection rule: consumes a competence context, emits a prediction."""

    #: which space the rule's region of competence lives in
    neighborhood_space = "feature"

    def select(self, ctx: CompetenceContext) -> SelectionResult:
        raise NotImplementedError

    def _fallback(self, ctx, n_neighbors_used=0):
        """All members vote, ties to the lowest class index."""
        prediction = majority_vote(ctx.query_predictions, ctx.n_classes)
        return SelectionResult(
            selected=tuple(range(ctx.n_members)),
            prediction=prediction,
            fallback_used=True,
            n_neighbors_used=n_neighbors_used,
        )

    @staticmethod
    def _single(ctx, member, n_neighbors_used):
        return SelectionResult(
            selected=(int(member),),
            prediction=int(ctx.query_predictions[member]),
            n_neighbors_used=n_neighbors_used,
        )


def build_context(
    learners, validation_set, x, k, space="feature", n_classes=None, posteriors=None
):
    """Assemble the competence context for one query.

    posteriors is the members' (P, N, C) tensor over the validation
    window's flat view (see member_posteriors); the neighbors' posteriors
    are read from it by index, and only the query itself is passed through
    the members (one predict_proba call each). The stream methods cache the
    tensor per pool and window state; when it is omitted it is computed
    here.
    """
    learners = list(learners)
    if not learners:
        raise NotReadyError("pool is empty")
    if len(validation_set) == 0:
        raise NotReadyError("validation set is empty")
    if space not in ("feature", "profile"):
        raise ValueError(f"unknown neighborhood space {space!r}")
    if posteriors is None:
        posteriors = member_posteriors(learners, validation_set.features)
    x = np.asarray(x, dtype=np.float64).ravel()
    query_posteriors = np.vstack([m.predict_proba(x.reshape(1, -1)) for m in learners])
    if space == "feature":
        neighborhood = validation_set.knn_query(x, k)
    else:
        neighborhood = validation_set.knn_output_profiles(posteriors, query_posteriors, k)

    neighbor_posteriors = posteriors[:, neighborhood.indices]
    correctness = neighbor_posteriors.argmax(axis=2) == neighborhood.labels[None, :]
    return CompetenceContext(
        neighborhood=neighborhood,
        correctness=correctness,
        posteriors=neighbor_posteriors,
        query_predictions=query_posteriors.argmax(axis=1),
        query_posteriors=query_posteriors,
        n_classes=n_classes if n_classes else posteriors.shape[2],
    )


def distance_weights(distances):
    """Inverse-distance weights; zero distances weigh 1/EPS_DISTANCE."""
    d = np.where(distances > 0, distances, EPS_DISTANCE)
    return 1.0 / d
