"""Online bagging with Poisson counts as instance weights."""

from __future__ import annotations

import numpy as np

from ..utils import as_feature_matrix, check_real
from .base import IncrementalClassifier, repeat_rows
from .naive_bayes import GaussianNaiveBayes, stacked_proba, welford_steps


def tally_votes(votes, n_classes):
    """(..., C, n) counts of each class among (..., M, n) member votes: each
    bag's tally, row by row, over its M members on axis -2."""
    return (votes[..., None, :] == np.arange(n_classes)[:, None]).sum(axis=-3)


class OnlineBaggingEnsemble(IncrementalClassifier):
    """Fixed pool of incremental members trained with Poisson(lambda) weights.

    For every incoming instance and every member, a count k is drawn
    independently from Poisson(lam), and the member learns the instance with
    k as its weight (Oza & Russell, 2001) rather than being shown k copies
    of it. The weight stands for the copies: naive Bayes makes one weighted
    Welford step (West, 1979), which equals k unit steps in exact arithmetic
    and agrees with them to rounding in floating point, and the Hoeffding
    tree learns the k copies one after another. Prediction is the majority
    vote of the members, ties to the lowest class index.

    When every member is a distinct ``GaussianNaiveBayes``, the ensemble
    holds their moments in one stack, a ``(M, C)`` count array and two
    ``(M, C, d)`` moment arrays allocated when the shape is fixed, and each
    member's ``_counts``, ``_mean`` and ``_m2`` are views of its row. One
    weighted Welford step then trains all M members per instance, and one
    stacked likelihood votes them, with the same arithmetic as each member
    alone. The members stay real learners: training one through its own
    ``partial_fit`` updates the stack, and its ``predict_proba`` reads it.
    Pickling copies each view on its own, so unpickling re-links the
    members to the stack. The stack itself may be a view of a larger block:
    a ``DesddClassifier`` whose bags are all stacked keeps every bag's rows
    in one block, draws each bag's counts with ``_draw`` and trains all the
    bags together. Other members, such as Hoeffding trees, whose
    state is a tree rather than fixed-size arrays, are trained and asked
    one by one.

    Parameters
    ----------
    members : sequence of incremental classifiers
        Fixed at construction; never grown or pruned. Each implements
        ``_set_shape`` and ``_learn``, as every IncrementalClassifier does.
    lam : float
        Poisson rate, finite and nonnegative; lam=0 disables training
        entirely.
    seed : int, SeedSequence or Generator
        Drives the Poisson draws.
    """

    def __init__(self, members, lam=1.0, seed=None):
        super().__init__()
        self.lam = check_real("lam", lam, 0, high_open=True)
        self.members = list(members)
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._stack = None  # (counts, mean, m2) of naive-Bayes members

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self._stack is not None:
            self._bind_members()

    def _bind_members(self):
        for m, member in enumerate(self.members):
            member._counts, member._mean, member._m2 = (a[m] for a in self._stack)

    # Inherited, restated on the class because the benchmark's tracer
    # (perfbench/spans.py) wraps OnlineBaggingEnsemble.partial_fit by name.
    partial_fit = IncrementalClassifier.partial_fit

    def _set_shape(self, n_classes, n_features):
        super()._set_shape(n_classes, n_features)
        for member in self.members:
            member._set_shape(self.n_classes_, self.n_features_)
        stackable = all(type(m) is GaussianNaiveBayes for m in self.members)
        if stackable and len(set(map(id, self.members))) == len(self.members):
            self._stack = tuple(
                np.stack([getattr(m, name) for m in self.members])
                for name in ("_counts", "_mean", "_m2")
            )
            self._bind_members()

    def set_params(self, **params):
        """Restart the bag, its members included: unless ``members`` is
        given, each member is rebuilt from its own parameters, so no trained
        state survives (a member listed twice is rebuilt once)."""
        if "members" not in params:
            fresh = {id(m): type(m)(**m.get_params()) for m in self.members}
            params["members"] = [fresh[id(m)] for m in self.members]
        return super().set_params(**params)

    def _draw(self, n_rows):
        """(n_rows, M) Poisson counts, in row-major order: instance-major,
        member-minor."""
        return self._rng.poisson(self.lam, size=(n_rows, len(self.members)))

    def _learn(self, X, y, weights):
        # A row of weight w is w instances, each with its own draws.
        X, y = repeat_rows(X, y, weights)
        counts = self._draw(len(X))
        if self._stack is not None:
            welford_steps(*self._stack, X, y, counts)
            return
        for m, member in enumerate(self.members):
            member._learn(X, y, counts[:, m])

    def _tallies(self, X):
        """(C, n) counts of the members' votes on the rows of X."""
        if self._stack is not None:
            votes = np.argmax(stacked_proba(*self._stack, X), axis=2)  # (M, n)
        else:
            votes = np.stack([m.predict(X) for m in self.members])
        return tally_votes(votes, self.n_classes_)

    def predict_proba(self, X):
        """Share of the members voting for each class, row by row."""
        X = as_feature_matrix(X, self.n_features_)
        if self.n_classes_ is None:
            return self._uniform_proba(len(X))
        return self._tallies(X).T / len(self.members)

    # Restated on the class because the benchmark's tracer
    # (perfbench/spans.py) wraps OnlineBaggingEnsemble.predict by name.
    def predict(self, X):
        """Majority vote of the members, ties to the lowest class index: the
        argmax of predict_proba, taken from the tallies it divides."""
        X = as_feature_matrix(X, self.n_features_)
        if self.n_classes_ is None:
            return np.zeros(len(X), dtype=np.intp)
        return np.argmax(self._tallies(X), axis=0)
