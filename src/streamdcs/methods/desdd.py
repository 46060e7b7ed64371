"""Ensemble-of-ensembles with diversity via spread Poisson rates."""

from __future__ import annotations

from copy import copy

import numpy as np

from ..learners import GaussianNaiveBayes, OnlineBaggingEnsemble
from ..learners.bagging import tally_votes
from ..learners.naive_bayes import stacked_constants, stacked_scores, welford_steps
from ..utils import check_positive_integer, check_real
from .base import BaseStreamClassifier


class DesddClassifier(BaseStreamClassifier):
    """Several online-bagging sub-ensembles trained in parallel, each with
    its own Poisson rate; the sub-ensemble most accurate on a sliding
    window of recent instances answers all queries until the next
    re-selection at a chunk boundary.

    When every sub-ensemble stacks its naive-Bayes members, and no member
    sits in two of them, the model holds all S*M members' moments in one
    block, a ``(S*M, C)`` count array and two ``(S*M, C, d)`` moment arrays.
    Each sub-ensemble's stack is a view of its M rows, and each member a
    view of its row, so one weighted Welford step trains every member per
    instance and one stacked likelihood scores them all at re-selection.
    Each sub-ensemble still draws its own counts from its own generator, so
    every member computes what it would alone. Unpickling re-links both
    levels. Any other model trains and asks its sub-ensembles one by one.

    The selection window is a ring of copies of the most recent rows, a
    ``(W, d)`` array and ``(W,)`` labels, with the row at stream position i
    stored at i mod W; re-selection counts hits, so it reads the ring in
    place, in any order.

    Parameters
    ----------
    n_subensembles : int
        How many sub-ensembles compete.
    subensemble_size : int
        Members per sub-ensemble.
    learner_factory : callable
        Zero-argument factory for fresh members. Every incoming instance
        trains every member, so the default is the cheap Gaussian NB.
    lambda_range : (float, float)
        Poisson rates are spaced evenly across this closed interval; a pair
        whose ends are both finite and nonnegative.
    chunk_size : int
        Re-selection cadence in instances; positive.
    window_size : int or None
        Validation window length, positive; defaults to chunk_size.
    seed : int or SeedSequence
        Drives all replication draws.
    """

    def __init__(
        self,
        n_subensembles=10,
        subensemble_size=5,
        learner_factory=GaussianNaiveBayes,
        lambda_range=(1.0, 10.0),
        chunk_size=1000,
        window_size=None,
        seed=None,
    ):
        super().__init__()
        if not isinstance(lambda_range, (tuple, list, np.ndarray)) or len(lambda_range) != 2:
            raise ValueError(f"lambda_range must be a pair of rates, got {lambda_range!r}")
        for rate in lambda_range:
            check_real("lambda_range", rate, 0, high_open=True)
        self.n_subensembles = check_positive_integer("n_subensembles", n_subensembles)
        self.subensemble_size = check_positive_integer("subensemble_size", subensemble_size)
        self.learner_factory = learner_factory
        self.lambda_range = lambda_range
        self.chunk_size = check_positive_integer("chunk_size", chunk_size)
        if window_size is not None:
            check_positive_integer("window_size", window_size)
        self.window_size = window_size
        self.seed = seed

        self.lambdas_ = np.linspace(lambda_range[0], lambda_range[1], n_subensembles)
        entropy = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        # Spawned from a copy, so a caller's SeedSequence is left as it was,
        # and a model rebuilt from get_params() draws the same children.
        children = copy(entropy).spawn(n_subensembles)
        self.subensembles_ = [
            OnlineBaggingEnsemble(
                [learner_factory() for _ in range(subensemble_size)],
                lam=float(lam),
                seed=child,
            )
            for lam, child in zip(self.lambdas_, children)
        ]
        self._stack = None  # (counts, mean, m2) of all sub-ensembles' members
        self.selected_index_ = 0
        self._window_X = None  # (W, d) ring of the window's rows, allocated with the shape
        self._window_y = np.zeros(chunk_size if window_size is None else window_size, np.int64)
        self._seen = 0
        # Per-sub-ensemble count of instances delivered for training.
        self.instances_delivered_ = np.zeros(n_subensembles, dtype=np.int64)

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self._stack is not None:
            self._bind_subensembles()

    def _bind_subensembles(self):
        size = self.subensemble_size
        for s, sub in enumerate(self.subensembles_):
            sub._stack = tuple(a[s * size : (s + 1) * size] for a in self._stack)
            sub._bind_members()

    @property
    def is_ready(self):
        return self._seen > 0

    def _set_shape(self, n_classes, n_features):
        super()._set_shape(n_classes, n_features)
        self._window_X = np.zeros((len(self._window_y), self.n_features_))
        for sub in self.subensembles_:
            sub._set_shape(self.n_classes_, self.n_features_)
        members = [m for sub in self.subensembles_ for m in sub.members]
        stacked = all(sub._stack is not None for sub in self.subensembles_)
        if stacked and len(set(map(id, members))) == len(members):
            stacks = zip(*(sub._stack for sub in self.subensembles_))
            self._stack = tuple(np.concatenate(arrays) for arrays in stacks)
            self._bind_subensembles()

    def _learn_batch(self, X, y):
        # X and y were validated once by partial_fit; the sub-ensembles and
        # their members learn them without checking again.
        offset = 0
        while offset < len(X):
            boundary = self.chunk_size - (self._seen % self.chunk_size)
            take = min(boundary, len(X) - offset)
            seg_X, seg_y = X[offset : offset + take], y[offset : offset + take]
            if self._stack is not None:
                draws = [sub._draw(take) for sub in self.subensembles_]
                welford_steps(*self._stack, seg_X, seg_y, np.hstack(draws))
                del draws  # not held through a re-selection, where memory peaks
            else:
                ones = np.ones(take, dtype=np.int64)
                for sub in self.subensembles_:
                    sub._learn(seg_X, seg_y, ones)
            self.instances_delivered_ += take
            self._remember(seg_X, seg_y)
            self._seen += take
            offset += take
            if self._seen % self.chunk_size == 0:
                self._reselect()

    def _remember(self, X, y):
        """Copy the rows at stream positions self._seen onwards into the
        window's ring: at most two slice stores, one row store for one row."""
        size = len(self._window_y)
        skip = max(len(X) - size, 0)  # rows the same batch overwrites
        X, y = X[skip:], y[skip:]
        start = (self._seen + skip) % size
        head = min(len(X), size - start)
        self._window_X[start : start + head] = X[:head]
        self._window_y[start : start + head] = y[:head]
        if head < len(X):
            self._window_X[: len(X) - head] = X[head:]
            self._window_y[: len(X) - head] = y[head:]

    def _reselect(self):
        self.selected_index_ = int(np.argmax(self._hits()))

    def _hits(self):
        """(S,) counts of the window's rows on which each sub-ensemble's
        majority vote is right."""
        filled = min(self._seen, len(self._window_y))
        X, y = self._window_X[:filled], self._window_y[:filled]
        if self._stack is None:
            predictions = np.stack([sub.predict(X) for sub in self.subensembles_])
            return (predictions == y).sum(axis=1)
        # All S*M members vote on the window in S blocks of rows, and each
        # block's hits are counted before the next is scored, so the
        # temporaries stay the size of one sub-ensemble's vote over the
        # whole window rather than growing S-fold. The members' constants
        # are computed once, for every block.
        constants = stacked_constants(*self._stack)
        S = self.n_subensembles
        blocks = zip(np.array_split(X.T, S, axis=1), np.array_split(y, S))
        return sum((self._majorities(constants, XT) == y_b).sum(axis=1) for XT, y_b in blocks)

    def _majorities(self, constants, XT):
        """(S, n) majority votes of each sub-ensemble over the n columns of
        XT, ties to the lowest class, from one stacked likelihood."""
        votes = np.argmax(stacked_scores(constants, XT), axis=1)
        votes = votes.reshape(self.n_subensembles, self.subensemble_size, XT.shape[1])
        return np.argmax(tally_votes(votes, self.n_classes_), axis=1)

    def _predict_one(self, x):
        return int(self.subensembles_[self.selected_index_].predict(x.reshape(1, -1))[0])
