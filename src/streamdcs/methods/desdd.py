"""Ensemble-of-ensembles with diversity via spread Poisson rates."""

from __future__ import annotations

from collections import deque
from copy import copy

import numpy as np

from ..learners import GaussianNaiveBayes, OnlineBaggingEnsemble
from ..learners.naive_bayes import stacked_proba, welford_steps
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
        Poisson rates are spaced evenly across this closed interval; both
        ends finite and nonnegative.
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
        if not np.isfinite(lambda_range).all() or min(lambda_range) < 0:
            raise ValueError(f"lambda_range must be finite and nonnegative, got {lambda_range}")
        if n_subensembles < 1 or subensemble_size < 1:
            raise ValueError("ensemble dimensions must be positive")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if window_size is not None and window_size < 1:
            raise ValueError(f"window_size must be positive or None, got {window_size}")
        self.n_subensembles = n_subensembles
        self.subensemble_size = subensemble_size
        self.learner_factory = learner_factory
        self.lambda_range = lambda_range
        self.chunk_size = chunk_size
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
        self._window = deque(maxlen=chunk_size if window_size is None else window_size)
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
            for row, label in zip(seg_X, seg_y):
                self._window.append((row, label))
            self._seen += take
            offset += take
            if self._seen % self.chunk_size == 0:
                self._reselect()

    def _reselect(self):
        X = np.stack([row for row, _ in self._window])
        y = np.array([label for _, label in self._window])
        if self._stack is not None:
            # All S*M members vote on the window in S blocks of rows, so each
            # block's temporaries stay the size of one sub-ensemble's vote
            # over the whole window rather than growing S-fold.
            blocks = np.array_split(X, self.n_subensembles)
            predictions = np.hstack([self._majorities(b) for b in blocks])
        else:
            predictions = np.stack([sub.predict(X) for sub in self.subensembles_])
        hits = (predictions == y).sum(axis=1)
        self.selected_index_ = int(np.argmax(hits))

    def _majorities(self, X):
        """(S, n) majority votes of each sub-ensemble over the rows of X,
        ties to the lowest class, from one stacked likelihood of the block."""
        votes = np.argmax(stacked_proba(*self._stack, X), axis=2)
        votes = votes.reshape(self.n_subensembles, self.subensemble_size, len(X))
        tallies = (votes[..., None] == np.arange(self.n_classes_)).sum(axis=1)
        return np.argmax(tallies, axis=2)

    def _predict_one(self, x):
        return int(self.subensembles_[self.selected_index_].predict(x.reshape(1, -1))[0])
