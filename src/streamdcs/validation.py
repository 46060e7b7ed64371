"""Sliding validation window and region-of-competence queries."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .exceptions import NotReadyError


@dataclass(frozen=True)
class Neighborhood:
    """k nearest validation instances for one query, ascending by distance.

    Distance ties resolve to insertion order (older instances first). The
    distances, and the query point, live either in feature space or in
    output-profile space, depending on the query that produced the
    neighborhood.
    """

    query: np.ndarray
    indices: np.ndarray  # positions in the validation set's flat view
    distances: np.ndarray
    features: np.ndarray  # (k', d)
    labels: np.ndarray  # (k',)

    def __len__(self):
        return len(self.indices)


def _smallest_k(sq_distances, k):
    """Indices of the k smallest values, stable under ties."""
    n = len(sq_distances)
    if k >= n:
        return np.argsort(sq_distances, kind="stable")
    part = np.argpartition(sq_distances, k - 1)[:k]
    bound = sq_distances[part].max()
    candidates = np.flatnonzero(sq_distances <= bound)
    order = np.argsort(sq_distances[candidates], kind="stable")
    return candidates[order][:k]


def member_posteriors(learners, X, out=None):
    """(P, n, C) tensor of each member's predict_proba over the rows of X,
    for a non-empty list of P learners.

    It is written into out when out already has that shape, so a caller can
    refill one buffer instead of allocating a new tensor.
    """
    for i, member in enumerate(learners):
        proba = member.predict_proba(X)
        if i == 0 and (out is None or out.shape != (len(learners),) + proba.shape):
            out = np.empty((len(learners),) + proba.shape)
        out[i] = proba
    return out


def output_profiles(posteriors):
    """Output profiles from a (P, n, C) posterior tensor: row i concatenates
    every member's probability outputs for instance i."""
    n_members, n_rows, n_classes = posteriors.shape
    return posteriors.transpose(1, 0, 2).reshape(n_rows, n_members * n_classes)


class ValidationSet:
    """Window of the most recent max_chunks full chunks, oldest-first eviction.

    The flat view concatenates retained chunks in push order and is the
    search space for all nearest-neighbor queries.
    """

    def __init__(self, max_chunks=4):
        if max_chunks < 1:
            raise ValueError("window must retain at least one chunk")
        self.max_chunks = int(max_chunks)
        self._chunks = deque(maxlen=self.max_chunks)
        self._flat_X = None
        self._flat_y = None
        # Bumped by every change to the window, so caches can key on it.
        self.version = 0

    def push_chunk(self, chunk):
        if not chunk.is_full:
            raise ValueError("only full chunks enter the validation window")
        self._chunks.append(chunk)
        self.version += 1
        self._flat_X = None
        self._flat_y = None
        return self

    @property
    def n_chunks(self):
        return len(self._chunks)

    def __len__(self):
        return sum(len(c) for c in self._chunks)

    def _flatten(self):
        if self._flat_X is None:
            self._flat_X = np.concatenate([c.features for c in self._chunks])
            self._flat_y = np.concatenate([c.labels for c in self._chunks])
        return self._flat_X, self._flat_y

    @property
    def features(self):
        if not self._chunks:
            return np.empty((0, 0))
        return self._flatten()[0]

    @property
    def labels(self):
        if not self._chunks:
            return np.empty(0, dtype=np.int64)
        return self._flatten()[1]

    def knn_query(self, x, k, where=None):
        """k nearest instances to x by Euclidean distance in feature space.

        where, if given, is a boolean mask restricting the searchable rows
        of the flat view. k is clamped to the number of searchable rows.
        """
        if len(self) == 0:
            raise NotReadyError("validation set is empty")
        if k < 1:
            raise ValueError("k must be positive")
        X, y = self._flatten()
        rows = np.flatnonzero(where) if where is not None else None
        pool_X = X[rows] if rows is not None else X
        if len(pool_X) == 0:
            raise NotReadyError("no validation instances match the query filter")
        x = np.asarray(x, dtype=np.float64).ravel()
        diff = pool_X - x
        sq = np.einsum("ij,ij->i", diff, diff)
        picked = _smallest_k(sq, k)
        flat_idx = rows[picked] if rows is not None else picked
        return Neighborhood(
            query=x,
            indices=flat_idx,
            distances=np.sqrt(sq[picked]),
            features=X[flat_idx],
            labels=y[flat_idx],
        )

    def knn_output_profiles(self, posteriors, query_posteriors, k):
        """k nearest instances by Euclidean distance between output profiles.

        posteriors holds the pool's (P, N, C) outputs over the flat view
        (see member_posteriors) and query_posteriors its (P, C) outputs on
        the query, whose profile becomes the neighborhood's query point.
        """
        if len(self) == 0:
            raise NotReadyError("validation set is empty")
        if not len(posteriors):
            raise NotReadyError("pool is empty")
        if k < 1:
            raise ValueError("k must be positive")
        X, y = self._flatten()
        query_profile = query_posteriors.reshape(-1)
        diff = output_profiles(posteriors) - query_profile
        sq = np.einsum("ij,ij->i", diff, diff)
        picked = _smallest_k(sq, k)
        return Neighborhood(
            query=query_profile,
            indices=picked,
            distances=np.sqrt(sq[picked]),
            features=X[picked],
            labels=y[picked],
        )
