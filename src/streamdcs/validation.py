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


# Relative slack of the fast distance pass; see ValidationSet.knn_query.
RESCORE_MARGIN = 1e-9


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


def _nearest_columns(block, x, k):
    """Positions of the k columns of the (d, n) block nearest to x, and their
    squared distances, as ValidationSet.knn_query defines them."""
    n = block.shape[1]
    candidates = np.arange(n)
    if k < n and len(block):
        # A square that overflows is inf in both passes; the margin keeps it.
        with np.errstate(over="ignore"):
            fast = np.subtract(block[0], x[0])
            fast *= fast
            term = np.empty(n)
            for row, value in zip(block[1:], x[1:]):
                np.subtract(row, value, out=term)
                term *= term
                fast += term
            bound = np.partition(fast, k - 1)[k - 1] * (1.0 + RESCORE_MARGIN)
        kept = np.flatnonzero(fast <= bound)
        # Fewer than k only when the k-th value is NaN: then rescore all.
        if len(kept) >= k:
            candidates = kept
    # einsum's order of summation depends on the memory layout; the gathered
    # rows are a fresh row-major array, as the rows that defined it were.
    diff = block.T[candidates] - x
    sq = np.einsum("ij,ij->i", diff, diff)
    picked = _smallest_k(sq, k)
    return candidates[picked], sq[picked]


def member_posteriors(learners, X, out=None):
    """(P, n, C) tensor of each member's predict_proba over the rows of X,
    for a non-empty list of P learners.

    The tensor is a transposed view of an (n, P, C) array, so each row's
    output profile is contiguous and ``output_profiles`` of it is a view.
    It is written into out when out already has that shape, so a caller can
    refill one buffer instead of allocating a new tensor.
    """
    for i, member in enumerate(learners):
        proba = member.predict_proba(X)
        if i == 0 and (out is None or out.shape != (len(learners),) + proba.shape):
            out = np.empty((len(proba), len(learners), proba.shape[1])).transpose(1, 0, 2)
        out[i] = proba
    return out


def output_profiles(posteriors):
    """Output profiles from a (P, n, C) posterior tensor: row i concatenates
    every member's probability outputs for instance i. A view, with no copy,
    of a tensor from member_posteriors."""
    n_members, n_rows, n_classes = posteriors.shape
    return posteriors.transpose(1, 0, 2).reshape(n_rows, n_members * n_classes)


class ValidationSet:
    """Window of the most recent max_chunks full chunks, oldest-first eviction.

    The flat view concatenates retained chunks in push order and is the
    search space for all nearest-neighbor queries. It is held once,
    feature-major: a contiguous (d, N) array rebuilt after each change, of
    which ``features`` is the (N, d) transposed view.
    """

    def __init__(self, max_chunks=4):
        if max_chunks < 1:
            raise ValueError("window must retain at least one chunk")
        self.max_chunks = int(max_chunks)
        self._chunks = deque(maxlen=self.max_chunks)
        self._size = 0
        self._columns = None  # (d, N)
        self._labels = None
        # (version, mask bytes), row indices and (d, rows) block of the last
        # masked query, so a mask asked for again is not gathered again.
        self._masked = None
        # Bumped by every change to the window, so caches can key on it.
        self.version = 0

    def push_chunk(self, chunk):
        if not chunk.is_full:
            raise ValueError("only full chunks enter the validation window")
        self._chunks.append(chunk)
        self._size = sum(len(c) for c in self._chunks)
        self.version += 1
        self._columns = None
        self._labels = None
        return self

    @property
    def n_chunks(self):
        return len(self._chunks)

    def __len__(self):
        return self._size

    def _flatten(self):
        if self._columns is None:
            d = self._chunks[0].features.shape[1]
            # Into a row-major array: concatenate would follow the layout of
            # the transposed chunks.
            self._columns = np.concatenate(
                [c.features.T for c in self._chunks], axis=1, out=np.empty((d, self._size))
            )
            self._labels = np.concatenate([c.labels for c in self._chunks])
        return self._columns, self._labels

    @property
    def features(self):
        if not self._chunks:
            return np.empty((0, 0))
        return self._flatten()[0].T

    @property
    def labels(self):
        if not self._chunks:
            return np.empty(0, dtype=np.int64)
        return self._flatten()[1]

    def _masked_block(self, where):
        """Row indices of the mask and their (d, rows) column block, gathered
        once per mask and window state."""
        mask = np.asarray(where, dtype=bool)
        key = (self.version, mask.tobytes())
        if self._masked is None or self._masked[0] != key:
            rows = np.flatnonzero(mask)
            self._masked = (key, rows, self._flatten()[0][:, rows])
        return self._masked[1:]

    def knn_query(self, x, k, where=None):
        """k nearest instances to x by Euclidean distance in feature space.

        where, if given, is a boolean mask restricting the searchable rows
        of the flat view. k is clamped to the number of searchable rows, so
        an all-false mask gives an empty neighborhood.

        A squared distance is ``einsum("ij,ij->i", diff, diff)`` over the
        row-major differences, and ties go to the earlier row; the indices
        and distances are exactly those of that scan over every row. The
        search first sums the d squares of each row feature by feature, then
        rescores with the einsum only the rows whose fast value is at most
        the k-th smallest fast value b times (1 + RESCORE_MARGIN).

        That keeps every true neighbor. Both values of a row sum the same d
        nonnegative squares, in two orders. Each addition is correctly
        rounded, with relative error at most u = 2**-53 (and none under
        gradual underflow), so each sum lies within a factor (1 + u)**(d-1)
        of the real sum of the squares, and the two sums within a factor
        1 + delta of each other, delta about 2(d-1)u. Every fast value is at
        least its exact value over 1 + delta, so b >= e / (1 + delta), where
        e is the k-th smallest exact value. A true neighbor has exact value
        at most e, so fast value at most e(1 + delta) <= b(1 + delta)**2,
        which is below b(1 + RESCORE_MARGIN) while d is under about 10**6.
        A fast value overflows to inf while its exact value is finite only
        within delta of the largest double, and then b times the margin
        overflows to inf as well. Among rows that include every true
        neighbor, the exact values and the stable tie rule pick the same k
        rows.
        """
        if self._size == 0:
            raise NotReadyError("validation set is empty")
        if k < 1:
            raise ValueError("k must be positive")
        columns, y = self._flatten()
        x = np.asarray(x, dtype=np.float64).ravel()
        if len(x) != len(columns):
            raise ValueError(
                f"feature dimension mismatch: expected {len(columns)}, got {len(x)}"
            )
        if where is None:
            picked, sq = _nearest_columns(columns, x, k)
            flat_idx = picked
        else:
            rows, block = self._masked_block(where)
            picked, sq = _nearest_columns(block, x, k)
            flat_idx = rows[picked]
        return Neighborhood(
            query=x,
            indices=flat_idx,
            distances=np.sqrt(sq),
            features=columns.T[flat_idx],
            labels=y[flat_idx],
        )

    def knn_output_profiles(self, posteriors, query_posteriors, k):
        """k nearest instances by Euclidean distance between output profiles.

        posteriors holds the pool's (P, N, C) outputs over the flat view
        (see member_posteriors) and query_posteriors its (P, C) outputs on
        the query, whose profile becomes the neighborhood's query point.
        """
        if self._size == 0:
            raise NotReadyError("validation set is empty")
        if not len(posteriors):
            raise NotReadyError("pool is empty")
        if k < 1:
            raise ValueError("k must be positive")
        columns, y = self._flatten()
        query_profile = query_posteriors.reshape(-1)
        diff = output_profiles(posteriors) - query_profile
        sq = np.einsum("ij,ij->i", diff, diff)
        picked = _smallest_k(sq, k)
        return Neighborhood(
            query=query_profile,
            indices=picked,
            distances=np.sqrt(sq[picked]),
            features=columns.T[picked],
            labels=y[picked],
        )
