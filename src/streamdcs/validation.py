"""Sliding validation window and region-of-competence queries."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .exceptions import NotReadyError
from .utils import check_positive_integer, check_width


@dataclass(frozen=True)
class Neighborhood:
    """k nearest validation instances for one query, ascending by distance.

    Distance ties resolve to insertion order (older instances first). The
    distances live either in feature space or in output-profile space,
    depending on the query that produced the neighborhood.
    """

    indices: np.ndarray  # positions in the validation set's flat view
    distances: np.ndarray
    labels: np.ndarray  # (k',)

    def __len__(self):
        return len(self.indices)


# Slack of the fast distance pass relative to the scale of the window and
# the query, and per feature for gradual underflow (eight halves of the
# smallest subnormal); see ValidationSet.knn_query.
RESCORE_MARGIN = 1e-9
UNDERFLOW_SLACK = 2.0**-1072
# Largest scale at which no step of the fast pass can overflow.
SAFE_SCALE = np.finfo(np.float64).max / 8


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


def _nearest_columns(block, norms, max_norm, x, k):
    """Positions of the k columns of the (d, n) block nearest to x, and their
    squared distances, as ValidationSet.knn_query defines them; norms holds
    the columns' squared norms, and max_norm is at least the largest."""
    n = block.shape[1]
    candidates = None
    if k < n:
        scale = max_norm + sum(v * v for v in x.tolist())
        if scale <= SAFE_SCALE:  # False for inf and NaN too
            fast = (x * -2.0) @ block
            fast += norms
            slack = RESCORE_MARGIN * scale + (len(x) + 2) * UNDERFLOW_SLACK
            candidates = np.flatnonzero(fast <= np.partition(fast, k - 1)[k - 1] + slack)
    if candidates is None:
        candidates = np.arange(n)
    # einsum's order of summation depends on the memory layout; the gathered
    # rows are a fresh row-major array, as the rows that defined it were.
    diff = block.T[candidates] - x
    sq = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(sq, kind="stable")[:k]
    return candidates[order], sq[order]


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
    which ``features`` is the (N, d) transposed view, together with each
    row's squared norm and the largest of them.
    """

    def __init__(self, max_chunks=4):
        self.max_chunks = check_positive_integer("max_chunks", max_chunks)
        self._chunks = deque(maxlen=self.max_chunks)
        self._size = 0
        self._flat = None  # (d, N) columns, labels, squared norms, largest norm
        # (version, mask bytes), then the row indices, (d, rows) block and
        # norms of the last masked query, so a mask asked for again is not
        # gathered again.
        self._masked = None
        # Bumped by every change to the window, so caches can key on it.
        self.version = 0

    def push_chunk(self, chunk):
        if not chunk.is_full:
            raise ValueError("only full chunks enter the validation window")
        self._chunks.append(chunk)
        self._size = sum(len(c) for c in self._chunks)
        self.version += 1
        self._flat = None
        return self

    @property
    def n_chunks(self):
        return len(self._chunks)

    def __len__(self):
        return self._size

    def _flatten(self):
        if self._flat is None:
            d = self._chunks[0].features.shape[1]
            # Into a row-major array: concatenate would follow the layout of
            # the transposed chunks.
            columns = np.concatenate(
                [c.features.T for c in self._chunks], axis=1, out=np.empty((d, self._size))
            )
            # Row by row: einsum would buffer each operand of the whole pass.
            # A norm that overflows is inf, and then every row is rescored.
            norms = np.zeros(self._size)
            with np.errstate(over="ignore"):
                for row in columns:
                    norms += row * row
            self._flat = (
                columns,
                np.concatenate([c.labels for c in self._chunks]),
                norms,
                float(norms.max()),
            )
        return self._flat

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
        """Row indices of the mask, their (d, rows) column block and their
        squared norms, gathered once per mask and window state."""
        mask = np.asarray(where, dtype=bool)
        if mask.shape != (self._size,):
            raise ValueError(f"mask of shape {mask.shape} for a window of {self._size} rows")
        key = (self.version, mask.tobytes())
        if self._masked is None or self._masked[0] != key:
            columns, _, norms, _ = self._flatten()
            rows = np.flatnonzero(mask)
            self._masked = (key, rows, columns[:, rows], norms[rows])
        return self._masked[1:]

    def knn_query(self, x, k, where=None):
        """k nearest instances to x by Euclidean distance in feature space.

        where, if given, is a boolean mask with one entry per row of the
        flat view, restricting the searchable rows. k is clamped to the
        number of searchable rows, so an all-false mask gives none.

        A squared distance is ``einsum("ij,ij->i", diff, diff)`` over the
        row-major differences, and ties go to the earlier row; the indices
        and distances are exactly those of that scan over every row. The
        search first takes a fast value of every row a, F = |a|^2 - 2 a.x,
        from the cached squared norms and one matrix-vector product, then
        rescores with the einsum only the rows whose F is at most the k-th
        smallest F, b, plus the slack RESCORE_MARGIN * S + (d + 2) *
        UNDERFLOW_SLACK, where S is the largest cached norm plus x.x.

        That keeps every true neighbor. With u = 2**-53 and g(n) = nu / (1 -
        nu), a sum of n products in any order errs by at most g(n) times
        the sum of their magnitudes. So the norm errs by g(d)|a|^2, and the
        product with -2x, an exact scaling, by g(d) sum |2 a_i x_i| <=
        g(d)(|a|^2 + |x|^2), since 2|a_i x_i| <= a_i^2 + x_i^2. After the
        final addition F is within e = 2 g(d+1) S / (1 - g(d)) of |a|^2 -
        2 a.x, which is the real squared distance s less |x|^2. The einsum
        value E sums d rounded squares of rounded differences, so it is
        within h = 2 g(d+2) S / (1 - g(d)) of s. The k rows with F <= b have
        E <= b + |x|^2 + e + h, so the k-th smallest E is at most that too;
        a true neighbor's E is at most the k-th smallest, so its F <= E + h
        - |x|^2 + e <= b + 2(e + h) <= b + 8 g(d+2) S / (1 - g(d)), which is
        below b + RESCORE_MARGIN * S, with room for the rounding of the
        bound itself, while d is under about 10**6.

        Gradual underflow adds to each product at most half the smallest
        subnormal (sums and differences of subnormals are exact), so the
        four estimates above gain at most a few such halves per feature,
        which the absolute term covers. When S exceeds SAFE_SCALE, or is
        inf or NaN, a step of the fast pass could overflow, and every row
        is rescored. Among rows that include every true neighbor, the exact
        values and the stable tie rule pick the same k rows.
        """
        if self._size == 0:
            raise NotReadyError("validation set is empty")
        check_positive_integer("k", k)
        columns, y, norms, max_norm = self._flatten()
        x = np.asarray(x, dtype=np.float64).ravel()
        check_width(len(x), len(columns))
        if where is None:
            flat_idx, sq = _nearest_columns(columns, norms, max_norm, x, k)
        else:
            rows, block, block_norms = self._masked_block(where)
            picked, sq = _nearest_columns(block, block_norms, max_norm, x, k)
            flat_idx = rows[picked]
        return Neighborhood(indices=flat_idx, distances=np.sqrt(sq), labels=y[flat_idx])

    def knn_output_profiles(self, posteriors, query_posteriors, k):
        """k nearest instances by Euclidean distance between output profiles.

        posteriors holds the pool's (P, N, C) outputs over the flat view
        (see member_posteriors) and query_posteriors its (P, C) outputs on
        the query.
        """
        if self._size == 0:
            raise NotReadyError("validation set is empty")
        if not len(posteriors):
            raise NotReadyError("pool is empty")
        check_positive_integer("k", k)
        diff = output_profiles(posteriors) - query_posteriors.reshape(-1)
        sq = np.einsum("ij,ij->i", diff, diff)
        picked = _smallest_k(sq, k)
        return Neighborhood(
            indices=picked, distances=np.sqrt(sq[picked]), labels=self._flatten()[1][picked]
        )
