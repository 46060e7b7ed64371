"""Incremental Gaussian naive Bayes.

The arithmetic is written once over a leading member axis: ``welford_steps``
trains a stack of M learners' moments, and ``stacked_proba`` scores them in
two steps: ``stacked_constants`` per member, which a caller scoring one
state many times computes once, and ``stacked_scores`` per block of rows.
A lone ``GaussianNaiveBayes`` is a stack of one; an online-bagging ensemble
of naive-Bayes members trains and votes all of them through one stack.
"""

from __future__ import annotations

import numpy as np

from ..utils import as_feature_matrix, check_width
from .base import IncrementalClassifier

VARIANCE_FLOOR = 1e-9


def variances(counts, m2):
    """Sample variances (ddof=1) where defined, floored everywhere; counts is
    (..., C) and m2 is (..., C, d)."""
    return np.maximum(m2 / np.maximum(counts - 1.0, 1.0)[..., None], VARIANCE_FLOOR)


def welford_steps(counts, mean, m2, X, y, weights):
    """Weighted Welford steps (West, 1979) for a stack of M learners, in place.

    counts is (M, C), mean and m2 are (M, C, d), and weights is (n, M): row i
    moves learner m's moments as weights[i, m] copies of it would. With a
    weight of 1 every result equals the unweighted step's, bit for bit. A
    learner with weight 0 is left bit-identical, with no 0/0: its denominator
    is floored at 1 (a count that moved is at least 1), so the step adds a
    signed zero, and its moments, which start at +0.0, never hold -0.0 for
    that zero to flip.
    """
    for x, c, w in zip(X, y.tolist(), weights[:, :, None]):
        w = w.astype(np.float64)  # one row at a time, so no (n, M) copy is held
        n, class_mean, class_m2 = counts[:, c, None], mean[:, c], m2[:, c]  # views
        n += w
        delta = x - class_mean
        delta *= w
        class_mean += delta / np.maximum(n, 1.0)
        class_m2 += delta * (x - class_mean)


def _reduce_in_order(ufunc, a, axis):
    """ufunc reduced over one axis of a, one slice at a time in index order.

    numpy's own reduction picks its order from the shape: over a short
    contiguous axis it adds in index order, but from 8 elements it adds
    pairwise, and a length-1 axis elsewhere can make the reduced axis the
    contiguous one. Reducing slice by slice keeps one order whatever the
    shape. An axis of fewer than two elements is left to ``ufunc.reduce``.
    """
    if a.shape[axis] < 2:
        return ufunc.reduce(a, axis=axis)
    lead = (slice(None),) * (axis % a.ndim)
    out = ufunc(a[lead + (0,)], a[lead + (1,)])
    for j in range(2, a.shape[axis]):
        ufunc(out, a[lead + (j,)], out=out)
    return out


def stacked_constants(counts, mean, m2):
    """The per-member constants of a stack's likelihood, shaped to broadcast
    over its (M, C, d, n) terms: means, variances and log normalisers as
    (M, C, d, 1), log priors and the mask of unseen classes as (M, C, 1),
    and the mask of members that have seen no instance as (M, 1, 1)."""
    var = variances(counts, m2)[..., None]
    counts = counts[..., None]
    total = counts.sum(axis=1, keepdims=True)  # a whole number: 0 or at least 1
    unseen = counts == 0
    # stacked_scores masks an unseen class's log prior to -inf, so adding the
    # mask only swaps log(0), and its divide-by-zero warning, for log(1).
    log_prior = np.log(counts / np.maximum(total, 1.0) + unseen)
    return mean[..., None], var, np.log(2.0 * np.pi * var), log_prior, unseen, total == 0


def stacked_scores(constants, XT):
    """(M, C, n) posteriors of a stack, from its ``stacked_constants``, over
    the n columns of the (d, n) array XT.

    The rows of X are the innermost axis, whatever the layout of XT, so each
    step is one long loop. The sums over features and over classes, and the
    maximum over classes, run in index order, whatever the shape, so a row's
    posteriors are the same in any batch.
    """
    mean, var, log_norm, log_prior, unseen, untrained = constants
    # log P(x|c) per feature, squared, divided and shifted in place.
    terms = np.subtract(XT, mean, order="C")
    terms *= terms
    terms /= var
    terms += log_norm
    joint = _reduce_in_order(np.add, terms, axis=2)
    joint *= -0.5
    joint += log_prior
    np.copyto(joint, -np.inf, where=unseen)
    # An unfit learner's rows are constant, so exactly 1 / C once normalised.
    np.copyto(joint, 0.0, where=untrained)
    joint -= _reduce_in_order(np.maximum, joint, axis=1)[:, None]
    np.exp(joint, out=joint)
    joint /= _reduce_in_order(np.add, joint, axis=1)[:, None]
    return joint


def stacked_proba(counts, mean, m2, X):
    """(M, n, C) posteriors of a stack of M learners over the rows of X, a
    transposed view of ``stacked_scores``' (M, C, n) array.

    A learner that has seen no instance answers the uniform distribution.
    The sums over features and over classes run in index order, whatever
    the shape, so scoring a batch or its rows one at a time gives the same
    bits.
    """
    check_width(X.shape[1], mean.shape[2])
    return stacked_scores(stacked_constants(counts, mean, m2), X.T).transpose(0, 2, 1)


class GaussianNaiveBayes(IncrementalClassifier):
    """Naive Bayes with per-(class, feature) running Gaussian moments.

    Moments are maintained with Welford accumulators, so fitting a batch at
    once or one instance at a time yields the same result, and a row of
    integer weight k counts as k copies of it. Variances are floored at
    query time to remove zero-variance singularities.

    The moment arrays are allocated once, when the shape is fixed, and only
    ever updated in place: an online-bagging ensemble binds them to rows of
    its own stack.
    """

    def __init__(self, n_classes=None):
        super().__init__(n_classes=n_classes)
        self._counts = None  # (C,) instances per class
        self._mean = None  # (C, d)
        self._m2 = None  # (C, d) sum of squared deviations

    # Inherited, restated on the class because the benchmark's tracer
    # (perfbench/spans.py) wraps GaussianNaiveBayes.partial_fit by name.
    partial_fit = IncrementalClassifier.partial_fit

    def _set_shape(self, n_classes, n_features):
        super()._set_shape(n_classes, n_features)
        if self._counts is None:
            self._counts = np.zeros(self.n_classes_)
            self._mean = np.zeros((self.n_classes_, self.n_features_))
            self._m2 = np.zeros((self.n_classes_, self.n_features_))

    def _stack_of_one(self):
        return self._counts[None], self._mean[None], self._m2[None]

    def _learn(self, X, y, weights):
        welford_steps(*self._stack_of_one(), X, y, weights[:, None])

    def _variances(self):
        return variances(self._counts, self._m2)

    def predict_proba(self, X):
        """Posteriors of the rows of X, rejecting a non-finite feature."""
        X = as_feature_matrix(X, self.n_features_)
        if self._counts is None:
            return self._uniform_proba(len(X))
        return stacked_proba(*self._stack_of_one(), X)[0]

    @property
    def class_priors_(self):
        if self._counts is None or self._counts.sum() == 0:
            return None
        return self._counts / self._counts.sum()
