"""Independent brute-force references used as oracles.

The plain-Python references transliterate the rule definitions, sharing no
code with the package under test, and return (selected_set, prediction,
fallback_used). The numpy references are held to the package bit for bit:
``einsum_knn`` is the window's distance as the package defines it, and the
``*_loop`` rules are the per-member loops that KNORA-E, LCA and A
Posteriori once ran; they return the package's ``SelectionResult``, so the
vectorised rules can be held to every field. ``LoopHoeffdingTree`` is the
Hoeffding tree as it once learned, one row at a time and one feature at a
time per split attempt, on the package's node types. ``rowmajor_stacked_proba``
is the naive-Bayes stack's likelihood as it was once laid out, (M, n, C, d)
with numpy's own reductions over features and classes.
"""

import math

import numpy as np

from streamdcs.dcs import SelectionResult
from streamdcs.learners.base import repeat_rows
from streamdcs.learners.hoeffding_tree import (
    HoeffdingTreeClassifier,
    _entropy_bits,
    hoeffding_bound,
)
from streamdcs.learners.naive_bayes import VARIANCE_FLOOR, variances

EPS_DISTANCE = 1e-12


def argmax_lowest(values):
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def majority(labels, n_classes):
    counts = [0] * n_classes
    for label in labels:
        counts[label] += 1
    return argmax_lowest(counts)


def brute_knn_indices(points, query, k):
    """Exhaustive scan; ties by insertion order."""
    scored = []
    for i, p in enumerate(points):
        d2 = 0.0
        for a, b in zip(p, query):
            d2 += (a - b) * (a - b)
        scored.append((d2, i))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [i for _, i in scored[: min(k, len(points))]]


def einsum_knn(points, query, k, where=None):
    """Exhaustive k-NN scan as the validation window defines it: squared
    distances by einsum over the row-major differences of every searchable
    row, ties by insertion order. Returns (indices, distances)."""
    rows = np.arange(len(points)) if where is None else np.flatnonzero(where)
    diff = np.ascontiguousarray(points[rows]) - query
    sq = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(sq, kind="stable")[:k]
    return rows[order], np.sqrt(sq[order])


def profile_of(proba_rows):
    """Concatenate per-member probability rows into one flat profile."""
    flat = []
    for row in proba_rows:
        flat.extend(row)
    return flat


def knora_e_ref(correctness, query_preds, n_classes):
    n_members = len(correctness)
    width = len(correctness[0]) if n_members else 0
    for m in range(width, 0, -1):
        perfect = [i for i in range(n_members) if all(correctness[i][:m])]
        if perfect:
            pred = majority([query_preds[i] for i in perfect], n_classes)
            return set(perfect), pred, False
    return set(range(n_members)), majority(query_preds, n_classes), True


def knora_u_ref(correctness, query_preds, n_classes):
    n_members = len(correctness)
    weights = [sum(row) for row in correctness]
    if sum(weights) == 0:
        return set(range(n_members)), majority(query_preds, n_classes), True
    votes = [0.0] * n_classes
    for i in range(n_members):
        votes[query_preds[i]] += weights[i]
    selected = {i for i in range(n_members) if weights[i] > 0}
    return selected, argmax_lowest(votes), False


def ola_ref(correctness, query_preds):
    accuracies = [sum(row) / len(row) for row in correctness]
    best = argmax_lowest(accuracies)
    return {best}, query_preds[best], False


def lca_ref(correctness, labels, query_preds):
    competences = []
    for i, row in enumerate(correctness):
        mine = [n for n in range(len(labels)) if labels[n] == query_preds[i]]
        if mine:
            competences.append(sum(row[n] for n in mine) / len(mine))
        else:
            competences.append(0.0)
    best = argmax_lowest(competences)
    return {best}, query_preds[best], False


def _weights(distances):
    return [1.0 / d if d > 0 else 1.0 / EPS_DISTANCE for d in distances]


def apriori_ref(posteriors, labels, distances, query_preds):
    w = _weights(distances)
    competences = []
    for member in posteriors:
        total = 0.0
        for n in range(len(labels)):
            total += member[n][labels[n]] * w[n]
        competences.append(total / sum(w))
    best = argmax_lowest(competences)
    return {best}, query_preds[best], False


def aposteriori_ref(posteriors, labels, distances, query_preds):
    w = _weights(distances)
    competences = []
    for i, member in enumerate(posteriors):
        c = query_preds[i]
        numerator = 0.0
        denominator = 0.0
        for n in range(len(labels)):
            mass = member[n][c] * w[n]
            denominator += mass
            if labels[n] == c:
                numerator += mass
        competences.append(numerator / denominator if denominator > 0 else 0.0)
    best = argmax_lowest(competences)
    return {best}, query_preds[best], False


def mcb_ref(posteriors, correctness, query_preds, sigma=0.7):
    n_members = len(posteriors)
    n_neighbors = len(posteriors[0])
    behaviors = [
        [argmax_lowest(posteriors[i][n]) for i in range(n_members)]
        for n in range(n_neighbors)
    ]
    kept = [
        n
        for n in range(n_neighbors)
        if sum(1 for i in range(n_members) if behaviors[n][i] == query_preds[i])
        / n_members
        >= sigma
    ]
    if not kept:
        kept = list(range(n_neighbors))
    accuracies = [
        sum(correctness[i][n] for n in kept) / len(kept) for i in range(n_members)
    ]
    best = argmax_lowest(accuracies)
    return {best}, query_preds[best], False


def rank_ref(correctness, query_preds):
    ranks = []
    for row in correctness:
        rank = 0
        for value in row:
            if not value:
                break
            rank += 1
        ranks.append(rank)
    best = argmax_lowest(ranks)
    return {best}, query_preds[best], False


def knop_ref(correctness, query_preds, n_classes):
    # Same aggregation as KNORA-U; the neighborhood is located in profile
    # space before the correctness matrix is built.
    return knora_u_ref(correctness, query_preds, n_classes)


def welford_moments(rows, labels, n_classes):
    """Per-class counts, means and sums of squared deviations, one unweighted
    Welford step per row: n += 1; delta = x - mean; mean += delta / n;
    m2 += delta * (x - mean)."""
    n_features = len(rows[0])
    counts = [0.0] * n_classes
    means = [[0.0] * n_features for _ in range(n_classes)]
    m2s = [[0.0] * n_features for _ in range(n_classes)]
    for row, c in zip(rows, labels):
        counts[c] += 1.0
        for j, x in enumerate(row):
            delta = x - means[c][j]
            means[c][j] += delta / counts[c]
            m2s[c][j] += delta * (x - means[c][j])
    return counts, means, m2s


def rowmajor_stacked_proba(counts, mean, m2, X):
    """(M, n, C) posteriors of a stack of M naive-Bayes learners over the rows
    of X, computed over one row-major (M, n, C, d) array."""
    var = variances(counts, m2)
    total = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        log_prior = np.log(counts / np.maximum(total, 1.0))
    terms = np.subtract(X[None, :, None, :], mean[:, None, :, :], order="C")
    terms *= terms
    terms /= var[:, None, :, :]
    terms += np.log(2.0 * np.pi * var)[:, None, :, :]
    log_like = -0.5 * terms.sum(axis=3)
    joint = log_prior[:, None, :] + log_like
    np.copyto(joint, -np.inf, where=(counts == 0)[:, None, :])
    np.copyto(joint, 0.0, where=(total == 0)[:, :, None])
    shifted = joint - joint.max(axis=2, keepdims=True)
    proba = np.exp(shifted)
    return proba / proba.sum(axis=2, keepdims=True)


def _loop_vote(labels, n_classes):
    return int(np.argmax(np.bincount(np.asarray(labels, dtype=np.int64), minlength=n_classes)))


def _loop_single(ctx, member):
    return SelectionResult(
        selected=(int(member),),
        prediction=int(ctx.query_predictions[member]),
        n_neighbors_used=len(ctx.neighborhood),
    )


def knora_e_loop(ctx):
    """KNORA-E as a walk from the whole neighborhood down to one neighbor."""
    for m in range(len(ctx.neighborhood), 0, -1):
        perfect = np.flatnonzero(ctx.correctness[:, :m].all(axis=1))
        if len(perfect):
            return SelectionResult(
                selected=tuple(int(i) for i in perfect),
                prediction=_loop_vote(ctx.query_predictions[perfect], ctx.n_classes),
                n_neighbors_used=m,
            )
    return SelectionResult(
        selected=tuple(range(ctx.n_members)),
        prediction=_loop_vote(ctx.query_predictions, ctx.n_classes),
        fallback_used=True,
        n_neighbors_used=0,
    )


def lca_loop_competence(ctx):
    """LCA's competence of each member, one member at a time."""
    competence = np.zeros(ctx.n_members)
    for i in range(ctx.n_members):
        mask = ctx.labels == ctx.query_predictions[i]
        if mask.any():
            competence[i] = ctx.correctness[i, mask].mean()
    return competence


def lca_loop(ctx):
    return _loop_single(ctx, np.argmax(lca_loop_competence(ctx)))


def aposteriori_loop_competence(ctx):
    """A Posteriori's competence of each member, one member at a time."""
    d = np.where(ctx.distances > 0, ctx.distances, EPS_DISTANCE)
    w = 1.0 / d
    competence = np.zeros(ctx.n_members)
    for i in range(ctx.n_members):
        c = ctx.query_predictions[i]
        mass = ctx.posteriors[i, :, c] * w
        denominator = mass.sum()
        if denominator > 0:
            competence[i] = mass[ctx.labels == c].sum() / denominator
    return competence


def aposteriori_loop(ctx):
    return _loop_single(ctx, np.argmax(aposteriori_loop_competence(ctx)))


def _loop_normal_cdf(z):
    flat = z.ravel()
    out = np.empty(flat.shape)
    for i, v in enumerate(flat):
        out[i] = 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
    return out.reshape(z.shape)


def _loop_entropy_bits_cols(counts):
    totals = counts.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        logs = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    h = -np.sum(p * logs, axis=0)
    return np.where(totals > 0, h, 0.0)


def _loop_leaf_learn(leaf, x, c):
    leaf.proba = None
    leaf.class_counts[c] += 1.0
    delta = x - leaf.mean[c]
    leaf.mean[c] += delta / leaf.class_counts[c]
    leaf.m2[c] += delta * (x - leaf.mean[c])
    np.minimum(leaf.f_min, x, out=leaf.f_min)
    np.maximum(leaf.f_max, x, out=leaf.f_max)
    leaf.since_attempt += 1


class LoopHoeffdingTree(HoeffdingTreeClassifier):
    """Each row learned on arrival, and each split attempt searching one
    feature at a time."""

    def _learn(self, X, y, weights):
        X, y = repeat_rows(X, y, weights)
        for x, c in zip(X, y):
            j = self._route(x)
            leaf = self._nodes[j]
            _loop_leaf_learn(leaf, x, c)
            if leaf.since_attempt >= self.grace_period:
                leaf.since_attempt = 0
                split = self._evaluate_split(leaf)
                if split is not None:
                    self._split(j, *split)

    def _evaluate_split(self, leaf):
        counts = leaf.class_counts
        total = counts.sum()
        if np.count_nonzero(counts) < 2:
            return None
        parent_h = _entropy_bits(counts)
        seen = counts > 0
        denom = np.maximum(counts - 1.0, 1.0)[:, None]
        sigma = np.sqrt(np.maximum(leaf.m2 / denom, VARIANCE_FLOOR))

        best_gain, second_gain, best = 0.0, 0.0, None
        for j in range(self.n_features_):
            lo, hi = leaf.f_min[j], leaf.f_max[j]
            if not hi > lo:
                continue
            thresholds = np.linspace(lo, hi, self.n_split_candidates + 2)[1:-1]
            below = np.zeros((len(counts), len(thresholds)))
            z = (thresholds[None, :] - leaf.mean[seen, j, None]) / sigma[seen, j, None]
            below[seen] = counts[seen, None] * _loop_normal_cdf(z)
            above = counts[:, None] - below
            n_below = below.sum(axis=0)
            n_above = above.sum(axis=0)
            mixed = (
                n_below * _loop_entropy_bits_cols(below)
                + n_above * _loop_entropy_bits_cols(above)
            ) / total
            gains = parent_h - mixed
            t = int(np.argmax(gains))
            if gains[t] > best_gain:
                second_gain = best_gain
                best_gain, best = float(gains[t]), (j, float(thresholds[t]))
            elif gains[t] > second_gain:
                second_gain = float(gains[t])

        if best is None or best_gain <= 0.0:
            return None
        eps = hoeffding_bound(math.log2(self.n_classes_), self.split_confidence, total)
        if best_gain - second_gain > eps or eps < self.tie_threshold:
            return best
        return None
