"""Correctness checks that the benchmark carries itself.

Nothing here imports ``streamdcs.evaluation``, ``streamdcs.validation`` or
``streamdcs.dcs``: metrics, neighbourhoods and selection rules are
recomputed from their definitions, so a fault in the package cannot hide
behind a shared helper. Base learners are consulted only for their own
posteriors. Each check returns a list of error strings, empty when it
passes.
"""

from __future__ import annotations

import math

import numpy as np

# SEA concepts (Street and Kim, 2001): class 1 iff x0 + x1 <= threshold.
SEA_THRESHOLDS = {0: 8.0, 1: 9.0, 2: 7.0, 3: 9.5}
METRIC_TOLERANCE = 5e-7  # "equal to six decimals"


def scores(labels, predictions, n_classes):
    """Accuracy, Cohen's kappa and the G-mean of per-class recalls."""
    counts = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(labels, predictions):
        counts[int(t)][int(p)] += 1
    n = sum(map(sum, counts))
    hits = sum(counts[c][c] for c in range(n_classes))
    accuracy = hits / n
    rows = [sum(counts[c]) for c in range(n_classes)]
    cols = [sum(counts[r][c] for r in range(n_classes)) for c in range(n_classes)]
    chance = sum(r * c for r, c in zip(rows, cols)) / (n * n)
    kappa = 0.0 if chance == 1.0 else (accuracy - chance) / (1.0 - chance)
    recalls = [counts[c][c] / rows[c] for c in range(n_classes) if rows[c]]
    gmean = math.prod(recalls) ** (1.0 / len(recalls))
    return accuracy, kappa, gmean


def check_report(row, labels, predictions, n_classes):
    """The report's final row against metrics recomputed from the pairs."""
    errors = []
    if row.index != len(labels):
        errors.append(f"report ends at instance {row.index}, {len(labels)} were scored")
    for name, mine in zip(
        ("accuracy", "kappa", "gmean"), scores(labels, predictions, n_classes)
    ):
        theirs = getattr(row, name)
        if not abs(theirs - mine) < METRIC_TOLERANCE:
            errors.append(f"report {name} {theirs!r} but the pairs give {mine!r}")
    return errors


def check_sea_labels(features, labels, concepts, noise_rate):
    """Labels follow the SEA rule of the active concept, up to label noise.

    The share of flipped labels must lie within five binomial standard
    deviations of the noise rate; with no noise, no label may differ.
    """
    thresholds = np.array([SEA_THRESHOLDS[c] for c in concepts])
    clean = (features[:, 0] + features[:, 1] <= thresholds).astype(np.int64)
    flips = int(np.count_nonzero(clean != np.asarray(labels)))
    n = len(labels)
    slack = 5.0 * math.sqrt(noise_rate * (1.0 - noise_rate) / n)
    if abs(flips / n - noise_rate) > slack:
        return [
            f"{flips} of {n} labels break the SEA rule; "
            f"noise rate {noise_rate} allows {noise_rate:.3f} +- {slack:.4f}"
        ]
    return []


def nearest(rows, query, k):
    """Exhaustive k-NN scan: Euclidean distance, ties to the earlier row."""
    sq = ((rows - query) ** 2).sum(axis=1)
    return list(np.argsort(sq, kind="stable")[:k])


def vote(predictions, n_classes, weights=None):
    """Weighted plurality; ties go to the lowest class index."""
    tally = [0.0] * n_classes
    for i, p in enumerate(predictions):
        tally[int(p)] += 1.0 if weights is None else weights[i]
    return max(range(n_classes), key=lambda c: (tally[c], -c))


def argmax_rows(posteriors):
    """Per-row most probable class; ties go to the lowest class index."""
    return [max(range(len(p)), key=lambda c: (p[c], -c)) for p in posteriors]


def knora_e(correct, query_predictions, n_classes):
    """KNORA-E: vote of the members right on all of the m nearest
    neighbours, for the largest m that has any; else the whole pool."""
    for m in range(len(correct[0]), 0, -1):
        oracles = [i for i, row in enumerate(correct) if all(row[:m])]
        if oracles:
            return vote([query_predictions[i] for i in oracles], n_classes)
    return vote(query_predictions, n_classes)


def knora_u(correct, query_predictions, n_classes):
    """KNORA-U: every member votes once per neighbour it gets right;
    with no right answer at all, the whole pool votes once each."""
    weights = [float(sum(row)) for row in correct]
    if not any(weights):
        return vote(query_predictions, n_classes)
    return vote(query_predictions, n_classes, weights)


def _query_predictions(members, x):
    return [argmax_rows(m.predict_proba(x[None, :]))[0] for m in members]


def _correctness(members, rows, labels):
    return [
        [p == t for p, t in zip(argmax_rows(m.predict_proba(rows)), labels)]
        for m in members
    ]


def dynse_prediction(members, window_X, window_y, x, k, rule, n_classes):
    """What DYNSE must answer for x under KNORA-E or KNOP."""
    if rule == "knop":
        profiles = np.hstack([m.predict_proba(window_X) for m in members])
        query = np.hstack([m.predict_proba(x[None, :])[0] for m in members])
        picked = nearest(profiles, query, k)
        combine = knora_u
    elif rule == "knora-e":
        picked = nearest(window_X, x, k)
        combine = knora_e
    else:
        raise ValueError(f"no oracle for rule {rule!r}")
    correct = _correctness(members, window_X[picked], window_y[picked])
    return combine(correct, _query_predictions(members, x), n_classes)


def minority_label(labels, n_classes):
    """Least frequent label present; ties go to the lowest label."""
    counts = [0] * n_classes
    for t in labels:
        counts[int(t)] += 1
    return min((c for c in range(n_classes) if counts[c]), key=lambda c: (counts[c], c))


def mde_prediction(members, window_X, window_y, last_chunk_y, x, k, n_classes):
    """What MDE must answer for x: members right on at least half of the k
    nearest minority-class window rows vote; else the whole pool votes."""
    query_predictions = _query_predictions(members, x)
    minority = minority_label(last_chunk_y, n_classes)
    rows = np.flatnonzero(window_y == minority)
    if len(rows) == 0:
        return vote(query_predictions, n_classes)
    picked = rows[nearest(window_X[rows], x, k)]
    correct = _correctness(members, window_X[picked], window_y[picked])
    needed = math.ceil(k / 2)
    voters = [p for p, row in zip(query_predictions, correct) if sum(row) >= needed]
    return vote(voters or query_predictions, n_classes)


def ensemble_predictions(members, X, n_classes):
    """Plurality vote of the members' own predictions, row by row."""
    votes = [argmax_rows(m.predict_proba(X)) for m in members]
    return [vote(column, n_classes) for column in zip(*votes)]


def best_subensemble(subensembles, window_X, window_y, n_classes):
    """Index of the sub-ensemble most accurate on the window; ties to the first."""
    accuracy = [
        sum(p == t for p, t in zip(ensemble_predictions(s, window_X, n_classes), window_y))
        for s in subensembles
    ]
    return max(range(len(accuracy)), key=lambda i: (accuracy[i], -i))


def check_pool(sizes, bound):
    """No pool may ever hold more members than its bound."""
    return [f"pool of {s} members exceeds its bound {bound}" for s in sizes if s > bound]


def check_beats_majority(accuracy, labels):
    """A method must beat always answering its stream's majority class."""
    baseline = np.bincount(np.asarray(labels)).max() / len(labels)
    if not accuracy > baseline:
        return [f"accuracy {accuracy:.4f} does not beat the majority class {baseline:.4f}"]
    return []
