"""Test doubles and randomized-context generation shared across test modules."""

from collections import deque

import numpy as np

from streamdcs import Chunk, CompetenceContext, ValidationSet, member_posteriors
from streamdcs.validation import Neighborhood


class ConstantClassifier:
    """Always predicts one class; counts how many rows it was trained on."""

    def __init__(self, label, n_classes=2):
        self.label = label
        self.n_classes_ = n_classes
        self.rows_trained = 0

    def partial_fit(self, X, y, n_classes=None):
        self.rows_trained += len(np.atleast_2d(X))
        return self

    # The member hooks OnlineBaggingEnsemble calls: its class count is fixed
    # at construction, and a row of weight k counts as k rows.
    def _set_shape(self, n_classes, n_features):
        pass

    def _learn(self, X, y, weights):
        self.rows_trained += int(weights.sum())

    def predict(self, X):
        return np.full(len(np.atleast_2d(X)), self.label, dtype=np.int64)

    def predict_proba(self, X):
        proba = np.zeros((len(np.atleast_2d(X)), self.n_classes_))
        proba[:, self.label] = 1.0
        return proba


class TableClassifier:
    """Probability table keyed on exact feature bytes; for fixture pools."""

    def __init__(self, table, n_classes):
        self.table = {
            np.asarray(k, dtype=np.float64).tobytes(): np.asarray(v, dtype=np.float64)
            for k, v in table.items()
        }
        self.n_classes_ = n_classes

    def partial_fit(self, X, y, n_classes=None):
        return self

    def predict_proba(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.stack([self.table[row.tobytes()] for row in X])

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)


class LinearSoftmaxClassifier:
    """Deterministic continuous-probability stub: softmax of a fixed projection."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.n_classes_ = self.weights.shape[1]

    def partial_fit(self, X, y, n_classes=None):
        return self

    def predict_proba(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        scores = X @ self.weights
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)


def make_chunk(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    chunk = Chunk(len(X))
    chunk.add(X, np.asarray(y))
    return chunk


def make_validation(X, y, max_chunks=4):
    vs = ValidationSet(max_chunks)
    vs.push_chunk(make_chunk(X, y))
    return vs


def profile_neighbors(vs, pool, x, k):
    """vs.knn_output_profiles with the pool's posteriors computed afresh."""
    query = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return vs.knn_output_profiles(
        member_posteriors(pool, vs.features), member_posteriors(pool, query)[:, 0], k
    )


def synth_posteriors(correctness, labels, n_classes, peak=0.9):
    """Posteriors consistent with a correctness matrix: the predicted class
    (true label when correct, the next class when not) gets `peak` mass and
    the remainder is uniform."""
    correctness = np.asarray(correctness, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    n_members, n_neighbors = correctness.shape
    rest = (1.0 - peak) / (n_classes - 1)
    posteriors = np.full((n_members, n_neighbors, n_classes), rest)
    for i in range(n_members):
        for n in range(n_neighbors):
            predicted = labels[n] if correctness[i, n] else (labels[n] + 1) % n_classes
            posteriors[i, n, predicted] = peak
    return posteriors


def make_context(
    correctness,
    labels,
    query_predictions,
    distances=None,
    n_classes=2,
    peak=0.9,
    posteriors=None,
    query_posteriors=None,
):
    correctness = np.asarray(correctness, dtype=bool)
    labels = np.asarray(labels, dtype=np.int64)
    query_predictions = np.asarray(query_predictions, dtype=np.int64)
    n_members, n_neighbors = correctness.shape
    if distances is None:
        distances = np.arange(1, n_neighbors + 1, dtype=np.float64)
    if posteriors is None:
        posteriors = synth_posteriors(correctness, labels, n_classes, peak)
    if query_posteriors is None:
        rest = (1.0 - peak) / (n_classes - 1)
        query_posteriors = np.full((n_members, n_classes), rest)
        for i in range(n_members):
            query_posteriors[i, query_predictions[i]] = peak
    neighborhood = Neighborhood(
        query=np.array([-1.0]),
        indices=np.arange(n_neighbors),
        distances=np.asarray(distances, dtype=np.float64),
        features=np.arange(n_neighbors, dtype=np.float64).reshape(-1, 1),
        labels=labels,
    )
    return CompetenceContext(
        neighborhood=neighborhood,
        correctness=correctness,
        posteriors=np.asarray(posteriors, dtype=np.float64),
        query_predictions=query_predictions,
        query_posteriors=np.asarray(query_posteriors, dtype=np.float64),
        n_classes=n_classes,
    )


def f1_context():
    """Shared two-member fixture: neighbor labels (0, 1, 0) nearest-first,
    member 0 correct on the first two, member 1 correct on all three; on the
    query member 0 says 0 and member 1 says 1."""
    return make_context(
        correctness=[[1, 1, 0], [1, 1, 1]],
        labels=[0, 1, 0],
        query_predictions=[0, 1],
    )


def random_context(rng, max_pool=5, max_k=7, max_classes=3):
    """Randomized context plus the plain-Python view the references consume.

    Mixes continuous posteriors (ties almost surely absent), dyadic
    eighth-quantized posteriors at unit distances (exact arithmetic in both
    implementations, ties common), and zero-distance cases. Occasionally
    forces every member wrong everywhere to reach the fallback paths.
    """
    n_members = int(rng.integers(1, max_pool + 1))
    k = int(rng.integers(1, max_k + 1))
    n_classes = int(rng.integers(2, max_classes + 1))
    variant = rng.random()
    if variant < 0.3:
        posteriors = rng.multinomial(8, [1.0 / n_classes] * n_classes,
                                     size=(n_members, k)) / 8.0
        query_posteriors = rng.multinomial(8, [1.0 / n_classes] * n_classes,
                                           size=n_members) / 8.0
        distances = np.ones(k)
    else:
        posteriors = rng.dirichlet(np.ones(n_classes), size=(n_members, k))
        query_posteriors = rng.dirichlet(np.ones(n_classes), size=n_members)
        distances = np.sort(rng.uniform(0.1, 3.0, k))
        if variant > 0.9:
            distances[0] = 0.0
    labels = rng.integers(0, n_classes, k)
    if rng.random() < 0.15:
        # Make every member wrong on every neighbor where a class exists
        # that nobody predicts.
        member_preds = posteriors.argmax(axis=2)
        for n in range(k):
            unpredicted = sorted(set(range(n_classes)) - set(member_preds[:, n]))
            if unpredicted:
                labels[n] = unpredicted[0]
    correctness = posteriors.argmax(axis=2) == labels[None, :]
    query_predictions = query_posteriors.argmax(axis=1)
    neighborhood = Neighborhood(
        query=rng.uniform(size=2),
        indices=np.arange(k),
        distances=distances,
        features=rng.uniform(size=(k, 2)),
        labels=labels,
    )
    ctx = CompetenceContext(
        neighborhood=neighborhood,
        correctness=correctness,
        posteriors=posteriors,
        query_predictions=query_predictions,
        query_posteriors=query_posteriors,
        n_classes=n_classes,
    )
    raw = {
        "correctness": correctness.astype(int).tolist(),
        "posteriors": posteriors.tolist(),
        "labels": labels.tolist(),
        "distances": distances.tolist(),
        "query_preds": query_predictions.tolist(),
        "n_classes": n_classes,
    }
    return ctx, raw


def state_of(obj):
    """Everything an object holds, recursively, as nested tuples that compare
    with ==: arrays by dtype, shape and bytes, random generators by their
    bit-generator state, classes and functions by identity."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, np.random.Generator):
        return ("generator", state_of(obj.bit_generator.state))
    if isinstance(obj, np.random.SeedSequence):
        return ("seed", obj.entropy, obj.spawn_key, obj.pool_size, obj.n_children_spawned)
    if isinstance(obj, (list, tuple, deque)):
        return (type(obj).__name__, tuple(state_of(v) for v in obj))
    if isinstance(obj, dict):
        return ("dict", tuple((k, state_of(v)) for k, v in sorted(obj.items())))
    if isinstance(obj, type) or callable(obj):
        return obj
    if hasattr(obj, "__dict__"):
        fields = vars(obj)
    elif hasattr(obj, "__slots__"):
        fields = {name: getattr(obj, name) for name in obj.__slots__}
    else:
        return obj
    return (type(obj).__name__, tuple((k, state_of(v)) for k, v in sorted(fields.items())))
