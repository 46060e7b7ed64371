"""A naive-Bayes stack is scored as (M, C, d, n), rows innermost, with its
sums over features and classes taken in index order. Wherever numpy's own
reduction also adds in index order (d and C up to 7), the posteriors equal
the row-major (M, n, C, d) oracle in ``tests/reference.py`` bit for bit;
at every width, a batch scores as its rows one at a time; and DESDD's
re-selection counts the hits the oracle's votes give."""

import numpy as np
import pytest

from streamdcs import DesddClassifier
from streamdcs.learners.naive_bayes import stacked_proba

from reference import argmax_lowest, majority, rowmajor_stacked_proba


def random_stack(rng, n_members, n_classes, n_features):
    """Moments over magnitudes 1e-3 to 1e3, with unseen classes (count 0),
    untrained members (every count 0) and zero sums of squares."""
    counts = rng.integers(0, 6, size=(n_members, n_classes)).astype(float)
    counts[rng.random(n_members) < 0.25] = 0.0
    shape = (n_members, n_classes, n_features)
    scale = 10.0 ** rng.uniform(-3, 3, size=shape)
    mean = rng.normal(size=shape) * scale
    m2 = rng.random(shape) * scale**2 * (rng.random(shape) > 0.25)
    mean[counts == 0] = 0.0
    m2[counts == 0] = 0.0
    return counts, mean, m2


def random_rows(rng, n_features, max_rows=12):
    n_rows = int(rng.integers(0, max_rows + 1))
    return rng.normal(size=(n_rows, n_features)) * 10.0 ** rng.uniform(-3, 3)


def test_posteriors_equal_the_row_major_oracle_bit_for_bit(rng):
    seen = {"unseen class": 0, "untrained member": 0, "zero m2": 0, "no rows": 0}
    for _ in range(600):
        M, C, d = int(rng.integers(1, 8)), int(rng.integers(1, 8)), int(rng.integers(0, 8))
        stack = random_stack(rng, M, C, d)
        X = random_rows(rng, d)
        got, expected = stacked_proba(*stack, X), rowmajor_stacked_proba(*stack, X)
        assert got.shape == expected.shape
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()
        counts, _, m2 = stack
        trained = counts.sum(axis=1, keepdims=True) > 0
        seen["unseen class"] += bool(((counts == 0) & trained).any())
        seen["untrained member"] += bool((counts.sum(axis=1) == 0).any())
        seen["zero m2"] += bool(((m2 == 0) & (counts > 0)[..., None]).any())
        seen["no rows"] += len(X) == 0
    assert min(seen.values()) > 10, seen


def test_a_batch_scores_as_its_rows_one_at_a_time(rng):
    wide = 0
    for _ in range(400):
        M, C, d = int(rng.integers(1, 7)), int(rng.integers(1, 10)), int(rng.integers(0, 21))
        stack = random_stack(rng, M, C, d)
        X = random_rows(rng, d)
        batch = stacked_proba(*stack, X)
        for i, row in enumerate(X):
            alone = stacked_proba(*stack, row[None])
            assert alone.tobytes() == np.ascontiguousarray(batch[:, i : i + 1]).tobytes()
        wide += d >= 8 and len(X) > 1
    assert wide > 50


@pytest.mark.parametrize("window_size", [25, 60])  # a ring that wraps mid-chunk, or fills late
def test_desdd_hits_equal_the_oracles_at_every_boundary(rng, window_size):
    # Three classes and even bags make ties common, in the members' votes
    # and between sub-ensembles; the rate-0 sub-ensemble never trains.
    X = rng.normal(size=(400, 4)) * [1.0, 10.0, 0.1, 1.0]
    y = (X[:, 0] > 0).astype(int) + (X[:, 3] > 0.8)
    model = DesddClassifier(
        n_subensembles=4,
        subensemble_size=4,
        lambda_range=(0.0, 3.0),
        chunk_size=40,
        window_size=window_size,
        seed=int(rng.integers(1000)),
    )
    ties = 0
    for seen in range(40, len(X) + 1, 40):
        model.partial_fit(X[seen - 40 : seen], y[seen - 40 : seen], n_classes=3)
        rows = slice(max(seen - window_size, 0), seen)
        expected = []
        for sub in model.subensembles_:
            votes = rowmajor_stacked_proba(*sub._stack, X[rows]).argmax(axis=2)
            majorities = [majority(column, 3) for column in votes.T]
            expected.append(int(np.sum(np.array(majorities) == y[rows])))
        assert model._hits().tolist() == expected
        assert model.selected_index_ == argmax_lowest(expected)
        ties += expected.count(max(expected)) > 1
    assert ties > 0
