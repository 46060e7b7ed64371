"""The weighted training path: a row of integer weight k trains a learner as
k consecutive copies of it, partial_fit over any split of the same rows
reaches the same state, and input is checked once, before anything is
drawn or learned."""

import numpy as np
import pytest

from streamdcs import (
    DesddClassifier,
    GaussianNaiveBayes,
    HoeffdingTreeClassifier,
    OnlineBaggingEnsemble,
)

from helpers import state_of
from reference import welford_moments


def oblique_stream(rng, n):
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0.2).astype(int)
    return X, y


def learn_weighted(model, X, y, weights, n_classes=2):
    """model trained through its weighted hook, as an ensemble trains it."""
    model._set_shape(n_classes, X.shape[1])
    model._learn(X, y, np.asarray(weights, dtype=np.int64))
    return model


def fit_in_pieces(model, X, y, cuts):
    for lo, hi in zip([0, *cuts], [*cuts, len(X)]):
        model.partial_fit(X[lo:hi], y[lo:hi], n_classes=2)
    return model


class TestNaiveBayesWeights:
    def test_unit_weights_equal_the_unweighted_welford_loop_exactly(self, rng):
        X = rng.normal(size=(300, 4)) * rng.uniform(0.1, 50.0, size=4)
        y = rng.integers(0, 3, 300)
        nb = GaussianNaiveBayes().partial_fit(X, y, n_classes=3)
        counts, means, m2s = welford_moments(X.tolist(), y.tolist(), 3)
        assert np.array_equal(nb._counts, counts)
        assert np.array_equal(nb._mean, means)
        assert np.array_equal(nb._m2, m2s)

    def test_weight_k_equals_k_repeated_rows(self, rng):
        for _ in range(10):
            X = rng.normal(size=(120, 3)) * rng.uniform(0.1, 20.0) + rng.uniform(-5, 5)
            y = rng.integers(0, 2, 120)
            weights = rng.poisson(rng.uniform(0.5, 10.0), 120)
            weighted = learn_weighted(GaussianNaiveBayes(), X, y, weights)
            repeated = GaussianNaiveBayes().partial_fit(
                np.repeat(X, weights, axis=0), np.repeat(y, weights), n_classes=2
            )
            assert np.array_equal(weighted._counts, repeated._counts)
            for a, b in ((weighted._mean, repeated._mean), (weighted._m2, repeated._m2)):
                assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_zero_weights_learn_nothing(self, rng):
        X, y = oblique_stream(rng, 50)
        nb = learn_weighted(GaussianNaiveBayes(), X, y, np.zeros(50))
        assert not nb._counts.any() and not nb._mean.any() and not nb._m2.any()
        assert nb.predict(X).tolist() == [0] * 50


class TestHoeffdingTreeWeights:
    def test_weights_equal_repeated_rows_exactly(self, rng):
        X, y = oblique_stream(rng, 1500)
        weights = rng.poisson(2.0, 1500)
        assert (weights == 0).any() and (weights > 2).any()
        weighted = learn_weighted(HoeffdingTreeClassifier(grace_period=40), X, y, weights)
        repeated = HoeffdingTreeClassifier(grace_period=40).partial_fit(
            np.repeat(X, weights, axis=0), np.repeat(y, weights), n_classes=2
        )
        assert weighted.n_leaves >= 3
        assert state_of(weighted) == state_of(repeated)
        assert weighted.leaf_class_totals.sum() + weighted.retired_count_ == weights.sum()


class TestOnlineBaggingWeights:
    def test_members_learn_their_column_of_counts(self, rng):
        X, y = oblique_stream(rng, 200)
        seed = 9
        ens = OnlineBaggingEnsemble([GaussianNaiveBayes() for _ in range(3)], lam=4.0, seed=seed)
        ens.partial_fit(X, y, n_classes=2)
        counts = np.random.default_rng(seed).poisson(4.0, size=(200, 3))
        for m, member in enumerate(ens.members):
            alone = learn_weighted(GaussianNaiveBayes(), X, y, counts[:, m])
            assert state_of(member) == state_of(alone)

    def test_weight_k_equals_k_repeated_rows_exactly(self, rng):
        X, y = oblique_stream(rng, 150)
        weights = rng.integers(0, 4, 150)

        def ensemble():
            members = [HoeffdingTreeClassifier(grace_period=30) for _ in range(3)]
            return OnlineBaggingEnsemble(members, lam=2.0, seed=4)

        weighted = learn_weighted(ensemble(), X, y, weights)
        repeated = ensemble().partial_fit(
            np.repeat(X, weights, axis=0), np.repeat(y, weights), n_classes=2
        )
        assert state_of(weighted) == state_of(repeated)

    def test_out_of_range_label_rejected_before_any_draw(self):
        # The label used to be checked only by members that drew a count
        # above zero, so whether it raised depended on the seed.
        for seed in range(20):
            members = [GaussianNaiveBayes() for _ in range(3)]
            ens = OnlineBaggingEnsemble(members, lam=1.0, seed=seed)
            ens.partial_fit([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [0, 1], n_classes=2)
            before = state_of(ens)
            with pytest.raises(ValueError, match="label 5 out of range for 2 classes"):
                ens.partial_fit([[0.1, 0.2, 0.3]], [5])
            assert state_of(ens) == before


def small_tree():
    return HoeffdingTreeClassifier(grace_period=30)


MODELS = {
    "naive-bayes": GaussianNaiveBayes,
    "hoeffding-tree": small_tree,
    "bagging-nb": lambda: OnlineBaggingEnsemble(
        [GaussianNaiveBayes() for _ in range(3)], lam=10.0, seed=5
    ),
    "bagging-ht": lambda: OnlineBaggingEnsemble([small_tree() for _ in range(2)], lam=2.0, seed=6),
    "desdd-nb": lambda: DesddClassifier(
        n_subensembles=3,
        subensemble_size=2,
        learner_factory=GaussianNaiveBayes,
        lambda_range=(1.0, 10.0),
        chunk_size=40,
        window_size=30,
        seed=7,
    ),
    "desdd-ht": lambda: DesddClassifier(
        n_subensembles=2,
        subensemble_size=2,
        learner_factory=small_tree,
        lambda_range=(1.0, 3.0),
        chunk_size=50,
        seed=8,
    ),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_any_split_of_the_rows_gives_the_same_state(name, rng):
    X, y = oblique_stream(rng, 230)
    whole = state_of(MODELS[name]().partial_fit(X, y, n_classes=2))
    splits = [list(range(1, 230))]  # one row at a time
    for _ in range(4):
        # Repeated cut points give empty batches, which must change nothing.
        splits.append(sorted(rng.integers(0, 231, size=int(rng.integers(1, 12))).tolist()))
    for cuts in splits:
        assert state_of(fit_in_pieces(MODELS[name](), X, y, cuts)) == whole, cuts


@pytest.mark.parametrize("name", sorted(MODELS))
def test_rejected_first_batch_leaves_the_model_unfit(name):
    model = MODELS[name]()
    before = state_of(model)
    with pytest.raises(ValueError, match="label 3 out of range for 2 classes"):
        model.partial_fit([[0.0, 1.0, 2.0]], [3], n_classes=2)
    assert state_of(model) == before
