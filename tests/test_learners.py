import math
import pickle
import re
import warnings

import numpy as np
import pytest

from streamdcs import (
    DynseClassifier,
    GaussianNaiveBayes,
    HoeffdingTreeClassifier,
    MdeClassifier,
    OnlineBaggingEnsemble,
    hoeffding_bound,
)
from streamdcs.learners.hoeffding_tree import CompiledForest, _thresholds
from streamdcs.utils import as_feature_matrix

from helpers import ConstantClassifier, state_of
from reference import LoopHoeffdingTree


class TestGaussianNaiveBayes:
    def test_symmetric_counts_give_equal_priors(self):
        nb = GaussianNaiveBayes()
        nb.partial_fit([[0.0], [10.0]], [0, 1], n_classes=2)
        assert np.allclose(nb.class_priors_, [0.5, 0.5])

    def test_welford_moments_match_two_pass_oracle(self):
        values = np.array([2.0, 4.0, 6.0])
        nb = GaussianNaiveBayes()
        for v in values:
            nb.partial_fit([[v]], [0], n_classes=1)
        # Oracle: textbook two-pass mean and sample variance.
        mean = values.sum() / len(values)
        var = ((values - mean) ** 2).sum() / (len(values) - 1)
        assert mean == 4.0 and var == 4.0
        assert nb._mean[0, 0] == pytest.approx(mean, abs=1e-12)
        assert nb._variances()[0, 0] == pytest.approx(var, abs=1e-12)

    def test_empty_batch_is_identity(self):
        nb = GaussianNaiveBayes()
        nb.partial_fit([[1.0], [2.0]], [0, 1], n_classes=2)
        before = (nb._counts.copy(), nb._mean.copy(), nb._m2.copy())
        nb.partial_fit(np.empty((0, 1)), np.empty(0, dtype=int))
        assert np.array_equal(before[0], nb._counts)
        assert np.array_equal(before[1], nb._mean)
        assert np.array_equal(before[2], nb._m2)

    def test_two_separated_classes_confident_near_one(self):
        nb = GaussianNaiveBayes()
        nb.partial_fit([[-1.0], [1.0], [9.0], [11.0]], [0, 0, 1, 1], n_classes=2)
        proba = nb.predict_proba([[1.0]])[0]
        # Oracle: closed-form Gaussian ratio with sample variance 2 for both
        # classes -> odds exp(((1-10)^2 - (1-0)^2) / (2*2)) = exp(20).
        odds = math.exp(((1 - 10) ** 2 - (1 - 0) ** 2) / 4.0)
        assert proba[0] == pytest.approx(odds / (1 + odds), abs=1e-9)
        assert proba[0] > 0.99

    def test_equidistant_query_is_even_split(self):
        nb = GaussianNaiveBayes()
        nb.partial_fit([[-1.0], [1.0], [9.0], [11.0]], [0, 0, 1, 1], n_classes=2)
        proba = nb.predict_proba([[5.0]])[0]
        assert proba == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_unfit_model_uniform_and_class_zero(self):
        nb = GaussianNaiveBayes(n_classes=3)
        assert np.allclose(nb.predict_proba([[1.0, 2.0]]), [1 / 3, 1 / 3, 1 / 3])
        assert nb.predict([[1.0, 2.0]])[0] == 0

    def test_batch_equals_incremental_within_tolerance(self, rng):
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 3, size=200)
        batch = GaussianNaiveBayes().partial_fit(X, y, n_classes=3)
        online = GaussianNaiveBayes()
        for x, label in zip(X, y):
            online.partial_fit([x], [label], n_classes=3)
        assert np.allclose(batch._mean, online._mean, rtol=1e-9, atol=0)
        assert np.allclose(batch._variances(), online._variances(), rtol=1e-9, atol=0)

    def test_dimension_mismatch_rejected(self):
        nb = GaussianNaiveBayes()
        nb.partial_fit([[1.0, 2.0]], [0], n_classes=2)
        with pytest.raises(ValueError):
            nb.partial_fit([[1.0]], [0])

    @pytest.mark.parametrize("width", [1, 4])
    def test_query_of_the_wrong_width_rejected(self, width):
        nb = GaussianNaiveBayes().partial_fit([[1.0, 2.0, 3.0], [0.0, 1.0, 0.5]], [0, 1])
        for method in (nb.predict_proba, nb.predict):
            with pytest.raises(ValueError, match=f"expected 3, got {width}"):
                method(np.zeros((2, width)))

    def test_label_out_of_range_rejected(self):
        nb = GaussianNaiveBayes(n_classes=2)
        with pytest.raises(ValueError):
            nb.partial_fit([[1.0]], [5])

    def test_predict_is_argmax_of_proba(self, rng):
        for _ in range(30):
            n_classes = int(rng.integers(2, 4))
            nb = GaussianNaiveBayes()
            X = rng.normal(size=(40, 3)) * rng.uniform(0.5, 3)
            y = rng.integers(0, n_classes, size=40)
            nb.partial_fit(X, y, n_classes=n_classes)
            queries = rng.normal(size=(20, 3))
            proba = nb.predict_proba(queries)
            assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(proba >= 0)
            assert np.array_equal(nb.predict(queries), proba.argmax(axis=1))


class TestHoeffdingBound:
    def test_reference_value(self):
        assert hoeffding_bound(1, 1e-7, 200) == pytest.approx(0.200737, abs=1e-4)

    def test_quadrupling_n_halves_bound(self, rng):
        for _ in range(50):
            r = float(rng.uniform(0.5, 4))
            delta = float(rng.uniform(1e-9, 0.5))
            n = int(rng.integers(1, 10_000))
            assert hoeffding_bound(r, delta, 4 * n) == pytest.approx(
                hoeffding_bound(r, delta, n) / 2, rel=1e-12
            )

    def test_delta_one_boundary_is_zero(self):
        assert hoeffding_bound(1, 1.0, 10) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hoeffding_bound(1, 0.0, 10)
        with pytest.raises(ValueError):
            hoeffding_bound(1, 1.5, 10)
        with pytest.raises(ValueError):
            hoeffding_bound(1, 0.5, 0)
        with pytest.raises(ValueError):
            hoeffding_bound(0, 0.5, 10)

    def test_monotone_in_n_and_range(self, rng):
        for _ in range(100):
            r = float(rng.uniform(0.5, 4))
            delta = float(rng.uniform(1e-9, 0.99))
            n = int(rng.integers(1, 5_000))
            assert hoeffding_bound(r, delta, n + 1) < hoeffding_bound(r, delta, n)
            assert hoeffding_bound(r + 0.5, delta, n) > hoeffding_bound(r, delta, n)


def separable_stream(rng, n):
    """Two uniform bands with a margin around zero; class is the sign side."""
    x0 = rng.uniform(-1.0, -0.25, n // 2)
    x1 = rng.uniform(0.25, 1.0, n - n // 2)
    X = np.concatenate([x0, x1]).reshape(-1, 1)
    y = np.concatenate([np.zeros(n // 2, int), np.ones(n - n // 2, int)])
    order = rng.permutation(n)
    return X[order], y[order]


class TestHoeffdingTree:
    def test_below_grace_period_stays_single_leaf(self, rng):
        ht = HoeffdingTreeClassifier(grace_period=200)
        X = rng.uniform(size=(10, 2))
        ht.partial_fit(X, rng.integers(0, 2, 10), n_classes=2)
        assert ht.n_leaves == 1

    def test_separable_stream_matches_offline_stump_oracle(self, rng):
        X, y = separable_stream(rng, 1000)
        ht = HoeffdingTreeClassifier(grace_period=200, split_confidence=1e-7)
        ht.partial_fit(X, y, n_classes=2)
        assert ht.n_leaves >= 2

        Xf, yf = separable_stream(rng, 1000)
        # Oracle: an offline depth-1 stump fit on the training data, using
        # the midpoint threshold with the fewest training errors.
        candidates = (X[:-1, 0] + X[1:, 0]) / 2
        errors = [np.sum((X[:, 0] <= t) != (y == 0)) for t in candidates]
        stump_t = candidates[int(np.argmin(errors))]
        stump_pred = (Xf[:, 0] > stump_t).astype(int)
        assert np.mean(stump_pred == yf) == 1.0
        assert np.mean(ht.predict(Xf) == yf) == 1.0

    def test_single_class_never_splits(self, rng):
        ht = HoeffdingTreeClassifier(grace_period=50)
        X = rng.uniform(size=(2000, 2))
        ht.partial_fit(X, np.zeros(2000, dtype=int), n_classes=2)
        assert ht.n_leaves == 1

    def test_empty_tree_predicts_class_zero(self):
        ht = HoeffdingTreeClassifier()
        assert ht.predict([[0.5, 0.5]])[0] == 0

    def test_leaf_majority_and_tie_break(self):
        ht = HoeffdingTreeClassifier(grace_period=10_000)
        X = np.ones((10, 1))
        y = np.array([0] * 3 + [1] * 7)
        ht.partial_fit(X, y, n_classes=2)
        assert ht.predict([[1.0]])[0] == 1

        tie = HoeffdingTreeClassifier(grace_period=10_000)
        tie.partial_fit(np.ones((10, 1)), np.array([0] * 5 + [1] * 5), n_classes=2)
        assert tie.predict([[1.0]])[0] == 0

    def test_leaf_count_conservation(self, rng):
        # Children start empty when a leaf splits, so the split-away counts
        # are tallied in retired_count_; leaves plus tally cover every
        # instance exactly once.
        for _ in range(5):
            n = int(rng.integers(100, 2000))
            X = rng.normal(size=(n, 3))
            y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(int)
            ht = HoeffdingTreeClassifier(grace_period=40)
            ht.partial_fit(X, y, n_classes=2)
            assert ht.leaf_class_totals.sum() + ht.retired_count_ == n

    def test_leaf_counts_without_splits_cover_all_instances(self, rng):
        ht = HoeffdingTreeClassifier(grace_period=10_000)
        ht.partial_fit(rng.normal(size=(500, 2)), rng.integers(0, 2, 500), n_classes=2)
        assert ht.retired_count_ == 0
        assert ht.leaf_class_totals.sum() == 500

    def test_predict_is_argmax_of_proba(self, rng):
        X = rng.normal(size=(600, 2))
        y = (X[:, 0] > 0).astype(int)
        ht = HoeffdingTreeClassifier(grace_period=50)
        ht.partial_fit(X, y, n_classes=2)
        queries = rng.normal(size=(100, 2))
        proba = ht.predict_proba(queries)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(ht.predict(queries), proba.argmax(axis=1))

    def test_dimension_mismatch_rejected(self):
        ht = HoeffdingTreeClassifier()
        ht.partial_fit([[1.0, 2.0]], [0], n_classes=2)
        with pytest.raises(ValueError):
            ht.partial_fit([[1.0, 2.0, 3.0]], [1])

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_query_of_the_wrong_width_rejected(self, rng, width):
        X = rng.uniform(size=(3000, 3))
        y = (X.sum(axis=1) + 0.2 * rng.normal(size=3000) > 1.5).astype(int)
        ht = HoeffdingTreeClassifier(grace_period=50).partial_fit(X, y, n_classes=2)
        assert ht.n_leaves > 1
        for method in (ht.predict_proba, ht.predict):
            with pytest.raises(ValueError, match=f"expected 3, got {width}"):
                method(np.zeros((2, width)))


@pytest.mark.parametrize(
    "name, value",
    [
        ("grace_period", 0),
        ("grace_period", -5),
        ("grace_period", 2.5),
        ("tie_threshold", float("nan")),
        ("tie_threshold", -1),
        ("split_confidence", 0),
        ("split_confidence", 2),
        ("split_confidence", float("nan")),
        ("n_split_candidates", 0),
        ("n_split_candidates", 2.5),
    ],
)
def test_tree_parameter_rejected_at_construction(name, value):
    with pytest.raises(ValueError, match=name):
        HoeffdingTreeClassifier(**{name: value})


def tree_state(tree):
    """Every node by its position: a split's feature, its threshold by its
    hex form and its children's positions; a leaf's moments, range and
    attempt counter by their bytes; and the retired tally."""

    def state(node):
        if isinstance(node, tuple):
            feature, threshold, left, right = node
            return ("split", feature, threshold.hex(), left, right)
        arrays = (node.class_counts, node.mean, node.m2, node.f_min, node.f_max)
        return ("leaf", node.since_attempt) + tuple(a.tobytes() for a in arrays)

    return [state(node) for node in tree._nodes], tree.retired_count_


def test_buffered_training_matches_row_by_row_reference():
    # The package trains each leaf from a buffer of the rows it reached and
    # searches every feature at once; the reference learns each row on
    # arrival and searches one feature at a time. Any batching, weighting
    # or class and feature count must leave both trees bit for bit equal.
    rng = np.random.default_rng(7)
    split_trees = 0
    for config in range(60):
        d = int(rng.choice([1, 3, 5, 8]))
        n_classes = int(rng.choice([2, 3, 4]))
        params = dict(
            grace_period=int(rng.choice([1, 7, 50])),
            split_confidence=float(rng.choice([1e-7, 0.01])),
            tie_threshold=float(rng.choice([0.05, 0.3, 0.6])),
            n_split_candidates=int(rng.choice([1, 10])),
        )
        batch = int(rng.choice([1, 37, 1000]))
        poisson = bool(rng.integers(2))
        n = int(rng.integers(150, 700))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, d)
        if d > 1:
            X[:, rng.integers(d)] = rng.choice([-1.0, 2.0])  # a point range
        score = X @ rng.normal(size=d) + rng.normal(scale=0.5, size=n)
        y = np.digitize(score, np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1]))
        weights = rng.poisson(1.0, n) if poisson else np.ones(n, dtype=np.int64)

        trees = HoeffdingTreeClassifier(**params), LoopHoeffdingTree(**params)
        for tree in trees:
            tree._set_shape(n_classes, d)
            for start in range(0, n, batch):
                rows = slice(start, start + batch)
                tree._learn(X[rows], y[rows], weights[rows])
        fast, loop = (tree_state(tree) for tree in trees)
        assert fast == loop, (config, d, n_classes, params, batch, poisson)
        split_trees += trees[1].n_leaves > 2
    assert split_trees >= 30  # most configurations grow past a stump


def test_thresholds_are_linspace_bit_for_bit():
    rng = np.random.default_rng(3)
    tiny = np.nextafter(0.0, 1.0)
    lo = np.concatenate([rng.normal(size=20) * 100, [0.0, -tiny, 1.0, -3e-310]])
    hi = lo + np.concatenate([rng.exponential(size=20), [tiny, tiny, 2e-16, 5e-324]])
    for n in (1, 3, 10):
        got = _thresholds(lo, hi, n)
        for j in range(len(lo)):
            want = np.linspace(lo[j], hi[j], n + 2)[1:-1]
            assert got[j].tobytes() == want.tobytes(), (n, lo[j], hi[j])


class TestOnlineBagging:
    def test_lambda_zero_never_trains(self, rng):
        members = [ConstantClassifier(0) for _ in range(4)]
        ens = OnlineBaggingEnsemble(members, lam=0.0, seed=1)
        ens.partial_fit(rng.uniform(size=(500, 2)), rng.integers(0, 2, 500), n_classes=2)
        assert all(m.rows_trained == 0 for m in members)

    def test_fixed_seed_reproduces_update_counts(self, rng):
        X = rng.uniform(size=(300, 2))
        y = rng.integers(0, 2, 300)

        def run():
            members = [ConstantClassifier(0) for _ in range(3)]
            ens = OnlineBaggingEnsemble(members, lam=1.0, seed=77)
            ens.partial_fit(X, y, n_classes=2)
            return [m.rows_trained for m in members]

        assert run() == run()

    def test_mean_replication_matches_poisson_rate(self, rng):
        members = [ConstantClassifier(0) for _ in range(2)]
        ens = OnlineBaggingEnsemble(members, lam=5.0, seed=5)
        n = 10_000
        ens.partial_fit(rng.uniform(size=(n, 1)), rng.integers(0, 2, n), n_classes=2)
        for m in members:
            assert 4.9 <= m.rows_trained / n <= 5.1

    def test_majority_vote_tie_breaks_low(self):
        members = [ConstantClassifier(1, 3), ConstantClassifier(0, 3)]
        ens = OnlineBaggingEnsemble(members, lam=1.0, seed=0)
        ens.partial_fit([[0.0]], [2], n_classes=3)
        assert ens.predict([[0.0]])[0] == 0

    def test_predict_is_argmax_of_proba(self):
        members = [ConstantClassifier(1, 2), ConstantClassifier(1, 2), ConstantClassifier(0, 2)]
        ens = OnlineBaggingEnsemble(members, lam=1.0, seed=0)
        ens.partial_fit([[0.0]], [1], n_classes=2)
        proba = ens.predict_proba([[0.0]])
        assert np.allclose(proba, [[1 / 3, 2 / 3]])
        assert ens.predict([[0.0]])[0] == proba.argmax(axis=1)[0] == 1

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            OnlineBaggingEnsemble([ConstantClassifier(0)], lam=-1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.5, True, "1"])
    def test_non_finite_or_negative_lambda_rejected_by_name(self, lam):
        # NaN fails no comparison, so a plain lam < 0 lets it through to
        # the first Poisson draw; a bool or a string is not a rate.
        with pytest.raises(ValueError, match=re.escape("lam must be a real number in [0, inf)")):
            OnlineBaggingEnsemble([ConstantClassifier(0)], lam=lam)


def oblique_stream(rng, n):
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0.2).astype(int)
    return X, y


def queries_with_nan(rng):
    Q = rng.normal(size=(300, 3))
    Q[7, 0] = np.nan
    Q[11] = np.nan
    return Q


class TestBatchEquivalence:
    """predict_proba over a batch equals row-by-row calls exactly. The stream
    methods score their whole validation window in one call per member and
    then read single rows from it, so they rely on this."""

    def test_hoeffding_tree_with_splits(self, rng):
        ht = HoeffdingTreeClassifier(grace_period=50)
        ht.partial_fit(*oblique_stream(rng, 3000), n_classes=2)
        assert ht.n_leaves >= 3
        Q = queries_with_nan(rng)
        batch = ht.predict_proba(Q)
        assert np.array_equal(batch, np.vstack([ht.predict_proba(q) for q in Q]))
        # Each row gets the distribution of the leaf that training routes
        # it to; a NaN feature fails every <= test and goes right.
        for q, proba in zip(Q, batch):
            counts = ht._nodes[ht._route(q)].class_counts
            assert np.array_equal(proba, counts / counts.sum())

    def test_naive_bayes(self, rng):
        nb = GaussianNaiveBayes()
        nb.partial_fit(*oblique_stream(rng, 500), n_classes=2)
        Q = rng.normal(size=(300, 3))
        assert np.array_equal(nb.predict_proba(Q), np.vstack([nb.predict_proba(q) for q in Q]))

    def test_naive_bayes_over_a_feature_major_view(self, rng):
        # The validation window hands its rows over as the transpose of a
        # (d, N) array; the per-feature sums must not follow that layout.
        X = rng.normal(size=(400, 8))
        nb = GaussianNaiveBayes()
        nb.partial_fit(X, (X[:, 0] > 0).astype(int), n_classes=2)
        Q = rng.normal(size=(300, 8)) * 3.0
        assert nb.predict_proba(np.asfortranarray(Q)).tobytes() == nb.predict_proba(Q).tobytes()

    def test_online_bagging(self, rng):
        ens = OnlineBaggingEnsemble([GaussianNaiveBayes() for _ in range(4)], seed=3)
        ens.partial_fit(*oblique_stream(rng, 200), n_classes=2)
        Q = rng.normal(size=(300, 3))
        proba = ens.predict_proba(Q)
        assert np.array_equal(proba, np.vstack([ens.predict_proba(q) for q in Q]))
        predictions = ens.predict(Q)
        assert np.array_equal(predictions, proba.argmax(axis=1))
        # Two-two splits are ties and go to class 0.
        ties = proba[:, 0] == 0.5
        assert ties.any() and not predictions[ties].any()


class TestTreePickle:
    """A tree, or a stream method over trees, pickled mid-stream predicts
    and trains on as the original."""

    def test_tree_round_trip(self, rng):
        X, y = oblique_stream(rng, 3000)
        tree = HoeffdingTreeClassifier().partial_fit(X[:1100], y[:1100], n_classes=2)
        assert tree.n_leaves == 2
        copy = pickle.loads(pickle.dumps(tree))
        assert tree_state(copy) == tree_state(tree)
        Q = queries_with_nan(rng)
        for start in range(1100, 3000, 380):
            assert copy.predict_proba(Q).tobytes() == tree.predict_proba(Q).tobytes()
            for model in (tree, copy):
                model.partial_fit(X[start : start + 380], y[start : start + 380])
            assert tree_state(copy) == tree_state(tree)
        assert copy.n_leaves >= 5  # the copy went on splitting

    @pytest.mark.parametrize("method", [DynseClassifier, MdeClassifier])
    def test_stream_method_round_trip(self, rng, method):
        X, y = oblique_stream(rng, 600)
        model = method(chunk_size=100, max_pool_size=3).partial_fit(X[:350], y[:350], n_classes=2)
        model.predict(X[350:360])  # fills the query cache: forest and window posteriors
        assert model._query_cache[0] is not None
        copy = pickle.loads(pickle.dumps(model))
        assert state_of(copy) == state_of(model)
        # Through the chunk boundaries at rows 400 and 500.
        for start in range(350, 600, 10):
            batch = slice(start, start + 10)
            assert np.array_equal(copy.predict(X[batch]), model.predict(X[batch]))
            for m in (model, copy):
                m.partial_fit(X[batch], y[batch])
        assert model.learners_created == 6
        assert state_of(copy) == state_of(model)


def test_compiled_forest_equals_each_trees_own_posteriors(rng):
    trees = [HoeffdingTreeClassifier(tie_threshold=0.3) for _ in range(5)]
    for tree in trees:
        tree.partial_fit(*oblique_stream(rng, 2000), n_classes=2)
    trees.insert(2, HoeffdingTreeClassifier(n_classes=2))  # untrained: uniform
    forest = CompiledForest(trees)
    assert forest.depth >= 4
    Q = queries_with_nan(rng)
    # Rows exactly on a split threshold take the <= branch.
    for node, (feature, threshold) in enumerate(zip(forest.feature[:40], forest.threshold)):
        if forest.children[node, 0] != node:
            Q[20 + node, feature] = threshold
    for q in Q:
        expected = np.vstack([tree.predict_proba(q[None, :]) for tree in trees])
        assert forest.predict_proba(q).tobytes() == expected.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(value):
    X = np.ones((3, 2))
    X[2, 1] = value
    with pytest.raises(ValueError, match="row 2, column 1"):
        as_feature_matrix(X)
    with pytest.raises(ValueError, match="finite"):
        GaussianNaiveBayes().partial_fit(X, [0, 1, 0], n_classes=2)
    # A fitted naive Bayes names the row rather than answering NaN posteriors
    # whose argmax is class 0.
    nb = GaussianNaiveBayes().partial_fit(np.eye(2), [0, 1])
    # So does a bag, whose stacked members would all vote class 0.
    bag = OnlineBaggingEnsemble([GaussianNaiveBayes() for _ in range(4)], seed=0)
    bag.partial_fit(np.eye(2), [0, 1])
    for query in (nb.predict_proba, nb.predict, bag.predict_proba, bag.predict):
        with pytest.raises(ValueError, match="row 2, column 1"):
            query(X)


FITTED_LEARNERS = {
    "tree": HoeffdingTreeClassifier,
    "naive-bayes": GaussianNaiveBayes,
    "bag": lambda: OnlineBaggingEnsemble([GaussianNaiveBayes() for _ in range(4)], seed=3),
}


@pytest.mark.parametrize("learner", sorted(FITTED_LEARNERS))
@pytest.mark.parametrize("call", ["predict_proba", "predict"])
@pytest.mark.parametrize("shape", [(), (2, 3, 1), (2, 3, 4)], ids=str)
def test_feature_arrays_neither_1d_nor_2d_rejected(learner, call, shape):
    rng = np.random.default_rng(5)
    model = FITTED_LEARNERS[learner]()
    model.partial_fit(rng.normal(size=(500, 3)), rng.integers(0, 2, 500), n_classes=2)
    with pytest.raises(ValueError, match=f"expected a 2-D feature matrix, got ndim={len(shape)}"):
        getattr(model, call)(np.zeros(shape))


@pytest.mark.parametrize(
    "labels, message",
    [
        ([0.4, 1.9, 0.0], "row 0 holds 0.4"),
        (["0", "1", "1"], "row 0 holds '0'"),
        ([0.0, np.nan, 1.0], "row 1 holds nan"),
        ([0.0, 1.0, np.inf], "row 2 holds inf"),
    ],
)
def test_labels_that_are_not_class_indices_rejected(labels, message):
    # Named and rejected before anything is fixed, not truncated to a class.
    nb = GaussianNaiveBayes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            nb.partial_fit([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], labels)
    assert nb.n_classes_ is None


def test_whole_float_and_boolean_labels_train_as_integers():
    X = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    expected = GaussianNaiveBayes().partial_fit(X, [1, 0, 1]).predict_proba(X)
    for labels in ([1.0, 0.0, 1.0], [True, False, True], np.array([1, 0, 1], dtype=np.uint8)):
        model = GaussianNaiveBayes().partial_fit(X, labels)
        assert model.predict_proba(X).tobytes() == expected.tobytes()
