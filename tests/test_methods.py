import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from streamdcs import (
    DesddClassifier,
    DynseClassifier,
    GaussianNaiveBayes,
    HoeffdingTreeClassifier,
    MdeClassifier,
    Pool,
    RULES,
    SEAGenerator,
    build_context,
)

from streamdcs.streams import DriftSchedule

from helpers import (
    ConstantClassifier,
    LinearSoftmaxClassifier,
    TableClassifier,
    make_chunk,
    make_validation,
)


def stream_arrays(seed, n, **kwargs):
    gen = SEAGenerator(seed=seed, **kwargs)
    instances = [next(gen) for _ in range(n)]
    X = np.stack([i.features for i in instances])
    y = np.array([i.label for i in instances])
    return X, y


class SequenceFactory:
    """Hands out pre-built learners, one per chunk."""

    def __init__(self, learners):
        self.remaining = list(learners)

    def __call__(self):
        return self.remaining.pop(0)


class TestPool:
    def test_birth_order_enforced(self):
        pool = Pool(3)
        pool.append(ConstantClassifier(0), 1)
        with pytest.raises(ValueError):
            pool.append(ConstantClassifier(0), 0)

    def test_eviction(self):
        pool = Pool(1)
        pool.append(ConstantClassifier(0), 0)
        pool.append(ConstantClassifier(1), 1)
        assert pool.over_capacity
        pool.evict(0)
        assert len(pool) == 1 and pool.births == [1]


class TestDynse:
    def test_twelve_chunks_age_policy_keeps_births_2_to_11(self):
        X, y = stream_arrays(1, 12_000)
        model = DynseClassifier(
            learner_factory=GaussianNaiveBayes, chunk_size=1000, max_pool_size=10
        )
        model.partial_fit(X, y, n_classes=2)
        assert model.pool_.births == list(range(2, 12))
        assert model.learners_created == 12

    def test_not_ready_predicts_class_zero(self):
        X, y = stream_arrays(2, 500)
        model = DynseClassifier(chunk_size=1000)
        model.partial_fit(X, y, n_classes=2)
        assert not model.is_ready
        assert model.predict(X[:5]).tolist() == [0] * 5

    def test_accuracy_policy_evicts_worst_member(self):
        # Validation labels are all 0, so a constant-1 member scores 0.
        learners = [ConstantClassifier(0), ConstantClassifier(1), ConstantClassifier(0)]
        model = DynseClassifier(
            learner_factory=SequenceFactory(learners),
            chunk_size=4,
            max_pool_size=2,
            pruning="accuracy",
        )
        X = np.arange(12, dtype=float).reshape(-1, 1)
        model.partial_fit(X, np.zeros(12, dtype=int), n_classes=2)
        assert model.pool_.learners == [learners[0], learners[2]]
        assert model.pool_.births == [0, 2]

    def test_fresh_learner_trains_on_its_chunk_only(self):
        model = DynseClassifier(
            learner_factory=lambda: ConstantClassifier(0), chunk_size=5, max_pool_size=3
        )
        X = np.zeros((15, 1))
        model.partial_fit(X, np.zeros(15, dtype=int), n_classes=2)
        assert [m.rows_trained for m in model.pool_.learners] == [5, 5, 5]

    def test_f1_equivalent_state_predicts_one_with_knora_e(self):
        c0 = TableClassifier(
            {(0.0,): [0.9, 0.1], (1.0,): [0.1, 0.9], (2.0,): [0.2, 0.8], (-1.0,): [0.8, 0.2]},
            n_classes=2,
        )
        c1 = TableClassifier(
            {(0.0,): [0.7, 0.3], (1.0,): [0.3, 0.7], (2.0,): [0.6, 0.4], (-1.0,): [0.2, 0.8]},
            n_classes=2,
        )
        model = DynseClassifier(dcs_rule="knora-e", chunk_size=3, k=3)
        model.n_classes_ = 2
        model.n_features_ = 1
        model.pool_.append(c0, 0)
        model.pool_.append(c1, 0)
        model.validation_.push_chunk(make_chunk([[0.0], [1.0], [2.0]], [0, 1, 0]))
        assert model.predict([[-1.0]])[0] == 1

    @pytest.mark.parametrize("rule", ["ola", "knop"])
    def test_predictions_follow_direct_pool_and_window_changes(self, rng, rule):
        # The cached window posteriors must be rebuilt after a change to the
        # pool or the window made behind the method's back.
        model = DynseClassifier(dcs_rule=rule, chunk_size=20, k=5, window_chunks=2)
        model.n_classes_ = 2
        model.n_features_ = 3
        model.pool_.append(LinearSoftmaxClassifier(rng.normal(size=(3, 2))), 0)
        model.validation_.push_chunk(make_chunk(rng.normal(size=(20, 3)), rng.integers(0, 2, 20)))
        queries = rng.normal(size=(200, 3))

        def uncached():
            return [
                model._selector.select(
                    build_context(
                        model.pool_.learners,
                        model.validation_,
                        q,
                        model.k,
                        space=model._selector.neighborhood_space,
                    )
                ).prediction
                for q in queries
            ]

        seen = [uncached()]
        assert model.predict(queries).tolist() == seen[-1]
        for change in ("pool", "window", "pool", "window"):
            if change == "pool":
                member = LinearSoftmaxClassifier(rng.normal(size=(3, 2)))
                model.pool_.append(member, len(seen))
            else:
                chunk = make_chunk(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
                model.validation_.push_chunk(chunk)
            seen.append(uncached())
            assert model.predict(queries).tolist() == seen[-1], change
        # Every change moved some prediction, so a stale cache would show.
        assert all(a != b for a, b in zip(seen, seen[1:]))

    def test_single_member_pool_follows_member_for_every_rule(self):
        table = {(0.0,): [0.3, 0.7], (1.0,): [0.8, 0.2], (-1.0,): [0.2, 0.8]}
        for name in RULES:
            model = DynseClassifier(dcs_rule=name, chunk_size=2, k=2)
            model.n_classes_ = 2
            model.n_features_ = 1
            model.pool_.append(TableClassifier(table, n_classes=2), 0)
            model.validation_.push_chunk(make_chunk([[0.0], [1.0]], [1, 0]))
            assert model.predict([[-1.0]])[0] == 1, name

    def test_pool_never_exceeds_bound(self, rng):
        model = DynseClassifier(
            learner_factory=GaussianNaiveBayes, chunk_size=25, max_pool_size=3
        )
        X, y = stream_arrays(9, 500)
        for start in range(0, 500, 50):
            model.partial_fit(X[start : start + 50], y[start : start + 50], n_classes=2)
            assert len(model.pool_) <= 3

    def test_interleaved_fit_and_predict(self, rng):
        model = DynseClassifier(learner_factory=GaussianNaiveBayes, chunk_size=30)
        X, y = stream_arrays(12, 300)
        for i in range(0, 300, 17):
            model.predict(X[i : i + 1])
            model.partial_fit(X[i : i + 17], y[i : i + 17], n_classes=2)
        assert model.predict(X[:1]).shape == (1,)

    def test_determinism_over_identical_streams(self):
        X, y = stream_arrays(30, 900)

        def run():
            model = DynseClassifier(learner_factory=GaussianNaiveBayes, chunk_size=100)
            preds = []
            for i in range(900):
                preds.append(int(model.predict(X[i : i + 1])[0]))
                model.partial_fit(X[i : i + 1], y[i : i + 1], n_classes=2)
            return preds

        assert run() == run()

    def test_invalid_pruning_rejected(self):
        with pytest.raises(ValueError):
            DynseClassifier(pruning="newest")


class TestDesdd:
    def test_single_subensemble_always_selected(self):
        X, y = stream_arrays(3, 120)
        model = DesddClassifier(n_subensembles=1, subensemble_size=2, chunk_size=50, seed=0)
        model.partial_fit(X, y, n_classes=2)
        assert model.selected_index_ == 0

    def test_untrained_subensemble_loses_the_reselection(self):
        X, y = stream_arrays(4, 200)
        model = DesddClassifier(
            n_subensembles=2,
            subensemble_size=3,
            lambda_range=(0.0, 1.0),
            chunk_size=100,
            seed=1,
        )
        model.partial_fit(X, y, n_classes=2)
        # Sub-ensemble 0 has lambda 0 and never trains; its members predict
        # class 0 everywhere, so the trained one wins on the window.
        assert model.selected_index_ == 1

    def test_lambda_values_evenly_spaced(self):
        model = DesddClassifier(n_subensembles=4, lambda_range=(1.0, 10.0), seed=0)
        assert model.lambdas_.tolist() == [1.0, 4.0, 7.0, 10.0]

    def test_unfit_predicts_class_zero(self):
        model = DesddClassifier(n_subensembles=2, subensemble_size=2, seed=0)
        assert model.predict([[0.0, 0.0, 0.0]])[0] == 0

    def test_selection_stable_between_boundaries(self):
        X, y = stream_arrays(5, 260)
        model = DesddClassifier(n_subensembles=3, subensemble_size=2, chunk_size=100, seed=2)
        model.partial_fit(X[:100], y[:100], n_classes=2)
        chosen = model.selected_index_
        model.partial_fit(X[100:160], y[100:160], n_classes=2)
        assert model.selected_index_ == chosen

    def test_every_instance_reaches_every_subensemble(self):
        X, y = stream_arrays(6, 230)
        model = DesddClassifier(n_subensembles=3, subensemble_size=2, chunk_size=50, seed=3)
        model.partial_fit(X, y, n_classes=2)
        assert model.instances_delivered_.tolist() == [230, 230, 230]

    @pytest.mark.parametrize(
        "size, value",
        [("chunk_size", 0), ("chunk_size", -5), ("window_size", 0), ("window_size", -1)],
    )
    def test_nonpositive_sizes_rejected_at_construction(self, size, value):
        with pytest.raises(ValueError, match=size):
            DesddClassifier(**{size: value})

    @pytest.mark.parametrize(
        "lambda_range",
        [
            (float("nan"), 1.0),
            (1.0, float("inf")),
            (-1.0, 2.0),
            # Not a pair of rates: no rate is dropped or read past the end.
            (1.0, 2.0, 3.0),
            (1.0,),
            "ab",
            (True, 2.0),
        ],
    )
    def test_non_finite_or_negative_lambda_range_rejected(self, lambda_range):
        with pytest.raises(ValueError, match="lambda_range"):
            DesddClassifier(lambda_range=lambda_range)

    def test_stacked_reselection_matches_each_subensembles_own_vote(self):
        # Windows of 1-6 rows and even bags of 4 make ties common, both
        # between sub-ensembles and inside each one's vote; the rate-0
        # sub-ensemble never trains and answers class 0.
        X, y = stream_arrays(9, 400)
        rng = np.random.default_rng(12)
        tied = 0
        for seed in range(4):
            model = DesddClassifier(
                n_subensembles=5,
                subensemble_size=4,
                lambda_range=(0.0, 2.0),
                chunk_size=40,
                seed=seed,
            ).partial_fit(X[: 40 + 30 * seed], y[: 40 + 30 * seed], n_classes=2)
            assert model._stack is not None
            for _ in range(25):
                rows = rng.choice(len(X), size=int(rng.integers(1, 7)), replace=False)
                model._window_X, model._window_y = X[rows], y[rows]
                model._reselect()
                subs = model.subensembles_
                accuracies = [np.mean(sub.predict(X[rows]) == y[rows]) for sub in subs]
                assert model.selected_index_ == int(np.argmax(accuracies))
                tied += accuracies.count(max(accuracies)) > 1
        assert tied > 10

    def test_window_size_bounds_the_selection_window(self):
        X, y = stream_arrays(8, 120)
        model = DesddClassifier(
            n_subensembles=2, subensemble_size=2, chunk_size=50, window_size=30, seed=0
        )
        model.partial_fit(X, y, n_classes=2)
        # A ring of the last 30 rows, the one at stream position i at i mod 30.
        ring = np.arange(90, 120) % 30
        assert np.array_equal(model._window_X[ring], X[90:])
        assert np.array_equal(model._window_y[ring], y[90:])
        assert DesddClassifier(chunk_size=40)._window_y.shape == (40,)

    def test_selection_window_holds_copies_of_the_callers_rows(self):
        # A caller that refills one buffer for every batch, and clears it
        # after each call, selects exactly as one that hands over fresh rows.
        X, y = stream_arrays(10, 1000, noise_rate=0.1)

        def selections(reuse):
            model = DesddClassifier(chunk_size=100, seed=3)
            buffer = np.empty((50, X.shape[1]))
            picked = []
            for start in range(0, len(X), 50):
                batch = buffer if reuse else np.empty_like(buffer)
                batch[:] = X[start : start + 50]
                model.partial_fit(batch, y[start : start + 50], n_classes=2)
                buffer[:] = 0.0
                picked.append(model.selected_index_)
            return picked

        fresh = selections(reuse=False)
        assert len(set(fresh)) > 1
        assert selections(reuse=True) == fresh

    def test_determinism(self):
        X, y = stream_arrays(7, 300)

        def run():
            model = DesddClassifier(
                n_subensembles=2, subensemble_size=2, chunk_size=100, seed=11
            )
            preds = []
            for i in range(300):
                preds.append(int(model.predict(X[i : i + 1])[0]))
                model.partial_fit(X[i : i + 1], y[i : i + 1], n_classes=2)
            return preds

        assert run() == run()


class TestMde:
    def test_minority_class_is_least_frequent_in_chunk(self):
        model = MdeClassifier(learner_factory=GaussianNaiveBayes, chunk_size=20)
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.array([0] * 18 + [1] * 2)
        model.partial_fit(X, y, n_classes=2)
        assert model.minority_class_ == 1

    def test_member_with_a_zero_recall_scores_zero(self):
        # The constant member never recalls class 1 -> geometric mean 0.
        model = MdeClassifier(
            learner_factory=SequenceFactory([ConstantClassifier(0)]), chunk_size=10
        )
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0] * 8 + [1] * 2)
        model.partial_fit(X, y, n_classes=2)
        assert model.scores_ == [0.0]

    def test_member_score_is_geometric_mean_of_recalls(self):
        # 8/10 recall on class 0 and 5/10 on class 1 -> sqrt(0.4).
        table = {}
        for i in range(10):
            table[(float(i),)] = [1.0, 0.0] if i < 8 else [0.0, 1.0]
        for i in range(10, 20):
            table[(float(i),)] = [0.0, 1.0] if i < 15 else [1.0, 0.0]
        member = TableClassifier(table, n_classes=2)
        model = MdeClassifier(learner_factory=SequenceFactory([member]), chunk_size=20)
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.array([0] * 10 + [1] * 10)
        model.partial_fit(X, y, n_classes=2)
        assert model.scores_[0] == pytest.approx(np.sqrt(0.4), abs=1e-9)

    def test_overflow_evicts_lowest_scoring_member(self):
        good = ConstantClassifier(0)  # perfect on an all-zero chunk
        bad = ConstantClassifier(1)
        better = ConstantClassifier(0)
        model = MdeClassifier(
            learner_factory=SequenceFactory([good, bad, better]),
            chunk_size=4,
            max_pool_size=2,
        )
        X = np.arange(12, dtype=float).reshape(-1, 1)
        model.partial_fit(X, np.zeros(12, dtype=int), n_classes=2)
        assert model.pool_.learners == [good, better]

    def test_competent_members_vote_alone(self):
        # Member A is perfect on every instance, B wrong everywhere; only A
        # clears the minority-neighbor competence bar, so only A votes.
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([0, 1, 1, 1, 0, 0, 0, 0])  # minority is class 1
        table_a = {(float(i),): ([0.0, 1.0] if y[i] == 1 else [1.0, 0.0]) for i in range(8)}
        table_b = {(float(i),): ([1.0, 0.0] if y[i] == 1 else [0.0, 1.0]) for i in range(8)}
        table_a[(100.0,)] = [0.0, 1.0]  # A says 1 on the query
        table_b[(100.0,)] = [1.0, 0.0]  # B says 0 on the query
        a = TableClassifier(table_a, n_classes=2)
        b = TableClassifier(table_b, n_classes=2)
        model = MdeClassifier(
            learner_factory=SequenceFactory([a, b]), chunk_size=8, k=3, max_pool_size=4
        )
        model.partial_fit(X, y, n_classes=2)
        assert model.minority_class_ == 1
        assert model.predict([[100.0]])[0] == 1

    def test_no_minority_in_window_falls_back_to_full_vote(self):
        members = [ConstantClassifier(0), ConstantClassifier(1), ConstantClassifier(1)]
        model = MdeClassifier(
            learner_factory=SequenceFactory(members), chunk_size=4, max_pool_size=4
        )
        X = np.arange(12, dtype=float).reshape(-1, 1)
        model.partial_fit(X, np.array([0, 0, 0, 1] * 3), n_classes=3)
        assert model.pool_.learners == members
        model.minority_class_ = 2  # absent from the window
        assert model.predict([[0.0]])[0] == 1

    def test_single_member_pool_follows_member(self):
        member = ConstantClassifier(1)
        model = MdeClassifier(learner_factory=SequenceFactory([member]), chunk_size=4)
        X = np.arange(4, dtype=float).reshape(-1, 1)
        model.partial_fit(X, np.array([0, 1, 0, 1]), n_classes=2)
        assert model.predict([[2.0]])[0] == 1

    def test_chunk_cadence(self):
        model = MdeClassifier(learner_factory=GaussianNaiveBayes, chunk_size=40)
        X, y = stream_arrays(8, 230)
        model.partial_fit(X, y, n_classes=2)
        assert model.learners_created == 230 // 40

    def test_determinism(self):
        X, y = stream_arrays(31, 400)

        def run():
            model = MdeClassifier(learner_factory=GaussianNaiveBayes, chunk_size=50)
            preds = []
            for i in range(400):
                preds.append(int(model.predict(X[i : i + 1])[0]))
                model.partial_fit(X[i : i + 1], y[i : i + 1], n_classes=2)
            return preds

        assert run() == run()


def deep_trees(n, seed):
    """n Hoeffding trees of 8 or more leaves, each fitted on its own noisy
    SEA chunk of 1000 instances."""
    X, y = stream_arrays(seed, 1000 * n, noise_rate=0.1)
    trees = [HoeffdingTreeClassifier(tie_threshold=0.3) for _ in range(n)]
    for i, tree in enumerate(trees):
        tree.partial_fit(X[1000 * i : 1000 * (i + 1)], y[1000 * i : 1000 * (i + 1)], n_classes=2)
    return trees


@pytest.mark.parametrize("method", ["dynse", "mde"])
def test_tree_pool_predictions_follow_direct_pool_and_window_changes(rng, method):
    # The forest compiled for the query is kept per pool state, and MDE's
    # minority block per window state; after each change made behind the
    # method's back, predictions must equal the uncached reference.
    trees = deep_trees(6, seed=8)
    assert min(tree.n_leaves for tree in trees) >= 8
    if method == "dynse":
        model = DynseClassifier(dcs_rule="knora-e", chunk_size=200, k=7, window_chunks=1)
    else:
        model = MdeClassifier(chunk_size=200, k=7, window_chunks=1)
        model.minority_class_ = 1
    model.n_classes_ = 2
    model.n_features_ = 3
    for tree in trees[:3]:
        model.pool_.append(tree, 0)
    X, y = stream_arrays(6, 800, noise_rate=0.1)
    model.validation_.push_chunk(make_chunk(X[:200], y[:200]))
    queries = rng.uniform(0.0, 10.0, size=(400, 3))

    def uncached():
        # A fresh window of the same rows, so no cache of the model's is read.
        window = make_validation(model.validation_.features, model.validation_.labels)
        where = None if method == "dynse" else window.labels == 1
        return [
            model._selector.select(
                build_context(model.pool_.learners, window, q, model.k, where=where)
            ).prediction
            for q in queries
        ]

    seen = [uncached()]
    assert model.predict(queries).tolist() == seen[-1]
    windows = iter((X[200:400], X[400:600]))
    for change in ("evict and append", "window", "append", "evict", "window"):
        if change == "window":
            # The same labels, so the same minority mask, over new rows.
            model.validation_.push_chunk(make_chunk(next(windows), y[:200]))
        if change.startswith("evict"):
            model.pool_.evict(0)
        if change.endswith("append"):
            model.pool_.append(trees.pop(), 1)
        seen.append(uncached())
        assert model.predict(queries).tolist() == seen[-1], change
    # Every change moved some prediction, so a stale cache would show.
    assert all(a != b for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("method", [DynseClassifier, MdeClassifier])
@pytest.mark.parametrize("k", [0, -3, 2.5, True])
def test_k_must_be_a_positive_integer(method, k):
    # Rejected when the model is built, not at its first ready query.
    with pytest.raises(ValueError, match="k must be a positive integer"):
        method(k=k)
    model = method(k=np.int64(3))
    with pytest.raises(ValueError, match="k must be a positive integer"):
        model.set_params(k=0)
    assert model.k == 3


@pytest.mark.parametrize(
    "method",
    [
        DynseClassifier,
        MdeClassifier,
        pytest.param(partial(DynseClassifier, pruning="accuracy"), id="accuracy-pruning"),
    ],
)
def test_window_cache_is_filled_at_the_first_query_after_a_boundary(method):
    X, y = stream_arrays(17, 500, noise_rate=0.1)
    model = method(chunk_size=100, max_pool_size=3, window_chunks=2)
    model.partial_fit(X[:300], y[:300], n_classes=2)
    assert model._query_cache[0] is None
    for end in (400, 500):
        model.predict(X[end - 100 : end - 90])
        state = (model.pool_.version, model.validation_.version)
        assert model._query_cache[0] == state
        _, posteriors, correctness, _ = model._query_state()
        assert correctness.dtype == bool
        assert np.array_equal(correctness, posteriors.argmax(axis=2) == model.validation_.labels)
        model.partial_fit(X[end - 100 : end], y[end - 100 : end])
        assert model._query_cache[0] == state  # a boundary refills nothing


SIZE_PARAMETERS = [
    (DynseClassifier, "chunk_size"),
    (DynseClassifier, "max_pool_size"),
    (DynseClassifier, "window_chunks"),
    (MdeClassifier, "chunk_size"),
    (MdeClassifier, "max_pool_size"),
    (MdeClassifier, "window_chunks"),
    (DesddClassifier, "chunk_size"),
    (DesddClassifier, "n_subensembles"),
    (DesddClassifier, "subensemble_size"),
    (DesddClassifier, "window_size"),
]


@pytest.mark.parametrize("method, name", SIZE_PARAMETERS)
def test_size_parameters_must_be_positive_integers(method, name):
    # Rejected when the model is built, naming the parameter, rather than
    # truncated or failing at the first chunk.
    rejected = [2.5, True, 0, -2, "3"] + ([] if name == "window_size" else [None])
    for value in rejected:
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            method(**{name: value})
    model = method(**{name: np.int64(3)})
    assert getattr(model, name) == 3
    with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
        model.set_params(**{name: 1.5})



@pytest.mark.parametrize("method", [DynseClassifier, MdeClassifier, DesddClassifier])
def test_fractional_labels_rejected_and_whole_ones_accepted(method):
    X = [[0.0], [1.0], [2.0]]
    model = method(chunk_size=2)
    with pytest.raises(ValueError, match="row 1 holds 1.5"):
        model.partial_fit(X, [0.0, 1.5, 1.0])
    assert model.n_classes_ is None
    model.partial_fit(X, [0.0, 2.0, 1.0])
    assert model.n_classes_ == 3

def small_tree():
    return HoeffdingTreeClassifier(grace_period=50)


def fitted_methods(learner_factory, n=900):
    """Each stream method over the given learner, fitted on a noisy SEA
    stream with one drift, long enough to fill the pools."""
    X, y = stream_arrays(21, n, schedule=DriftSchedule(((0, 0), (n // 2, 3))), noise_rate=0.1)
    models = {
        "dynse": DynseClassifier(learner_factory=learner_factory, chunk_size=100, max_pool_size=4),
        "mde": MdeClassifier(learner_factory=learner_factory, chunk_size=100, max_pool_size=4),
        "desdd": DesddClassifier(
            n_subensembles=3,
            subensemble_size=3,
            learner_factory=learner_factory,
            chunk_size=100,
            seed=4,
        ),
    }
    return {name: model.partial_fit(X, y, n_classes=2) for name, model in models.items()}


LEARNERS = {"naive-bayes": GaussianNaiveBayes, "hoeffding-tree": small_tree}


@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_batch_predictions_equal_row_by_row(learner, rng):
    Q = rng.uniform(0.0, 10.0, size=(150, 3))
    for name, model in fitted_methods(LEARNERS[learner]).items():
        batch = model.predict(Q)
        assert np.array_equal(batch, [model.predict(q[None, :])[0] for q in Q]), name
        if name == "desdd":
            # The window re-selection votes each sub-ensemble over a batch.
            for sub in model.subensembles_:
                rows = np.vstack([sub.predict_proba(q) for q in Q])
                assert np.array_equal(sub.predict_proba(Q), rows)


@pytest.mark.parametrize("learner", sorted(LEARNERS))
@pytest.mark.parametrize("width", [1, 4])
def test_query_of_the_wrong_width_rejected(learner, width):
    for name, model in fitted_methods(LEARNERS[learner], n=300).items():
        with pytest.raises(ValueError, match=f"expected 3, got {width}"):
            model.predict(np.zeros((2, width)))


RUN_AND_LIST_NUMPY_IMPORTS = """
import sys

import numpy

before = set(sys.modules)
from streamdcs import (
    DesddClassifier, DynseClassifier, GaussianNaiveBayes, HoeffdingTreeClassifier,
    MdeClassifier, SEAGenerator, prequential_run,
)

tree = {"learner_factory": HoeffdingTreeClassifier, "chunk_size": 200, "max_pool_size": 3,
        "k": 7, "window_chunks": 2}
for model in (
    DynseClassifier(dcs_rule="knora-e", **tree),
    MdeClassifier(**tree),
    DesddClassifier(n_subensembles=3, subensemble_size=4, learner_factory=GaussianNaiveBayes,
                    chunk_size=200, seed=1),
):
    prequential_run(SEAGenerator(seed=3, noise_rate=0.1), model, 1000)
print(*sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"))
"""


def test_runs_import_no_numpy_submodule_but_random():
    # A numpy submodule imported lazily, such as numpy.ma, adds to a run's
    # peak resident memory; the package and a DYNSE, MDE and DESDD run may
    # import numpy.random only.
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST_NUMPY_IMPORTS],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    imported = result.stdout.split()
    assert "numpy.random" in imported
    others = [m for m in imported if m != "numpy.random" and not m.startswith("numpy.random.")]
    assert others == []
