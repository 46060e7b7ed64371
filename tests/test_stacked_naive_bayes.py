"""Online bagging over naive Bayes trains and votes its members through one
stacked state: the members' moment arrays are views of the ensemble's stack,
they stay so after pickling, and each member still equals a lone learner fed
its column of Poisson counts. DESDD adds one level: each bag's stack is a
view of its rows of the model's block."""

import pickle

import numpy as np
import pytest

from streamdcs import (
    DesddClassifier,
    GaussianNaiveBayes,
    HoeffdingTreeClassifier,
    OnlineBaggingEnsemble,
)

from helpers import ConstantClassifier, state_of


def oblique_stream(rng, n, n_classes=2):
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0.2).astype(int)
    if n_classes == 3:
        y[X[:, 2] > 0.8] = 2
    return X, y


def lone_learner(X, y, counts, n_classes=2):
    """A GaussianNaiveBayes trained on X, y with the given weights."""
    nb = GaussianNaiveBayes()
    nb._set_shape(n_classes, X.shape[1])
    nb._learn(X, y, counts)
    return nb


def assert_members_match_their_counts(ens, X, y, counts, n_classes=2):
    Q = np.random.default_rng(0).normal(size=(40, X.shape[1]))
    for m, member in enumerate(ens.members):
        alone = lone_learner(X, y, counts[:, m], n_classes)
        assert state_of(member) == state_of(alone)
        assert np.array_equal(member.predict_proba(Q), alone.predict_proba(Q))


NAMES = ("_counts", "_mean", "_m2")


def assert_linked(ens):
    """Each member's arrays are its row of the bag's stack. The stack may
    itself be a view of a DESDD block, so ``.base`` names the block's
    owner rather than the stack."""
    for m, member in enumerate(ens.members):
        for name, stacked in zip(NAMES, ens._stack):
            view = getattr(member, name)
            assert view.shape == stacked[m].shape and np.shares_memory(view, stacked[m]), name


def assert_block_linked(model):
    """Both levels of a DESDD block: each bag's stack is its rows of the
    block, and each member is its row of the bag's stack."""
    size = model.subensemble_size
    assert [a.shape[0] for a in model._stack] == [model.n_subensembles * size] * 3
    for s, sub in enumerate(model.subensembles_):
        for name, block, stacked in zip(NAMES, model._stack, sub._stack):
            rows = block[s * size : (s + 1) * size]
            assert stacked.shape == rows.shape and np.shares_memory(stacked, rows), name
        assert_linked(sub)


def nb_bag(n_members=4, lam=3.0, seed=5):
    return OnlineBaggingEnsemble([GaussianNaiveBayes() for _ in range(n_members)], lam, seed)


class TestStack:
    def test_members_are_views_of_the_stack(self, rng):
        ens = nb_bag().partial_fit(*oblique_stream(rng, 30), n_classes=2)
        assert [a.shape for a in ens._stack] == [(4, 2), (4, 2, 3), (4, 2, 3)]
        assert_linked(ens)

    def test_only_distinct_naive_bayes_members_are_stacked(self, rng):
        X, y = oblique_stream(rng, 30)
        nb = GaussianNaiveBayes()
        for members in (
            [HoeffdingTreeClassifier() for _ in range(2)],
            [GaussianNaiveBayes(), HoeffdingTreeClassifier()],
            [GaussianNaiveBayes(), ConstantClassifier(0)],
            [nb, nb],
        ):
            ens = OnlineBaggingEnsemble(members, lam=1.0, seed=0).partial_fit(X, y, n_classes=2)
            assert ens._stack is None

    def test_unseen_class_with_zero_draws_stays_bit_identical(self, rng):
        # With a low rate many members draw 0 for the first row of a class,
        # and their state must stay exactly zero (no 0/0 in the step). The
        # test suite turns RuntimeWarning into an error.
        X, y = oblique_stream(rng, 120, n_classes=3)
        ens = nb_bag(n_members=6, lam=0.4, seed=2).partial_fit(X, y, n_classes=3)
        counts = np.random.default_rng(2).poisson(0.4, size=(120, 6))
        first = [int(np.flatnonzero(y == c)[0]) for c in range(3)]
        assert (counts[first] == 0).any()
        assert_members_match_their_counts(ens, X, y, counts, n_classes=3)
        zeros = np.zeros(3).tobytes()
        for m, member in enumerate(ens.members):
            for c in range(3):
                if not counts[y == c, m].any():
                    assert member._counts[c] == 0
                    assert member._mean[c].tobytes() == member._m2[c].tobytes() == zeros

    def test_training_a_member_directly_updates_the_stacked_vote(self, rng):
        X, y = oblique_stream(rng, 50)
        ens = nb_bag(n_members=3).partial_fit(X, y, n_classes=2)
        Q = rng.normal(size=(30, 3))
        for member in ens.members:
            member.partial_fit(Q[:10], np.ones(10, dtype=int))
        assert_linked(ens)
        votes = np.stack([m.predict(Q) for m in ens.members])
        expected = np.stack([(votes == c).mean(axis=0) for c in range(2)], axis=1)
        assert np.array_equal(ens.predict_proba(Q), expected)

    def test_stacked_vote_equals_the_members_own_predictions(self, rng):
        for seed in range(5):
            X, y = oblique_stream(rng, 80, n_classes=3)
            ens = nb_bag(n_members=5, lam=0.5, seed=seed).partial_fit(X[:8], y[:8], n_classes=3)
            Q = rng.normal(size=(60, 3)) * 2
            votes = np.stack([m.predict(Q) for m in ens.members])
            expected = np.stack([(votes == c).sum(axis=0) / 5 for c in range(3)], axis=1)
            assert np.array_equal(ens.predict_proba(Q), expected)


def desdd(seed=7):
    return DesddClassifier(
        n_subensembles=3,
        subensemble_size=4,
        lambda_range=(1.0, 6.0),
        chunk_size=40,
        window_size=30,
        seed=seed,
    )


class TestBlock:
    """A DESDD whose bags are all stacked trains and re-selects through one
    block of all its members."""

    def test_every_member_is_a_view_of_its_row_of_the_block(self, rng):
        model = desdd().partial_fit(*oblique_stream(rng, 30), n_classes=2)
        assert [a.shape for a in model._stack] == [(12, 2), (12, 2, 3), (12, 2, 3)]
        assert_block_linked(model)

    def test_training_a_member_directly_moves_the_block_and_the_vote(self, rng):
        X, y = oblique_stream(rng, 120)
        model = desdd().partial_fit(X, y, n_classes=2)
        sub = model.subensembles_[model.selected_index_]
        member, row = sub.members[0], model.selected_index_ * model.subensemble_size
        Q = rng.normal(size=(60, 3))
        q = Q[:1]
        was, before = int(member.predict(q)[0]), sub.predict_proba(q)
        counts = model._stack[0][row].copy()
        member.partial_fit(np.repeat(q, 200, axis=0), np.full(200, 1 - was))
        counts[1 - was] += 200
        assert np.array_equal(model._stack[0][row], counts)
        assert member.predict(q)[0] == 1 - was
        moved = before.copy()
        moved[0, was] -= 1 / 4
        moved[0, 1 - was] += 1 / 4
        assert np.array_equal(sub.predict_proba(q), moved)
        votes = np.stack([m.predict(Q) for m in sub.members])
        majority = [np.bincount(v, minlength=2).argmax() for v in votes.T]
        assert np.array_equal(model.predict(Q), majority)

    def test_a_shared_member_or_a_tree_falls_back_to_the_loop(self, rng):
        X, y = oblique_stream(rng, 100)
        shared = GaussianNaiveBayes()
        for factory in (lambda: shared, lambda: HoeffdingTreeClassifier(grace_period=20)):
            model = DesddClassifier(
                n_subensembles=3, subensemble_size=4, learner_factory=factory, chunk_size=40, seed=1
            ).partial_fit(X, y, n_classes=2)
            assert model._stack is None
            assert model.instances_delivered_.tolist() == [100, 100, 100]
        # Distinct naive-Bayes members within a bag, shared across bags: each
        # bag stacks its own, but no row of a block may belong to two bags.
        members = [GaussianNaiveBayes() for _ in range(4)]
        cycle = iter(members * 3)
        model = DesddClassifier(
            n_subensembles=3, subensemble_size=4, learner_factory=lambda: next(cycle), seed=1
        ).partial_fit(X, y, n_classes=2)
        assert model._stack is None
        assert all(sub._stack is not None for sub in model.subensembles_)


class TestPickle:
    """A model pickled mid-stream predicts and trains on as the original."""

    def test_bag_round_trip(self, rng):
        X, y = oblique_stream(rng, 300)
        ens = nb_bag(seed=11).partial_fit(X[:137], y[:137], n_classes=2)
        copy = pickle.loads(pickle.dumps(ens))
        assert_linked(copy)
        assert state_of(copy) == state_of(ens)
        for model in (ens, copy):
            model.partial_fit(X[137:], y[137:])
        assert state_of(copy) == state_of(ens)
        Q = rng.normal(size=(50, 3))
        assert np.array_equal(copy.predict_proba(Q), ens.predict_proba(Q))
        counts = np.random.default_rng(11).poisson(3.0, size=(300, 4))
        assert_members_match_their_counts(copy, X, y, counts)

    def test_desdd_round_trip(self, rng):
        X, y = oblique_stream(rng, 400)
        model = desdd().partial_fit(X[:150], y[:150], n_classes=2)
        copy = pickle.loads(pickle.dumps(model))
        assert_block_linked(copy)
        assert state_of(copy) == state_of(model)
        for start in range(150, 400, 25):
            batch = slice(start, start + 25)
            assert np.array_equal(copy.predict(X[batch]), model.predict(X[batch]))
            for m in (model, copy):
                m.partial_fit(X[batch], y[batch])
        assert state_of(copy) == state_of(model)
        assert_block_linked(copy)
        children = np.random.SeedSequence(7).spawn(3)
        for sub, child, lam in zip(copy.subensembles_, children, copy.lambdas_):
            counts = np.random.default_rng(child).poisson(lam, size=(400, 4))
            assert_members_match_their_counts(sub, X, y, counts)


@pytest.mark.parametrize("width", [1, 4])
def test_stacked_vote_rejects_a_wrong_width(rng, width):
    ens = nb_bag().partial_fit(*oblique_stream(rng, 30), n_classes=2)
    with pytest.raises(ValueError, match=f"expected 3, got {width}"):
        ens.predict(np.zeros((2, width)))
