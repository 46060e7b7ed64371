import numpy as np
import pytest

from streamdcs import (
    OLA,
    DesddClassifier,
    DynseClassifier,
    GaussianNaiveBayes,
    HoeffdingTreeClassifier,
    MCB,
    MdeClassifier,
    OnlineBaggingEnsemble,
    SEAGenerator,
)
from streamdcs.cli import main
from streamdcs.streams import DriftSchedule

from helpers import state_of


class TestGetSetParams:
    def test_learner_params_round_trip(self):
        ht = HoeffdingTreeClassifier(grace_period=77)
        params = ht.get_params()
        assert params["grace_period"] == 77
        assert set(params) == {
            "grace_period",
            "split_confidence",
            "tie_threshold",
            "n_split_candidates",
            "n_classes",
        }
        ht.set_params(tie_threshold=0.2)
        assert ht.tie_threshold == 0.2

    def test_method_params(self):
        model = DynseClassifier(chunk_size=123, k=3)
        params = model.get_params()
        assert params["chunk_size"] == 123 and params["k"] == 3
        assert "dcs_rule" in params and "pruning" in params

    def test_rule_params(self):
        assert MCB(similarity_threshold=0.5).get_params() == {
            "similarity_threshold": 0.5
        }

    def test_invalid_param_rejected(self):
        with pytest.raises(ValueError):
            GaussianNaiveBayes().set_params(nope=1)

    def test_clone_from_params(self):
        for cls in (DynseClassifier, DesddClassifier, MdeClassifier):
            model = cls()
            twin = cls(**model.get_params())
            assert twin.get_params() == model.get_params()


def stream_arrays(seed, n):
    gen = SEAGenerator(seed=seed, schedule=DriftSchedule(((0, 2), (n // 2, 3))), noise_rate=0.1)
    instances = [next(gen) for _ in range(n)]
    return np.stack([i.features for i in instances]), np.array([i.label for i in instances])


def prequential(model, X, y):
    """Test-then-train predictions, row by row."""
    predictions = []
    for i in range(len(X)):
        predictions.append(int(model.predict(X[i : i + 1])[0]))
        model.partial_fit(X[i : i + 1], y[i : i + 1], n_classes=2)
    return predictions


# For each method: a trained model, parameters to change, and a change one
# of whose values the constructor rejects.
SET_PARAMS_CASES = {
    "dynse": (
        lambda: DynseClassifier(learner_factory=GaussianNaiveBayes, chunk_size=100, max_pool_size=3),
        dict(dcs_rule="ola", max_pool_size=1, chunk_size=50, pruning="accuracy"),
        dict(dcs_rule="ola", max_pool_size=1, chunk_size=50, pruning="newest"),
    ),
    "mde": (
        lambda: MdeClassifier(learner_factory=GaussianNaiveBayes, chunk_size=100, max_pool_size=3),
        dict(max_pool_size=1, chunk_size=50, k=3),
        dict(max_pool_size=0, chunk_size=50),
    ),
    "desdd": (
        lambda: DesddClassifier(n_subensembles=3, subensemble_size=2, chunk_size=100, seed=3),
        dict(n_subensembles=5, chunk_size=50, seed=np.random.SeedSequence(9)),
        dict(n_subensembles=5, chunk_size=0),
    ),
}


class TestSetParamsRestarts:
    @pytest.mark.parametrize("method", sorted(SET_PARAMS_CASES))
    def test_model_behaves_as_built_from_its_params(self, method):
        build, change, _ = SET_PARAMS_CASES[method]
        X, y = stream_arrays(5, 600)
        model = build().partial_fit(X[:350], y[:350], n_classes=2)
        assert model.set_params(**change) is model
        params = model.get_params()
        assert {name: params[name] for name in change} == change
        twin = type(model)(**params)
        assert state_of(model) == state_of(twin)
        assert prequential(model, X, y) == prequential(twin, X, y)

    def test_dynse_uses_the_new_rule_pool_and_chunk(self):
        model = DynseClassifier(learner_factory=GaussianNaiveBayes, chunk_size=100)
        model.set_params(dcs_rule="ola", max_pool_size=1, chunk_size=50)
        assert isinstance(model._selector, OLA)
        assert model.pool_.max_size == 1 and model._buffer.capacity == 50

    @pytest.mark.parametrize("method", sorted(SET_PARAMS_CASES))
    def test_rejected_value_leaves_the_model_as_it_was(self, method):
        build, _, rejected = SET_PARAMS_CASES[method]
        X, y = stream_arrays(6, 250)
        model = build().partial_fit(X, y, n_classes=2)
        before = state_of(model)
        with pytest.raises(ValueError):
            model.set_params(**rejected)
        assert state_of(model) == before

    def test_desdd_leaves_the_callers_seed_sequence_unspent(self):
        seed = np.random.SeedSequence(17)
        model = DesddClassifier(n_subensembles=6, subensemble_size=2, chunk_size=100, seed=seed)
        assert seed.n_children_spawned == 0
        twin = DesddClassifier(**model.get_params())
        X, y = stream_arrays(7, 2000)
        assert prequential(model, X, y) == prequential(twin, X, y)

    def test_rule(self):
        rule = MCB(similarity_threshold=0.5)
        assert rule.set_params(similarity_threshold=0.9) is rule
        assert rule.get_params() == {"similarity_threshold": 0.9}
        with pytest.raises(ValueError):
            rule.set_params(threshold=0.9)
        assert rule.get_params() == {"similarity_threshold": 0.9}

    def test_learner(self):
        X, y = stream_arrays(8, 300)
        tree = HoeffdingTreeClassifier(grace_period=30).partial_fit(X, y, n_classes=2)
        tree.set_params(grace_period=60)
        assert state_of(tree) == state_of(HoeffdingTreeClassifier(grace_period=60))
        bag = OnlineBaggingEnsemble([GaussianNaiveBayes() for _ in range(3)], lam=2.0, seed=1)
        bag.partial_fit(X, y, n_classes=2)
        before = state_of(bag)
        with pytest.raises(ValueError):
            bag.set_params(lam=-1.0)
        assert state_of(bag) == before

    def test_bag_restarts_its_members(self):
        X, y = stream_arrays(9, 400)
        bag = OnlineBaggingEnsemble([GaussianNaiveBayes() for _ in range(3)], lam=1.0, seed=1)
        bag.partial_fit(X[:200], y[:200], n_classes=2)
        bag.set_params(lam=2.0)
        fresh = OnlineBaggingEnsemble([GaussianNaiveBayes() for _ in range(3)], lam=2.0, seed=1)
        assert state_of(bag) == state_of(fresh)
        for model in (bag, fresh):
            model.partial_fit(X[200:], y[200:], n_classes=2)
        assert state_of(bag) == state_of(fresh)
        # A member listed twice stays one learner, and one given explicitly
        # is kept as given.
        nb = GaussianNaiveBayes()
        shared = OnlineBaggingEnsemble([nb, nb], seed=1).set_params(lam=2.0)
        assert shared.members[0] is shared.members[1] is not nb
        assert OnlineBaggingEnsemble([nb], seed=1).set_params(members=[nb]).members == [nb]


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for fragment in (
        "default: 1000",
        "default: 10",
        "default: knora-e",
        "default: ht",
        "default: 0.999",
        "required",
    ):
        assert fragment in text, fragment
