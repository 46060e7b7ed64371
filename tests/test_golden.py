"""Golden outputs: pinned reports that every refactor or speed-up must
reproduce byte for byte.

Each ``tests/golden/<name>.csv.meta`` is the sidecar the CLI wrote next to
``<name>.csv``; replayed as a config file from inside ``tests/golden/`` it
rewrites both files. The accuracy-pruning case, which the CLI does not
expose, and the DESDD and MDE runs finer than the CLI's six-decimal
report pin the prediction vectors of test-then-train runs instead. A change
that alters numerics on purpose re-pins these files in a commit of its own
and says why in ``CHANGES.md``:

    cd tests/golden && for m in *.csv.meta; do streamdcs --config "$m"; done
    python tests/test_golden.py   # rewrites the pinned prediction vectors
"""

import shutil
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
    SEAGenerator,
)
from streamdcs.cli import EXIT_OK, main
from streamdcs.streams import DriftSchedule

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = sorted(p.name[: -len(".csv.meta")] for p in GOLDEN.glob("*.csv.meta"))
PRUNING_PREDICTIONS = GOLDEN / "dynse-accuracy-pruning-ht.txt"
DESDD_PREDICTIONS = {
    "nb": GOLDEN / "desdd-predictions-nb.txt",
    "ht": GOLDEN / "desdd-predictions-ht.txt",
}
MDE_PREDICTIONS = {
    "nb": GOLDEN / "mde-predictions-nb.txt",
    "ht": GOLDEN / "mde-predictions-ht.txt",
}
DEEP_TREE_PREDICTIONS = {
    "dynse": GOLDEN / "dynse-knora-e-deep-ht.txt",
    "mde": GOLDEN / "mde-predictions-deep-ht.txt",
}


def test_matrix_is_complete():
    assert REPORTS == [
        "desdd-nb",
        "dynse-aposteriori-ht",
        "dynse-knop-nb",
        "dynse-knora-e-ht",
        "dynse-mcb-ht",
        "mde-ht",
    ]


@pytest.mark.parametrize("name", REPORTS)
def test_report_replays_byte_identical(name, tmp_path, monkeypatch):
    meta = f"{name}.csv.meta"
    shutil.copy(GOLDEN / meta, tmp_path / "config")
    monkeypatch.chdir(tmp_path)
    assert main(["--config", "config"]) == EXIT_OK
    for produced in (f"{name}.csv", meta):
        expected = (GOLDEN / produced).read_bytes()
        assert (tmp_path / produced).read_bytes() == expected, produced


def prequential_predictions(stream, model, n):
    """The model's prediction for each of the stream's first n instances,
    made before it trains on that instance, as one string of digits."""
    predictions = []
    for _ in range(n):
        instance = next(stream)
        x = instance.features.reshape(1, -1)
        predictions.append(int(model.predict(x)[0]))
        model.partial_fit(x, np.array([instance.label]), n_classes=2)
    return "".join(map(str, predictions))


def accuracy_pruning_predictions():
    """Test-then-train predictions of DYNSE with accuracy pruning over Hoeffding
    trees on a drifting, noisy SEA stream."""
    stream = SEAGenerator(seed=23, schedule=DriftSchedule(((0, 0), (3000, 3))), noise_rate=0.1)
    model = DynseClassifier(
        learner_factory=HoeffdingTreeClassifier,
        dcs_rule="knora-e",
        chunk_size=1000,
        max_pool_size=2,
        window_chunks=2,
        pruning="accuracy",
    )
    return prequential_predictions(stream, model, 6000), model.pool_.births


def desdd_predictions(learner):
    """Test-then-train predictions of DESDD on a drifting SEA stream with 10 %
    label noise: over naive Bayes at the benchmark's shape (10 sub-ensembles
    of 5, rates 1 to 10, chunk 250), over Hoeffding trees at a small one whose
    trees split while a Poisson count of copies is being learned."""
    if learner == "nb":
        stream = SEAGenerator(seed=31, schedule=DriftSchedule(((0, 0), (1500, 3))), noise_rate=0.1)
        model = DesddClassifier(
            n_subensembles=10,
            subensemble_size=5,
            learner_factory=GaussianNaiveBayes,
            lambda_range=(1.0, 10.0),
            chunk_size=250,
            seed=31,
        )
        return prequential_predictions(stream, model, 3000)
    stream = SEAGenerator(seed=32, schedule=DriftSchedule(((0, 0), (600, 3))), noise_rate=0.1)
    model = DesddClassifier(
        n_subensembles=3,
        subensemble_size=2,
        learner_factory=HoeffdingTreeClassifier,
        lambda_range=(1.0, 4.0),
        chunk_size=200,
        seed=32,
    )
    return prequential_predictions(stream, model, 1200)


def mde_predictions(learner):
    """Test-then-train predictions of MDE on an imbalanced SEA stream (25 %
    minority on concept 2, then 45 % on concept 3) with 5 % label noise. The
    chunks are small, so G-mean eviction runs at most boundaries; the trees
    split every 20 instances at a loose tie threshold, so they are not
    stumps whose G-mean is 0."""
    if learner == "nb":
        stream = SEAGenerator(seed=44, schedule=DriftSchedule(((0, 2), (1500, 3))), noise_rate=0.05)
        model = MdeClassifier(
            learner_factory=GaussianNaiveBayes,
            chunk_size=100,
            max_pool_size=5,
            k=5,
            window_chunks=2,
        )
        return prequential_predictions(stream, model, 3000), model.pool_.births
    stream = SEAGenerator(seed=43, schedule=DriftSchedule(((0, 2), (2000, 3))), noise_rate=0.05)
    model = MdeClassifier(
        learner_factory=partial(HoeffdingTreeClassifier, grace_period=20, tie_threshold=0.5),
        chunk_size=200,
        max_pool_size=4,
        k=7,
        window_chunks=3,
    )
    return prequential_predictions(stream, model, 4000), model.pool_.births


def deep_tree_predictions(method):
    """Test-then-train predictions of DYNSE/KNORA-E and of MDE over Hoeffding
    trees that tie-break at 0.3, on a drifting SEA stream with label noise.
    Each chunk of 1000 grows a tree of 7 to 10 leaves, 3 or 4 levels deep,
    where the benchmark's trees have 2 to 4 leaves."""
    deep = partial(HoeffdingTreeClassifier, tie_threshold=0.3)
    if method == "dynse":
        stream = SEAGenerator(seed=52, schedule=DriftSchedule(((0, 0), (4000, 3))), noise_rate=0.1)
        model = DynseClassifier(
            learner_factory=deep,
            dcs_rule="knora-e",
            chunk_size=1000,
            max_pool_size=5,
            window_chunks=3,
        )
    else:
        stream = SEAGenerator(seed=53, schedule=DriftSchedule(((0, 2), (4000, 3))), noise_rate=0.05)
        model = MdeClassifier(learner_factory=deep, chunk_size=1000, max_pool_size=5, window_chunks=3)
    return prequential_predictions(stream, model, 8000), model


def test_accuracy_pruning_predictions_pinned():
    predictions, births = accuracy_pruning_predictions()
    assert predictions + "\n" == PRUNING_PREDICTIONS.read_text(encoding="utf-8")
    # Age pruning would keep the two newest members, born at chunks 4 and 5.
    assert births != [4, 5]


@pytest.mark.parametrize("learner", sorted(DESDD_PREDICTIONS))
def test_desdd_predictions_pinned(learner):
    expected = DESDD_PREDICTIONS[learner].read_text(encoding="utf-8")
    assert desdd_predictions(learner) + "\n" == expected


@pytest.mark.parametrize("learner", sorted(MDE_PREDICTIONS))
def test_mde_predictions_pinned(learner):
    predictions, births = mde_predictions(learner)
    assert predictions + "\n" == MDE_PREDICTIONS[learner].read_text(encoding="utf-8")
    # Evicting by age would keep the newest members only.
    assert births != list(range(births[-1] - len(births) + 1, births[-1] + 1))


@pytest.mark.parametrize("method", sorted(DEEP_TREE_PREDICTIONS))
def test_deep_tree_predictions_pinned(method):
    predictions, model = deep_tree_predictions(method)
    assert predictions + "\n" == DEEP_TREE_PREDICTIONS[method].read_text(encoding="utf-8")
    # Deep enough that a query routes through several levels of every tree.
    assert min(tree.n_leaves for tree in model.pool_.learners) >= 8


if __name__ == "__main__":
    PRUNING_PREDICTIONS.write_text(accuracy_pruning_predictions()[0] + "\n", encoding="utf-8")
    for learner, path in DESDD_PREDICTIONS.items():
        path.write_text(desdd_predictions(learner) + "\n", encoding="utf-8")
    for learner, path in MDE_PREDICTIONS.items():
        path.write_text(mde_predictions(learner)[0] + "\n", encoding="utf-8")
    for method, path in DEEP_TREE_PREDICTIONS.items():
        path.write_text(deep_tree_predictions(method)[0] + "\n", encoding="utf-8")
