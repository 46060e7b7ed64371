"""Golden outputs: pinned reports that every refactor or speed-up must
reproduce byte for byte.

Each ``tests/golden/<name>.csv.meta`` is the sidecar the CLI wrote next to
``<name>.csv``; replayed as a config file from inside ``tests/golden/`` it
rewrites both files. The accuracy-pruning case, which the CLI does not
expose, and two DESDD runs finer than the CLI's six-decimal report pin
the prediction vectors of test-then-train runs instead. A change
that alters numerics on purpose re-pins these files in a commit of its own
and says why in ``CHANGES.md``:

    cd tests/golden && for m in *.csv.meta; do streamdcs --config "$m"; done
    python tests/test_golden.py   # rewrites the pinned prediction vectors
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from streamdcs import (
    DesddClassifier,
    DynseClassifier,
    GaussianNaiveBayes,
    HoeffdingTreeClassifier,
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


def test_accuracy_pruning_predictions_pinned():
    predictions, births = accuracy_pruning_predictions()
    assert predictions + "\n" == PRUNING_PREDICTIONS.read_text(encoding="utf-8")
    # Age pruning would keep the two newest members, born at chunks 4 and 5.
    assert births != [4, 5]


@pytest.mark.parametrize("learner", sorted(DESDD_PREDICTIONS))
def test_desdd_predictions_pinned(learner):
    expected = DESDD_PREDICTIONS[learner].read_text(encoding="utf-8")
    assert desdd_predictions(learner) + "\n" == expected


if __name__ == "__main__":
    PRUNING_PREDICTIONS.write_text(accuracy_pruning_predictions()[0] + "\n", encoding="utf-8")
    for learner, path in DESDD_PREDICTIONS.items():
        path.write_text(desdd_predictions(learner) + "\n", encoding="utf-8")
