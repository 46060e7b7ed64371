"""Golden outputs: pinned reports that every refactor or speed-up must
reproduce byte for byte.

Each ``tests/golden/<name>.csv.meta`` is the sidecar the CLI wrote next to
``<name>.csv``; replayed as a config file from inside ``tests/golden/`` it
rewrites both files. The accuracy-pruning case, which the CLI does not
expose, pins the prediction vector of a prequential run instead. A change
that alters numerics on purpose re-pins these files in a commit of its own
and says why in ``CHANGES.md``:

    cd tests/golden && for m in *.csv.meta; do streamdcs --config "$m"; done
    python tests/test_golden.py   # rewrites the pinned prediction vector
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from streamdcs import DynseClassifier, HoeffdingTreeClassifier, SEAGenerator
from streamdcs.cli import EXIT_OK, main
from streamdcs.streams import DriftSchedule

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = sorted(p.name[: -len(".csv.meta")] for p in GOLDEN.glob("*.csv.meta"))
PRUNING_PREDICTIONS = GOLDEN / "dynse-accuracy-pruning-ht.txt"


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
    predictions = []
    for _ in range(6000):
        instance = next(stream)
        x = instance.features.reshape(1, -1)
        predictions.append(int(model.predict(x)[0]))
        model.partial_fit(x, np.array([instance.label]), n_classes=2)
    return "".join(map(str, predictions)), model.pool_.births


def test_accuracy_pruning_predictions_pinned():
    predictions, births = accuracy_pruning_predictions()
    assert predictions + "\n" == PRUNING_PREDICTIONS.read_text(encoding="utf-8")
    # Age pruning would keep the two newest members, born at chunks 4 and 5.
    assert births != [4, 5]


if __name__ == "__main__":
    PRUNING_PREDICTIONS.write_text(accuracy_pruning_predictions()[0] + "\n", encoding="utf-8")
