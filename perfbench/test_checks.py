"""Each correctness check of the benchmark passes on the package's real
output and fails when fed a corrupted one.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import pickle

import numpy as np
import pytest

import checks
import run
from workloads import N_CLASSES, WORKLOADS, import_streamdcs

sd = import_streamdcs()

# Scaled-down workloads: same methods and rules, smaller pools and phases.
SMALL = {
    "dynse-knora-e-ht": dict(pool_size=3, window_chunks=2, fill=3000, measured=1200),
    "dynse-knop-nb": dict(fill=1250, measured=300),
    "desdd-nb": dict(subensembles=(4, 3), fill=250, measured=600),
    "mde-ht": dict(pool_size=3, window_chunks=2, fill=3000, measured=600),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def check_run(workload, corrupt=None, seed=3):
    """The check round on a freshly filled model, optionally corrupted."""
    snapshot, X, y = run.fill(workload, seed, 0)
    stream, model = pickle.loads(snapshot)
    if corrupt is not None:
        corrupt(model)
    return run.check_round(sd, workload, stream, model, X, y)


def flip_predictions(model):
    predict = model.predict
    model.predict = lambda X: 1 - predict(X)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_output_passes_every_check(name):
    row, errors = check_run(small(name))
    assert row is not None
    assert errors == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_catches_wrong_predictions(name):
    _, errors = check_run(small(name), flip_predictions)
    assert any("the oracle says" in e for e in errors)


def test_one_wrong_sampled_prediction_is_caught():
    workload = small("dynse-knora-e-ht")
    stride = max(1, workload.measured // run.QUERY_SAMPLES)
    target = workload.fill + stride // 2

    def corrupt(model):
        predict = model.predict
        seen = [workload.fill]

        def wrong_once(X):
            out = predict(X)
            seen[0] += 1
            return 1 - out if seen[0] - 1 == target else out

        model.predict = wrong_once

    _, errors = check_run(workload, corrupt)
    assert len(errors) == 1 and errors[0].startswith(f"instance {target}:")


def test_desdd_selection_check_catches_a_wrong_subensemble():
    def corrupt(model):
        fit = model.partial_fit

        def wrong_selection(X, y, n_classes=None):
            fit(X, y, n_classes=n_classes)
            model.selected_index_ = (model.selected_index_ + 1) % len(model.subensembles_)
            return model

        model.partial_fit = wrong_selection

    _, errors = check_run(small("desdd-nb"), corrupt)
    assert any("DESDD selected sub-ensemble" in e for e in errors)


def test_pool_bound_check_catches_an_overfull_pool():
    def corrupt(model):
        model.pool_.max_size += 2

    _, errors = check_run(small("dynse-knora-e-ht"), corrupt)
    assert any("exceeds its bound" in e for e in errors)
    assert checks.check_pool([3, 4, 3], 3) and not checks.check_pool([3, 3], 3)


def test_majority_baseline_check_catches_a_constant_answer():
    def corrupt(model):
        model.predict = lambda X: np.zeros(len(X), dtype=np.int64)

    _, errors = check_run(small("dynse-knora-e-ht"), corrupt)
    assert any("does not beat the majority class" in e for e in errors)


def scored_pairs(n=700):
    """A real report with the (label, prediction) pairs behind it."""
    labels, predictions = [], []

    class Recording:
        is_ready = True

        def __init__(self):
            self.model = sd.GaussianNaiveBayes()

        def predict(self, X):
            out = self.model.predict(X)
            predictions.append(int(out[0]))
            return out

        def partial_fit(self, X, y, n_classes=None):
            labels.append(int(y[0]))
            self.model.partial_fit(X, y, n_classes=n_classes)

    report = sd.prequential_run(sd.SEAGenerator(5, noise_rate=0.2), Recording(), n=n)
    return report.rows[-1], labels, predictions


def test_report_check_matches_real_report():
    row, labels, predictions = scored_pairs()
    assert checks.check_report(row, labels, predictions, N_CLASSES) == []


@pytest.mark.parametrize(
    "field, delta", [("accuracy", 1e-6), ("kappa", -1e-6), ("gmean", 1e-6), ("index", 1)]
)
def test_report_check_catches_a_corrupted_row(field, delta):
    row, labels, predictions = scored_pairs()
    bad = dataclasses.replace(row, **{field: getattr(row, field) + delta})
    assert checks.check_report(bad, labels, predictions, N_CLASSES)


def test_report_check_catches_a_corrupted_pair():
    row, labels, predictions = scored_pairs()
    predictions[17] = 1 - predictions[17]
    assert checks.check_report(row, labels, predictions, N_CLASSES)


def sea_sample(noise, n=4000, concept=0):
    stream = sd.SEAGenerator(9, sd.DriftSchedule(((0, concept),)), noise_rate=noise)
    items = [next(stream) for _ in range(n)]
    X = np.array([i.features for i in items])
    y = np.array([i.label for i in items])
    return X, y, [concept] * n


@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_label_check_passes_on_the_generator(noise):
    assert checks.check_sea_labels(*sea_sample(noise), noise) == []


def test_label_check_catches_a_single_flip_without_noise():
    X, y, concepts = sea_sample(0.0)
    y[100] = 1 - y[100]
    assert checks.check_sea_labels(X, y, concepts, 0.0)


def test_label_check_catches_excess_flips_and_a_wrong_concept():
    X, y, concepts = sea_sample(0.1)
    y[::10] = 1 - y[::10]
    assert checks.check_sea_labels(X, y, concepts, 0.1)
    X, y, _ = sea_sample(0.0, concept=0)
    assert checks.check_sea_labels(X, y, [3] * len(y), 0.0)


def test_oracle_helpers_follow_their_tie_rules():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
    assert checks.nearest(rows, np.zeros(2), 3) == [3, 0, 1]
    assert checks.vote([1, 0], 2) == 0
    assert checks.knora_e([[True, False], [False, True]], [1, 0], 2) == 1
    assert checks.knora_e([[False, False], [False, False]], [1, 1], 2) == 1
    assert checks.knora_u([[True, True], [True, False]], [0, 1], 2) == 0


def test_benchmark_lists_known_workloads():
    listed = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in listed["workloads"]} <= set(WORKLOADS)


def test_timed_model_keeps_only_the_timings_of_its_calls():
    proxy = run.TimedModel(sd.GaussianNaiveBayes(), calls=5)
    X = np.zeros((1, 3))
    proxy.partial_fit(X, np.array([0]), n_classes=N_CLASSES)
    proxy.predict(X)
    proxy.close()
    assert proxy.model is None and proxy.failed == 0
    assert len(proxy.predict_s) == 1 and len(proxy.fit_s) == 1
