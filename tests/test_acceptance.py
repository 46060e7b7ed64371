"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from streamdcs import (
    DesddClassifier,
    DriftSchedule,
    DynseClassifier,
    GaussianNaiveBayes,
    HoeffdingTreeClassifier,
    KNORAE,
    MdeClassifier,
    RULES,
    SEAGenerator,
    hoeffding_bound,
    gmean,
    kappa,
    make_rule,
    prequential_run,
)
from streamdcs.cli import EXIT_OK, main

import reference as ref
from helpers import LinearSoftmaxClassifier, make_validation, profile_neighbors, random_context
from test_dcs import _reference_for
from test_learners import separable_stream


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_selector_oracle_suite():
    started = time.monotonic()
    mismatches = 0
    for r, name in enumerate(sorted(RULES)):
        rule = make_rule(name)
        rng = np.random.default_rng(1000 + r)
        for _ in range(1000):
            ctx, raw = random_context(rng)
            result = rule.select(ctx)
            expected = _reference_for(name, raw)
            got = (set(result.selected), result.prediction, result.fallback_used)
            mismatches += got != expected
    elapsed = time.monotonic() - started
    _report(
        1,
        mismatches == 0 and elapsed < 10.0,
        f"9 rules x 1000 contexts, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_knora_e_soundness():
    rng = np.random.default_rng(2024)
    rule = KNORAE()
    violations = 0
    for _ in range(10_000):
        ctx, _ = random_context(rng)
        result = rule.select(ctx)
        if result.fallback_used:
            continue
        m = result.n_neighbors_used
        if m < 1 or not all(ctx.correctness[i, :m].all() for i in result.selected):
            violations += 1
    _report(2, violations == 0, f"10000 contexts, {violations} violations")


def test_criterion_3_knn_exactness():
    rng = np.random.default_rng(33)
    mismatches = 0
    for trial in range(500):
        size = int(rng.integers(5, 200))
        dim = int(rng.integers(1, 6))
        k = int(rng.integers(1, 11))
        if trial % 5 == 0:
            # Integer grids force exact distance ties.
            X = rng.integers(0, 4, size=(size, dim)).astype(float)
            query = rng.integers(0, 4, size=dim).astype(float)
        else:
            X = rng.uniform(size=(size, dim))
            query = rng.uniform(size=dim)
        y = rng.integers(0, 2, size)
        vs = make_validation(X, y)
        if trial % 3 == 0:
            pool = [
                LinearSoftmaxClassifier(rng.normal(size=(dim, 2))) for _ in range(2)
            ]
            got = profile_neighbors(vs, pool, query, k).indices.tolist()
            profiles = [
                ref.profile_of([m.predict_proba([row])[0].tolist() for m in pool])
                for row in X
            ]
            query_profile = ref.profile_of(
                [m.predict_proba([query])[0].tolist() for m in pool]
            )
            expected = ref.brute_knn_indices(profiles, query_profile, k)
        else:
            got = vs.knn_query(query, k).indices.tolist()
            expected = ref.brute_knn_indices(X.tolist(), query.tolist(), k)
        mismatches += got != expected
    _report(3, mismatches == 0, f"500 windows, {mismatches} mismatches")


def test_criterion_4_learner_checks():
    bound = hoeffding_bound(1, 1e-7, 200)
    bound_ok = abs(bound - 0.200737) <= 1e-4

    rng = np.random.default_rng(44)
    X = rng.normal(size=(300, 3))
    y = rng.integers(0, 3, 300)
    batch = GaussianNaiveBayes().partial_fit(X, y, n_classes=3)
    online = GaussianNaiveBayes()
    for x, label in zip(X, y):
        online.partial_fit([x], [label], n_classes=3)
    nb_ok = np.allclose(batch._mean, online._mean, rtol=1e-9, atol=0) and np.allclose(
        batch._variances(), online._variances(), rtol=1e-9, atol=0
    )

    Xs, ys = separable_stream(rng, 1000)
    tree = HoeffdingTreeClassifier(grace_period=200, split_confidence=1e-7)
    tree.partial_fit(Xs, ys, n_classes=2)
    Xf, yf = separable_stream(rng, 1000)
    tree_accuracy = float(np.mean(tree.predict(Xf) == yf))

    _report(
        4,
        bound_ok and nb_ok and tree_accuracy == 1.0,
        f"bound={bound:.6f}, nb moments equal={nb_ok}, stump accuracy={tree_accuracy}",
    )


def test_criterion_5_metric_checks():
    kappa_value = kappa([[40, 10], [5, 45]])
    gmean_value = gmean([[80, 20], [50, 50]])

    rng = np.random.default_rng(55)
    from streamdcs import PrequentialState

    state = PrequentialState(2, alpha=1.0)
    max_gap = 0.0
    for _ in range(10_000):
        state.update(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        max_gap = max(max_gap, abs(state.faded_accuracy - state.overall_accuracy))

    _report(
        5,
        kappa_value == 0.7
        and abs(gmean_value - 0.632456) <= 1e-6
        and max_gap <= 1e-12,
        f"kappa={kappa_value}, gmean={gmean_value:.6f}, max faded gap={max_gap:.2e}",
    )


def _majority_baseline_accuracy(seed, n):
    stream = SEAGenerator(seed=seed)
    counts = np.zeros(2)
    correct = 0
    for _ in range(n):
        inst = next(stream)
        correct += int(np.argmax(counts)) == inst.label
        counts[inst.label] += 1
    return correct / n


def test_criterion_6_end_to_end_desk_benchmark():
    started = time.monotonic()
    stream = SEAGenerator(seed=7)
    model = DynseClassifier(
        learner_factory=HoeffdingTreeClassifier,
        dcs_rule="knora-e",
        chunk_size=1000,
        max_pool_size=10,
        k=7,
        window_chunks=4,
    )
    report = prequential_run(stream, model, 20_000)
    elapsed = time.monotonic() - started
    accuracy = report.rows[-1].accuracy
    baseline = _majority_baseline_accuracy(7, 20_000)
    _report(
        6,
        accuracy - baseline >= 0.15 and accuracy > 0.85 and elapsed < 60.0,
        f"accuracy={accuracy:.4f}, baseline={baseline:.4f}, elapsed={elapsed:.1f}s",
    )


def test_criterion_7_drift_recovery():
    drift_at = 10_000
    schedule = DriftSchedule(((0, 0), (drift_at, 3)))
    stream = SEAGenerator(seed=7, schedule=schedule)
    model = DynseClassifier(
        learner_factory=HoeffdingTreeClassifier,
        dcs_rule="knora-e",
        chunk_size=1000,
        max_pool_size=10,
        k=7,
        window_chunks=4,
    )
    report = prequential_run(stream, model, 20_000, window=500, checkpoint_every=500)
    trace = {row.index: row.window_accuracy for row in report.rows}
    pre_mean = np.mean([trace[i] for i in range(2500, drift_at + 1, 500)])
    dip = min(trace[drift_at + 500], trace[drift_at + 1000])
    recovered = max(
        trace[i] for i in range(drift_at + 500, drift_at + 5001, 500)
    )
    dropped = dip <= pre_mean - 0.03
    returned = recovered >= pre_mean - 0.03
    _report(
        7,
        dropped and returned,
        f"pre-drift mean={pre_mean:.3f}, dip={dip:.3f}, recovered to {recovered:.3f}",
    )


def test_criterion_8_cli_reproducibility(tmp_path):
    args = [
        "--stream", "sea",
        "--method", "dynse",
        "--learner", "nb",
        "--chunk-size", "250",
        "--pool-size", "4",
        "--seed", "13",
        "--n", "2000",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ok = main(args + ["--out", str(out1)]) == EXIT_OK
    ok = ok and main(args + ["--out", str(out2)]) == EXIT_OK
    reports_match = out1.read_bytes() == out2.read_bytes()
    meta1 = (tmp_path / "a.csv.meta").read_text().replace(str(out1), "OUT")
    meta2 = (tmp_path / "b.csv.meta").read_text().replace(str(out2), "OUT")
    _report(
        8,
        ok and reports_match and meta1 == meta2,
        f"reports byte-identical={reports_match}, metadata identical={meta1 == meta2}",
    )


def test_criterion_9_pool_bound_and_cadence_invariants():
    rng = np.random.default_rng(99)
    violations = 0
    for trial in range(100):
        chunk = int(rng.integers(20, 61))
        max_pool = int(rng.integers(1, 5))
        n = int(rng.integers(100, 401))
        seed = int(rng.integers(0, 1_000_000))
        noise = float(rng.uniform(0, 0.2))
        kind = trial % 3
        if kind == 0:
            model = DynseClassifier(
                learner_factory=GaussianNaiveBayes,
                dcs_rule=str(rng.choice(sorted(RULES))),
                chunk_size=chunk,
                max_pool_size=max_pool,
                k=int(rng.integers(1, 8)),
                window_chunks=int(rng.integers(1, 5)),
                pruning=str(rng.choice(["age", "accuracy"])),
            )
        elif kind == 1:
            model = MdeClassifier(
                learner_factory=GaussianNaiveBayes,
                chunk_size=chunk,
                max_pool_size=max_pool,
                k=int(rng.integers(1, 8)),
            )
        else:
            model = DesddClassifier(
                n_subensembles=max_pool,
                subensemble_size=int(rng.integers(1, 3)),
                chunk_size=chunk,
                seed=seed,
            )
        stream = SEAGenerator(seed=seed, noise_rate=noise)
        seen = 0
        while seen < n:
            step = min(int(rng.integers(1, 40)), n - seen)
            batch = [next(stream) for _ in range(step)]
            X = np.stack([b.features for b in batch])
            y = np.array([b.label for b in batch])
            model.partial_fit(X, y, n_classes=2)
            seen += step
            if kind in (0, 1) and len(model.pool_) > max_pool:
                violations += 1
            if kind == 2 and len(model.subensembles_) != max_pool:
                violations += 1
        if kind in (0, 1) and model.learners_created != n // chunk:
            violations += 1
    _report(9, violations == 0, f"100 configurations, {violations} violations")
