"""One table of scalar arguments that must be rejected by name.

Each row, labelled by where the argument goes, is a callable taking the
argument's value, the name the error must start with, and a bad value: a
bool given as a number, a fractional or string integer, NaN, an
out-of-range value or a value of the wrong kind. Every one must raise a
ValueError saying "<name> must be ...", rather than being truncated,
coerced or failing inside numpy.

Arguments that an older parametrized test already rejects by name are
extended there instead: the stream methods' sizes and k
(test_methods.py::test_size_parameters_must_be_positive_integers), DESDD's
lambda_range (test_methods.py), the bag's lam and the tree's split
parameters (test_learners.py) and MCB's threshold (test_dcs.py).
"""

import re

import numpy as np
import pytest

from streamdcs import (
    CSVStream,
    DesddClassifier,
    DriftSchedule,
    DynseClassifier,
    GaussianNaiveBayes,
    HoeffdingTreeClassifier,
    MdeClassifier,
    OnlineBaggingEnsemble,
    Pool,
    PrequentialState,
    SEAGenerator,
    hoeffding_bound,
    prequential_run,
    read_csv_stream,
)

from helpers import make_validation

CSV_PATH = "three-rows.csv"  # written into the test's working directory

FIT_MODELS = {
    "tree": HoeffdingTreeClassifier,
    "naive-bayes": GaussianNaiveBayes,
    "bag": lambda: OnlineBaggingEnsemble([GaussianNaiveBayes() for _ in range(2)], seed=0),
    "dynse": DynseClassifier,
    "mde": MdeClassifier,
    "desdd": lambda: DesddClassifier(n_subensembles=2, subensemble_size=2, seed=0),
}


def first_fit(make):
    def call(n_classes):
        model = make()
        try:
            model.partial_fit(np.eye(3)[[0, 1, 2, 0]], [0, 1, 0, 1], n_classes=n_classes)
        finally:
            # A rejected class count fixes nothing.
            assert model.n_classes_ is None
        return model

    return call


def window():
    return make_validation(np.eye(3), [0, 1, 0])


def row(where, call, name, value):
    return pytest.param(call, name, value, id=f"{where}-{name}={value!r}")


REJECTED = [
    # The learners' class count, at construction and at the first fit.
    row("nb", lambda v: GaussianNaiveBayes(n_classes=v), "n_classes", 2.5),
    row("nb", lambda v: GaussianNaiveBayes(n_classes=v), "n_classes", 0),
    row("tree", lambda v: HoeffdingTreeClassifier(n_classes=v), "n_classes", 2.5),
    row("tree", lambda v: HoeffdingTreeClassifier(n_classes=v), "n_classes", "3"),
    *[
        row(f"{where}.partial_fit", first_fit(make), "n_classes", value)
        for where, make in FIT_MODELS.items()
        for value in (2.7, "3", True, 0)
    ],
    # Streams.
    row("DriftSchedule", lambda v: DriftSchedule(((0, 0), (10, v))), "segment concept", 1.7),
    row("DriftSchedule", lambda v: DriftSchedule(((v, 0), (10, 1))), "segment start", 0.7),
    row("SEAGenerator", lambda v: SEAGenerator(0, noise_rate=v), "noise_rate", True),
    row("SEAGenerator", lambda v: SEAGenerator(0, noise_rate=v), "noise_rate", "0.5"),
    row("CSVStream", lambda v: CSVStream(CSV_PATH, header=v), "header", "false"),
    row("read_csv_stream", lambda v: read_csv_stream(CSV_PATH, header=v), "header", 1),
    row("CSVStream", lambda v: CSVStream(CSV_PATH, label_column=v), "label_column", 2.7),
    row("CSVStream", lambda v: CSVStream(CSV_PATH, label_column=v), "label_column", True),
    row("CSVStream", lambda v: CSVStream(CSV_PATH, label_column=v), "label_column", -1),
    # The pool's birth index.
    row("Pool.append", lambda v: Pool(2).append(GaussianNaiveBayes(), v), "birth_index", 2.5),
    row("Pool.append", lambda v: Pool(2).append(GaussianNaiveBayes(), v), "birth_index", True),
    # Neighbourhood queries.
    row("knn_query", lambda v: window().knn_query(np.zeros(3), v), "k", True),
    row("knn_query", lambda v: window().knn_query(np.zeros(3), v), "k", 2.5),
    row(
        "knn_output_profiles",
        lambda v: window().knn_output_profiles(np.full((1, 3, 2), 0.5), np.full((1, 2), 0.5), v),
        "k",
        True,
    ),
    # The Hoeffding bound.
    row("hoeffding_bound", lambda v: hoeffding_bound(1.0, v, 10), "delta", True),
    row("hoeffding_bound", lambda v: hoeffding_bound(v, 0.5, 10), "value_range", float("nan")),
    row("hoeffding_bound", lambda v: hoeffding_bound(1.0, 0.5, v), "n", float("nan")),
    row("hoeffding_bound", lambda v: hoeffding_bound(1.0, 0.5, v), "n", True),
    # Prequential evaluation.
    row("PrequentialState", lambda v: PrequentialState(v), "n_classes", True),
    row("PrequentialState", lambda v: PrequentialState(v), "n_classes", 0),
    row("PrequentialState", lambda v: PrequentialState(2, alpha=v), "alpha", True),
    row("PrequentialState", lambda v: PrequentialState(2, window=v), "window", 2.5),
    row(
        "prequential_run",
        lambda v: prequential_run(SEAGenerator(0), GaussianNaiveBayes(), v),
        "n",
        True,
    ),
    row(
        "prequential_run",
        lambda v: prequential_run(SEAGenerator(0), GaussianNaiveBayes(), 12, checkpoint_every=v),
        "checkpoint_every",
        2.5,
    ),
]


@pytest.mark.parametrize("call, name, value", REJECTED)
def test_bad_scalar_argument_rejected_by_name(call, name, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / CSV_PATH).write_text("1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be"):
        call(value)

