"""Prequential (test-then-train) evaluation and stream metrics."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .utils import check_positive_integer, check_real

CSV_HEADER = "index,accuracy,faded_accuracy,window_accuracy,kappa,gmean"


def confusion_matrix(y_true, y_pred, n_classes):
    """Count matrix with true labels on rows, predictions on columns."""
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (np.asarray(y_true), np.asarray(y_pred)), 1)
    return matrix


def kappa(confusion):
    """Cohen's kappa of a confusion matrix; 0 when chance agreement is 1."""
    confusion = np.asarray(confusion, dtype=np.float64)
    total = confusion.sum()
    if total <= 0:
        raise ValueError("kappa needs at least one scored instance")
    p0 = np.trace(confusion) / total
    pe = float(np.sum(confusion.sum(axis=1) * confusion.sum(axis=0))) / total**2
    if pe == 1.0:
        return 0.0
    return (p0 - pe) / (1.0 - pe)


def gmean(confusion):
    """Geometric mean of per-class recalls; classes never observed as true
    labels are excluded, and any zero recall collapses the score to 0."""
    confusion = np.asarray(confusion, dtype=np.float64)
    actual = confusion.sum(axis=1)
    present = actual > 0
    if not present.any():
        return 0.0
    recalls = np.diag(confusion)[present] / actual[present]
    if np.any(recalls == 0):
        return 0.0
    return float(np.exp(np.mean(np.log(recalls))))


class PrequentialState:
    """Running counts for interleaved test-then-train scoring.

    Tracks the full confusion matrix, fading-factor accuracy accumulators,
    and a ring of the last window (true, predicted) pairs.
    """

    def __init__(self, n_classes, alpha=0.999, window=500):
        self.n_classes = check_positive_integer("n_classes", n_classes)
        self.alpha = check_real("alpha", alpha, 0, 1, low_open=True)
        self.confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
        self.faded_correct = 0.0
        self.faded_total = 0.0
        self.window = deque(maxlen=check_positive_integer("window", window))
        self.instances_seen = 0

    def update(self, y_true, y_pred):
        self.confusion[y_true, y_pred] += 1
        self.update_faded(y_true == y_pred)
        self.window.append((y_true, y_pred))
        self.instances_seen += 1

    def update_faded(self, correct):
        self.faded_correct = self.alpha * self.faded_correct + (1.0 if correct else 0.0)
        self.faded_total = self.alpha * self.faded_total + 1.0

    @property
    def overall_accuracy(self):
        total = self.confusion.sum()
        return float(np.trace(self.confusion) / total) if total else 0.0

    @property
    def faded_accuracy(self):
        return self.faded_correct / self.faded_total if self.faded_total else 0.0

    @property
    def window_accuracy(self):
        if not self.window:
            return 0.0
        return sum(1 for t, p in self.window if t == p) / len(self.window)


@dataclass(frozen=True)
class CheckpointRow:
    index: int
    accuracy: float
    faded_accuracy: float
    window_accuracy: float
    kappa: float
    gmean: float


@dataclass
class EvaluationReport:
    """Checkpointed metric trace of one prequential run."""

    rows: list[CheckpointRow] = field(default_factory=list)
    truncated: bool = False
    first_ready_index: int = -1
    instances_scored: int = 0

    def to_csv_text(self):
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.index},{r.accuracy:.6f},{r.faded_accuracy:.6f},"
                f"{r.window_accuracy:.6f},{r.kappa:.6f},{r.gmean:.6f}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())


def prequential_run(stream, model, n, alpha=0.999, window=500, checkpoint_every=500):
    """Score each instance before training on it, checkpointing metrics.

    Every instance is predicted first, scored, and only then handed to
    model.partial_fit with its true label. A report row is emitted every
    checkpoint_every instances and at the end of the run. If the stream
    ends before n instances, the report covers what was seen and is
    flagged truncated.
    """
    check_positive_integer("n", n)
    check_positive_integer("checkpoint_every", checkpoint_every)
    state = PrequentialState(stream.n_classes, alpha=alpha, window=window)
    report = EvaluationReport()
    iterator = iter(stream)
    single_label = np.empty(1, dtype=np.int64)
    for i in range(1, n + 1):
        instance = next(iterator, None)
        if instance is None:
            report.truncated = True
            break
        if report.first_ready_index < 0 and getattr(model, "is_ready", True):
            report.first_ready_index = i
        features = instance.features.reshape(1, -1)
        prediction = int(model.predict(features)[0])
        state.update(instance.label, prediction)
        single_label[0] = instance.label
        model.partial_fit(features, single_label, n_classes=stream.n_classes)
        if i % checkpoint_every == 0:
            report.rows.append(_checkpoint(state))
    if state.instances_seen and (
        not report.rows or report.rows[-1].index != state.instances_seen
    ):
        report.rows.append(_checkpoint(state))
    report.instances_scored = state.instances_seen
    return report


def _checkpoint(state):
    return CheckpointRow(
        index=state.instances_seen,
        accuracy=state.overall_accuracy,
        faded_accuracy=state.faded_accuracy,
        window_accuracy=state.window_accuracy,
        kappa=kappa(state.confusion),
        gmean=gmean(state.confusion),
    )
