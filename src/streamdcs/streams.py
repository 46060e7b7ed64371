"""Stream primitives: instances, chunks, synthetic generators, file ingestion."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .exceptions import StreamFormatError
from .utils import as_feature_matrix, as_label_vector, check_positive_integer, check_real

# Per-concept decision thresholds of the SEA family; the label is
# 1 when feature_0 + feature_1 <= threshold, and feature_2 is noise-only.
SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)
SEA_N_FEATURES = 3
SEA_N_CLASSES = 2


@dataclass(frozen=True, slots=True)
class Instance:
    """One stream element: a dense feature vector plus an optional class index."""

    features: np.ndarray
    label: int | None = None


class Chunk:
    """Fixed-capacity ordered batch of labeled instances.

    Feature and label storage is preallocated on first insertion; a chunk
    is the unit of classifier training and validation-window turnover.
    """

    def __init__(self, capacity):
        self.capacity = check_positive_integer("capacity", capacity)
        self._X = None
        self._y = None
        self._size = 0

    def __len__(self):
        return self._size

    @property
    def is_full(self):
        return self._size == self.capacity

    @property
    def features(self):
        if self._X is None:
            return np.empty((0, 0))
        return self._X[: self._size]

    @property
    def labels(self):
        if self._y is None:
            return np.empty(0, dtype=np.int64)
        return self._y[: self._size]

    def add(self, X, y):
        """Append up to the remaining capacity; returns the number consumed.
        Rows that are not finite or not of the chunk's width, or labels that
        are not one class index per row, raise ValueError and store nothing."""
        X = as_feature_matrix(X, None if self._X is None else self._X.shape[1])
        return self._store(X, as_label_vector(y, len(X)))

    def _store(self, X, y):
        """``add`` for a float64 matrix and int64 labels already checked."""
        if self._X is None:
            self._X = np.empty((self.capacity, X.shape[1]))
            self._y = np.empty(self.capacity, dtype=np.int64)
        take = min(self.capacity - self._size, len(X))
        self._X[self._size : self._size + take] = X[:take]
        self._y[self._size : self._size + take] = y[:take]
        self._size += take
        return take


class StreamSource:
    """Iterator of labeled instances with declared feature and class counts."""

    n_features = 0
    n_classes = 0

    def __iter__(self):
        return self

    def __next__(self) -> Instance:
        raise NotImplementedError


@dataclass(frozen=True)
class DriftSchedule:
    """Ordered (start_index, concept_id) segments; the last segment whose
    start is <= the instance index is active."""

    segments: tuple[tuple[int, int], ...] = ((0, 0),)

    def __post_init__(self):
        segs = tuple((s, c) for s, c in self.segments)
        for start, concept in segs:
            check_positive_integer("segment start", start, low=0)
            check_positive_integer("segment concept", concept, low=0)
        object.__setattr__(self, "segments", segs)
        if not segs or segs[0][0] != 0:
            raise ValueError("drift schedule must start at instance 0")
        starts = [s for s, _ in segs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("drift schedule start indices must strictly increase")

    @classmethod
    def parse(cls, text):
        """Parse 'start:concept' pairs, e.g. '0:0,10000:3'."""
        segments = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                start, concept = part.split(":")
                segments.append((int(start), int(concept)))
            except ValueError:
                raise ValueError(f"bad drift segment {part!r}, expected start:concept")
        return cls(tuple(segments))

    def concept_at(self, index):
        starts = [s for s, _ in self.segments]
        return self.segments[bisect_right(starts, index) - 1][1]


def sea_label(features, threshold):
    """SEA labeling rule: 1 iff the first two features sum to <= threshold."""
    return 1 if features[0] + features[1] <= threshold else 0


class SEAGenerator(StreamSource):
    """Synthetic SEA stream: three U[0, 10) features, label from the sum of
    the first two against a per-concept threshold, optional label-flip noise.

    Parameters
    ----------
    seed : int or numpy SeedSequence
        PRNG seed; equal seeds produce bit-identical streams.
    schedule : DriftSchedule, optional
        Abrupt concept switches; concept ids index SEA_THRESHOLDS.
    noise_rate : float
        Probability of flipping the label, in [0, 1].
    """

    n_features = SEA_N_FEATURES
    n_classes = SEA_N_CLASSES

    def __init__(self, seed, schedule=None, noise_rate=0.0):
        self.seed = seed
        self.schedule = schedule if schedule is not None else DriftSchedule()
        self.noise_rate = check_real("noise_rate", noise_rate, 0, 1)
        for _, concept in self.schedule.segments:
            if not 0 <= concept < len(SEA_THRESHOLDS):
                raise ValueError(
                    f"concept id {concept} outside 0..{len(SEA_THRESHOLDS) - 1}"
                )
        self._rng = np.random.default_rng(seed)
        self._index = 0

    def __next__(self):
        features = self._rng.uniform(0.0, 10.0, SEA_N_FEATURES)
        threshold = SEA_THRESHOLDS[self.schedule.concept_at(self._index)]
        label = sea_label(features, threshold)
        # The flip draw is consumed unconditionally so that the feature
        # sequence is invariant to the noise setting.
        if self._rng.uniform() < self.noise_rate:
            label = 1 - label
        self._index += 1
        return Instance(features, label)


class CSVStream(StreamSource):
    """Finite stream read from a comma-separated file.

    Non-label columns must parse as finite decimal-point reals; label
    values are remapped to dense class indices in order of first appearance.
    label_column is "last" or a 0-based column index, and header a bool
    saying whether the first non-blank line is a header to skip.
    """

    def __init__(self, path, label_column="last", header=False):
        if label_column != "last":
            check_positive_integer("label_column", label_column, low=0)
        if not isinstance(header, bool):
            raise ValueError(f"header must be a bool, got {header!r}")
        self.path = path
        self.label_column = label_column
        self.header = header
        X, y, class_labels = _parse_csv(path, label_column, self.header)
        self._X = X
        self._y = y
        self.class_labels = class_labels
        self.n_features = X.shape[1]
        self.n_classes = len(class_labels)
        self._index = 0

    def __len__(self):
        return len(self._y)

    def __next__(self):
        if self._index >= len(self._y):
            raise StopIteration
        i = self._index
        self._index += 1
        return Instance(self._X[i], int(self._y[i]))


def read_csv_stream(path, label_column="last", header=False):
    """Open a CSV file as a labeled stream. See CSVStream."""
    return CSVStream(path, label_column=label_column, header=header)


def _parse_csv(path, label_column, header):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if header and rows:
        rows = rows[1:]
    if not rows:
        raise StreamFormatError(f"{path}: no data rows")

    n_cols = len(rows[0][1].split(","))
    if n_cols < 2:
        raise StreamFormatError(f"{path}: need at least one feature and a label column")
    label_idx = n_cols - 1 if label_column == "last" else label_column
    if label_idx >= n_cols:
        raise StreamFormatError(f"{path}: label column {label_idx} out of range")

    X = np.empty((len(rows), n_cols - 1))
    labels = []
    class_map = {}
    class_labels = []
    for r, (line_no, line) in enumerate(rows):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise StreamFormatError(
                f"{path}: row {line_no} has {len(cells)} columns, expected {n_cols}"
            )
        j = 0
        for c, cell in enumerate(cells):
            if c == label_idx:
                key = cell.strip()
                if key not in class_map:
                    class_map[key] = len(class_map)
                    class_labels.append(key)
                labels.append(class_map[key])
                continue
            try:
                value = float(cell)
            except ValueError:
                raise StreamFormatError(
                    f"{path}: row {line_no}, column {c + 1}: cannot parse {cell.strip()!r} as a real"
                )
            if not math.isfinite(value):
                raise StreamFormatError(
                    f"{path}: row {line_no}, column {c + 1}: non-finite value {cell.strip()!r}"
                )
            X[r, j] = value
            j += 1
    return X, np.asarray(labels, dtype=np.int64), class_labels
