"""Span tracing of streamdcs's layers, installed from outside the package.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers, looking each name up where its caller looks it up (DYNSE imports
``build_context`` by name, so the wrapper goes into ``methods.dynse``), and
``Tracer.remove`` puts the originals back. Spans are kept in memory as
parallel lists and written out when the run ends.
"""

from __future__ import annotations

from importlib import import_module
from time import perf_counter

import numpy as np


def _rows(args, kwargs, result):
    X = args[1]
    return X.shape[0] if getattr(X, "ndim", 1) == 2 else 1


def _rows_scanned(args, kwargs, result):
    where = kwargs.get("where", args[3] if len(args) > 3 else None)
    return len(args[0]) if where is None else int(np.count_nonzero(where))


def _rows_profiled(args, kwargs, result):
    return len(args[0])


def _fallback(args, kwargs, result):
    return int(result.fallback_used)


#: layer -> (name of the count its spans carry, how to read it)
VALUES = {
    "learners.ht.predict_proba": ("rows", _rows),
    "learners.ht.partial_fit": ("rows", _rows),
    "learners.nb.predict_proba": ("rows", _rows),
    "learners.nb.partial_fit": ("rows", _rows),
    "validation.knn_query": ("rows_scanned", _rows_scanned),
    "validation.knn_output_profiles": ("rows_profiled", _rows_profiled),
    "dcs.select": ("fallbacks", _fallback),
}

#: every layer, in report order; the methods and evaluation spans are
#: opened by the benchmark around its own calls into the package
LAYERS = (
    "streams.next",
    "learners.ht.predict_proba",
    "learners.ht.partial_fit",
    "learners.nb.predict_proba",
    "learners.nb.partial_fit",
    "learners.bagging.partial_fit",
    "learners.bagging.predict",
    "validation.knn_query",
    "validation.knn_output_profiles",
    "dcs.build_context",
    "dcs.select",
    "methods.predict",
    "methods.partial_fit",
    "methods.chunk_boundary",
    "evaluation.prequential_run",
)


class Tracer:
    def __init__(self):
        self.layer = []  # index into LAYERS, one per span
        self.start = []
        self.end = []
        self.parent = []  # index of the enclosing span, -1 at top level
        self.value = []
        self._open = [-1]
        self._patches = []

    def wrap(self, layer, fn):
        """fn, recording one span of the given layer per call."""
        layer_id = LAYERS.index(layer)
        read_value = VALUES.get(layer, (None, None))[1]
        spans, starts, ends = self.layer, self.start, self.end
        parents, values, open_spans = self.parent, self.value, self._open

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(layer_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            values.append(0)
            open_spans.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_spans.pop()
            if read_value is not None:
                values[i] = read_value(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, layer):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original))

    def install(self, sd):
        """Wrap the layers' public functions in the package sd."""
        learners = sd.learners
        dynse = import_module("streamdcs.methods.dynse")
        patches = [
            (sd.streams.SEAGenerator, "__next__", "streams.next"),
            (learners.HoeffdingTreeClassifier, "predict_proba", "learners.ht.predict_proba"),
            (learners.HoeffdingTreeClassifier, "partial_fit", "learners.ht.partial_fit"),
            (learners.GaussianNaiveBayes, "predict_proba", "learners.nb.predict_proba"),
            (learners.GaussianNaiveBayes, "partial_fit", "learners.nb.partial_fit"),
            (learners.OnlineBaggingEnsemble, "partial_fit", "learners.bagging.partial_fit"),
            (learners.OnlineBaggingEnsemble, "predict", "learners.bagging.predict"),
            (sd.validation.ValidationSet, "knn_query", "validation.knn_query"),
            (
                sd.validation.ValidationSet,
                "knn_output_profiles",
                "validation.knn_output_profiles",
            ),
            (dynse, "build_context", "dcs.build_context"),
        ]
        rules = {rule for rule in sd.dcs.RULES.values() if "select" in vars(rule)}
        patches += [(rule, "select", "dcs.select") for rule in rules]
        for owner, attr, layer in patches:
            self._patch(owner, attr, layer)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        return {
            "layers": np.array(LAYERS),
            "layer": np.array(self.layer, dtype=np.int16),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "value": np.array(self.value, dtype=np.int64),
        }

    def summary(self, rounds):
        """Per-layer calls, counts and self time, averaged over rounds."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        nested = np.zeros(len(duration))
        inner = a["parent"] >= 0
        np.add.at(nested, a["parent"][inner], duration[inner])
        own = duration - nested
        metrics = {}
        for i, layer in enumerate(LAYERS):
            mine = a["layer"] == i
            metrics[f"{layer}.calls"] = int(np.count_nonzero(mine)) / rounds
            metrics[f"{layer}.self_s"] = float(own[mine].sum()) / rounds
            if layer in VALUES:
                metrics[f"{layer}.{VALUES[layer][0]}"] = int(a["value"][mine].sum()) / rounds
        boundary = a["layer"] == LAYERS.index("methods.chunk_boundary")
        metrics["methods.chunk_boundary.s"] = float(duration[boundary].sum()) / rounds
        top = float(duration[~inner].sum()) / rounds
        return metrics, top


class TracedModel:
    """Forwards to a stream method, opening a span around each call.

    A partial_fit call that completes a chunk is a ``methods.chunk_boundary``
    span; the others are ``methods.partial_fit`` spans.
    """

    def __init__(self, model, tracer, chunk_size, trained):
        self.model = model
        self.chunk_size = chunk_size
        self.trained = trained
        self._predict = tracer.wrap("methods.predict", model.predict)
        self._fit = tracer.wrap("methods.partial_fit", model.partial_fit)
        self._boundary = tracer.wrap("methods.chunk_boundary", model.partial_fit)

    @property
    def is_ready(self):
        return self.model.is_ready

    def predict(self, X):
        return self._predict(X)

    def partial_fit(self, X, y, n_classes=None):
        self.trained += len(y)
        fit = self._boundary if self.trained % self.chunk_size == 0 else self._fit
        return fit(X, y, n_classes=n_classes)
