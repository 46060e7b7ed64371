"""Shared incremental-classifier contract."""

from __future__ import annotations

import numpy as np

from ..utils import FitValidationMixin, ParamsMixin, check_positive_integer


def repeat_rows(X, y, weights):
    """X and y with each row repeated as many times as its integer weight."""
    if (weights == 1).all():
        return X, y
    return np.repeat(X, weights, axis=0), np.repeat(y, weights)


class IncrementalClassifier(ParamsMixin, FitValidationMixin):
    """Base class for learners trained instance-by-instance.

    The contract: partial_fit(X, y, n_classes) updates the model, predict(X)
    returns class indices, predict_proba(X) returns rows summing to one.
    predict is always the argmax of predict_proba with ties resolved to the
    lowest class index; an unfit model predicts class 0 with a uniform
    probability vector.

    partial_fit validates its input once and passes it to
    ``_learn(X, y, weights)`` with a weight of one per row. A row of integer
    weight k trains the model as k consecutive copies of that row would, and
    a row of weight 0 is skipped. An ensemble that has already validated
    its input, and fixed its members' class and feature counts through
    ``_set_shape``, calls its members' ``_learn`` directly.
    """

    def __init__(self, n_classes=None):
        if n_classes is not None:
            check_positive_integer("n_classes", n_classes)
        self.n_classes = self.n_classes_ = n_classes
        self.n_features_ = None

    def partial_fit(self, X, y, n_classes=None):
        prepared = self._validate_fit(X, y, n_classes)
        if prepared is not None:
            X, y = prepared
            self._learn(X, y, np.ones(len(X), dtype=np.int64))
        return self

    def _learn(self, X, y, weights):
        raise NotImplementedError

    def predict_proba(self, X):
        raise NotImplementedError

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)

    def _uniform_proba(self, n_rows):
        n_classes = self.n_classes_ if self.n_classes_ else 1
        return np.full((n_rows, n_classes), 1.0 / n_classes)
