"""Input validation helpers and small shared utilities."""

from __future__ import annotations

import inspect

import numpy as np


def as_feature_matrix(X, n_features=None):
    """Coerce X to a 2-D float64 array of finite values, optionally enforcing
    the column count."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got ndim={X.ndim}")
    if not np.isfinite(X).all():
        row, column = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(
            f"features must be finite; row {row}, column {column} holds {float(X[row, column])}"
        )
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(
            f"feature dimension mismatch: expected {n_features}, got {X.shape[1]}"
        )
    return X


def as_label_vector(y, n_rows, n_classes=None):
    """Coerce y to a 1-D int64 array of length n_rows, optionally range-checked."""
    y = np.asarray(y)
    if y.ndim != 1:
        y = y.ravel()
    if len(y) != n_rows:
        raise ValueError(f"X and y length mismatch: {n_rows} vs {len(y)}")
    y = y.astype(np.int64)
    if len(y) > 0:
        if y.min() < 0:
            raise ValueError("labels must be nonnegative class indices")
        if n_classes is not None and y.max() >= n_classes:
            raise ValueError(
                f"label {int(y.max())} out of range for {n_classes} classes"
            )
    return y


def majority_vote(labels, n_classes, weights=None):
    """Most voted class index; ties resolve to the lowest class index."""
    counts = np.bincount(
        np.asarray(labels, dtype=np.int64), weights=weights, minlength=n_classes
    )
    return int(np.argmax(counts))


class ParamsMixin:
    """Constructor-parameter introspection in the scikit-learn style."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self"
            and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self
