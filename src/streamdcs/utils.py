"""Input validation helpers and small shared utilities."""

from __future__ import annotations

import inspect
import numbers

import numpy as np


def as_rows(X):
    """X as a 2-D float64 array of rows, a single row given as a 1-D array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        return X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got ndim={X.ndim}")
    return X


def as_feature_matrix(X, n_features=None):
    """Coerce X to a 2-D float64 array of finite values, optionally enforcing
    the column count."""
    X = as_rows(X)
    if not np.isfinite(X).all():
        row, column = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(
            f"features must be finite; row {row}, column {column} holds {float(X[row, column])}"
        )
    if n_features is not None:
        check_width(X.shape[1], n_features)
    return X


def check_width(width, n_features):
    """Reject rows of another width than n_features."""
    if width != n_features:
        raise ValueError(f"feature dimension mismatch: expected {n_features}, got {width}")


def as_label_vector(y, n_rows):
    """Coerce y to a 1-D int64 array of n_rows nonnegative class indices,
    from integer or boolean labels, or float labels that are whole numbers."""
    y = np.asarray(y)
    if y.ndim != 1:
        y = y.ravel()
    if len(y) != n_rows:
        raise ValueError(f"X and y length mismatch: {n_rows} vs {len(y)}")
    kind = y.dtype.kind
    if kind not in "biu":
        whole = np.isfinite(y) & (np.trunc(y) == y) if kind == "f" else np.zeros(len(y), bool)
        if not whole.all():
            row = int(np.argmin(whole))
            raise ValueError(f"labels must be class indices; row {row} holds {y.tolist()[row]!r}")
    y = y.astype(np.int64)
    if len(y) > 0 and y.min() < 0:
        raise ValueError("labels must be nonnegative class indices")
    return y


class FitValidationMixin:
    """The one check of partial_fit's input, for learners and stream methods.

    A class using it holds ``n_classes_`` and ``n_features_``, None until the
    first non-empty batch fixes them through ``_set_shape``. Code below the
    public ``partial_fit`` receives validated arrays and does not check again.
    """

    def _validate_fit(self, X, y, n_classes=None):
        """(X, y) as checked arrays, or None for an empty batch.

        The first non-empty batch fixes the class count (n_classes, else the
        largest label plus one) and the feature count. Labels are
        range-checked before anything is fixed or drawn, so a rejected batch
        leaves the model as it was.
        """
        X = as_feature_matrix(X, self.n_features_)
        y = as_label_vector(y, len(X))
        if len(X) == 0:
            return None
        classes = self.n_classes_ or (int(n_classes) if n_classes else int(y.max()) + 1)
        if y.max() >= classes:
            raise ValueError(f"label {int(y.max())} out of range for {classes} classes")
        if self.n_classes_ is None or self.n_features_ is None:
            self._set_shape(classes, X.shape[1])
        return X, y

    def _set_shape(self, n_classes, n_features):
        """Fix whichever of the class and feature counts is still unset."""
        if self.n_classes_ is None:
            self.n_classes_ = n_classes
        if self.n_features_ is None:
            self.n_features_ = n_features


def check_positive_integer(name, value):
    """Reject a parameter that is not a positive integer, naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def majority_vote(labels, n_classes):
    """Most voted class index; ties resolve to the lowest class index."""
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=n_classes)
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
        """Restart the object as a fresh construction from its parameters
        with these ones replaced: learned state is dropped, and whatever the
        constructor derives from a parameter follows the new value. A
        rejected name or value raises and leaves the object as it was."""
        valid = set(self._param_names())
        for name in params:
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
        fresh = type(self)(**{**self.get_params(), **params})
        self.__dict__ = fresh.__dict__
        return self
