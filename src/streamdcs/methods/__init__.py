from .base import BaseStreamClassifier, Pool
from .dynse import DynseClassifier
from .desdd import DesddClassifier
from .mde import MdeClassifier

#: CLI-facing method identifiers.
METHODS = {
    "dynse": DynseClassifier,
    "desdd": DesddClassifier,
    "mde": MdeClassifier,
}

__all__ = [
    "BaseStreamClassifier",
    "Pool",
    "DynseClassifier",
    "DesddClassifier",
    "MdeClassifier",
    "METHODS",
]
