"""Dynamic classifier selection for data streams.

Chunk-based ensembles, a sliding validation window defining regions of
competence, nine classical selection rules, three stream-facing methods,
and a prequential evaluator, all behind a partial_fit/predict interface.
"""

__version__ = "0.1.0"

from .exceptions import NotReadyError, StreamFormatError
from .streams import (
    Chunk,
    CSVStream,
    DriftSchedule,
    Instance,
    SEAGenerator,
    StreamSource,
    read_csv_stream,
    sea_label,
)
from .learners import (
    GaussianNaiveBayes,
    HoeffdingTreeClassifier,
    IncrementalClassifier,
    OnlineBaggingEnsemble,
    hoeffding_bound,
)
from .validation import Neighborhood, ValidationSet, member_posteriors, output_profiles
from .dcs import (
    RULES,
    APosteriori,
    APriori,
    CompetenceContext,
    DCSRank,
    DCSRule,
    KNOP,
    KNORAE,
    KNORAU,
    LCA,
    MCB,
    OLA,
    MDEVote,
    SelectionResult,
    build_context,
    make_rule,
)
from .methods import (
    METHODS,
    DesddClassifier,
    DynseClassifier,
    MdeClassifier,
    Pool,
)
from .evaluation import (
    EvaluationReport,
    PrequentialState,
    confusion_matrix,
    gmean,
    kappa,
    prequential_run,
)

__all__ = [
    "__version__",
    "NotReadyError",
    "StreamFormatError",
    "Chunk",
    "CSVStream",
    "DriftSchedule",
    "Instance",
    "SEAGenerator",
    "StreamSource",
    "read_csv_stream",
    "sea_label",
    "GaussianNaiveBayes",
    "HoeffdingTreeClassifier",
    "IncrementalClassifier",
    "OnlineBaggingEnsemble",
    "hoeffding_bound",
    "Neighborhood",
    "ValidationSet",
    "member_posteriors",
    "output_profiles",
    "RULES",
    "APosteriori",
    "APriori",
    "CompetenceContext",
    "DCSRank",
    "DCSRule",
    "KNOP",
    "KNORAE",
    "KNORAU",
    "LCA",
    "MCB",
    "OLA",
    "MDEVote",
    "SelectionResult",
    "build_context",
    "make_rule",
    "METHODS",
    "DesddClassifier",
    "DynseClassifier",
    "MdeClassifier",
    "Pool",
    "EvaluationReport",
    "PrequentialState",
    "confusion_matrix",
    "gmean",
    "kappa",
    "prequential_run",
]
