from .base import (
    EPS_DISTANCE,
    CompetenceContext,
    DCSRule,
    SelectionResult,
    build_context,
    distance_weights,
)
from .knora import KNOP, KNORAE, KNORAU, MDEVote
from .local import LCA, MCB, OLA, DCSRank
from .probabilistic import APosteriori, APriori

#: CLI-facing rule identifiers. MDEVote is MDE's own rule, not a choice.
RULES = {
    "knora-e": KNORAE,
    "knora-u": KNORAU,
    "ola": OLA,
    "lca": LCA,
    "apriori": APriori,
    "aposteriori": APosteriori,
    "mcb": MCB,
    "rank": DCSRank,
    "knop": KNOP,
}


def make_rule(name):
    """Instantiate a selection rule from its identifier."""
    try:
        return RULES[name]()
    except KeyError:
        raise ValueError(
            f"unknown DCS rule {name!r}; choose from {sorted(RULES)}"
        ) from None


__all__ = [
    "EPS_DISTANCE",
    "CompetenceContext",
    "DCSRule",
    "SelectionResult",
    "build_context",
    "distance_weights",
    "KNORAE",
    "KNORAU",
    "KNOP",
    "MDEVote",
    "OLA",
    "LCA",
    "MCB",
    "DCSRank",
    "APriori",
    "APosteriori",
    "RULES",
    "make_rule",
]
