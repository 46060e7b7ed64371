"""Experiment runner: compose a stream, a method, and the evaluator from
flags or a key=value config file, then write the report and its metadata
sidecar."""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dcs import RULES
from .evaluation import prequential_run
from .learners import GaussianNaiveBayes, HoeffdingTreeClassifier
from .methods import METHODS
from .streams import SEA_THRESHOLDS, CSVStream, DriftSchedule, SEAGenerator

LEARNERS = {"nb": GaussianNaiveBayes, "ht": HoeffdingTreeClassifier}

# Keys a metadata sidecar adds beyond the config; accepted and ignored on
# input so a sidecar can be replayed as a config file.
RESERVED_KEYS = {"version", "truncated"}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _integer(minimum=1):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"must be an integer, got {text!r}") from None
        if value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _real(low, high, low_open=False):
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"must be a real, got {text!r}") from None
        if not ((low < value if low_open else low <= value) and value <= high):
            bracket = "(" if low_open else "["
            raise ValueError(f"must be in {bracket}{low}, {high}], got {value}")
        return value

    return parse


def _label_column(text):
    try:
        return text if text == "last" else int(text)
    except ValueError:
        raise ValueError(f"must be an integer or 'last', got {text!r}") from None


def _drift(text):
    try:
        return DriftSchedule.parse(text)
    except ValueError as exc:
        raise ValueError(f"must be a schedule 'start:concept,...': {exc}") from None


class Field(NamedTuple):
    key: str
    default: str | None  # text as in a config file; None when required
    parse: Callable  # text -> value; raises ValueError saying what is wrong
    format: Callable  # value -> text, so that parse(format(v)) == v
    choices: tuple[str, ...] | None
    help: str


def _schedule_text(schedule):
    return ",".join(f"{start}:{concept}" for start, concept in schedule.segments)


_CONCEPTS = f"0..{len(SEA_THRESHOLDS) - 1}"

#: Every config key, in the order of config files and metadata sidecars.
FIELDS = (
    Field("stream", "sea", str, str, ("sea", "csv"), "stream source"),
    Field("csv_path", "", str, str, None, "input file for --stream csv"),
    Field("label_column", "last", _label_column, str, None, "0-based label column or 'last'"),
    Field("header", "false", str, str, ("true", "false"), "skip a header row"),
    Field(
        "drift", "0:0", _drift, _schedule_text, None,
        f"abrupt concept schedule 'start:concept,...'; SEA concepts {_CONCEPTS}",
    ),
    Field("noise", "0.0", _real(0.0, 1.0), repr, None, "SEA label-flip probability in [0,1]"),
    Field("method", "dynse", str, str, tuple(METHODS), "stream method"),
    Field(
        "dcs", "knora-e", str, str, tuple(sorted(RULES)),
        "selection rule for dynse (invalid with desdd and mde)",
    ),
    Field("learner", "ht", str, str, tuple(LEARNERS), "base learner"),
    Field("chunk_size", "1000", _integer(), str, None, "instances per chunk"),
    Field(
        "pool_size", "10", _integer(), str, None,
        "pool bound (dynse, mde) or sub-ensemble count (desdd)",
    ),
    Field("k", "7", _integer(), str, None, "region-of-competence size"),
    Field("val_window", "4", _integer(), str, None, "validation window length in chunks"),
    Field("seed", None, _integer(0), str, None, "PRNG seed >= 0; never defaulted"),
    Field("n", "20000", _integer(), str, None, "instance budget"),
    Field("out", None, str, str, None, "report CSV path"),
    Field("alpha", "0.999", _real(0.0, 1.0, low_open=True), repr, None, "fading factor in (0,1]"),
    Field("metric_window", "500", _integer(), str, None, "sliding accuracy window in instances"),
    Field("checkpoint_every", "500", _integer(), str, None, "report row cadence in instances"),
)
BY_KEY = {field.key: field for field in FIELDS}


class ExperimentConfig(SimpleNamespace):
    """A validated configuration: one parsed attribute per FIELDS key."""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="streamdcs",
        description=(
            "Run one reproducible stream-classification experiment and write "
            "a prequential report (CSV) plus a .meta sidecar holding the full "
            "resolved configuration."
        ),
    )
    parser.add_argument("--config", help="key=value config file; flags override file values")
    for field in FIELDS:
        if field.default is None:
            note = " (required)"
        else:
            note = f" (default: {field.default})" if field.default else ""
        parser.add_argument(
            "--" + field.key.replace("_", "-"),
            dest=field.key,
            choices=field.choices,
            help=field.help + note,
        )
    return parser


def _read_config_file(path):
    values = {}
    unknown = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError([f"cannot read config file: {exc}"])
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError([f"bad config line (expected key=value): {line!r}"])
        key, _, value = line.partition("=")
        key = key.strip()
        if key in RESERVED_KEYS:
            continue
        if key not in BY_KEY:
            unknown.append(key)
            continue
        values[key] = value.strip()
    if unknown:
        raise ConfigError([f"unknown config key: {k}" for k in unknown])
    return values


def parse_config(argv):
    """Merge flags over an optional config file into a validated config."""
    args = _build_parser().parse_args(argv)
    raw = _read_config_file(args.config) if args.config else {}
    raw.update({k: v for k, v in vars(args).items() if k in BY_KEY and v is not None})

    problems = []
    values = {}
    for field in FIELDS:
        text = raw.get(field.key, field.default)
        if text is None:
            problems.append(f"{field.key} is required")
        elif field.choices is not None and text not in field.choices:
            problems.append(f"{field.key} must be one of {sorted(field.choices)}, got {text!r}")
        else:
            try:
                values[field.key] = field.parse(text)
            except ValueError as exc:
                problems.append(f"{field.key} {exc}")

    # The three checks that span keys. A sidecar of a method without a rule
    # records the default rule, so only a non-default one is rejected.
    method = values.get("method")
    has_rule = method is None or "dcs_rule" in METHODS[method]._param_names()
    if not has_rule and values.get("dcs") != BY_KEY["dcs"].default:
        problems.append(f"dcs is not applicable to method {method}")
    if values.get("stream") == "sea" and "drift" in values:
        for _, concept in values["drift"].segments:
            if not 0 <= concept < len(SEA_THRESHOLDS):
                problems.append(f"drift concept {concept} outside {_CONCEPTS}")
    if values.get("stream") == "csv" and not values.get("csv_path"):
        problems.append("csv_path is required for stream csv")
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**values)


def build_components(config):
    """Instantiate the stream and the method described by a config."""
    stream_seed, model_seed = np.random.SeedSequence(config.seed).spawn(2)
    if config.stream == "sea":
        stream = SEAGenerator(seed=stream_seed, schedule=config.drift, noise_rate=config.noise)
    else:
        stream = CSVStream(
            config.csv_path, label_column=config.label_column, header=config.header == "true"
        )
    method = METHODS[config.method]
    # Each method takes the parameters it names; pool_size bounds a DYNSE or
    # MDE pool and counts DESDD's sub-ensembles.
    offered = {
        "learner_factory": LEARNERS[config.learner],
        "dcs_rule": config.dcs,
        "chunk_size": config.chunk_size,
        "max_pool_size": config.pool_size,
        "n_subensembles": config.pool_size,
        "k": config.k,
        "window_chunks": config.val_window,
        "seed": model_seed,
    }
    model = method(**{name: offered[name] for name in method._param_names() if name in offered})
    return stream, model


def run_experiment(config):
    """Run one experiment; writes the report CSV and its .meta sidecar."""
    stream, model = build_components(config)
    report = prequential_run(
        stream,
        model,
        config.n,
        alpha=config.alpha,
        window=config.metric_window,
        checkpoint_every=config.checkpoint_every,
    )
    report.write_csv(config.out)
    _write_metadata(config, report)
    return report


def _write_metadata(config, report):
    lines = [f"{f.key}={f.format(getattr(config, f.key))}" for f in FIELDS]
    lines.append(f"version={__version__}")
    lines.append(f"truncated={'true' if report.truncated else 'false'}")
    with open(config.out + ".meta", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"streamdcs: config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run_experiment(config)
    except (OSError, ValueError) as exc:
        print(f"streamdcs: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
