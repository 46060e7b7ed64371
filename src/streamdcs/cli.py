"""Experiment runner: compose a stream, a method, and the evaluator from
flags or a key=value config file, then write the report and its metadata
sidecar."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dcs import RULES
from .evaluation import prequential_run
from .learners import GaussianNaiveBayes, HoeffdingTreeClassifier
from .methods import DesddClassifier, DynseClassifier, MdeClassifier
from .streams import SEA_THRESHOLDS, CSVStream, DriftSchedule, SEAGenerator

LEARNERS = {"nb": GaussianNaiveBayes, "ht": HoeffdingTreeClassifier}

DEFAULTS = {
    "stream": "sea",
    "csv_path": "",
    "label_column": "last",
    "header": "false",
    "drift": "0:0",
    "noise": "0.0",
    "method": "dynse",
    "dcs": "knora-e",
    "learner": "ht",
    "chunk_size": "1000",
    "pool_size": "10",
    "k": "7",
    "val_window": "4",
    "n": "20000",
    "alpha": "0.999",
    "metric_window": "500",
    "checkpoint_every": "500",
}

# Order of keys in config files and metadata sidecars.
CONFIG_KEYS = [
    "stream",
    "csv_path",
    "label_column",
    "header",
    "drift",
    "noise",
    "method",
    "dcs",
    "learner",
    "chunk_size",
    "pool_size",
    "k",
    "val_window",
    "seed",
    "n",
    "out",
    "alpha",
    "metric_window",
    "checkpoint_every",
]

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


@dataclass
class ExperimentConfig:
    stream: str
    csv_path: str
    label_column: str
    header: bool
    drift: DriftSchedule
    noise: float
    method: str
    dcs: str
    learner: str
    chunk_size: int
    pool_size: int
    k: int
    val_window: int
    seed: int
    n: int
    out: str
    alpha: float
    metric_window: int
    checkpoint_every: int

    def to_text_values(self):
        values = {
            "stream": self.stream,
            "csv_path": self.csv_path,
            "label_column": self.label_column,
            "header": "true" if self.header else "false",
            "drift": ",".join(f"{s}:{c}" for s, c in self.drift.segments),
            "noise": repr(self.noise),
            "method": self.method,
            "dcs": self.dcs,
            "learner": self.learner,
            "chunk_size": str(self.chunk_size),
            "pool_size": str(self.pool_size),
            "k": str(self.k),
            "val_window": str(self.val_window),
            "seed": str(self.seed),
            "n": str(self.n),
            "out": self.out,
            "alpha": repr(self.alpha),
            "metric_window": str(self.metric_window),
            "checkpoint_every": str(self.checkpoint_every),
        }
        return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="streamdcs",
        description=(
            "Run one reproducible stream-classification experiment and write "
            "a prequential report (CSV) plus a .meta sidecar holding the full "
            "resolved configuration."
        ),
    )
    add = parser.add_argument
    add("--config", help="key=value config file; flags override file values")
    add("--stream", choices=["sea", "csv"], help="stream source (default: sea)")
    add("--csv-path", dest="csv_path", help="input file for --stream csv")
    add(
        "--label-column",
        dest="label_column",
        help="0-based label column index or 'last' (default: last)",
    )
    add("--header", choices=["true", "false"], help="skip a header row (default: false)")
    add(
        "--drift",
        help="abrupt concept schedule 'start:concept,...' (default: 0:0; "
        f"concepts 0..{len(SEA_THRESHOLDS) - 1})",
    )
    add("--noise", help="SEA label-flip probability in [0,1] (default: 0.0)")
    add("--method", choices=["dynse", "desdd", "mde"], help="stream method (default: dynse)")
    add(
        "--dcs",
        choices=sorted(RULES),
        help="selection rule for dynse/mde (default: knora-e; invalid with desdd)",
    )
    add("--learner", choices=["nb", "ht"], help="base learner (default: ht)")
    add("--chunk-size", dest="chunk_size", help="instances per chunk (default: 1000)")
    add("--pool-size", dest="pool_size", help="max ensemble size (default: 10)")
    add("--k", help="region-of-competence size (default: 7)")
    add(
        "--val-window",
        dest="val_window",
        help="validation window length in chunks (default: 4)",
    )
    add("--seed", help="PRNG seed (required; never defaulted)")
    add("--n", help="instance budget (default: 20000)")
    add("--out", help="report CSV path (required)")
    add("--alpha", help="fading factor in (0,1] (default: 0.999)")
    add(
        "--metric-window",
        dest="metric_window",
        help="sliding accuracy window in instances (default: 500)",
    )
    add(
        "--checkpoint-every",
        dest="checkpoint_every",
        help="report row cadence in instances (default: 500)",
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
        if key not in CONFIG_KEYS:
            unknown.append(key)
            continue
        values[key] = value.strip()
    if unknown:
        raise ConfigError([f"unknown config key: {k}" for k in unknown])
    return values


def parse_config(argv):
    """Merge flags over an optional config file into a validated config."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    raw = {}
    if args.config:
        raw.update(_read_config_file(args.config))
    explicit = set(raw)
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
            explicit.add(key)

    problems = []

    def _take_int(key, minimum=1):
        try:
            value = int(raw[key])
        except ValueError:
            problems.append(f"{key} must be an integer, got {raw[key]!r}")
            return minimum
        if value < minimum:
            problems.append(f"{key} must be >= {minimum}, got {value}")
        return value

    def _take_float(key, low, high, low_open=False):
        try:
            value = float(raw[key])
        except ValueError:
            problems.append(f"{key} must be a real, got {raw[key]!r}")
            return high
        inside = (low < value if low_open else low <= value) and value <= high
        if not inside:
            bracket = "(" if low_open else "["
            problems.append(f"{key} must be in {bracket}{low}, {high}], got {value}")
        return value

    if "seed" not in raw:
        problems.append("seed is required (reproducibility is not optional)")
        raw["seed"] = "0"
    if "out" not in raw:
        problems.append("out is required")
        raw["out"] = ""
    for key, default in DEFAULTS.items():
        raw.setdefault(key, default)

    for key in ("stream", "method", "learner", "dcs", "header"):
        allowed = {
            "stream": ("sea", "csv"),
            "method": ("dynse", "desdd", "mde"),
            "learner": tuple(LEARNERS),
            "dcs": tuple(RULES),
            "header": ("true", "false"),
        }[key]
        if raw[key] not in allowed:
            problems.append(f"{key} must be one of {sorted(allowed)}, got {raw[key]!r}")
            raw[key] = allowed[0]

    # A DESDD sidecar records the default rule, so it must replay.
    if raw["method"] == "desdd" and "dcs" in explicit and raw["dcs"] != DEFAULTS["dcs"]:
        problems.append("dcs is not applicable to method desdd")

    drift = DriftSchedule()
    try:
        drift = DriftSchedule.parse(raw["drift"])
    except ValueError as exc:
        problems.append(str(exc))
    if raw["stream"] == "sea":
        for _, concept in drift.segments:
            if not 0 <= concept < len(SEA_THRESHOLDS):
                problems.append(
                    f"drift concept {concept} outside 0..{len(SEA_THRESHOLDS) - 1}"
                )
    if raw["stream"] == "csv" and not raw["csv_path"]:
        problems.append("csv_path is required for stream csv")
    if raw["label_column"] != "last":
        try:
            int(raw["label_column"])
        except ValueError:
            problems.append(
                f"label_column must be an integer or 'last', got {raw['label_column']!r}"
            )

    config = ExperimentConfig(
        stream=raw["stream"],
        csv_path=raw["csv_path"],
        label_column=raw["label_column"],
        header=raw["header"] == "true",
        drift=drift,
        noise=_take_float("noise", 0.0, 1.0),
        method=raw["method"],
        dcs=raw["dcs"],
        learner=raw["learner"],
        chunk_size=_take_int("chunk_size"),
        pool_size=_take_int("pool_size"),
        k=_take_int("k"),
        val_window=_take_int("val_window"),
        seed=_take_int("seed", minimum=-(2**62)),
        n=_take_int("n"),
        out=raw["out"],
        alpha=_take_float("alpha", 0.0, 1.0, low_open=True),
        metric_window=_take_int("metric_window"),
        checkpoint_every=_take_int("checkpoint_every"),
    )
    if problems:
        raise ConfigError(problems)
    return config


def build_components(config):
    """Instantiate the stream and the method described by a config."""
    stream_seed, model_seed = np.random.SeedSequence(config.seed).spawn(2)
    if config.stream == "sea":
        stream = SEAGenerator(
            seed=stream_seed, schedule=config.drift, noise_rate=config.noise
        )
    else:
        label_column = (
            config.label_column
            if config.label_column == "last"
            else int(config.label_column)
        )
        stream = CSVStream(
            config.csv_path, label_column=label_column, header=config.header
        )
    factory = LEARNERS[config.learner]
    if config.method == "dynse":
        model = DynseClassifier(
            learner_factory=factory,
            dcs_rule=config.dcs,
            chunk_size=config.chunk_size,
            max_pool_size=config.pool_size,
            k=config.k,
            window_chunks=config.val_window,
        )
    elif config.method == "mde":
        model = MdeClassifier(
            learner_factory=factory,
            chunk_size=config.chunk_size,
            max_pool_size=config.pool_size,
            k=config.k,
            window_chunks=config.val_window,
        )
    else:
        model = DesddClassifier(
            n_subensembles=config.pool_size,
            learner_factory=factory,
            chunk_size=config.chunk_size,
            seed=model_seed,
        )
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
    values = config.to_text_values()
    lines = [f"{key}={values[key]}" for key in CONFIG_KEYS]
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
