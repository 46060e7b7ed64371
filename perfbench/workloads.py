"""The benchmark's workloads: one seeded SEA stream and one method each.

A run uses ``streams`` independent streams of its workload. The fill phase
trains a model on a stream's first ``fill`` instances without scoring them,
so that the pool and the validation window are full; a long stream spends
nearly all its time in that state. The measured phase then runs
``prequential_run`` over the next ``measured`` instances, with one abrupt
drift in its middle. Every round replays one stream's measured phase from
its filled state, so rounds of the same stream do the same work.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "streamdcs"
N_CLASSES = 2


def import_streamdcs():
    """Import streamdcs from the checkout's ``src/``, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no package source at {PACKAGE}; "
            "run the benchmark from the root of a checkout"
        )
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    import streamdcs

    if Path(streamdcs.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"perfbench: streamdcs was imported from {streamdcs.__file__}")
    return streamdcs


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "dynse", "desdd" or "mde"
    learner: str  # "ht" or "nb"
    rule: str | None
    chunk_size: int
    pool_size: int | None  # DYNSE and MDE pool bound
    window_chunks: int | None  # DYNSE and MDE validation window, in chunks
    k: int | None
    pruning: str | None
    subensembles: tuple[int, int] | None  # DESDD (count, size)
    concepts: tuple[int, int]  # SEA concept before and after the drift
    noise: float
    fill: int
    measured: int  # at least 1000, so each round has a 99th-percentile tail
    streams: int = 3  # independent streams per run, so no one seed dominates

    @property
    def drift_at(self):
        return self.fill + self.measured // 2

    def concept_at(self, index):
        return self.concepts[0] if index < self.drift_at else self.concepts[1]

    def window_rows(self):
        """Rows the method validates on once its window is full."""
        if self.method == "desdd":
            return self.chunk_size
        return self.chunk_size * self.window_chunks

    def build(self, seed, stream_index=0):
        """A fresh stream and a fresh, untrained model: the stream_index-th
        of the run with the given seed."""
        sd = import_streamdcs()
        stream_seed, model_seed = np.random.SeedSequence((seed, stream_index)).spawn(2)
        schedule = sd.DriftSchedule(
            ((0, self.concepts[0]), (self.drift_at, self.concepts[1]))
        )
        stream = sd.SEAGenerator(stream_seed, schedule, noise_rate=self.noise)
        learner = {"ht": sd.HoeffdingTreeClassifier, "nb": sd.GaussianNaiveBayes}[
            self.learner
        ]
        if self.method == "dynse":
            model = sd.DynseClassifier(
                learner_factory=learner,
                dcs_rule=self.rule,
                chunk_size=self.chunk_size,
                max_pool_size=self.pool_size,
                k=self.k,
                window_chunks=self.window_chunks,
                pruning=self.pruning,
            )
        elif self.method == "mde":
            model = sd.MdeClassifier(
                learner_factory=learner,
                chunk_size=self.chunk_size,
                max_pool_size=self.pool_size,
                k=self.k,
                window_chunks=self.window_chunks,
            )
        else:
            model = sd.DesddClassifier(
                n_subensembles=self.subensembles[0],
                subensemble_size=self.subensembles[1],
                learner_factory=learner,
                chunk_size=self.chunk_size,
                seed=model_seed,
            )
        return stream, model


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dynse-knora-e-ht",
            method="dynse",
            learner="ht",
            rule="knora-e",
            chunk_size=1000,
            pool_size=10,
            window_chunks=4,
            k=7,
            pruning="age",
            subensembles=None,
            concepts=(0, 3),
            noise=0.1,
            fill=10_000,
            measured=3_000,
        ),
        Workload(
            name="dynse-knop-nb",
            method="dynse",
            learner="nb",
            rule="knop",
            chunk_size=250,
            pool_size=5,
            window_chunks=4,
            k=7,
            pruning="accuracy",
            subensembles=None,
            concepts=(0, 3),
            noise=0.1,
            fill=1_250,
            measured=1_000,
        ),
        Workload(
            name="desdd-nb",
            method="desdd",
            learner="nb",
            rule=None,
            chunk_size=250,
            pool_size=None,
            window_chunks=None,
            k=None,
            pruning=None,
            subensembles=(10, 5),
            concepts=(0, 3),
            noise=0.1,
            fill=250,
            measured=1_000,
            streams=2,
        ),
        Workload(
            name="mde-ht",
            method="mde",
            learner="ht",
            rule=None,
            chunk_size=1000,
            pool_size=10,
            window_chunks=4,
            k=7,
            pruning=None,
            subensembles=None,
            # 25 % minority before the drift, 45 % after it. With concept 0
            # (32 %) after it, MDE fell below the majority class on some
            # streams, so the majority-class check would fail by seed.
            concepts=(2, 3),
            noise=0.0,
            fill=10_000,
            measured=3_000,
        ),
    )
}
