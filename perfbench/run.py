"""Prequential benchmark of streamdcs.

Drives ``streamdcs.prequential_run`` from one process and one thread, as a
closed loop with one caller and no think time, checks the outputs with
the independent oracles in ``checks.py`` and prints every metric. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload that ``BENCHMARK.json`` lists runs,
one child process each; ``dynse-knop-nb``, which it does not list, runs
only when named. With
``--trace 1`` the metrics are the per-layer ones of ``spans.py``, and the
spans are written under ``perfbench/out/``.
"""

import os

# One thread: pin the BLAS and OpenMP pools before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import spans
from workloads import N_CLASSES, WORKLOADS, import_streamdcs

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PER_CYCLE = 2  # set-up children started before each timed cycle
QUERY_SAMPLES = 150  # queries per check round compared against an oracle

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ips": "1/s",
    "predict_p50_us": "us",
    "predict_p99_us": "us",
    "chunk_fit_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "gmean": "ratio",
}


class TimedModel:
    """Forwards to a stream method, reading the clock twice around each call.

    An instance fails when predict or partial_fit raises, or when predict
    returns anything but one valid class index; a failed prediction is
    replaced by class 0 so that the run goes on.
    """

    def __init__(self, model, calls):
        self.model = model
        # Preallocated, so a round's memory does not grow as it is timed.
        self.predict_s = np.zeros(calls)
        self.fit_s = np.zeros(calls)
        self._predicts = self._fits = 0
        self.failed = 0
        self.first_error = None
        self._failing = False

    @property
    def is_ready(self):
        return self.model.is_ready

    def _fail(self, what):
        if not self._failing:
            self.failed += 1
            self._failing = True
        if self.first_error is None:
            self.first_error = what

    def predict(self, X):
        t0 = perf_counter()
        try:
            out = self.model.predict(X)
        except Exception:
            self._record_predict(perf_counter() - t0)
            self._fail(traceback.format_exc())
            return np.zeros(1, dtype=np.int64)
        self._record_predict(perf_counter() - t0)
        if not (
            isinstance(out, np.ndarray)
            and out.shape == (1,)
            and out.dtype.kind in "iu"
            and 0 <= out[0] < N_CLASSES
        ):
            self._fail(f"predict returned {out!r}")
            return np.zeros(1, dtype=np.int64)
        return out

    def partial_fit(self, X, y, n_classes=None):
        t0 = perf_counter()
        try:
            self.model.partial_fit(X, y, n_classes=n_classes)
        except Exception:
            self._fail(traceback.format_exc())
        self.fit_s[self._fits] = perf_counter() - t0
        self._fits += 1
        self._failing = False
        return self

    def _record_predict(self, seconds):
        self.predict_s[self._predicts] = seconds
        self._predicts += 1

    def close(self):
        """Drop the model, so that only the timings outlive the round."""
        self.model = None
        self.predict_s = self.predict_s[: self._predicts]
        self.fit_s = self.fit_s[: self._fits]


class CheckedModel:
    """Forwards to a stream method and holds it to the oracles of checks.py.

    It keeps every training instance, so the validation window and the
    DESDD selection window are rebuilt here rather than read from the
    model. Sampled queries are answered by an oracle before the method is
    asked; the pool bound is checked after every training call, and DESDD's
    re-selection after every chunk.
    """

    def __init__(self, workload, model, X, y):
        self.w = workload
        self.model = model
        self.X, self.y = X, y  # filled up to self.n, sized for the round
        self.n = workload.fill
        self.predictions = []
        self.errors = []
        self.pool_sizes = []
        self.stride = max(1, workload.measured // QUERY_SAMPLES)
        self.selected = None
        if workload.method == "desdd":
            self._check_selection()

    @property
    def is_ready(self):
        return self.model.is_ready

    def _members(self):
        if self.w.method == "desdd":
            return [s.members for s in self.model.subensembles_]
        return self.model.pool_.learners

    def _oracle(self, x):
        w, n = self.w, self.n
        if w.method == "desdd":
            members = self._members()[self.selected]
            return checks.ensemble_predictions(members, x[None, :], N_CLASSES)[0]
        hi = (n // w.chunk_size) * w.chunk_size
        lo = max(0, hi - w.window_rows())
        window_X, window_y = self.X[lo:hi], self.y[lo:hi]
        if w.method == "dynse":
            return checks.dynse_prediction(
                self._members(), window_X, window_y, x, w.k, w.rule, N_CLASSES
            )
        last_chunk = self.y[hi - w.chunk_size : hi]
        return checks.mde_prediction(
            self._members(), window_X, window_y, last_chunk, x, w.k, N_CLASSES
        )

    def _check_selection(self):
        lo = self.n - self.w.window_rows()
        self.selected = checks.best_subensemble(
            self._members(), self.X[lo : self.n], self.y[lo : self.n], N_CLASSES
        )
        if self.model.selected_index_ != self.selected:
            self.errors.append(
                f"instance {self.n}: DESDD selected sub-ensemble "
                f"{self.model.selected_index_}, the window favours {self.selected}"
            )

    def predict(self, X):
        x = X[0]
        self.X[self.n] = x
        expected = None
        i = self.n - self.w.fill
        if i % self.stride == self.stride // 2:
            expected = self._oracle(x)
        out = self.model.predict(X)
        prediction = int(out[0])
        if expected is not None and prediction != expected:
            self.errors.append(
                f"instance {self.n}: predicted {prediction}, the oracle says {expected}"
            )
        self.predictions.append(prediction)
        return out

    def partial_fit(self, X, y, n_classes=None):
        self.model.partial_fit(X, y, n_classes=n_classes)
        self.y[self.n] = y[0]
        self.n += 1
        if self.w.method == "desdd":
            self.pool_sizes += [len(s) for s in self._members()]
            if self.n % self.w.chunk_size == 0:
                self._check_selection()
        else:
            self.pool_sizes.append(len(self.model.pool_))
        return self


def host_probe():
    """Seconds for a fixed piece of work like the package's own: small numpy
    operations driven from a Python loop. A diagnostic, not a metric."""
    X = np.random.default_rng(0).uniform(size=(256, 3))
    times = []
    for _ in range(3):
        t0 = perf_counter()
        for i in range(4000):
            d = X - X[i % 256]
            np.argsort(np.einsum("ij,ij->i", d, d), kind="stable")[:7]
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def setup_times(workload, seed):
    """Wall seconds of fresh processes that import, build and score one
    instance, one after another."""
    command = [sys.executable, str(HERE / "first_instance.py"), workload.name, str(seed)]
    times = []
    for _ in range(SETUP_PER_CYCLE):
        t0 = perf_counter()
        subprocess.run(command, check=True)
        times.append(perf_counter() - t0)
    return times


def fill(workload, seed, stream_index):
    """Train a fresh model on the fill instances of one stream; return it
    pickled with the stream, plus the fill rows in arrays sized for a round."""
    stream, model = workload.build(seed, stream_index)
    size = workload.fill + workload.measured
    X, y = np.empty((size, 3)), np.empty(size, dtype=np.int64)
    for i in range(workload.fill):
        instance = next(stream)
        X[i], y[i] = instance.features, instance.label
    model.partial_fit(X[: workload.fill], y[: workload.fill], n_classes=N_CLASSES)
    return pickle.dumps((stream, model)), X, y


def check_round(sd, workload, stream, model, X, y):
    """Run the measured phase once under the oracles, from the filled
    stream and model; return the report's final row and the errors found."""
    checked = CheckedModel(workload, model, X, y)
    try:
        report = sd.prequential_run(stream, checked, n=workload.measured)
    except Exception:
        return None, [f"check round raised:\n{traceback.format_exc()}"]
    row = report.rows[-1]
    labels = y[workload.fill :]
    errors = list(checked.errors)
    errors += checks.check_report(row, labels, checked.predictions, N_CLASSES)
    concepts = [workload.concept_at(i) for i in range(len(y))]
    errors += checks.check_sea_labels(X, y, concepts, workload.noise)
    bound = workload.subensembles[1] if workload.method == "desdd" else workload.pool_size
    errors += checks.check_pool(checked.pool_sizes, bound)
    errors += checks.check_beats_majority(row.accuracy, labels)
    return row, errors


def run_round(sd, workload, snapshot, tracer=None):
    """One measured phase from a filled state: (final row, proxy, seconds)."""
    stream, model = pickle.loads(snapshot)
    run = sd.prequential_run
    if tracer is None:
        proxy = TimedModel(model, workload.measured)
    else:
        proxy = spans.TracedModel(model, tracer, workload.chunk_size, workload.fill)
        run = tracer.wrap("evaluation.prequential_run", run)
        tracer.install(sd)
    gc.collect()
    try:
        t0 = perf_counter()
        report = run(stream, proxy, n=workload.measured)
        elapsed = perf_counter() - t0
    finally:
        if tracer is None:
            proxy.close()
        else:
            tracer.remove()
    return report.rows[-1], proxy, elapsed


def measure(workload, seed, seconds, trace):
    """Fill and check every stream, then time whole cycles of rounds, one
    round per stream, until ``seconds`` of rounds have been measured. With
    tracing, plain and traced cycles alternate."""
    sd = import_streamdcs()
    diagnostics = {"environment": environment(), "host_probe_s": host_probe()}
    setup = []
    filled = [fill(workload, seed, s) for s in range(workload.streams)]
    checked_rows, errors = [], []
    for snapshot, X, y in filled:
        row, found = check_round(sd, workload, *pickle.loads(snapshot), X, y)
        checked_rows.append(row)
        errors += found

    tracer = spans.Tracer() if trace else None
    plain, traced = [], []  # one (proxies, seconds) pair per cycle
    attempted = failed = 0
    peak_rss_mb = None
    replayed = True
    cycle_s = 0.0
    # Stop at the cycle boundary nearest to the time asked for.
    while sum(t for _, t in plain + traced) + cycle_s / 2 < seconds or (trace and not traced):
        use_tracer = tracer if trace and len(plain) > len(traced) else None
        if not trace:
            # Spread over the run, set-up samples see the host as the rounds do.
            setup += setup_times(workload, seed)
        proxies, elapsed, rows = [], 0.0, []
        for snapshot, _, _ in filled:
            row, proxy, t = run_round(sd, workload, snapshot, use_tracer)
            if use_tracer is None:
                proxies.append(proxy)
            rows.append(row)
            elapsed += t
            attempted += workload.measured
            failed += getattr(proxy, "failed", 0)
            if getattr(proxy, "first_error", None):
                diagnostics.setdefault("first_error", proxy.first_error)
        (traced if use_tracer else plain).append((proxies, elapsed))
        if peak_rss_mb is None:
            # Read once every stream has run, before the count of cycles,
            # which grows with speed, can weigh on it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cycle_s = elapsed
        replayed = replayed and rows == checked_rows
    if not replayed:
        errors.append("a timed round's report differs from its stream's checked round")

    if trace:
        rounds = workload.streams * len(traced)
        metrics, top_s = tracer.summary(rounds)
        traced_s = statistics.median(t for _, t in traced)
        metrics["trace.overhead_ratio"] = traced_s / statistics.median(t for _, t in plain) - 1.0
        # Traced time inside no span below the evaluation span: the loop's
        # own bookkeeping plus the benchmark's, unattributed to any layer.
        traced_total = sum(t for _, t in traced)
        loop_s = metrics["evaluation.prequential_run.self_s"] * rounds
        outside = loop_s + traced_total - top_s * rounds
        metrics["trace.unattributed_ratio"] = outside / traced_total
        metrics["trace.spans"] = len(tracer.layer) / rounds
        units = {name: _layer_unit(name) for name in metrics}
        OUT.mkdir(exist_ok=True)
        np.savez_compressed(OUT / f"{workload.name}-spans.npz", **tracer.arrays())
    else:
        proxies = [proxy for cycle, _ in plain for proxy in cycle]
        predict_s = np.concatenate([proxy.predict_s for proxy in proxies])
        # Every cycle replays the same queries, so each query's latency is
        # the median of its replays: a stall or a slow spell of the host
        # that hits one replay of a query does not count, while a query
        # that costs more every time does.
        per_query_s = np.concatenate(
            [
                np.median([cycle[s].predict_s for cycle, _ in plain], axis=0)
                for s in range(workload.streams)
            ]
        )
        boundary = np.array(
            [
                fit
                for proxy in proxies
                for j, fit in enumerate(proxy.fit_s)
                if (workload.fill + j + 1) % workload.chunk_size == 0
            ]
        )
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_ips": len(proxies) * workload.measured / sum(t for _, t in plain),
            "predict_p50_us": float(np.percentile(per_query_s, 50)) * 1e6,
            "predict_p99_us": float(np.percentile(per_query_s, 99)) * 1e6,
            "chunk_fit_p50_ms": float(np.median(boundary)) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "accuracy": statistics.fmean(row.accuracy for row in rows),
            "gmean": statistics.fmean(row.gmean for row in rows),
        }
        units = END_TO_END_UNITS
        diagnostics["setup_s_all"] = setup
        diagnostics["predict_samples"] = len(predict_s)
        diagnostics["predict_queries"] = len(per_query_s)
        # Every call pooled, stalls included, to set beside the per-query
        # medians the metrics use.
        diagnostics["predict_pooled_p50_us"] = float(np.percentile(predict_s, 50)) * 1e6
        diagnostics["predict_pooled_p99_us"] = float(np.percentile(predict_s, 99)) * 1e6
        diagnostics["chunk_fit_samples"] = len(boundary)
        diagnostics["chunk_fit_s_all"] = boundary.tolist()
        diagnostics["per_round"] = [
            {
                "predict_mean_us": float(np.mean(proxy.predict_s)) * 1e6,
                "predict_p50_us": float(np.percentile(proxy.predict_s, 50)) * 1e6,
                "predict_p90_us": float(np.percentile(proxy.predict_s, 90)) * 1e6,
                "predict_p99_us": float(np.percentile(proxy.predict_s, 99)) * 1e6,
            }
            for proxy in proxies
        ]
    diagnostics["cycles_s"] = {
        "plain": [t for _, t in plain],
        "traced": [t for _, t in traced],
    }
    diagnostics["errors"] = errors
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return result, diagnostics


def _layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_all(seed, seconds, trace):
    """Every workload that BENCHMARK.json lists, each in its own process; a
    summary JSON line at the end."""
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = {}
    for name in (w["name"] for w in listed["workloads"]):
        command = [sys.executable, str(HERE / "run.py"), "--workload", name]
        command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        print(done.stdout, end="", flush=True)
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_streamdcs()  # fail fast without the package source
    if args.workload is None:
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return
    workload = WORKLOADS[args.workload]
    started = time.time()
    result, diagnostics = measure(workload, args.seed, args.seconds, args.trace)
    diagnostics["wall_s"] = time.time() - started
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "diagnostics": diagnostics}, fh, indent=1)
    for error in diagnostics["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(
        f"# {workload.name} seed={args.seed} host_probe_s={diagnostics['host_probe_s']:.4f} "
        f"cycles={len(diagnostics['cycles_s']['plain'])}+{len(diagnostics['cycles_s']['traced'])} "
        f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}"
    )
    for name, m in result["metrics"].items():
        print(f"{workload.name:18s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
