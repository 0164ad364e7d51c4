"""Training trials, their correctness checks, and the metrics of a run.

A run is one process and one closed-loop client: trials follow each other,
and inside a trial an epoch starts only when the previous one has finished.
Every trial trains a fresh state from the run's seed through the library
path the command-line tool uses, so all trials of a run must produce
bit-identical validation losses; that is checked.
"""

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from neurodiff import solver
from neurodiff.callbacks import (Action, AfterEpoch, Always, Callback,
                                 SetLearningRate)
from neurodiff.losses import LossSpec

import spans
from workloads import condition_error, solution_error

EXACT = 1e-14  # condition value error allowed, as in acceptance criterion 2

_CAL = np.random.default_rng(0).standard_normal((256, 64))


def calibration_s():
    """Wall time of a fixed kernel of small numpy calls and interpreter work,
    the same mix an epoch has.  It runs right after every epoch: when other
    tenants of the host slow the process down, they slow this kernel and
    the epoch alike, so their ratio stays steady where wall time does not."""
    x, w = _CAL[:, :32], _CAL[:32, 32:] / 6
    t = time.perf_counter()
    h, acc = x, {}
    for i in range(40):
        h = np.tanh(h @ w) + 0.1 * x
        acc[i % 7] = acc.get(i % 7, 0.0) + float(h[i, 0])
    return time.perf_counter() - t


class EpochClock(Action):
    """Last callback of every epoch: stamps the epoch's end, runs the
    calibration kernel, stamps the next epoch's start, and stops a trial
    that is not protected once the run's time is up.  With a tracer each
    stamp also records the span count and the counters."""

    def __init__(self, clock, deadline, protected, tracer=None):
        self.clock = clock
        self.deadline = deadline
        self.protected = protected
        self.tracer = tracer
        self.starts = []
        self.ends = []
        self.calibration_s = []

    def mark(self, into):
        if self.tracer is None:
            into.append((self.clock(), 0, None))
        else:
            into.append((self.clock(), len(self.tracer.start),
                         dict(self.tracer.counters)))

    def apply(self, state):
        self.mark(self.ends)
        self.calibration_s.append(calibration_s())
        if not self.protected and time.perf_counter() >= self.deadline:
            state.stop_requested = True
        self.mark(self.starts)


@dataclass
class Trial:
    clock: EpochClock
    preset: object
    state: object = None
    error: str = None
    failures: list = field(default_factory=list)
    quality: dict = None

    @property
    def epochs(self):
        return len(self.clock.ends)

    @property
    def attempted(self):
        return self.epochs + (1 if self.error else 0)

    def epoch_s(self, first=0):
        """Wall time of each epoch from ``first`` on."""
        return [e[0] - s[0] for s, e in
                zip(self.clock.starts[first:], self.clock.ends[first:])]

    def costs(self, first):
        """Each epoch's wall time over the calibration run right after it."""
        return [e / c for e, c in zip(self.epoch_s(first),
                                      self.clock.calibration_s[first:])]

    def warm_at(self, warmup):
        """The clock reading at which epoch ``warmup`` (the first timed one)
        starts, less the calibration runs before it, which are the
        benchmark's own."""
        return (self.clock.starts[warmup][0]
                - sum(self.clock.calibration_s[:warmup]))


def run_trial(wl, seed, deadline, protected, tracer=None):
    """Train one fresh state for ``wl.epochs`` epochs (fewer if the run's
    time runs out and the trial is not protected)."""
    clock = tracer.now if tracer is not None else time.perf_counter
    preset = wl.build()
    problem = preset.problem(preset.batch)
    if tracer is not None:
        tracer.watch_problem(problem)
    cfg = solver.SolverConfig(
        networks=preset.network_specs(preset.hidden, preset.activation, seed),
        conditions=preset.conditions, optimizer=solver.Adam(lr=preset.lr),
        loss=LossSpec("mse"), epochs=wl.epochs,
        batches_per_epoch=preset.batches_per_epoch, seed=seed)
    stamp = EpochClock(clock, deadline, protected, tracer)
    callbacks = [Callback(AfterEpoch(e), SetLearningRate(preset.lr * f))
                 for e, f in preset.lr_schedule]
    callbacks.append(Callback(Always(), stamp))
    trial = Trial(stamp, preset)
    stamp.mark(stamp.starts)
    try:
        trial.state = solver.fit(problem, cfg, callbacks, layout=preset.layout)
    except Exception as e:  # the run goes on to report the failure
        traceback.print_exc(file=sys.stderr)
        trial.error = f"{type(e).__name__}: {e}"
    return trial


def check_trial(wl, trial, reference):
    """Correctness checks on a finished trial; ``reference`` is the
    validation-loss history it must reproduce bit for bit."""
    if trial.error:
        trial.failures.append(trial.error)
        return
    history = trial.state.valid_history
    losses = trial.state.train_history + history
    if not all(math.isfinite(v) for v in losses):
        trial.failures.append("non-finite loss")
    if history != reference[:len(history)]:
        k = next(i for i, (a, b) in enumerate(zip(history, reference))
                 if a != b)
        trial.failures.append(
            f"valid_loss at epoch {k + 1} is {history[k]!r}, "
            f"the reference trial had {reference[k]!r}")
    if trial.epochs < wl.epochs:
        return
    solution = solver.get_solution(trial.state, "best")
    cond_err = condition_error(wl.name, trial.preset, solution)
    if not cond_err <= EXACT:
        trial.failures.append(f"condition error {cond_err:.3e} > {EXACT:g}")
    crossed = [i for i, v in enumerate(history) if v < wl.tol]
    k = crossed[0] + 1 if crossed else trial.epochs
    trial.quality = {
        "valid_loss": history[-1],
        "solution_err": solution_error(wl.name, trial.preset, solution),
        "condition_err": cond_err,
        "epochs_to_tol": k,
        "time_to_tol_s": sum(trial.epoch_s()[:k]),
        "tol_reached": bool(crossed),
    }


def _history(trial):
    return trial.state.valid_history if trial.state else []


def nearest_rank(values, q):
    """The q-th percentile as the smallest sample with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def summarize_ms(epoch_s):
    """Fastest epoch, p50 and p90 of epoch times in ms, with the sample
    count.  p90 has at least ten samples beyond it only from 100 samples on."""
    ms = [s * 1e3 for s in epoch_s]
    return {"min": min(ms), "p50": nearest_rank(ms, 50),
            "p90": nearest_rank(ms, 90), "n": len(ms),
            "p90_resolved": len(ms) >= 100}


COLDSTART = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "coldstart.py")
COLD_SETUPS = 7
# A bare interpreter's time to start and import numpy on the reference host
# (README.md), rounded.
REFERENCE_IMPORT_S = 0.15


def _seconds_to_stamp(args):
    """Wall time from starting ``coldstart.py args`` to the stamp it prints."""
    started = time.perf_counter()
    out = subprocess.run([sys.executable, COLDSTART, *args],
                         stdout=subprocess.PIPE, text=True, check=True)
    return float(out.stdout) - started


def cold_setups(wl, seed, repeats=COLD_SETUPS):
    """Set-up times of ``repeats`` fresh processes, one after the other, each
    from its start to its first timed epoch, over the time a bare
    interpreter started right after it takes to import numpy."""
    return [_seconds_to_stamp([wl.name, str(seed)]) / _seconds_to_stamp([])
            for _ in range(repeats)]


def run_untraced(wl, seed, seconds):
    setups = cold_setups(wl, seed)
    deadline = time.perf_counter() + seconds
    trials = []
    while not trials or (time.perf_counter() < deadline
                         and not trials[-1].error):
        trials.append(run_trial(wl, seed, deadline, protected=not trials))
        check_trial(wl, trials[-1], _history(trials[0]))
    epoch_s = [s for t in trials for s in t.epoch_s(wl.warmup)]
    costs = [c for t in trials for c in t.costs(wl.warmup)]
    metrics, info = {}, {"setup_over_import": setups}
    if epoch_s:
        metrics = {
            "setup_s": statistics.median(setups) * REFERENCE_IMPORT_S,
            "epoch_cost_p50": nearest_rank(costs, 50),
            "epoch_cost_p90": nearest_rank(costs, 90),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info["epoch_ms"] = summarize_ms(epoch_s)
        info["calibration_ms"] = _calibration_ms(trials)
    return trials, metrics, info


def _calibration_ms(trials):
    return statistics.median(c for t in trials
                             for c in t.clock.calibration_s) * 1e3


def run_traced(wl, seed, seconds, trace_path):
    """Alternate untraced and traced trials of the same seed until the time
    is up; the first of each kind runs to the end."""
    deadline = time.perf_counter() + seconds
    tracer = spans.Tracer()
    untraced, traced = [], []
    while not traced or (time.perf_counter() < deadline
                         and not (untraced[-1].error or traced[-1].error)):
        if len(untraced) == len(traced):
            trial = run_trial(wl, seed, deadline, protected=not untraced)
            untraced.append(trial)
        else:
            tracer.install()
            try:
                trial = run_trial(wl, seed, deadline, protected=not traced,
                                  tracer=tracer)
            finally:
                tracer.uninstall()
            traced.append(trial)
        check_trial(wl, trial, _history(untraced[0]))
        if untraced[0].error:
            break

    name, start, end, parent = tracer.arrays()
    arrays = (name, start, end, parent, spans.self_times(start, end, parent))
    per_epoch, marks = [], []
    for t in traced:
        for k, (begin, end) in enumerate(zip(t.clock.starts, t.clock.ends)):
            marks.append(begin[:2] + end[:2])
            if k < wl.warmup:
                continue
            delta = {key: v - begin[2].get(key, 0.0)
                     for key, v in end[2].items()}
            per_epoch.append(spans.epoch_metrics(
                tracer.names, arrays, begin[1], end[1], delta,
                end[0] - begin[0]))
    tracer.save(trace_path, marks, seed=seed)

    metrics = {}
    if per_epoch:
        for key in per_epoch[0]:
            if not key.startswith("_"):
                metrics[key] = statistics.median(e[key] for e in per_epoch)
        # collections come every few epochs, so a median would read 0
        for key in ("runtime.gc_ms", "runtime.gc_collections"):
            metrics[key] = statistics.fmean(e[key] for e in per_epoch)
        built = sum(e["_built"] for e in per_epoch)
        metrics["autodiff.useful_node_ratio"] = (
            sum(e["_useful"] for e in per_epoch) / built if built else 0.0)
        traced_s = [e["_epoch_s"] for e in per_epoch]
        metrics["trace.coverage"] = (sum(e["_phase_s"] for e in per_epoch)
                                     / sum(traced_s))
        plain = summarize_ms([s for t in untraced
                              for s in t.epoch_s(wl.warmup)])
        metrics["run.epoch_ms_p50"] = plain["p50"]
        metrics["run.epoch_ms_p90"] = plain["p90"]
        metrics["run.epochs"] = float(plain["n"])
        metrics["run.calibration_ms"] = _calibration_ms(untraced)
        metrics["trace.epoch_ms_p50"] = statistics.median(traced_s) * 1e3
        metrics["trace.overhead"] = (metrics["trace.epoch_ms_p50"]
                                     / plain["p50"])
        metrics["trace.epochs"] = float(len(per_epoch))
    quality = untraced[0].quality
    if quality:
        for key in ("valid_loss", "solution_err", "time_to_tol_s",
                    "epochs_to_tol"):
            metrics["quality." + key] = float(quality[key])
    info = {"untraced_trials": len(untraced), "traced_trials": len(traced)}
    return untraced + traced, metrics, info


def environment(pinned):
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(build.get(k, "")) for k in
                        ("name", "version", "openblas configuration"))
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, **pinned,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}
