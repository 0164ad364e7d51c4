"""Median milliseconds per epoch by solver phase for a benchmark workload.

    python3 tools/phases.py --workload decay

Run from the root of a checkout.  It trains one trial of the workload's
perfbench recipe (``perfbench/workloads.py`` and ``bench.run_trial``) with
one BLAS thread, times these solver functions by wrapping them, as
``tools/program.py`` wraps ``autodiff._record``, and credits each call to
the epoch it starts in:

- train sampling: ``_sample_batch`` on the training generator;
- stream keying: ``rekey``, before each training batch and validation pass;
- training replay: ``_chunk_loss`` of a training chunk (its recorded
  program's replay, once the first epoch has recorded it);
- optimizer step: ``_optimizer_step``;
- validation sampling: ``_sample_batch`` on the validation generator;
- validation replay: ``_chunk_loss`` of the validation batch.

It prints each phase's median over the epochs after the workload's warm-up,
then ``other``, the median epoch less those medians (the loss mean,
callbacks, bookkeeping and the wrappers' own cost), and the median epoch.
perfbench's tracer does not see inside replays; this splits an epoch at the
solver's level only.
"""

import argparse
import bisect
import collections
import math
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import pin  # noqa: E402

pin.pin()  # one BLAS thread; before numpy is imported

import bench  # noqa: E402
from neurodiff import solver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PHASES = ("train sampling", "stream keying", "training replay",
          "optimizer step", "validation sampling", "validation replay")


def _sample_phase(state, rng, generator):
    if generator is state.valid_generator:
        return "validation sampling"
    return "train sampling"


def _chunk_phase(state, chunk, programs, train):
    return "training replay" if train else "validation replay"


def _always(phase):
    return lambda *args, **kwargs: phase


WRAPPED = {"_sample_batch": _sample_phase,
           "rekey": _always("stream keying"),
           "_chunk_loss": _chunk_phase,
           "_optimizer_step": _always("optimizer step")}


def timed_trial(wl, seed):
    """One trial of ``wl`` and its timed calls as (phase, start, seconds)."""
    calls = []

    def timing(fn, phase_of):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((phase_of(*args, **kwargs), start,
                              time.perf_counter() - start))
        return timed

    originals = {name: getattr(solver, name) for name in WRAPPED}
    for name, phase_of in WRAPPED.items():
        setattr(solver, name, timing(originals[name], phase_of))
    try:
        trial = bench.run_trial(wl, seed, deadline=math.inf, protected=True)
    finally:
        for name, fn in originals.items():
            setattr(solver, name, fn)
    if trial.error:
        raise RuntimeError(f"{wl.name} seed {seed}: {trial.error}")
    return trial, calls


def phase_medians(wl, trial, calls):
    """{phase: median ms per epoch} over the epochs after ``wl.warmup``,
    with ``other`` and ``epoch``."""
    starts = [s[0] for s in trial.clock.starts[:trial.epochs]]
    per_epoch = collections.defaultdict(lambda: [0.0] * len(starts))
    for phase, start, seconds in calls:
        k = bisect.bisect_right(starts, start) - 1
        per_epoch[phase][k] += seconds * 1e3
    medians = {p: statistics.median(per_epoch[p][wl.warmup:])
               for p in PHASES}
    epoch = statistics.median(s * 1e3 for s in trial.epoch_s(wl.warmup))
    medians["other"] = epoch - sum(medians.values())
    medians["epoch"] = epoch
    return medians


def main(argv=None):
    p = argparse.ArgumentParser(prog="tools/phases.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    trial, calls = timed_trial(wl, args.seed)
    print(f"{wl.name} seed={args.seed}: median ms per epoch over "
          f"{trial.epochs - wl.warmup} epochs after {wl.warmup} warm-up")
    for phase, ms in phase_medians(wl, trial, calls).items():
        print(f"  {phase:<20}{ms:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
