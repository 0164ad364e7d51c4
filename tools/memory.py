"""Traced memory of a benchmark workload's first epoch, by recording phase.

    python3 tools/memory.py --workload heat-d3

``--workload all`` runs every workload, in name order.  Run from the root
of a checkout.  It trains one epoch of the workload's perfbench recipe
(``perfbench/workloads.py`` and ``bench.run_trial``) with one BLAS thread
under ``tracemalloc``, which sees numpy's array buffers too.  The first
epoch records each program, from graphs on 2 and 3 of a chunk's rows,
and replays it for the first time.  The tool wraps these functions, as
``tools/phases.py`` wraps its own, and credits each call to the program
whose ``_chunk_loss`` it runs in:

- 2-row and 3-row build: ``solver._build_loss`` of a probe graph (trial
  solutions, residual derivatives and the loss; a reverse sweep a residual
  takes inside it, as ``operators.grad`` does, counts here);
- 2-row and 3-row sweep: ``autodiff.backward`` of the probe's loss
  (training only);
- instantiation: ``autodiff._instantiate``, the program at the chunk's row
  count, with its prologue (the folded steps) run and its function
  compiled (``autodiff._compile``);
- first replay: ``autodiff._replay``.

It prints the epoch's traced peak, then for each recorded program, in
recording order, its peak and the traced memory when its ``_chunk_loss``
began, then one line per phase: how far the phase's peak rose above the
traced memory at the phase's start (``peak``), and what the phase left
allocated (``held``).  All figures are MiB (2**20 bytes).
"""

import argparse
import dataclasses
import math
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import pin  # noqa: E402

pin.pin()  # one BLAS thread; before numpy is imported

import bench  # noqa: E402
from neurodiff import autodiff as ad  # noqa: E402
from neurodiff import solver  # noqa: E402
from program import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIB = 2 ** 20

# (module, function name, phase); a build or sweep is named by its rows
WRAPPED = ((solver, "_build_loss", "build"),
           (ad, "backward", "sweep"),
           (ad, "_instantiate", "instantiation"),
           (ad, "_replay", "first replay"))


class Meter:
    """Per-program phase figures from ``tracemalloc``, whose peak each
    phase resets; ``peak`` keeps the highest traced memory seen."""

    def __init__(self):
        # {kind, start, peak, phases: [(phase, rise, held)]} per recording
        self.programs = []
        self.current = None  # the program of the running _chunk_loss
        self.phase = None  # the running phase, outermost only
        self.rows = None  # the row count of the last probe build
        self.peak = 0

    def reset(self):
        """The traced memory now; the peak so far is kept in ``peak``."""
        now, peak = tracemalloc.get_traced_memory()
        self.peak = max(self.peak, peak)
        tracemalloc.reset_peak()
        return now

    def chunk(self, fn):
        def measured(state, chunk, programs, train):
            self.current = {"kind": "training" if train else "validation",
                            "start": self.reset(), "peak": 0, "phases": []}
            try:
                return fn(state, chunk, programs, train)
            finally:
                # a chunk that recorded its program, not one that replayed
                if any(phase == "instantiation"
                       for phase, _, _ in self.current["phases"]):
                    self.programs.append(self.current)
                self.current = None
        return measured

    def traced(self, fn, phase):
        def measured(*args, **kwargs):
            if self.current is None or self.phase is not None:
                return fn(*args, **kwargs)
            if phase == "build":
                self.rows = len(args[1][0])  # (state, columns, ...)
            name = (f"{self.rows}-row {phase}" if phase in ("build", "sweep")
                    else phase)
            self.phase, start = name, self.reset()
            try:
                return fn(*args, **kwargs)
            finally:
                now, peak = tracemalloc.get_traced_memory()
                self.current["peak"] = max(self.current["peak"], peak)
                self.current["phases"].append((name, peak - start,
                                               now - start))
                self.phase = None
        return measured


def first_epoch(wl, seed):
    """One traced epoch of ``wl``; its ``Meter``."""
    meter = Meter()
    originals = [(module, name, getattr(module, name))
                 for module, name, _ in WRAPPED]
    originals.append((solver, "_chunk_loss", solver._chunk_loss))
    for (module, name, fn), (_, _, phase) in zip(originals, WRAPPED):
        setattr(module, name, meter.traced(fn, phase))
    solver._chunk_loss = meter.chunk(solver._chunk_loss)
    tracemalloc.start()
    try:
        trial = bench.run_trial(dataclasses.replace(wl, epochs=1), seed,
                                deadline=math.inf, protected=True)
        meter.reset()
    finally:
        tracemalloc.stop()
        for module, name, fn in originals:
            setattr(module, name, fn)
    if trial.error:
        raise RuntimeError(f"{wl.name} seed {seed}: {trial.error}")
    return meter


def describe(meter):
    """The lines that print one workload's figures, after its head."""
    lines = [f"  traced peak {meter.peak / MIB:8.2f}"]
    for p in meter.programs:
        lines.append(f"  {p['kind']} program: peak {p['peak'] / MIB:8.2f}, "
                     f"from {p['start'] / MIB:8.2f}")
        for phase, rise, held in p["phases"]:
            lines.append(f"    {phase:<15}peak {rise / MIB:+8.2f}, "
                         f"held {held / MIB:+8.2f}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(prog="tools/memory.py")
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    for wl in workloads(args.workload):
        meter = first_epoch(wl, args.seed)
        print(f"{wl.name} seed={args.seed} epoch 1: traced MiB")
        print("\n".join(describe(meter)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
