"""One cold set-up of a workload, or a bare numpy import, in a fresh
interpreter.

    python3 perfbench/coldstart.py <workload> <seed>
    python3 perfbench/coldstart.py

``bench.cold_setups`` starts this script several times per run, both ways
in turn.  It pins BLAS threads and malloc as ``run.py`` does (``pin.py``).
With a workload it imports neurodiff, builds the preset and state and
trains the warm-up epochs; without one it only imports numpy.  It then
prints the ``time.perf_counter`` reading (CLOCK_MONOTONIC, so the parent
can compare it with its own) at which the first timed epoch would start,
or at which numpy is imported.
"""

import os
import sys
import time

import pin

pin.pin()  # before numpy is imported, as in run.py

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    if not argv:
        import numpy  # noqa: F401
        print(repr(time.perf_counter()), flush=True)
        return 0
    import dataclasses

    import bench
    from workloads import WORKLOADS

    wl = WORKLOADS[argv[0]]
    warm = dataclasses.replace(wl, epochs=wl.warmup)
    trial = bench.run_trial(warm, int(argv[1]), deadline=0.0, protected=True)
    if trial.error or trial.epochs < wl.warmup:
        print(f"coldstart: {trial.error}", file=sys.stderr)
        return 1
    print(repr(trial.warm_at(wl.warmup)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
