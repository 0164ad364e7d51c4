"""Bit-identity fingerprint of the benchmark's training recipes.

    python3 tools/fingerprint.py --workload decay --seeds 1-10

``--workload all`` runs every workload, in name order.  Run from the root
of a checkout.  For each seed it trains one trial of the workload's
perfbench recipe (``perfbench/workloads.py`` and ``bench.run_trial``),
untimed and with one BLAS thread, and prints one line:

- the SHA-256 over the final weights and biases of every network and the
  train and validation loss histories;
- the graph size per epoch: the autodiff nodes built, plus the steps run
  by replays (``fit`` records a step's graph once and replays it as a
  program that builds no node; a replay counts the steps left after
  ``autodiff._record``'s rewrites, so no leaf and no folded, aliased or
  shared node);
- the final validation loss;
- the first epoch whose validation loss is below the workload's ``tol``
  (the trial's epoch count if none is), as the benchmark counts it.

Two checkouts that train bit for bit alike print the same lines.
"""

import argparse
import hashlib
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import pin  # noqa: E402

pin.pin()  # one BLAS thread; before numpy is imported

import numpy as np  # noqa: E402

import bench  # noqa: E402
from neurodiff import autodiff as ad  # noqa: E402
from program import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text):
    """``"3"`` or an inclusive range ``"1-10"``."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"not a seed or seed range: {text!r}")
    return seeds


def fingerprint(wl, seed):
    first_id = ad._id_counter[0]
    replayed_ops = [0]
    replay = ad._replay

    def counting_replay(program, values):
        replayed_ops[0] += len(program.steps)
        return replay(program, values)

    ad._replay = counting_replay
    try:
        trial = bench.run_trial(wl, seed, deadline=math.inf, protected=True)
    finally:
        ad._replay = replay
    if trial.error:
        raise RuntimeError(f"{wl.name} seed {seed}: {trial.error}")
    state = trial.state
    epochs = len(state.valid_history)
    digest = hashlib.sha256()
    for net in state.networks:
        for a in net.weights + net.biases:
            digest.update(np.ascontiguousarray(a).tobytes())
    digest.update(np.asarray(state.train_history).tobytes())
    digest.update(np.asarray(state.valid_history).tobytes())
    crossed = [i for i, v in enumerate(state.valid_history) if v < wl.tol]
    return {
        "sha256": digest.hexdigest(),
        "nodes_per_epoch":
            (ad._id_counter[0] - first_id + replayed_ops[0]) / epochs,
        "valid_loss": state.valid_history[-1],
        "epochs_to_tol": crossed[0] + 1 if crossed else epochs,
    }


def main(argv=None):
    p = argparse.ArgumentParser(prog="tools/fingerprint.py")
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seeds", type=parse_seeds, default=[1])
    args = p.parse_args(argv)
    for wl in workloads(args.workload):
        for seed in args.seeds:
            f = fingerprint(wl, seed)
            print(f"{wl.name} seed={seed} sha256={f['sha256']} "
                  f"nodes/epoch={f['nodes_per_epoch']:g} "
                  f"valid_loss={f['valid_loss']!r} "
                  f"epochs_to_tol={f['epochs_to_tol']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
