"""Bit-identity fingerprint of the benchmark's training recipes.

    python3 tools/fingerprint.py --workload decay --seeds 1-10

``--workload all`` runs every workload, in name order.  Run from the root
of a checkout.  For each seed it trains one trial of the workload's
perfbench recipe (``perfbench/workloads.py`` and ``bench.run_trial``),
untimed and with one BLAS thread, and prints one line:

- the SHA-256 over the final weights and biases of every network and the
  train and validation loss histories;
- the graph size per epoch: the autodiff nodes built, plus the steps run
  by replays (``fit`` records a step's program once, from its graphs on 2
  and 3 rows, and replays it, building no node; a replay counts the steps
  left after ``autodiff._instantiate``'s rewrites, so no leaf and no
  folded, aliased or shared node);
- the final validation loss;
- the first epoch whose validation loss is below the workload's ``tol``
  (the trial's epoch count if none is), as the benchmark counts it.

Two checkouts that train bit for bit alike print the same lines, but for
nodes/epoch, a cost that a change to how graphs are built moves.

``--expect FILE`` compares each printed line with FILE's line for the same
workload and seed (``tools/fingerprints.txt`` holds the references; lines
starting with ``#`` are comments): its sha256, valid_loss and
epochs_to_tol, not nodes/epoch.  On any difference, or a seed FILE has no
line for, it prints the expected and the printed line of each and exits 1.
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


def identity(line):
    """A printed line's fields that bit-identical training keeps: all but
    nodes/epoch."""
    return [f for f in line.split() if not f.startswith("nodes/epoch=")]


def expected_lines(file):
    """{(workload, "seed=N"): line} of a file of printed lines."""
    lines = [line.strip() for line in file]
    return {tuple(line.split()[:2]): line for line in lines
            if line and not line.startswith("#")}


def main(argv=None):
    p = argparse.ArgumentParser(prog="tools/fingerprint.py")
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seeds", type=parse_seeds, default=[1])
    p.add_argument("--expect", type=argparse.FileType("r"), metavar="FILE")
    args = p.parse_args(argv)
    expected = expected_lines(args.expect) if args.expect else None
    differing = []
    for wl in workloads(args.workload):
        for seed in args.seeds:
            f = fingerprint(wl, seed)
            line = (f"{wl.name} seed={seed} sha256={f['sha256']} "
                    f"nodes/epoch={f['nodes_per_epoch']:g} "
                    f"valid_loss={f['valid_loss']!r} "
                    f"epochs_to_tol={f['epochs_to_tol']}")
            print(line, flush=True)
            if expected is not None:
                want = expected.get((wl.name, f"seed={seed}"))
                if want is None or identity(want) != identity(line):
                    differing.append((want, line))
    for want, line in differing:
        print(f"expected: {want or 'no line'}\nprinted:  {line}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
