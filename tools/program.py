"""Print the recorded programs of a benchmark workload's first epoch.

    python3 tools/program.py --workload decay

Run from the root of a checkout.  It trains one epoch of the workload's
perfbench recipe (``perfbench/workloads.py`` and ``bench.run_trial``) with
one BLAS thread and prints each program that ``fit`` records: the training
step's, then the validation pass's.  For each program it prints the number
of recorded steps and the count left after each of ``autodiff._record``'s
rewrites that removes steps, the counts of the two that rewrite a step in
place (``outer``, with how many of its matmuls run as ``repeat`` because
their left operand is a kept column of ones, and ``into``), the kept arrays
and their bytes, the step count by result shape (most frequent first), and
then one line per step: result slot, op, argument slots, the argument slot
the result is written into (``into``, for a step the ``into`` rewrite
changed), result shape and dtype.
"""

import argparse
import collections
import dataclasses
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import pin  # noqa: E402

pin.pin()  # one BLAS thread; before numpy is imported

import bench  # noqa: E402
from neurodiff import autodiff as ad  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def recorded_programs(wl, seed):
    """[(kind, program)] in recording order for one epoch of ``wl``."""
    programs = []
    record = ad._record

    def keeping(outputs, inputs, fixed_data=False):
        program = record(outputs, inputs, fixed_data)
        programs.append(("validation" if fixed_data else "training", program))
        return program

    ad._record = keeping
    try:
        trial = bench.run_trial(dataclasses.replace(wl, epochs=1), seed,
                                deadline=math.inf, protected=True)
    finally:
        ad._record = record
    if trial.error:
        raise RuntimeError(f"{wl.name} seed {seed}: {trial.error}")
    return programs


# the rewrites that change a step rather than remove it
IN_PLACE = {"outer": "matmuls run as products",
            "into": "steps write into a dying argument"}


def describe(kind, program):
    """The lines that print one program."""
    counts = program.rewrites
    left = counts["recorded"]
    lines = [f"{kind} program: {left} recorded steps"]
    for name in ad._REWRITES:
        if name in IN_PLACE:
            rows = (f" ({counts['repeat']} as repeated rows)"
                    if name == "outer" else "")
            lines.append(f"  {name}: {counts[name]} {IN_PLACE[name]}{rows}")
            continue
        left -= counts[name]
        lines.append(f"  {name}: -{counts[name]} -> {left}")
    kept = [v for v in program.slots if v is not None]
    lines.append(f"  {len(program.steps)} steps, {len(kept)} kept arrays "
                 f"({sum(v.nbytes for v in kept)} bytes), "
                 f"outputs {list(program.outputs)}")
    shapes = collections.Counter(step.shape for step in program.steps)
    lines.append("  shapes: " + ", ".join(
        f"{shape} \u00d7{count}" for shape, count in shapes.most_common()))
    for step in program.steps:
        args, into = step.args, ""
        if len(args) > ad._INTO.get(step.op, len(args)):
            args, into = args[:-1], f" into {args[-1]}"
        lines.append(f"  {step.out:5d} = {step.op}({', '.join(map(str, args))})"
                     f"{into} {step.shape} {step.dtype}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(prog="tools/program.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    print(f"{wl.name} seed={args.seed} epoch 1")
    for kind, program in recorded_programs(wl, args.seed):
        print("\n".join(describe(kind, program)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
