"""Print the recorded programs of a benchmark workload's first epoch.

    python3 tools/program.py --workload decay

``--workload all`` prints every workload's, in name order.  Run from the
root of a checkout.  It trains one epoch of the workload's perfbench recipe
(``perfbench/workloads.py`` and ``bench.run_trial``) with one BLAS thread
and prints each program that ``fit`` records (``autodiff._record``, from
graphs on 2 and 3 of the batch's rows), as instantiated at the batch's
row count: the training step's, then the validation pass's.  For each
program it prints the number of recorded steps and the count left after
each of ``autodiff._instantiate``'s rewrites that removes steps, the count
of ``into`` steps (which write into a dying argument) and of the steps the
in-place order moved after their operand's other readers so that they
could (``autodiff._in_place_order``), the kept arrays and
their bytes, the step count by result shape (most frequent first), the size
of the program's generated function (``autodiff._compile``, built when the
program is made: its statements, that is one per step, one per step that
frees a register and one return, and the bytes of its bytecode), and then
one line per step: result slot, op, argument slots, the argument slot the
result is written into (``into``, for a step the ``into`` rewrite
changed), for a matmul the BLAS form its operands take on the program's
first replay (``NN``, ``NT``, ``TN`` or ``TT``, T for a transposed operand;
``K1`` for an inner dimension of 1, one ``einsum``), followed by ``×n``
for a product ``autodiff._matmul`` runs as n row tiles, result shape and
dtype.
"""

import argparse
import ast
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
import numpy as np  # noqa: E402
from neurodiff import autodiff as ad  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def workloads(name):
    """The workloads ``--workload`` names: one, or all four in name order."""
    return ([WORKLOADS[n] for n in sorted(WORKLOADS)] if name == "all"
            else [WORKLOADS[name]])


def recorded_programs(wl, seed):
    """[(kind, program, values of its first replay)] in recording order for
    one epoch of ``wl``."""
    programs, first = [], {}
    record, replay = ad._record, ad._replay

    def keeping(build, rows, data=()):
        program = record(build, rows, data)
        # validation keeps its batch's columns in the program
        programs.append(("validation" if data else "training", program))
        return program

    def replaying(program, values):
        first.setdefault(id(program), list(values))
        return replay(program, values)

    ad._record, ad._replay = keeping, replaying
    try:
        trial = bench.run_trial(dataclasses.replace(wl, epochs=1), seed,
                                deadline=math.inf, protected=True)
    finally:
        ad._record, ad._replay = record, replay
    if trial.error:
        raise RuntimeError(f"{wl.name} seed {seed}: {trial.error}")
    return [(kind, program, first[id(program)]) for kind, program in programs]


def blas_form(a, b):
    """The form of the product ``a @ b``: ``K1`` for an inner dimension of
    1, else N or T for each operand, T for a transposed (F-ordered) one,
    and ``×n`` after it for a product run as n row tiles."""
    if a.shape[1] == 1:
        return "K1"
    form = "".join("T" if v.flags.f_contiguous and not v.flags.c_contiguous
                   else "N" for v in (a, b))
    rows = ad._tile_rows(a, b)
    return form if rows is None else f"{form}\u00d7{-(-a.shape[0] // rows)}"


def matmul_forms(program, values):
    """{step index: BLAS form} of ``program``'s matmul steps, from running
    its steps' kernels one by one on ``values``."""
    regs = dict(enumerate(program.slots))
    regs.update(enumerate(values))
    forms = {}
    with np.errstate(all="ignore"):
        for i, step in enumerate(program.steps):
            args = [regs[a] for a in step.args]
            if step.op == "matmul":
                forms[i] = blas_form(*args)
            regs[step.out] = step.kernel(*args)
    return forms


def describe(kind, program, values):
    """The lines that print one program, first replayed on ``values``."""
    counts = program.rewrites
    left = counts["recorded"]
    lines = [f"{kind} program: {left} recorded steps"]
    for name in ad._REWRITES:
        if name == "into":  # rewrites a step rather than removing it
            lines.append(f"  into: {counts[name]} steps write into a dying "
                         f"argument, {counts['moved']} moved after their "
                         "operand's other readers")
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
    source, _ = ad._source(program)
    (factory,) = ast.parse(source).body
    lines.append(f"  compiled: {len(factory.body[0].body)} statements, "
                 f"{len(program.run.__code__.co_code)} bytes of bytecode")
    forms = matmul_forms(program, values)
    for i, step in enumerate(program.steps):
        args, into = step.args, ""
        if len(args) > ad._INTO.get(step.op, len(args)):
            args, into = args[:-1], f" into {args[-1]}"
        form = f" {forms[i]}" if i in forms else ""
        lines.append(f"  {step.out:5d} = {step.op}({', '.join(map(str, args))})"
                     f"{into}{form} {step.shape} {step.dtype}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(prog="tools/program.py")
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    for wl in workloads(args.workload):
        print(f"{wl.name} seed={args.seed} epoch 1")
        for kind, program, values in recorded_programs(wl, args.seed):
            print("\n".join(describe(kind, program, values)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
