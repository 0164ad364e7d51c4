"""Spans and counters around the public functions of neurodiff's modules.

``Tracer.install`` replaces module functions and class methods with
wrappers that record a span (name, start, end, parent) per call; the
originals come back on ``uninstall``, and no file under ``src/`` changes.
Spans stay in memory as flat arrays and are written out once at exit.
Nodes and their bytes are counted per op kind in a hook on
``Node.__init__``, so a node built by any function is counted.

The functions below the tracer turn recorded spans into per-epoch layer
metrics; they take plain arrays, so tests can feed them synthetic spans.
"""

import gc
import time
from array import array

import numpy as np

from neurodiff import (autodiff, bases, conditions, generators, losses,
                       network, operators, presets, solver)

# op kind (the Node.op string) -> autodiff function that builds that node
OP_FUNCTIONS = {
    "add": "add", "sub": "sub", "mul": "mul", "div": "div", "pow": "power",
    "neg": "neg", "exp": "exp", "ln": "log", "sin": "sin", "cos": "cos",
    "tanh": "tanh", "abs": "absolute", "sum": "reduce_sum",
    "mean": "reduce_mean", "max": "reduce_max", "broadcast": "broadcast_to",
    "matmul": "matmul", "transpose": "transpose", "constant": "constant",
    "variable": "variable",
}
OP_KINDS = tuple(OP_FUNCTIONS)
OPERATOR_FUNCTIONS = ("grad", "div", "curl", "laplacian", "vector_laplacian")
PHASES = ("sample", "trial", "residual", "loss", "param_grad", "optimizer",
          "validation", "other")

SAMPLE_TRAIN = "generators.sample.train"
SAMPLE_VALID = "generators.sample.valid"
ACCUMULATE = "autodiff.accumulate_gradients"
BACKWARD = "autodiff.backward"
REPARAMETERIZE = "conditions.reparameterize"
RESIDUAL = "problem.residual"
LOSS = "losses.loss"
# direct children of accumulate_gradients that name a phase
STEP_PHASES = {REPARAMETERIZE: "trial", RESIDUAL: "residual", LOSS: "loss",
               BACKWARD: "param_grad"}


class Tracer:
    """Records spans and counters while installed.

    ``now`` is the span clock: wall time minus the time the tracer spent on
    its own bookkeeping (the reachability walk), so that bookkeeping shows
    in no span and no epoch.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.paused = 0.0
        self.counters = {}
        self.valid_generator = None
        self.last_node_id = 0
        self._step_start = (0, 0)
        self._patches = []
        self._gc_started = 0.0

    def now(self):
        return time.perf_counter() - self.paused

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(self.now())
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = self.now()
        self.stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

    def _wrap_attr(self, owner, attr, name):
        self._patch(owner, attr, self.wrap(name, vars(owner)[attr]))

    def watch_problem(self, problem):
        """Trace the residual the benchmark built and tell the validation
        generator apart from the training one."""
        problem.residual = self.wrap(RESIDUAL, problem.residual)
        self.valid_generator = problem.valid_generator

    def install(self):
        ad = autodiff
        wrapped_ops = {}
        for kind, fname in OP_FUNCTIONS.items():
            orig = getattr(ad, fname)
            wrapped_ops[orig] = self.wrap("autodiff.op." + kind, orig)
            self._patch(ad, fname, wrapped_ops[orig])
        activations = network._ACTIVATIONS
        for key, fn in list(activations.items()):
            if fn in wrapped_ops:  # bound at import time, so patch the table
                self._patch(activations, key, wrapped_ops[fn])
        self._patch(ad.Node, "__init__",
                    self._node_hook(vars(ad.Node)["__init__"]))
        self._patch(ad, "backward", self._backward_hook(ad.backward))
        self._wrap_attr(ad, "diff", "autodiff.diff")
        self._patch(ad, "accumulate_gradients",
                    self._accumulate_hook(ad.accumulate_gradients))
        self._wrap_attr(network.MLP, "forward", "network.forward")
        for cls in (*conditions.ALL_VARIANTS,
                    presets.HarmonicExpansionCondition):
            self._wrap_attr(cls, "reparameterize", REPARAMETERIZE)
        for cls in _subclasses(generators.Generator):
            if "sample" in vars(cls):
                self._patch(cls, "sample",
                            self._sample_hook(vars(cls)["sample"]))
        for fname in OPERATOR_FUNCTIONS:
            self._wrap_attr(operators, fname, "operators." + fname)
        for cls in (bases.Fourier1D, bases.RealSphericalHarmonics,
                    bases.ZonalHarmonics):
            self._wrap_attr(cls, "evaluate", "bases.evaluate")
        self._wrap_attr(bases, "basis_solution", "bases.basis_solution")
        self._wrap_attr(losses, "loss", LOSS)
        self._wrap_attr(solver, "fit", "solver.fit")
        gc.callbacks.append(self._gc_hook)

    def uninstall(self):
        gc.callbacks.remove(self._gc_hook)
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- hooks ------------------------------------------------------------

    def _node_hook(self, init):
        def traced_init(node, *args, **kwargs):
            init(node, *args, **kwargs)
            self.last_node_id = node._id
            self.add("nodes", 1)
            self.add(f"nodes.{node.op}", 1)
            self.add(f"bytes.{node.op}", node.value.nbytes)
            if node.op == "matmul":
                (m, k), n = node.inputs[0].value.shape, node.value.shape[1]
                self.add("matmul.flops", 2 * m * k * n)
        return traced_init

    def _accumulate_hook(self, accumulate):
        nid = self.name_id(ACCUMULATE)

        def traced(loss_fn, batches):
            def step_loss(batch):
                self._step_start = (self.last_node_id,
                                    self.counters.get("nodes", 0))
                return loss_fn(batch)
            idx = self.open(nid)
            try:
                return accumulate(step_loss, batches)
            finally:
                self.close(idx)
        return traced

    def _backward_hook(self, backward):
        nid = self.name_id(BACKWARD)
        acc = self.name_id(ACCUMULATE)

        def traced(output, wrt):
            parent = self.stack[-1]
            idx = self.open(nid)
            try:
                grads = backward(output, wrt)
            finally:
                self.close(idx)
            if parent >= 0 and self.name[parent] == acc:
                t = time.perf_counter()
                first_id, nodes_before = self._step_start
                self.add("step.useful",
                         reachable_count([output, *grads], first_id))
                self.add("step.built", self.counters["nodes"] - nodes_before)
                self.paused += time.perf_counter() - t
            return grads
        return traced

    def _sample_hook(self, sample):
        train, valid = self.name_id(SAMPLE_TRAIN), self.name_id(SAMPLE_VALID)

        def traced(gen, rng):
            idx = self.open(valid if gen is self.valid_generator else train)
            try:
                return sample(gen, rng)
            finally:
                self.close(idx)
        return traced

    def _gc_hook(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.add("gc.ms", (time.perf_counter() - self._gc_started) * 1e3)
            self.add("gc.collections", 1)

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32))

    def save(self, path, epoch_marks, seed):
        """Spans as arrays (``names[name[i]]`` is span i's name, ``parent``
        -1 at the top) and, per traced epoch, its start time, first span,
        end time and end span."""
        name, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            start=start, end=end, parent=parent,
                            epoch_marks=np.array(epoch_marks, dtype=float),
                            seed=seed)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def reachable_count(roots, after_id):
    """Number of distinct nodes with ``_id > after_id`` reachable from
    ``roots`` through their inputs.  Inputs are always older than the node
    that uses them, so the walk stops at the first node built earlier."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node._id <= after_id or node._id in seen:
            continue
        seen.add(node._id)
        stack.extend(node.inputs)
    return len(seen)


def self_times(start, end, parent):
    """Each span's duration minus the time covered by its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def phase_times(names, name, start, end, parent, lo, hi):
    """Split one epoch's spans ``[lo, hi)`` into the solver phases (seconds).

    Only span boundaries are used.  sample runs from a training
    ``Generator.sample`` to the next ``accumulate_gradients``; inside that
    span the direct children give trial (``reparameterize``), residual,
    loss and param_grad (``backward``), and the rest of it is other;
    optimizer runs from its end to the next ``Generator.sample``; validation
    runs from the validation sample to the end of the epoch's last span.
    """
    out = dict.fromkeys(PHASES, 0.0)
    ids = {n: i for i, n in enumerate(names)}
    # -2 matches no span: a name this run never recorded
    sample_t, sample_v, accumulate = (ids.get(n, -2) for n in
                                      (SAMPLE_TRAIN, SAMPLE_VALID, ACCUMULATE))
    step = {ids[n]: p for n, p in STEP_PHASES.items() if n in ids}
    top = [i for i in range(lo, hi) if parent[i] < lo]
    children = {}
    for i in range(lo, hi):
        if parent[i] >= lo and name[parent[i]] == accumulate:
            children.setdefault(parent[i], []).append(i)
    sample_from = optimizer_from = validation_from = None
    last_end = None
    for i in top:
        kind = name[i]
        last_end = end[i]
        if kind in (sample_t, sample_v) and optimizer_from is not None:
            out["optimizer"] += start[i] - optimizer_from
            optimizer_from = None
        if kind == sample_t:
            sample_from = start[i]
        elif kind == sample_v:
            validation_from = start[i]
        elif kind == accumulate:
            if sample_from is not None:
                out["sample"] += start[i] - sample_from
                sample_from = None
            named = 0.0
            for c in children.get(i, ()):
                if name[c] in step:
                    out[step[name[c]]] += end[c] - start[c]
                    named += end[c] - start[c]
            out["other"] += end[i] - start[i] - named
            optimizer_from = end[i]
    if validation_from is not None:
        out["validation"] = last_end - validation_from
    return out


def epoch_metrics(names, spans, lo, hi, counters, epoch_s):
    """Layer metrics of one traced epoch: spans ``[lo, hi)``, the counter
    deltas over the epoch, and its wall time in seconds."""
    name, start, end, parent, self_t = spans
    ids = {n: i for i, n in enumerate(names)}
    sl = slice(lo, hi)
    count = np.bincount(name[sl], minlength=len(names))
    self_ms = np.bincount(name[sl], weights=self_t[sl],
                          minlength=len(names)) * 1e3
    incl_ms = np.bincount(name[sl], weights=(end - start)[sl],
                          minlength=len(names)) * 1e3

    def calls(n):
        return float(count[ids[n]]) if n in ids else 0.0

    def total(table, n):
        return float(table[ids[n]]) if n in ids else 0.0

    def outermost_ms(prefix):
        inside = np.array([n.startswith(prefix) for n in names], dtype=bool)
        if not inside.any():
            return 0.0
        nm, par = name[sl], parent[sl]
        own = inside[nm]
        nested = (par >= 0) & inside[name[np.maximum(par, 0)]]
        keep = own & ~nested
        return float((end[sl] - start[sl])[keep].sum() * 1e3)

    c = counters
    m = {
        "autodiff.nodes": c.get("nodes", 0.0),
        "autodiff.bytes": sum(v for k, v in c.items()
                              if k.startswith("bytes.")),
        "autodiff.backward_calls": calls(BACKWARD),
        "autodiff.backward_ms": total(incl_ms, BACKWARD),
    }
    for kind in OP_KINDS:
        m[f"autodiff.op.{kind}.nodes"] = c.get(f"nodes.{kind}", 0.0)
        m[f"autodiff.op.{kind}.ms"] = total(self_ms, "autodiff.op." + kind)
        m[f"autodiff.op.{kind}.bytes"] = c.get(f"bytes.{kind}", 0.0)
    m["autodiff.op.matmul.flops"] = c.get("matmul.flops", 0.0)
    m["network.forward_calls"] = calls("network.forward")
    m["network.forward_ms"] = total(incl_ms, "network.forward")
    m["conditions.reparameterize_calls"] = calls(REPARAMETERIZE)
    m["conditions.reparameterize_self_ms"] = total(self_ms, REPARAMETERIZE)
    m["operators.calls"] = float(sum(calls("operators." + f)
                                     for f in OPERATOR_FUNCTIONS))
    m["operators.ms"] = outermost_ms("operators.")
    m["bases.evaluate_ms"] = outermost_ms("bases.")
    m["losses.loss_ms"] = total(incl_ms, LOSS)
    phases = phase_times(names, name, start, end, parent, lo, hi)
    for p in PHASES:
        m[f"solver.phase.{p}_ms"] = float(phases[p]) * 1e3
    m["runtime.gc_ms"] = c.get("gc.ms", 0.0)
    m["runtime.gc_collections"] = c.get("gc.collections", 0.0)
    m["_phase_s"] = float(sum(phases.values()))
    m["_epoch_s"] = epoch_s
    m["_useful"] = c.get("step.useful", 0.0)
    m["_built"] = c.get("step.built", 0.0)
    return m
