"""Training engine: fit loop, bundle solving, and the inverse-problem fit.

One network per unknown function; trial solutions are built through the
condition reparameterizations so constraints hold exactly at every epoch,
including epoch 0.  A training step (trial solutions, forward tangents,
reverse gradient) is one graph of numpy ops.  ``fit`` records it once per
key and replays it on later batches with no node built and bit-identical
results (``_chunk_loss``), so a residual or condition must build batch-
dependent values with graph ops: recording refuses an
``ad.constant(x.value)`` made from data, which would be frozen into the
program (``ad._record``).  Validation, whose batch is the same every epoch,
is recorded together with that batch, so its batch-only steps run once.
A recording replays only for the residual, conditions, networks and layout
it was made from; other ones record again.
``Solution`` and ``fit_inverse`` build a fresh graph each call.

A ``SolverState`` keeps its networks' parameters in one vector: every
weight and bias array is a view into it, and the optimizer updates the
whole vector with one set of ufunc calls per step (``_optimizer_step``).
Every epoch starts as a resumed ``fit`` does, rebinding a replaced network
or parameter array as a view of the vector (``_bind_parameters``), so a
callback may change anything on the state but the parameter shapes.
"""

import ctypes
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses as losses_mod
from .generators import _is_integer, is_seed, make_rng, rekey
from .network import MLP, MLPSpec


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch, batch, kind, value):
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch} "
            f"(loss kind {kind!r}, value {value})"
        )
        self.epoch, self.batch, self.kind = epoch, batch, kind


@dataclass
class Problem:
    """Residual definition plus its sampling domain.

    ``residual(u, coords)`` receives the trial-solution nodes (one per
    unknown) and the coordinate variable nodes, and returns a sequence of
    N x 1 residual nodes, one per equation.  Bundle problems take a third
    ``params`` argument with the sampled parameter columns.
    """

    residual: object
    n_unknowns: int
    coord_names: tuple
    train_generator: object
    valid_generator: object


def _check_setting(owner, name, value, ok, what):
    """Raise ValueError naming ``owner.name`` unless ``value`` is a real
    number for which ``ok`` holds."""
    if not (isinstance(value, numbers.Real) and ok(value)):
        raise ValueError(f"{owner}: {name} must be {what}, got {value!r}")


def _positive(x):
    return math.isfinite(x) and x > 0


@dataclass(frozen=True)
class Adam:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("lr", "eps"):
            _check_setting("Adam", name, getattr(self, name), _positive,
                           "finite and above 0")
        for name in ("beta1", "beta2"):
            _check_setting("Adam", name, getattr(self, name),
                           lambda b: 0 <= b < 1, "in [0, 1)")


@dataclass(frozen=True)
class SGD:
    lr: float = 1e-3
    momentum: float = 0.0

    def __post_init__(self):
        _check_setting("SGD", "lr", self.lr, _positive, "finite and above 0")
        _check_setting("SGD", "momentum", self.momentum,
                       lambda m: math.isfinite(m) and m >= 0,
                       "finite and at least 0")


_DTYPES = {"f64": np.float64, "f32": np.float32}


@dataclass
class SolverConfig:
    networks: list = None  # one MLPSpec per unknown; None -> default [32, 32]
    conditions: list = None
    optimizer: object = field(default_factory=Adam)
    loss: losses_mod.LossSpec = field(default_factory=losses_mod.LossSpec)
    epochs: int = 1000
    batches_per_epoch: int = 1
    accumulation_passes: int = 1
    seed: int = 0
    precision: str = "f64"  # "f32" trains the networks in single precision

    def __post_init__(self):
        if self.precision not in _DTYPES:
            raise ValueError(f"unknown precision {self.precision!r}, "
                             "expected 'f32' or 'f64'")
        for name, least in (("epochs", 0), ("batches_per_epoch", 1),
                            ("accumulation_passes", 1)):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value!r}")
        if not is_seed(self.seed):
            raise ValueError("seed must be an integer in [0, 2**64), "
                             f"got {self.seed!r}")


@dataclass(frozen=True)
class BundleLayout:
    """Named ranges for initial-condition and equation parameters.

    ``sampling`` is "uniform" or "arcsine"; arcsine draws from a Beta(1/2,
    1/2) over each range, which keeps full coverage while concentrating
    samples near the range endpoints where a trained family is evaluated
    hardest.
    """

    theta_ic: dict = field(default_factory=dict)
    theta_eq: dict = field(default_factory=dict)
    sampling: str = "uniform"

    def __post_init__(self):
        if self.sampling not in ("uniform", "arcsine"):
            raise ValueError(f"unknown sampling {self.sampling!r}")

    def names(self):
        return list(self.theta_ic) + list(self.theta_eq)

    def ranges(self):
        return {**self.theta_ic, **self.theta_eq}


class SolverState:
    """What a fit trains and keeps between epochs and across resumed fits.

    The networks' parameters live in one contiguous vector in the networks'
    dtype, network by network in ``_param_arrays`` order (W0, b0, W1, ...):
    every ``net.weights[k]`` and ``net.biases[k]`` is a view into it, and
    the optimizer moments are one vector each (Adam's m and v, SGD's v).
    A parameter array rebound since, as by a network replaced with
    ``MLP.load``, is copied into the vector when a ``fit`` epoch starts
    (``_bind_parameters``).
    """

    def __init__(self, problem, config, layout=None):
        self.problem = problem
        self.config = config
        self.layout = layout
        self.epoch = 0
        self.train_history = []
        self.valid_history = []
        self.metrics = []
        self.loss_spec = config.loss
        self.lr = config.optimizer.lr
        self.train_generator = problem.train_generator
        self.valid_generator = problem.valid_generator
        self.stop_requested = False
        self.best_updated = False
        self.best_loss = math.inf
        self.best_epoch = -1
        self.best_networks = None

        n_coords = len(problem.coord_names)
        n_theta = len(layout.names()) if layout else 0
        input_dim = n_coords + n_theta
        specs = config.networks
        if specs is None:
            specs = [MLPSpec(input_dim, (32, 32), 1, "tanh", config.seed + i)
                     for i in range(problem.n_unknowns)]
        if len(specs) != problem.n_unknowns:
            raise ValueError("one network spec per unknown is required")
        conds = config.conditions
        n_conds = None if conds is None else len(conds)
        if n_conds != problem.n_unknowns:
            raise ValueError("one condition per unknown is required, got "
                             f"{n_conds} for {problem.n_unknowns} unknown(s)")
        for s in specs:
            # conditions may feed a network a subset of the coordinates
            # (e.g. only the radius of a harmonic expansion), never more
            if s.input_dim > input_dim:
                raise ValueError(
                    f"network input_dim {s.input_dim} exceeds "
                    f"{n_coords} coordinates + {n_theta} bundle parameters"
                )
        self.networks = [MLP.init(s) for s in specs]
        self.conditions = list(config.conditions)
        shapes = [a.shape for _, _, a in _parameters(self)]
        self._params = np.empty(sum(math.prod(s) for s in shapes),
                                _DTYPES[config.precision])
        # the views every parameter array must be, in vector order
        self._views, start = [], 0
        for shape in shapes:
            stop = start + math.prod(shape)
            self._views.append(self._params[start:stop].reshape(shape))
            start = stop
        _bind_parameters(self)
        # Adam's (m, v) or SGD's (v,)
        n = 2 if isinstance(config.optimizer, Adam) else 1
        self._moments = tuple(np.zeros_like(self._params) for _ in range(n))
        self._steps = 0  # Adam steps taken


def _make_net_fn(mlp, pnodes, theta_cols):
    """The raw network on the given columns and the bundle-parameter ones.
    The one place a one-row column is repeated to the others' rows."""
    def net_fn(*cols):
        cols = list(cols) + list(theta_cols)
        n = max(c.shape[0] for c in cols)
        return mlp.forward(ad.concat_cols(
            [c if c.shape[0] == n else ad.broadcast_to(c, (n, 1))
             for c in cols]), pnodes)
    return net_fn


def _trial_solutions(model, columns, pnodes=None):
    """Trial solutions of a SolverState's or Solution's networks on a batch.

    ``columns`` are the coordinate columns, then one column per bundle
    parameter in layout order.  Each becomes a variable in the networks'
    dtype, the one place where data meets the chosen precision; a one-row
    column stays one row (see ``_make_net_fn``).  ``pnodes`` holds each
    network's parameter nodes (frozen ones when omitted).  Returns the trial
    solutions, the variables made from ``columns``, and the bundle-parameter
    columns by name (None without a layout).
    """
    dtype = model.networks[0].weights[0].dtype
    cols = [ad.variable(np.asarray(c, dtype=dtype)) for c in columns]
    names = model.layout.names() if model.layout else []
    split = len(cols) - len(names)
    coords, theta_cols = cols[:split], cols[split:]
    params = dict(zip(names, theta_cols)) if model.layout else None
    if pnodes is None:
        pnodes = [net.param_nodes(requires_grad=False)
                  for net in model.networks]
    u = [cond.reparameterize(coords, _make_net_fn(net, p, theta_cols),
                             params=params)
         for net, cond, p in zip(model.networks, model.conditions, pnodes)]
    return u, cols, params


def _build_loss(state, columns, pnodes=None):
    """The loss node of one batch, given as its columns, and the variables
    made from them (see ``_trial_solutions``)."""
    problem = state.problem
    u, leaves, params = _trial_solutions(state, columns, pnodes)
    coord_nodes = leaves[:len(problem.coord_names)]
    if state.layout:
        res = problem.residual(u, coord_nodes, params)
    else:
        res = problem.residual(u, coord_nodes)
    residuals = ad.concat_cols(res)
    return (losses_mod.loss(state.loss_spec, residuals, coords=coord_nodes),
            leaves)


def _param_arrays(state):
    return [a for net in state.networks for a in net.param_arrays()]


def _parameters(state):
    """(list, index, array) for each network parameter in vector order:
    W0, b0, W1, ..., network by network."""
    return [(arrays, k, arrays[k]) for net in state.networks
            for k in range(len(net.weights))
            for arrays in (net.weights, net.biases)]


def _bind_parameters(state):
    """Make every network parameter array the state's view of its place in
    the parameter vector: an array that is not (a network or an array
    replaced since the state was made, e.g. a warm start from
    ``MLP.load``) is copied into the vector, in its dtype, and rebound.
    Raises ValueError naming the epoch after ``state.epoch``, changing
    nothing, if the parameters' shapes are not the state's."""
    found = _parameters(state)
    shapes = [a.shape for _, _, a in found]
    if shapes != [v.shape for v in state._views]:
        raise ValueError(f"epoch {state.epoch + 1}: the networks' parameter "
                         f"shapes {shapes} are not the state's "
                         f"{[v.shape for v in state._views]}")
    for (arrays, k, a), view in zip(found, state._views):
        if a is not view:
            view[...] = a
            arrays[k] = view


def _chunk_loss(state, chunk, programs, train):
    """The loss value of one chunk and, when training, its parameter
    gradients as arrays.  The first chunk of each key (what shapes the
    graph: training or not, chunk shape, loss spec, dtype) builds the graph
    and records it in ``programs``; later ones replay the recording.  Both
    take the chunk's columns cast once to the networks' dtype.

    A recording bakes in the residual, the conditions, the networks and the
    layout it was made from, so it replays only while the state has those
    very objects (by identity, as a field may hold an array; the entry
    keeps them, so no id is reused); other ones record again.  Validation
    records with its columns kept in the program, so every step that reads
    only the batch runs once, at recording (``ad._record``'s
    ``fixed_data``): it replays only while a new batch has the recorded
    batch's bytes, too."""
    dtype = state.networks[0].weights[0].dtype
    cols = [np.asarray(chunk[:, d:d + 1], dtype=dtype)
            for d in range(chunk.shape[1])]
    key = (train, chunk.shape, state.loss_spec, dtype)
    made_from = [state.problem.residual, state.layout, *state.conditions,
                 *state.networks]
    data = None if train else np.asarray(chunk, dtype=dtype).tobytes()
    program, recorded_from, recorded_data = programs.get(key, (None, (), None))
    if (program is not None and recorded_data == data
            and list(map(id, recorded_from)) == list(map(id, made_from))):
        inputs = (cols if train else []) + _param_arrays(state)
        loss, *grads = ad._replay(program, inputs)
        return float(loss), grads
    pnodes = [net.param_nodes(requires_grad=train) for net in state.networks]
    flat = [p for nodes in pnodes for p in nodes]
    loss, leaves = _build_loss(state, cols, pnodes)
    grads = ad.backward(loss, flat) if train else []
    inputs = (leaves if train else []) + flat
    programs[key] = (ad._record([loss, *grads], inputs, not train), made_from,
                     data)
    return float(loss.value), [g.value for g in grads]


def _sample_batch(state, rng, generator):
    """Coordinate batch, with bundle-parameter columns appended."""
    pts = generator.sample(rng)
    if state.layout:
        cols = [pts]
        for name, (lo, hi) in state.layout.ranges().items():
            if state.layout.sampling == "arcsine":
                u = rng.beta(0.5, 0.5, size=(pts.shape[0], 1))
            else:
                u = rng.uniform(size=(pts.shape[0], 1))
            cols.append(lo + (hi - lo) * u)
        pts = np.hstack(cols)
    return pts


def _optimizer_step(state, grads):
    """One optimizer step on whole vectors: ``grads``, one array per
    parameter in ``_param_arrays`` order, are joined once into a vector
    laid out as the parameter vector, and the update is written into the
    moment vectors and the parameter vector, so into every network's
    parameter arrays, its views.  Every expression is elementwise with the
    same scalars as a per-array step, so the bits are the same.  No array
    of ``grads`` may alias a parameter or a moment;
    ``ad.accumulate_gradients`` returns fresh ones."""
    opt, p = state.config.optimizer, state._params
    g = np.concatenate([np.ravel(a) for a in grads])
    if isinstance(opt, Adam):
        m, v = state._moments
        state._steps += 1
        c1 = 1 - opt.beta1 ** state._steps
        c2 = 1 - opt.beta2 ** state._steps
        m *= opt.beta1
        m += (1 - opt.beta1) * g
        v *= opt.beta2
        v += (1 - opt.beta2) * g * g
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + opt.eps)
    else:
        (v,) = state._moments
        v *= opt.momentum
        v += g
        p -= state.lr * v


def _train_batch(state, batch, programs=None, index=0):
    """One optimizer step over a batch, accumulated over its
    ``accumulation_passes`` chunks; returns the batch's loss.  A non-finite
    loss raises ``TrainingDiverged`` naming the epoch after ``state.epoch``
    and ``index``, the batch's place in that epoch."""
    programs = {} if programs is None else programs
    passes = state.config.accumulation_passes
    chunks = np.array_split(batch, passes) if passes > 1 else [batch]
    chunks = [c for c in chunks if c.shape[0] > 0]
    train_loss, grads = ad.accumulate_gradients(
        functools.partial(_chunk_loss, state, programs=programs, train=True),
        chunks)
    if not math.isfinite(train_loss):
        raise TrainingDiverged(state.epoch + 1, index, state.loss_spec.kind,
                               train_loss)
    _optimizer_step(state, grads)
    return train_loss


def _validation_loss(state, rng, programs):
    batch = _sample_batch(state, rng, state.valid_generator)
    return _chunk_loss(state, batch, programs, train=False)[0]


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # from glibc's malloc.h


def _keep_freed_heap():
    """Fix glibc's malloc thresholds so memory a step frees stays reusable.

    Every training step frees the arrays it made.  Under glibc's adaptive
    defaults, whether that memory is trimmed off the heap top, and faulted
    back in by the next step, depends on where earlier allocations happen
    to sit: 200 sho-bundle epochs took 7 million minor faults and 1.7x the
    time in one such layout.  With fixed thresholds (mmap 32 MiB, trim
    256 MiB) the memory is kept.  Other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def fit(problem, config, callbacks=(), layout=None, state=None):
    """Train the networks; returns the final SolverState.

    Per epoch: ``batches_per_epoch`` optimizer steps, then one validation
    pass (no gradient step), then the callbacks in registration order.
    Deterministic under a fixed config seed.  The networks train in
    ``config.precision``.  Passing the ``state`` of an earlier fit resumes
    it: ``config.epochs`` more epochs are run, numbered on from
    ``state.epoch`` with the sampling streams of those epochs, so k epochs
    and then n - k resumed ones equal one n-epoch fit bit for bit; the
    state's networks keep their dtype.  The optimizer updates the state's
    parameter vector and its moments in place, so an array taken from
    ``state.networks``, a view of that vector, changes as training goes
    on; ``Solution``, ``state.best_networks`` and checkpoints are copies.
    Every epoch starts as a resumed fit does: a parameter array that is
    not the state's view (a network or an array replaced since, as a warm
    start from ``MLP.load``) is copied into the vector and rebound as its
    view, and parameter shapes other than the state's raise ValueError
    naming the epoch, before its first step (``_bind_parameters``).  So a
    callback may change anything on the state but the parameter shapes,
    and training goes on as a fit resumed after that epoch would.
    The sampling streams are keyed by the config seed and the batch: one
    Philox per call, re-keyed before every training batch and validation
    pass (``generators.rekey``).  Steps after the first of each recording
    key replay it (see the module docstring): residuals must make
    batch-dependent values with graph ops, or recording raises ValueError.
    A recording is replayed only for the residual, conditions, networks
    and layout it was made from, and validation only for the batch bytes
    it was made from; anything else, as a callback's new generator,
    condition or network, records it again (``_chunk_loss``).
    On glibc, fixes the process's malloc thresholds first (see
    ``_keep_freed_heap``).
    """
    _keep_freed_heap()
    if state is None:
        state = SolverState(problem, config, layout)
    programs = {}  # recorded steps, kept for this call only
    rng = make_rng(config.seed)  # re-keyed for every stream below
    first = state.epoch + 1
    for epoch in range(first, first + config.epochs):
        _bind_parameters(state)
        epoch_losses = []
        for b in range(config.batches_per_epoch):
            stream = 2 * (epoch * config.batches_per_epoch + b)
            rekey(rng, config.seed, stream)
            batch = _sample_batch(state, rng, state.train_generator)
            epoch_losses.append(_train_batch(state, batch, programs, b))
        state.epoch = epoch
        train_loss = float(np.mean(epoch_losses))
        valid_loss = _validation_loss(state, rekey(rng, config.seed, 1),
                                      programs)
        if not math.isfinite(valid_loss):
            raise TrainingDiverged(epoch, -1, state.loss_spec.kind, valid_loss)
        state.train_history.append(train_loss)
        state.valid_history.append(valid_loss)
        state.best_updated = valid_loss < state.best_loss
        if state.best_updated:
            state.best_loss = valid_loss
            state.best_epoch = epoch
            state.best_networks = [n.copy() for n in state.networks]
        state.metrics.append({
            "epoch": epoch,
            "train_loss": train_loss,
            "valid_loss": valid_loss,
            "loss_kind": state.loss_spec.kind,
            "lr": state.lr,
        })
        for cb in callbacks:
            if cb.condition.evaluate(state):
                for action in cb.actions:
                    action.apply(state)
        if state.stop_requested:
            break
    return state


class Solution:
    """Frozen, vectorized, side-effect-free view of the trained solution,
    evaluated in its networks' dtype."""

    def __init__(self, networks, conditions, coord_names, layout=None):
        self.networks = [n.copy() for n in networks]
        self.conditions = list(conditions)
        self.coord_names = tuple(coord_names)
        self.layout = layout

    def __call__(self, *arrays, **named):
        """Evaluate at coordinate arrays (bundle parameters may be passed as
        extra positional arrays/scalars or by name)."""
        theta_names = self.layout.names() if self.layout else []
        expected = len(self.coord_names) + len(theta_names)
        args = list(arrays)
        if named:
            if len(args) < len(self.coord_names):
                missing = list(self.coord_names[len(args):])
                raise ValueError(f"missing coordinates {missing}")
            for name in theta_names[len(args) - len(self.coord_names):]:
                if name in named:
                    args.append(named.pop(name))
            if named:
                raise ValueError(f"unknown parameters {sorted(named)}")
        if len(args) != expected:
            raise ValueError(
                f"expected {expected} inputs "
                f"({len(self.coord_names)} coordinates + "
                f"{len(theta_names)} parameters), got {len(args)}"
            )
        u, _, _ = _trial_solutions(self, [np.reshape(a, (-1, 1))
                                          for a in args])
        outs = [ui.value.reshape(-1).copy() for ui in u]
        return outs[0] if len(outs) == 1 else outs


def get_solution(state, strategy="best"):
    if strategy not in ("best", "latest"):
        raise ValueError(f"unknown strategy {strategy!r}")
    best = state.best_networks if strategy == "best" else None
    return Solution(best or state.networks, state.conditions,
                    state.problem.coord_names, state.layout)


def fit_inverse(solution, data, init_theta, steps=500, lr=0.05):
    """Recover bundle parameters from observations by gradient descent.

    ``data`` is a sequence of (coords, value) pairs (coords a tuple for
    multi-coordinate problems).  Network weights stay frozen; only the
    parameter inputs move, and the result is clipped to the layout ranges.
    ``steps``, the number of gradient steps, must be an integer >= 0, and
    ``lr``, the step size, a finite number above 0.
    """
    if not (_is_integer(steps) and steps >= 0):
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    _check_setting("fit_inverse", "lr", lr, _positive, "finite and above 0")
    data = list(data)
    if not data:
        raise ValueError("fit_inverse needs at least one observation")
    if solution.layout is None:
        raise ValueError("solution has no bundle parameters to fit")
    names = solution.layout.names()
    ranges = solution.layout.ranges()
    for name in init_theta:
        if name not in ranges:
            raise ValueError(f"unknown parameter {name!r}")
    missing = [k for k in names if k not in init_theta]
    if missing:
        raise ValueError(f"missing parameters {missing}")
    theta = {k: float(init_theta[k]) for k in names}

    rows = [([d[0]] if np.isscalar(d[0]) else list(d[0])) for d in data]
    coords = np.array(rows, dtype=float)
    values = np.array([d[1] for d in data], dtype=float).reshape(-1, 1)
    coord_cols = [coords[:, d:d + 1]
                  for d in range(len(solution.coord_names))]

    for _ in range(steps):
        preds, leaves, _ = _trial_solutions(
            solution, coord_cols + [np.full((1, 1), theta[k]) for k in names])
        # observations are of the first unknown
        loss = ad.reduce_mean((preds[0] - values) ** 2)
        grads = ad.backward(loss, leaves[len(coord_cols):])
        for k, g in zip(names, grads):
            lo, hi = ranges[k]
            theta[k] = float(np.clip(theta[k] - lr * g.value.item(), lo, hi))
    return theta
