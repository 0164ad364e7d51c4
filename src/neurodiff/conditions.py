"""Initial/boundary conditions enforced exactly by reparameterization.

Each condition turns a raw network output into a trial solution that
satisfies the constraint identically for *every* parameter setting of the
network, so the training loss never has to pay for boundary mismatch.

``reparameterize(coords, net_fn)`` receives the coordinate variable nodes
(N x 1, or 1 x 1 for a coordinate fixed across the batch) and a closure
``net_fn(*cols)`` running the raw network.  A boundary value or slope of
the network is taken on a one-row column (``_boundary``), so a hand-written
``net_fn`` must accept one-row columns.  The solver's closure repeats such a
column against the N-row bundle-parameter columns it appends: with a bundle
layout each parameter row gets its own boundary term, and without one the
term stays one row and pointwise ops broadcast it.

Condition constants may be given as bundle-parameter names (strings); they
are then resolved against the sampled parameter columns at build time.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .generators import _check_count, _is_integer


def _resolve(value, params):
    """A bundle-parameter name becomes its sampled column; a node stays as it
    is, and a number stays a number, taking the dtype of the node it meets."""
    if isinstance(value, str):
        if params is None or value not in params:
            raise ValueError(f"unknown bundle parameter {value!r}")
        return params[value]
    if isinstance(value, ad.Node):
        return value
    return float(value)


def _boundary(net_fn, x0, like):
    """Value and slope of the network's first output at the point x0, made a
    1 x 1 variable in ``like``'s dtype."""
    xb = ad.variable(np.full((1, 1), x0, dtype=like.value.dtype))
    nb = ad.column(net_fn(xb), 0)
    return nb, ad.diff(nb, xb)


def _check_finite(cond, *names):
    """Raise ValueError unless each named field of ``cond`` is a finite
    real number: a NaN or infinite origin, end or rate would make the trial
    solution NaN or drop the constraint it should hold exactly."""
    for name in names:
        value = getattr(cond, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValueError(f"{type(cond).__name__} requires a finite "
                             f"{name}, got {value!r}")


def _check_arity(cond, coords, expected):
    if len(coords) != expected:
        raise ValueError(
            f"{type(cond).__name__} expects {expected} coordinate(s), "
            f"got {len(coords)}"
        )


@dataclass(frozen=True)
class NoCondition:
    def reparameterize(self, coords, net_fn, params=None):
        return net_fn(*coords)


class _Initial:
    """A condition at the start t0 of the time interval."""

    def __post_init__(self):
        _check_finite(self, "t0")


@dataclass(frozen=True)
class IVP1(_Initial):
    t0: float
    u0: object

    def reparameterize(self, coords, net_fn, params=None):
        _check_arity(self, coords, 1)
        t = coords[0]
        u0 = _resolve(self.u0, params)
        tau = t - self.t0
        return u0 + (1.0 - ad.exp(-tau)) * net_fn(t)


@dataclass(frozen=True)
class IVP2(_Initial):
    t0: float
    u0: object
    du0: object

    def reparameterize(self, coords, net_fn, params=None):
        _check_arity(self, coords, 1)
        t = coords[0]
        u0 = _resolve(self.u0, params)
        du0 = _resolve(self.du0, params)
        tau = t - self.t0
        # squared damping keeps the derivative constraint untouched
        return u0 + du0 * tau + (1.0 - ad.exp(-tau)) ** 2 * net_fn(t)


class _TwoPoint:
    """A condition at the two ends x0 < x1 of an interval."""

    def __post_init__(self):
        _check_finite(self, "x0", "x1")
        if not self.x0 < self.x1:
            raise ValueError(f"{type(self).__name__} requires x0 < x1")


@dataclass(frozen=True)
class DirichletBVP1D(_TwoPoint):
    x0: float
    u0: object
    x1: float
    u1: object

    def reparameterize(self, coords, net_fn, params=None):
        _check_arity(self, coords, 1)
        x = coords[0]
        u0 = _resolve(self.u0, params)
        u1 = _resolve(self.u1, params)
        xt = (x - self.x0) / (self.x1 - self.x0)
        return (1.0 - xt) * u0 + xt * u1 + xt * (1.0 - xt) * net_fn(x)


@dataclass(frozen=True)
class DirichletNeumann(_TwoPoint):
    """u(x0) = u0 and u'(x1) = du1."""

    x0: float
    u0: object
    x1: float
    du1: object

    def reparameterize(self, coords, net_fn, params=None):
        _check_arity(self, coords, 1)
        x = coords[0]
        u0 = _resolve(self.u0, params)
        du1 = _resolve(self.du1, params)
        length = self.x1 - self.x0
        tau = x - self.x0
        nb, dnb = _boundary(net_fn, self.x1, x)
        return u0 + du1 * tau + tau * (net_fn(x) - nb - length * dnb)


@dataclass(frozen=True)
class NeumannDirichlet(_TwoPoint):
    """u'(x0) = du0 and u(x1) = u1."""

    x0: float
    du0: object
    x1: float
    u1: object

    def reparameterize(self, coords, net_fn, params=None):
        _check_arity(self, coords, 1)
        x = coords[0]
        du0 = _resolve(self.du0, params)
        u1 = _resolve(self.u1, params)
        length = self.x1 - self.x0
        na, dna = _boundary(net_fn, self.x0, x)
        return (u1 + du0 * (x - self.x1)
                + (x - self.x1) * (net_fn(x) - na + length * dna))


@dataclass(frozen=True)
class NeumannNeumann(_TwoPoint):
    """u'(x0) = du0 and u'(x1) = du1 (solution fixed up to a constant,
    pinned here by the raw network value)."""

    x0: float
    du0: object
    x1: float
    du1: object

    def reparameterize(self, coords, net_fn, params=None):
        _check_arity(self, coords, 1)
        x = coords[0]
        du0 = _resolve(self.du0, params)
        du1 = _resolve(self.du1, params)
        length = self.x1 - self.x0
        tau = x - self.x0
        _, dna = _boundary(net_fn, self.x0, x)
        _, dnb = _boundary(net_fn, self.x1, x)
        quad = tau ** 2 / (2.0 * length)
        return (du0 * tau + (du1 - du0) * quad
                + net_fn(x) - tau * dna - quad * (dnb - dna))


@dataclass(frozen=True)
class InfinityBVP:
    """u(r0) = u0 with a prescribed limit u_inf as r -> infinity.

    u0 and u_inf may also be callables of the angular coordinate nodes
    (spherical generalization); the extra coordinates are then passed along
    after r.

    ``decay`` sets the rate of the e^{-decay (r - r0)} envelope on the u0
    and network terms.  The default rate 1 is the standard form; a slower
    rate keeps the network output O(1) when the solution approaches its
    limit algebraically (like -1/r) rather than exponentially.  Any
    positive rate enforces both constraints exactly.
    """

    r0: float
    u0: object
    u_inf: object
    decay: float = 1.0

    def __post_init__(self):
        _check_finite(self, "r0", "decay")
        if self.decay <= 0:
            raise ValueError("InfinityBVP requires decay > 0")

    def reparameterize(self, coords, net_fn, params=None):
        if not coords:
            raise ValueError("InfinityBVP expects at least the radial coordinate")
        r = coords[0]
        angles = coords[1:]
        if callable(self.u0):
            u0 = self.u0(*angles)
        else:
            u0 = _resolve(self.u0, params)
        if callable(self.u_inf):
            u_inf = self.u_inf(*angles)
        else:
            u_inf = _resolve(self.u_inf, params)
        s = r - self.r0
        damp = ad.exp(-self.decay * s)
        gate = ad.tanh(s)
        return gate * u_inf + damp * u0 + gate * damp * net_fn(*coords)


@dataclass(frozen=True)
class BoxIC:
    """u(t=0, x) = f(x) on the unit hypercube with u = 0 on the boundary.

    ``initial_profile`` maps the D spatial coordinate nodes to a node and
    must vanish on the hypercube boundary.  Coordinates are (t, x_1..x_D).
    """

    initial_profile: object
    dim: int

    def __post_init__(self):
        if _is_integer(self.dim) and self.dim < 1:
            raise ValueError(f"BoxIC requires dim >= 1, got dim={self.dim}")
        _check_count("BoxIC", "dim", self.dim)

    def reparameterize(self, coords, net_fn, params=None):
        _check_arity(self, coords, self.dim + 1)
        t = coords[0]
        xs = coords[1:]
        bump = xs[0] * (1.0 - xs[0])
        for xd in xs[1:]:
            bump = bump * (xd * (1.0 - xd))
        return (self.initial_profile(*xs)
                + (1.0 - ad.exp(-t)) * bump * net_fn(*coords))


ALL_VARIANTS = (NoCondition, IVP1, IVP2, DirichletBVP1D, DirichletNeumann,
                NeumannDirichlet, NeumannNeumann, InfinityBVP, BoxIC)
