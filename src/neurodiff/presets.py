"""Built-in demonstration problems for the command-line tool.

Each preset bundles a residual, conditions, sampling domain, default
training budget, an analytic (or quadrature) reference where one exists,
and the coordinate grid used for the solution.csv artifact.
"""

import math

import numpy as np

from . import autodiff as ad
from . import bases
from . import operators as ops
from .conditions import IVP1, IVP2, BoxIC, InfinityBVP, _boundary
from .generators import CubeND, Uniform1D
from .network import MLPSpec
from .solver import BundleLayout, Problem


class Preset:
    def __init__(self, name, coord_names, residual, conditions, train_gen,
                 valid_gen, analytic=None, layout=None, epochs=3000,
                 hidden=(32, 32), grid=None, net_output_dims=None,
                 net_input_dims=None, lr=1e-3, batch=512, activation="tanh",
                 batches_per_epoch=1, lr_schedule=()):
        self.name = name
        self.coord_names = coord_names
        self.residual = residual
        self.conditions = conditions
        self.train_gen = train_gen
        self.valid_gen = valid_gen
        self.analytic = analytic
        self.layout = layout
        self.epochs = epochs
        self.hidden = hidden
        self._grid = grid  # () -> coordinate arrays for solution.csv
        self.net_output_dims = net_output_dims or [1] * len(conditions)
        self.net_input_dims = net_input_dims  # None -> all coords (+ theta)
        self.lr = lr
        self.batch = batch
        self.activation = activation
        self.batches_per_epoch = batches_per_epoch
        # (epoch, factor) pairs: after `epoch`, learning rate becomes
        # base_lr * factor; part of the preset's training recipe
        self.lr_schedule = tuple(lr_schedule)

    @property
    def grid(self):
        """The coordinate arrays of the solution.csv grid, built on each
        access: a preset holds no grid arrays between uses."""
        return self._grid()

    def problem(self, batch_size):
        train = self.train_gen(batch_size)
        valid = self.valid_gen(batch_size)
        return Problem(self.residual, len(self.conditions), self.coord_names,
                       train, valid)

    def input_dims(self):
        """The input width of each unknown's network."""
        n_theta = len(self.layout.names()) if self.layout else 0
        default = len(self.coord_names) + n_theta
        return self.net_input_dims or [default] * len(self.net_output_dims)

    def network_specs(self, hidden, activation, seed):
        return [MLPSpec(in_dim, tuple(hidden), out_dim, activation, seed + i)
                for i, (in_dim, out_dim)
                in enumerate(zip(self.input_dims(), self.net_output_dims))]


def _decay():
    def residual(u, coords):
        t, = coords
        return [ad.diff(u[0], t) + u[0]]

    return Preset(
        "decay", ("t",), residual, [IVP1(0.0, 1.0)],
        lambda n: Uniform1D(0.0, 2.0, n, "uniform-random"),
        lambda n: Uniform1D(0.0, 2.0, n, "equally-spaced"),
        analytic=lambda t: np.exp(-t),
        epochs=3000,
        grid=lambda: [np.linspace(0.0, 2.0, 100)],
    )


def _sho():
    def residual(u, coords):
        t, = coords
        return [ad.diff(u[0], t, 2) + u[0]]

    return Preset(
        "sho", ("t",), residual, [IVP2(0.0, 0.0, 1.0)],
        lambda n: Uniform1D(0.0, 2 * np.pi, n, "uniform-random"),
        lambda n: Uniform1D(0.0, 2 * np.pi, n, "equally-spaced"),
        analytic=np.sin,
        epochs=5000,
        grid=lambda: [np.linspace(0.0, 2 * np.pi, 200)],
    )


def _heat(dim):
    k = 1.0 / 100.0

    def residual(u, coords):
        t = coords[0]
        xs = coords[1:]
        return [ad.diff(u[0], t) - k * ad.laplacian(u[0], xs)]

    def profile(*xs):
        p = None
        for x in xs:
            term = ad.sin(math.pi * x)
            p = term if p is None else p * term
        return p

    def analytic(t, *xs):
        decay = np.exp(-dim * math.pi ** 2 * t / 100.0)
        prod = np.ones_like(np.asarray(xs[0], dtype=float))
        for x in xs:
            prod = prod * np.sin(math.pi * np.asarray(x, dtype=float))
        return decay * prod

    def grid():
        # for dim 3, the z = 0.5 slice at t in {0, 0.5, 1}
        pts = np.linspace(0.0, 1.0, 21)
        tt = np.array([0.0, 0.5, 1.0])
        if dim == 1:
            axes = (tt, pts)
        elif dim == 2:
            axes = (tt, pts, pts)
        else:
            axes = (tt, pts, pts, np.array([0.5]))
        return [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]

    coord_names = ("t",) + tuple(f"x{d+1}" for d in range(dim))
    lows = np.zeros(dim + 1)
    highs = np.ones(dim + 1)
    return Preset(
        f"heat", coord_names, residual, [BoxIC(profile, dim)],
        lambda n: CubeND(lows, highs, n),
        lambda n: CubeND(lows, highs, n),
        analytic=analytic,
        epochs=3000,
        batch=1024,
        grid=grid,
    )


def _gravity():
    def residual(u, coords):
        r, = coords
        return [ad.diff(u[0], r) - 1.0 / r ** 2]  # G = M = m = 1

    # slow envelope: -1/r vanishes algebraically, so the unit-rate envelope
    # would force exponentially large network outputs near r = 10
    return Preset(
        "gravity", ("r",), residual, [InfinityBVP(1.0, -1.0, 0.0, decay=0.1)],
        lambda n: Uniform1D(1.0, 10.0, n, "uniform-random"),
        lambda n: Uniform1D(1.0, 10.0, n, "equally-spaced"),
        analytic=lambda r: -1.0 / r,
        epochs=3000,
        grid=lambda: [np.linspace(1.0, 10.0, 100)],
    )


# ---------------------------------------------------------------------------
# Poisson equation for the electric potential of a unit Gaussian charge,
# solved in spherical coordinates with a real-spherical-harmonic expansion.

GAUSSIAN_R0 = 0.1
GAUSSIAN_RMAX = 8.0
GAUSSIAN_DEGREE = 2


def gaussian_density(r):
    return (2 * math.pi) ** -1.5 * np.exp(-np.asarray(r, dtype=float) ** 2 / 2)


def _erf(x):
    return np.vectorize(math.erf)(x)


def gaussian_potential_exact(r):
    r = np.asarray(r, dtype=float)
    return -_erf(r / math.sqrt(2.0)) / (4 * math.pi * r)


def gaussian_potential_quadrature(r, n_nodes=20000):
    """Independent radial-ODE oracle: integrate (r^2 u')' = r^2 rho from the
    enclosed-charge form u'(r) = Q(r) / (4 pi r^2) and the far-field limit."""
    r = np.asarray(r, dtype=float)
    s = np.linspace(0.0, GAUSSIAN_RMAX * 2, n_nodes)
    integrand = gaussian_density(s) * s ** 2 * 4 * math.pi
    q = np.concatenate([[0.0], np.cumsum(
        (integrand[1:] + integrand[:-1]) / 2 * np.diff(s))])
    # u(r) = -Q_total/(4 pi r_far) - int_r^far Q(s)/(4 pi s^2) ds, via u' = Q/(4 pi s^2)
    du = q / (4 * math.pi * np.maximum(s, s[1]) ** 2)
    u_far = -q[-1] / (4 * math.pi * s[-1])
    anti = np.concatenate([[0.0], np.cumsum((du[1:] + du[:-1]) / 2 * np.diff(s))])
    u = u_far - (anti[-1] - anti)
    return np.interp(r, s, u)


class HarmonicExpansionCondition:
    """Trial solution sum_j c_j(r) Y_j(theta, phi) with radial two-point
    constraints per coefficient.

    The l = 0 coefficient carries the physics: a Neumann constraint at the
    inner radius from the enclosed charge and a Dirichlet value at the outer
    radius from the exterior monopole field.  Higher harmonics are pinned to
    zero at both radii.  Azimuthal periodicity is exact by construction.
    The coefficients are one N x K block, c_0 beside c_1..c_{K-1}, summed
    against the basis by ``bases.expand``.
    """

    def __init__(self, basis, r0=GAUSSIAN_R0, rmax=GAUSSIAN_RMAX):
        self.basis = basis
        self.r0 = r0
        self.rmax = rmax
        scale = 2 * math.sqrt(math.pi)  # 1 / Y00
        self.c0_outer = scale * float(gaussian_potential_exact(rmax))
        q_inner = (2 * math.pi) ** -1.5 * 4 * math.pi * (
            math.sqrt(math.pi / 2) * math.erf(r0 / math.sqrt(2))
            - r0 * math.exp(-r0 ** 2 / 2))
        self.dc0_inner = scale * q_inner / (4 * math.pi * r0 ** 2)

    def reparameterize(self, coords, net_fn, params=None):
        r, theta, phi = coords
        raw = net_fn(r)
        na, dna = _boundary(net_fn, self.r0, r)
        length = self.rmax - self.r0
        xt = (r - self.r0) / length
        coeffs = [self.c0_outer + self.dc0_inner * (r - self.rmax)
                  + (r - self.rmax) * (ad.column(raw, 0) - na + length * dna)]
        k = raw.shape[1]
        if k > 1:  # c_1..c_{K-1} as one block, xt (1 - xt) times a view
            coeffs.append(xt * (1.0 - xt) * ad.columns(raw, 1, k))
        return bases.expand(ad.concat_cols(coeffs, order="F"),
                            self.basis.evaluate(theta, phi))


def _poisson_gaussian():
    basis = bases.RealSphericalHarmonics(GAUSSIAN_DEGREE)

    def residual(u, coords):
        lap = ops.laplacian(u[0], coords, "spherical", "fused")
        r = coords[0]
        rho = (2 * math.pi) ** -1.5 * ad.exp(-(r ** 2) / 2.0)
        return [lap - rho]

    eps = 0.1
    lows = np.array([GAUSSIAN_R0, eps, 0.0])
    highs = np.array([GAUSSIAN_RMAX, math.pi - eps, 2 * math.pi])

    def grid():
        rr = np.linspace(GAUSSIAN_R0, GAUSSIAN_RMAX, 60)
        th = np.linspace(eps, math.pi - eps, 7)
        ph = np.linspace(0.0, 2 * math.pi, 9)
        return [m.ravel() for m in np.meshgrid(rr, th, ph, indexing="ij")]

    return Preset(
        "poisson-gaussian", ("r", "theta", "phi"), residual,
        [HarmonicExpansionCondition(basis)],
        lambda n: CubeND(lows, highs, n),
        lambda n: CubeND(lows, highs, n),
        analytic=lambda r, theta, phi: gaussian_potential_exact(r),
        epochs=1500,
        grid=grid,
        net_output_dims=[basis.size],
        net_input_dims=[1],
    )


def _decay_bundle():
    def residual(u, coords, params):
        t, = coords
        return [ad.diff(u[0], t) + params["lam"] * u[0]]

    layout = BundleLayout(theta_ic={"u0": (0.5, 2.0)},
                          theta_eq={"lam": (0.5, 2.0)})
    return Preset(
        "decay-bundle", ("t",), residual, [IVP1(0.0, "u0")],
        lambda n: Uniform1D(0.0, 2.0, n, "uniform-random"),
        lambda n: Uniform1D(0.0, 2.0, n, "equally-spaced"),
        analytic=lambda t, u0, lam: np.asarray(u0) * np.exp(-np.asarray(lam) * np.asarray(t)),
        layout=layout,
        epochs=3000,
        grid=lambda: [np.linspace(0.0, 2.0, 50)],
    )


def _sho_bundle():
    def residual(u, coords, params):
        t, = coords
        return [ad.diff(u[0], t, 2) + u[0]]

    # arcsine sampling keeps corner initial conditions (the hardest members
    # of the family) well represented in every batch
    layout = BundleLayout(theta_ic={"u0": (0.0, 1.0), "du0": (0.0, 1.0)},
                          sampling="arcsine")
    return Preset(
        "sho-bundle", ("t",), residual, [IVP2(0.0, "u0", "du0")],
        lambda n: Uniform1D(0.0, 2 * np.pi, n, "uniform-random"),
        lambda n: Uniform1D(0.0, 2 * np.pi, n, "equally-spaced"),
        analytic=lambda t, u0, du0: (np.asarray(u0) * np.cos(np.asarray(t))
                                     + np.asarray(du0) * np.sin(np.asarray(t))),
        layout=layout,
        epochs=5000,
        hidden=(64, 64),
        lr=4e-3,
        batches_per_epoch=5,
        lr_schedule=((3000, 1.0 / 3.0), (4500, 0.1)),
        grid=lambda: [np.linspace(0.0, 2 * np.pi, 100)],
    )


SOLVE_PRESETS = ("decay", "sho", "heat", "gravity", "poisson-gaussian")
BUNDLE_PRESETS = ("decay-bundle", "sho-bundle")


def get(name, dim=3):
    if name == "decay":
        return _decay()
    if name == "sho":
        return _sho()
    if name == "heat":
        return _heat(dim)
    if name == "gravity":
        return _gravity()
    if name == "poisson-gaussian":
        return _poisson_gaussian()
    if name == "decay-bundle":
        return _decay_bundle()
    if name == "sho-bundle":
        return _sho_bundle()
    raise KeyError(name)
