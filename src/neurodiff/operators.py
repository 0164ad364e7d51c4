"""Differential operators in Cartesian, cylindrical, and spherical coordinates.

Every operator exists in two modes.  ``naive`` runs one backward pass per
partial derivative; ``fused`` computes all partials of a scalar in a single
backward traversal.  The scalar Laplacian's fused mode runs no backward pass
at all: it takes the first and second partials along each coordinate in
forward mode, both orders from one tangent memo per coordinate, and builds
the coordinate system's formula from them.  The two modes agree numerically;
fused is faster whenever an operator needs several partials of the same
scalar (gradient, curl, Laplacian), and is intentionally no faster for
divergence, which needs one partial per component.

Coordinate conventions: cylindrical (rho, phi, z); spherical (r, theta, phi)
with theta the polar angle from +z and phi the azimuth.  Their singularities
(rho <= 0, r <= 0, theta outside (0, pi)) raise ``SingularityError``; the
check is a ``guard`` node on each result, so a replayed training step runs
it on its own coordinates too.
"""

import functools
import gc
import time

import numpy as np

from . import autodiff as ad

SYSTEMS = ("cartesian", "cylindrical", "spherical")
OPERATORS = ("grad", "div", "curl", "laplacian", "vector_laplacian")


class SingularityError(ValueError):
    """Evaluation at a coordinate singularity (rho=0, r=0, sin(theta)=0)."""


def _check_values(system, c0, c1, c2):
    if system == "cylindrical" and np.any(c0 <= 0):
        raise SingularityError("cylindrical coordinates require rho > 0")
    if system == "spherical":
        if np.any(c0 <= 0):
            raise SingularityError("spherical coordinates require r > 0")
        if np.any(c1 <= 0) or np.any(c1 >= np.pi):
            raise SingularityError("spherical coordinates require 0 < theta < pi")


def _checked(op):
    """The operator ``op`` behind its argument checks.  The singularity
    check is a guard node on each result (``ad._guard``), so it runs now
    and again on every replay of a recorded training step."""
    @functools.wraps(op)
    def checked(f, coords, system="cartesian", mode="fused"):
        if system not in SYSTEMS:
            raise ValueError(f"unknown coordinate system {system!r}")
        if len(coords) != 3:
            raise ValueError(f"{system} operators take 3 coordinates, got {len(coords)}")
        if mode not in ("naive", "fused"):
            raise ValueError(f"unknown mode {mode!r}, expected 'naive' or 'fused'")
        out = op(f, coords, system, mode)
        if system == "cartesian":
            return out
        check = functools.partial(_check_values, system)
        if isinstance(out, tuple):
            return tuple(ad._guard(o, coords, check) for o in out)
        return ad._guard(out, coords, check)
    return checked


def _partials(f, coords, mode):
    """All requested partials of one scalar field.

    fused: one backward traversal for every coordinate;
    naive: a separate traversal per coordinate.
    """
    s = ad.reduce_sum(f)
    if mode == "fused":
        return ad.backward(s, list(coords))
    return [ad.backward(s, [c])[0] for c in coords]


@_checked
def grad(f, coords, system="cartesian", mode="fused"):
    d = _partials(f, coords, mode)
    if system == "cartesian":
        return tuple(d)
    if system == "cylindrical":
        rho = coords[0]
        return (d[0], d[1] / rho, d[2])
    r, theta = coords[0], coords[1]
    return (d[0], d[1] / r, d[2] / (r * ad.sin(theta)))


@_checked
def div(F, coords, system="cartesian", mode="fused"):
    # one partial per component: nothing to fuse, both modes share the path
    d = [_partials(F[i], [coords[i]], mode)[0] for i in range(3)]
    if system == "cartesian":
        return d[0] + d[1] + d[2]
    if system == "cylindrical":
        rho = coords[0]
        return d[0] + F[0] / rho + d[1] / rho + d[2]
    r, theta = coords[0], coords[1]
    sin_t = ad.sin(theta)
    return (d[0] + 2.0 * F[0] / r
            + (d[1] + ad.cos(theta) / sin_t * F[1]) / r
            + d[2] / (r * sin_t))


@_checked
def curl(F, coords, system="cartesian", mode="fused"):
    c0, c1, c2 = coords
    # per component, the two cross partials fuse into one traversal
    d0 = _partials(F[0], [c1, c2], mode)  # dF0/dc1, dF0/dc2
    d1 = _partials(F[1], [c0, c2], mode)  # dF1/dc0, dF1/dc2
    d2 = _partials(F[2], [c0, c1], mode)  # dF2/dc0, dF2/dc1
    if system == "cartesian":
        return (d2[1] - d1[1], d0[1] - d2[0], d1[0] - d0[0])
    if system == "cylindrical":
        rho = c0
        return (d2[1] / rho - d1[1],
                d0[1] - d2[0],
                d1[0] + F[1] / rho - d0[0] / rho)
    r, theta = c0, c1
    sin_t = ad.sin(theta)
    cot_t = ad.cos(theta) / sin_t
    return ((d2[1] + cot_t * F[2] - d1[1] / sin_t) / r,
            (d0[1] / sin_t - F[2] - r * d2[0]) / r,
            (F[1] + r * d1[0] - d0[0]) / r)


@_checked
def laplacian(f, coords, system="cartesian", mode="fused"):
    """Scalar Laplacian.  naive mode is div(grad f), one backward pass per
    partial; fused mode takes d/dc and d2/dc2 along each coordinate c in
    forward mode and divides in div(grad f)'s order, so both round alike."""
    if mode == "naive":
        return div(grad(f, coords, system, mode), coords, system, mode)
    (d0, dd0), (d1, dd1), (_, dd2) = [ad._derivatives(f, c, 2) for c in coords]
    if system == "cartesian":
        return dd0 + dd1 + dd2
    if system == "cylindrical":
        rho = coords[0]
        return dd0 + d0 / rho + dd1 / rho / rho + dd2
    r, theta = coords[0], coords[1]
    sin_t = ad.sin(theta)
    r_sin_t = r * sin_t
    return (dd0 + 2.0 * d0 / r
            + (dd1 / r + ad.cos(theta) / sin_t * (d1 / r)) / r
            + dd2 / r_sin_t / r_sin_t)


def vector_laplacian(F, coords, system="cartesian", mode="fused"):
    """Vector Laplacian via the identity grad(div F) - curl(curl F)."""
    gd = grad(div(F, coords, system, mode), coords, system, mode)
    cc = curl(curl(F, coords, system, mode), coords, system, mode)
    return tuple(gd[i] - cc[i] for i in range(3))


def _bench_coords(system, n, rng):
    if system == "cartesian":
        raw = rng.uniform(-1.0, 1.0, size=(n, 3))
    elif system == "cylindrical":
        raw = np.stack([rng.uniform(0.1, 2.0, n),
                        rng.uniform(0.0, 2 * np.pi, n),
                        rng.uniform(-1.0, 1.0, n)], axis=1)
    else:
        raw = np.stack([rng.uniform(0.1, 2.0, n),
                        rng.uniform(0.1, np.pi - 0.1, n),
                        rng.uniform(0.0, 2 * np.pi, n)], axis=1)
    return [ad.variable(raw[:, i:i + 1]) for i in range(3)]


def _bench_fields(coords, rng):
    """Small random smooth scalar/vector fields built from the coordinates."""
    w = rng.uniform(-1.0, 1.0, size=12)
    c0, c1, c2 = coords
    scalar = ad.tanh(w[0] * c0 + w[1] * c1 + w[2] * c2)
    vector = tuple(
        ad.tanh(w[3 * i + 3] * c0 + w[3 * i + 4] * c1 + w[3 * i + 5] * c2)
        for i in range(3)
    )
    return scalar, vector


_OP_FNS = {
    "grad": lambda f, F, coords, sys, mode: grad(f, coords, sys, mode),
    "div": lambda f, F, coords, sys, mode: div(F, coords, sys, mode),
    "curl": lambda f, F, coords, sys, mode: curl(F, coords, sys, mode),
    "laplacian": lambda f, F, coords, sys, mode: laplacian(f, coords, sys, mode),
    "vector_laplacian":
        lambda f, F, coords, sys, mode: vector_laplacian(F, coords, sys, mode),
}


def _as_values(result):
    if isinstance(result, tuple):
        return [r.value for r in result]
    return [result.value]


def bench_operators(sizes=(4096,), repeats=10, seed=0):
    """Time naive vs fused modes per (system, operator).

    Returns one row dict per (system, operator, size) with mean/std wall
    times in milliseconds, the speedup (ratio of medians), and an equality
    check of the two modes' outputs (tolerance 1e-12).  Each (mode, rep)
    builds its graph fresh; one untimed warmup rep per mode absorbs
    allocator and cache effects, and the collector is paused while timing.
    """
    rows = []
    for n in sizes:
        for system in SYSTEMS:
            for op in OPERATORS:
                fn = _OP_FNS[op]
                times = {"naive": [], "fused": []}
                equal = True
                for rep in range(repeats + 1):
                    outs = {}
                    for mode in ("naive", "fused"):
                        coords = _bench_coords(system, n, rng=np.random.Generator(
                            np.random.Philox(key=(seed * 1009 + rep, 2 * n))))
                        f, F = _bench_fields(coords, rng=np.random.Generator(
                            np.random.Philox(key=(seed * 1009 + rep, 2 * n + 1))))
                        gc_was_on = gc.isenabled()
                        gc.disable()
                        try:
                            t0 = time.perf_counter()
                            result = fn(f, F, coords, system, mode)
                            t1 = time.perf_counter()
                        finally:
                            if gc_was_on:
                                gc.enable()
                        if rep > 0:  # rep 0 is warmup
                            times[mode].append((t1 - t0) * 1e3)
                        outs[mode] = _as_values(result)
                    for a, b in zip(outs["naive"], outs["fused"]):
                        if not np.allclose(a, b, rtol=0, atol=1e-12):
                            equal = False
                naive = np.array(times["naive"])
                fused = np.array(times["fused"])
                rows.append({
                    "system": system,
                    "operator": op,
                    "size": n,
                    "naive_ms_mean": float(naive.mean()),
                    "naive_ms_std": float(naive.std()),
                    "fused_ms_mean": float(fused.mean()),
                    "fused_ms_std": float(fused.std()),
                    "speedup": float(np.median(naive) / np.median(fused)),
                    "equal": "ok" if equal else "MISMATCH",
                })
    return rows
