"""Function-basis expansions over angular coordinates.

Real Fourier series in the azimuth, real spherical harmonics, and zonal
(m = 0) harmonics.  All basis values are built from sin/cos of integer
multiples of the angles, so expansions are 2-pi-periodic in the azimuth by
construction, and they are graph nodes: differentiable through the operator
suite.  ``evaluate`` returns one N x K node, column j the j-th basis
function, and ``expand`` sums coefficients against it as one product and
one row fold.

Convention: orthonormal real harmonics, Condon-Shortley phase omitted.
"""

import math

import numpy as np

from . import autodiff as ad
from .generators import _is_integer

MAX_DEGREE = 16


def _check_degree(owner, max_degree):
    """Raise ``ValueError`` naming ``owner`` unless ``max_degree`` is an
    integer (``generators._is_integer``; a bool is not)."""
    if not _is_integer(max_degree):
        raise ValueError(f"{type(owner).__name__}: max_degree must be an "
                         f"integer, got {max_degree!r}")


def _ones_like(node):
    return ad.constant(np.ones_like(node.value))


def _stack(columns):
    """The basis functions' N x 1 columns as one N x K node, F-ordered: a
    column stack, whose products and row fold run down its columns."""
    return ad.concat_cols(columns, order="F")


def expand(coeffs, values):
    """sum_j coeffs_j * values_j as one N x 1 node, for N x K coefficients
    (or an N x 1 column of them) and basis values.  One product and one
    ``rowsum``, which adds the terms left to right: each entry has the bits
    of the fold ``total = total + coeffs_j * values_j``.  F-ordered blocks
    (``evaluate``'s) are folded without a copy."""
    return ad.rowsum(coeffs * values)


class Fourier1D:
    """1, cos(k phi), sin(k phi) for k = 1..K; size 2K + 1."""

    def __init__(self, max_degree):
        _check_degree(self, max_degree)
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.max_degree = int(max_degree)
        self.size = 2 * self.max_degree + 1

    def evaluate(self, phi):
        """The basis at an N x 1 azimuth as one N x K node."""
        phi = phi if isinstance(phi, ad.Node) else ad.constant(phi)
        out = [_ones_like(phi)]
        for k in range(1, self.max_degree + 1):
            angle = float(k) * phi
            out.append(ad.cos(angle))
            out.append(ad.sin(angle))
        return _stack(out)


def _assoc_legendre(l_max, x, sin_t):
    """P_l^m for 0 <= m <= l <= l_max by upward recurrence in l.

    x = cos(theta) and sin_t = sin(theta) as graph nodes.  Condon-Shortley
    phase omitted: P_m^m = (2m-1)!! sin(theta)^m.
    """
    p = {}
    p[(0, 0)] = _ones_like(x)
    for m in range(1, l_max + 1):
        fact = 1.0
        for k in range(1, 2 * m, 2):
            fact *= k
        p[(m, m)] = fact * sin_t ** m if m > 1 else fact * sin_t
    for m in range(0, l_max):
        p[(m + 1, m)] = float(2 * m + 1) * x * p[(m, m)]
    for m in range(0, l_max + 1):
        for l in range(m + 2, l_max + 1):
            p[(l, m)] = (float(2 * l - 1) * x * p[(l - 1, m)]
                         - float(l + m - 1) * p[(l - 2, m)]) / float(l - m)
    return p


def _norm(l, m):
    return math.sqrt((2 * l + 1) / (4 * math.pi)
                     * math.factorial(l - abs(m)) / math.factorial(l + abs(m)))


class RealSphericalHarmonics:
    """Real Y_lm for l = 0..L, m = -l..l; size (L+1)^2."""

    def __init__(self, max_degree):
        _check_degree(self, max_degree)
        if not 0 <= max_degree <= MAX_DEGREE:
            raise ValueError(f"max_degree must be in [0, {MAX_DEGREE}]")
        self.max_degree = int(max_degree)
        self.size = len(self.degrees())

    def degrees(self):
        return [(l, m) for l in range(self.max_degree + 1)
                for m in range(-l, l + 1)]

    def evaluate(self, theta, phi):
        """The basis at N x 1 angles as one N x K node, columns in
        ``degrees()`` order.  ``phi`` is read only by m != 0 columns, and
        may be None when there are none.  Each m != 0 builds its factor,
        cos(m phi) or sin(-m phi), once, where its first column reads it,
        and each |m| its angle |m| phi once."""
        theta = theta if isinstance(theta, ad.Node) else ad.constant(theta)
        if phi is not None:
            phi = phi if isinstance(phi, ad.Node) else ad.constant(phi)
        x = ad.cos(theta)
        sin_t = ad.sin(theta)
        p = _assoc_legendre(self.max_degree, x, sin_t)
        angles = {}  # |m| -> |m| phi
        azimuthal = {}  # m -> cos(m phi) for m > 0, sin(-m phi) for m < 0
        out = []
        root2 = math.sqrt(2.0)
        for l, m in self.degrees():
            n = _norm(l, m)
            if m == 0:
                out.append(n * p[(l, 0)])
                continue
            y = root2 * n * p[(l, abs(m))]
            if m not in azimuthal:
                if abs(m) not in angles:
                    angles[abs(m)] = float(abs(m)) * phi
                trig = ad.cos if m > 0 else ad.sin
                azimuthal[m] = trig(angles[abs(m)])
            out.append(y * azimuthal[m])
        return _stack(out)


class ZonalHarmonics(RealSphericalHarmonics):
    """Azimuth-independent harmonics Y_l0 for l = 0..L; size L + 1: the
    m = 0 columns of ``RealSphericalHarmonics``."""

    def degrees(self):
        return [(l, 0) for l in range(self.max_degree + 1)]

    def evaluate(self, theta, phi=None):
        """The basis at an N x 1 polar angle as one N x K node; ``phi`` is
        not read."""
        return super().evaluate(theta, None)


def basis_solution(basis, radial_net, angles, r):
    """Sum_j net_j(r) * basis_j(angles) as a single N x 1 field node
    (``expand``).

    radial_net is an MLP (or any callable of the radial node) whose output
    dimension equals the basis size.  The result is exactly periodic in the
    azimuth for any network parameters.
    """
    if hasattr(radial_net, "forward"):
        coeffs = radial_net.forward(r)
    else:
        coeffs = radial_net(r)
    k = coeffs.value.shape[1]
    if k != basis.size:
        raise ValueError(
            f"radial net output dimension {k} does not match basis size "
            f"{basis.size}"
        )
    return expand(coeffs, basis.evaluate(*angles))
