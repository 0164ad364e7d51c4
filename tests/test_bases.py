import numpy as np
import pytest

from neurodiff import autodiff as ad
from neurodiff import bases
from neurodiff import operators as ops
from neurodiff.network import MLP, MLPSpec


def gauss_legendre_sphere(n_theta=64, n_phi=128):
    """Quadrature nodes/weights for integrals over the unit sphere."""
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    w = np.broadcast_to(wx[:, None], th.shape) * (2 * np.pi / n_phi)
    return th.ravel(), ph.ravel(), w.ravel()


def basis_columns(values):
    """The columns of an evaluated basis, one flat array each."""
    return list(values.value.T)


def harmonics_values(L, theta, phi):
    basis = bases.RealSphericalHarmonics(L)
    t = ad.constant(theta.reshape(-1, 1))
    p = ad.constant(phi.reshape(-1, 1))
    return basis_columns(basis.evaluate(t, p))


class TestOrthonormality:
    @pytest.mark.parametrize("L", [0, 1, 2, 4])
    def test_spherical_harmonics_orthonormal(self, L):
        th, ph, w = gauss_legendre_sphere()
        ys = harmonics_values(L, th, ph)
        k = len(ys)
        gram = np.array([[np.sum(w * ys[i] * ys[j]) for j in range(k)]
                         for i in range(k)])
        np.testing.assert_allclose(gram, np.eye(k), atol=1e-10)

    def test_fourier_orthogonality(self):
        phi = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        w = 2 * np.pi / 512
        basis = bases.Fourier1D(3)
        ys = basis_columns(basis.evaluate(ad.constant(phi.reshape(-1, 1))))
        norms = [2 * np.pi] + [np.pi] * 6
        for i in range(len(ys)):
            for j in range(len(ys)):
                inner = np.sum(w * ys[i] * ys[j])
                expected = norms[i] if i == j else 0.0
                assert inner == pytest.approx(expected, abs=1e-10)

    def test_zonal_matches_m0_columns(self):
        th, ph, _ = gauss_legendre_sphere(16, 4)
        full = harmonics_values(3, th, ph)
        zonal = bases.ZonalHarmonics(3)
        zs = basis_columns(zonal.evaluate(ad.constant(th.reshape(-1, 1))))
        degrees = bases.RealSphericalHarmonics(3).degrees()
        for l in range(4):
            idx = degrees.index((l, 0))
            np.testing.assert_allclose(zs[l], full[idx], atol=1e-12)


class TestKnownValues:
    def test_y00_constant(self):
        th, ph, _ = gauss_legendre_sphere(8, 8)
        y00 = harmonics_values(0, th, ph)[0]
        np.testing.assert_allclose(y00, 1 / np.sqrt(4 * np.pi), atol=1e-14)

    def test_y10_is_sqrt3_cos(self):
        th = np.array([0.3, 1.2, 2.5])
        ph = np.zeros(3)
        ys = harmonics_values(1, th, ph)
        degrees = bases.RealSphericalHarmonics(1).degrees()
        y10 = ys[degrees.index((1, 0))]
        np.testing.assert_allclose(
            y10, np.sqrt(3 / (4 * np.pi)) * np.cos(th), atol=1e-12)

    def test_y11_real_form(self):
        th = np.array([0.7, 1.4])
        ph = np.array([0.5, 2.0])
        ys = harmonics_values(1, th, ph)
        degrees = bases.RealSphericalHarmonics(1).degrees()
        y11 = ys[degrees.index((1, 1))]
        y1m1 = ys[degrees.index((1, -1))]
        c = np.sqrt(3 / (4 * np.pi))
        np.testing.assert_allclose(y11, c * np.sin(th) * np.cos(ph), atol=1e-12)
        np.testing.assert_allclose(y1m1, c * np.sin(th) * np.sin(ph), atol=1e-12)


class TestEigenproperty:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_angular_laplacian_eigenvalue(self, L):
        # r^l Y_lm is harmonic, so laplacian(Y_lm)|_{r=1} = -l(l+1) Y_lm
        rng = np.random.Generator(np.random.Philox(key=(5, 5)))
        n = 6
        th = rng.uniform(0.3, np.pi - 0.3, (n, 1))
        ph = rng.uniform(0.0, 2 * np.pi, (n, 1))
        r = ad.variable(np.ones((n, 1)))
        theta = ad.variable(th)
        phi = ad.variable(ph)
        basis = bases.RealSphericalHarmonics(L)
        degrees = basis.degrees()
        ys = basis.evaluate(theta, phi)
        assert ys.shape == (n, len(degrees))
        for j, (l, m) in enumerate(degrees):
            y = ad.column(ys, j)
            lap = ops.laplacian(y * _ones_node(r), [r, theta, phi],
                                "spherical")
            np.testing.assert_allclose(
                lap.value, -l * (l + 1) * y.value, atol=1e-9)


def _ones_node(r):
    # multiply by r^0 so the field depends on r through the graph
    return r ** 0.0


class TestPeriodicity:
    @pytest.mark.parametrize("L", [1, 3])
    def test_azimuthal_periodicity_exact(self, L):
        th = np.full(8, 1.1)
        ph = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        a = harmonics_values(L, th, ph)
        b = harmonics_values(L, th, ph + 2 * np.pi)
        for ya, yb in zip(a, b):
            assert np.abs(ya - yb).max() <= 1e-12

    def test_basis_solution_periodic_for_random_net(self):
        basis = bases.RealSphericalHarmonics(2)
        net = MLP.init(MLPSpec(1, (8,), basis.size, seed=3))
        r = ad.constant(np.linspace(0.5, 2.0, 10).reshape(-1, 1))
        th = ad.constant(np.full((10, 1), 0.9))
        ph_v = np.linspace(0.0, 2 * np.pi, 10).reshape(-1, 1)
        u1 = bases.basis_solution(basis, net, (th, ad.constant(ph_v)), r)
        u2 = bases.basis_solution(basis, net, (th, ad.constant(ph_v + 2 * np.pi)), r)
        assert np.abs(u1.value - u2.value).max() <= 1e-12


class TestBasisSolution:
    def test_output_dim_mismatch_rejected(self):
        basis = bases.RealSphericalHarmonics(2)
        net = MLP.init(MLPSpec(1, (8,), 3, seed=0))
        r = ad.constant(np.ones((4, 1)))
        th = ad.constant(np.full((4, 1), 1.0))
        ph = ad.constant(np.full((4, 1), 0.5))
        with pytest.raises(ValueError, match="basis size"):
            bases.basis_solution(basis, net, (th, ph), r)

    def test_manual_sum_matches(self):
        basis = bases.Fourier1D(1)
        net = MLP.init(MLPSpec(1, (4,), basis.size, seed=9))
        rv = np.linspace(0.1, 1.0, 5).reshape(-1, 1)
        ph_v = np.linspace(0.0, 2 * np.pi, 5).reshape(-1, 1)
        r = ad.constant(rv)
        ph = ad.constant(ph_v)
        u = bases.basis_solution(basis, net, (ph,), r)
        coeffs = net.forward(r).value
        expected = (coeffs[:, 0] + coeffs[:, 1] * np.cos(ph_v.ravel())
                    + coeffs[:, 2] * np.sin(ph_v.ravel()))
        np.testing.assert_allclose(u.value.ravel(), expected, atol=1e-12)


class TestValidation:
    def test_degree_limits(self):
        with pytest.raises(ValueError):
            bases.RealSphericalHarmonics(-1)
        with pytest.raises(ValueError):
            bases.RealSphericalHarmonics(bases.MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            bases.Fourier1D(-2)

    def test_sizes(self):
        assert bases.Fourier1D(4).size == 9
        assert bases.RealSphericalHarmonics(3).size == 16
        assert bases.ZonalHarmonics(5).size == 6
