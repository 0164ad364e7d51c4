import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurodiff import autodiff as ad
from neurodiff import bases
from neurodiff import conditions as bc
from neurodiff import presets
from neurodiff.network import MLP, MLPSpec

N_NETS = 50


def random_net(seed):
    return MLP.init(MLPSpec(1, (8,), 1, seed=seed))


def random_net_fn(seed):
    mlp = random_net(seed)
    # nonzero biases so the raw network is not accidentally structured
    rng = np.random.Generator(np.random.Philox(key=(seed, 99)))
    for k in range(len(mlp.biases)):
        mlp.biases[k] = rng.uniform(-1, 1, mlp.biases[k].shape)
    return lambda *cols: mlp.forward(ad.concat_cols(cols))


def column(values):
    return ad.variable(np.asarray(values, dtype=float).reshape(-1, 1))


def consts(seed):
    rng = np.random.Generator(np.random.Philox(key=(seed, 123)))
    return rng.uniform(-2, 2, size=4)


class TestIVP:
    @pytest.mark.parametrize("seed", range(N_NETS))
    def test_ivp1_value(self, seed):
        u0 = consts(seed)[0]
        cond = bc.IVP1(0.5, u0)
        t = column([0.5, 1.0, 2.0])
        u = cond.reparameterize([t], random_net_fn(seed))
        assert abs(u.value[0, 0] - u0) <= 1e-14

    @pytest.mark.parametrize("seed", range(0, N_NETS, 5))
    def test_ivp2_value_and_slope(self, seed):
        u0, du0 = consts(seed)[:2]
        cond = bc.IVP2(0.25, u0, du0)
        t = column([0.25, 1.0])
        u = cond.reparameterize([t], random_net_fn(seed))
        assert abs(u.value[0, 0] - u0) <= 1e-14
        du = ad.diff(u, t)
        assert abs(du.value[0, 0] - du0) <= 1e-10

    @pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf, "0"])
    @pytest.mark.parametrize("cls, rest", [(bc.IVP1, (1.0,)),
                                           (bc.IVP2, (1.0, 0.0))])
    def test_t0_must_be_finite(self, cls, rest, t0):
        with pytest.raises(ValueError, match=rf"^{cls.__name__} requires a "
                                             rf"finite t0, got "):
            cls(t0, *rest)


class TestTwoPoint:
    @pytest.mark.parametrize("seed", range(0, N_NETS, 5))
    def test_dirichlet_both_ends(self, seed):
        u0, u1 = consts(seed)[:2]
        cond = bc.DirichletBVP1D(-1.0, u0, 2.0, u1)
        x = column([-1.0, 0.3, 2.0])
        u = cond.reparameterize([x], random_net_fn(seed))
        assert abs(u.value[0, 0] - u0) <= 1e-14
        assert abs(u.value[2, 0] - u1) <= 1e-14

    @pytest.mark.parametrize("seed", range(0, N_NETS, 5))
    def test_dirichlet_neumann(self, seed):
        u0, du1 = consts(seed)[:2]
        cond = bc.DirichletNeumann(0.0, u0, 1.5, du1)
        x = column([0.0, 0.7, 1.5])
        u = cond.reparameterize([x], random_net_fn(seed))
        assert abs(u.value[0, 0] - u0) <= 1e-14
        du = ad.diff(u, x)
        assert abs(du.value[2, 0] - du1) <= 1e-10

    @pytest.mark.parametrize("seed", range(0, N_NETS, 5))
    def test_neumann_dirichlet(self, seed):
        du0, u1 = consts(seed)[:2]
        cond = bc.NeumannDirichlet(0.0, du0, 1.5, u1)
        x = column([0.0, 0.7, 1.5])
        u = cond.reparameterize([x], random_net_fn(seed))
        assert abs(u.value[2, 0] - u1) <= 1e-14
        du = ad.diff(u, x)
        assert abs(du.value[0, 0] - du0) <= 1e-10

    @pytest.mark.parametrize("seed", range(0, N_NETS, 5))
    def test_neumann_neumann(self, seed):
        du0, du1 = consts(seed)[:2]
        cond = bc.NeumannNeumann(-0.5, du0, 1.0, du1)
        x = column([-0.5, 0.1, 1.0])
        u = cond.reparameterize([x], random_net_fn(seed))
        du = ad.diff(u, x)
        assert abs(du.value[0, 0] - du0) <= 1e-10
        assert abs(du.value[2, 0] - du1) <= 1e-10

    def test_interval_order_enforced(self):
        for cls in (bc.DirichletBVP1D, bc.DirichletNeumann,
                    bc.NeumannDirichlet, bc.NeumannNeumann):
            with pytest.raises(ValueError,
                               match=f"^{cls.__name__} requires x0 < x1$"):
                cls(1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("x0, x1, bad", [
        (0.0, np.inf, "x1"), (-np.inf, 1.0, "x0"), (np.nan, 1.0, "x0"),
        (0.0, np.nan, "x1")])
    @pytest.mark.parametrize("cls", [bc.DirichletBVP1D, bc.DirichletNeumann,
                                     bc.NeumannDirichlet, bc.NeumannNeumann])
    def test_ends_must_be_finite(self, cls, x0, x1, bad):
        # an infinite x1 made DirichletBVP1D drop u(x1) = u1 silently
        with pytest.raises(ValueError, match=rf"^{cls.__name__} requires a "
                                             rf"finite {bad}, got "):
            cls(x0, 0.0, x1, 0.0)


class TestInfinity:
    @pytest.mark.parametrize("seed", range(0, N_NETS, 5))
    def test_value_at_r0_exact(self, seed):
        u0, u_inf = consts(seed)[:2]
        cond = bc.InfinityBVP(1.0, u0, u_inf)
        r = column([1.0, 3.0])
        u = cond.reparameterize([r], random_net_fn(seed))
        assert abs(u.value[0, 0] - u0) <= 1e-14

    @pytest.mark.parametrize("seed", range(0, N_NETS, 5))
    def test_limit_at_infinity(self, seed):
        u0, u_inf = consts(seed)[:2]
        cond = bc.InfinityBVP(1.0, u0, u_inf)
        r = column([21.0])  # r0 + 20: e^-20 bounds the residual terms
        u = cond.reparameterize([r], random_net_fn(seed))
        assert abs(u.value[0, 0] - u_inf) < 1e-8 * (1 + abs(u_inf))

    @pytest.mark.parametrize("kw, message", [
        ({"decay": np.nan}, "a finite decay, got nan"),
        ({"decay": np.inf}, "a finite decay, got inf"),
        ({"r0": np.nan}, "a finite r0, got nan"),
        ({"r0": -np.inf}, "a finite r0, got -inf"),
        ({"decay": 0.0}, "decay > 0"), ({"decay": -1.0}, "decay > 0")])
    def test_bad_r0_or_decay_rejected(self, kw, message):
        # decay = nan made every trial value NaN, and decay = inf NaN at r0
        with pytest.raises(ValueError,
                           match=rf"^InfinityBVP requires {message}$"):
            bc.InfinityBVP(**{"r0": 1.0, "u0": 0.0, "u_inf": 1.0, **kw})


class TestBoxIC:
    def profile(self, *xs):
        p = None
        for x in xs:
            term = ad.sin(np.pi * x)
            p = term if p is None else p * term
        return p

    @pytest.mark.parametrize("seed", range(0, N_NETS, 10))
    def test_initial_profile_exact(self, seed):
        dim = 2
        cond = bc.BoxIC(self.profile, dim)
        mlp = MLP.init(MLPSpec(dim + 1, (8,), 1, seed=seed))
        net_fn = lambda *cols: mlp.forward(ad.concat_cols(cols))
        t = column([0.0, 0.0])
        x1 = column([0.3, 0.8])
        x2 = column([0.6, 0.1])
        u = cond.reparameterize([t, x1, x2], net_fn)
        expected = np.sin(np.pi * 0.3) * np.sin(np.pi * 0.6)
        assert u.value[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_boundary_zero(self):
        cond = bc.BoxIC(self.profile, 2)
        mlp = MLP.init(MLPSpec(3, (8,), 1, seed=4))
        net_fn = lambda *cols: mlp.forward(ad.concat_cols(cols))
        t = column([0.7])
        x1 = column([0.0])
        x2 = column([0.4])
        u = cond.reparameterize([t, x1, x2], net_fn)
        assert abs(u.value[0, 0]) <= 1e-14

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_rejected(self, dim):
        with pytest.raises(ValueError, match=f"^BoxIC requires dim >= 1, "
                                             f"got dim={dim}$"):
            bc.BoxIC(self.profile, dim)

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, "2"])
    def test_dim_must_be_an_integer(self, dim):
        with pytest.raises(ValueError, match=rf"^BoxIC: dim must be an "
                                             rf"integer, got {dim!r}$"):
            bc.BoxIC(self.profile, dim)

    def test_arity_mismatch(self):
        cond = bc.BoxIC(self.profile, 2)
        with pytest.raises(ValueError):
            cond.reparameterize([column([0.0])], lambda *c: c[0])


class TestDifferentiability:
    def test_second_derivative_matches_fd(self):
        cond = bc.DirichletBVP1D(0.0, 1.0, 2.0, -1.0)
        mlp = random_net(17)
        xv = 0.9
        x = column([xv])
        u = cond.reparameterize([x], lambda c: mlp.forward(c))
        d2 = ad.diff(u, x, 2)

        def f(t):
            xx = column([t])
            return cond.reparameterize([xx], lambda c: mlp.forward(c)).value[0, 0]

        h = 1e-4
        fd = (f(xv + h) - 2 * f(xv) + f(xv - h)) / h ** 2
        assert d2.value[0, 0] == pytest.approx(fd, rel=1e-5)

    def test_interior_freedom(self):
        cond = bc.IVP1(0.0, 1.0)
        t = column([0.5, 1.0, 1.5])
        u_a = cond.reparameterize([t], random_net_fn(1))
        u_b = cond.reparameterize([t], random_net_fn(2))
        assert np.abs(u_a.value - u_b.value).max() > 1e-6


def test_all_nine_variants_exist():
    assert len(bc.ALL_VARIANTS) == 9


def test_bundle_parameter_resolution():
    cond = bc.IVP1(0.0, "u0")
    t = column([0.0, 1.0])
    u0_col = ad.constant(np.array([[0.8], [0.8]]))
    u = cond.reparameterize([t], random_net_fn(3), params={"u0": u0_col})
    assert u.value[0, 0] == pytest.approx(0.8, abs=1e-14)
    with pytest.raises(ValueError, match="unknown bundle parameter"):
        cond.reparameterize([t], random_net_fn(3), params={})


# What each one-coordinate variant pins, built on ends x0 < x1 and the
# constants c, d: (condition, [(derivative order, point, value), ...]).
PINS = {
    bc.NoCondition: lambda x0, x1, c, d: (bc.NoCondition(), []),
    bc.IVP1: lambda x0, x1, c, d: (bc.IVP1(x0, c), [(0, x0, c)]),
    bc.IVP2: lambda x0, x1, c, d: (bc.IVP2(x0, c, d),
                                   [(0, x0, c), (1, x0, d)]),
    bc.DirichletBVP1D: lambda x0, x1, c, d: (bc.DirichletBVP1D(x0, c, x1, d),
                                             [(0, x0, c), (0, x1, d)]),
    bc.DirichletNeumann: lambda x0, x1, c, d: (
        bc.DirichletNeumann(x0, c, x1, d), [(0, x0, c), (1, x1, d)]),
    bc.NeumannDirichlet: lambda x0, x1, c, d: (
        bc.NeumannDirichlet(x0, c, x1, d), [(1, x0, c), (0, x1, d)]),
    bc.NeumannNeumann: lambda x0, x1, c, d: (
        bc.NeumannNeumann(x0, c, x1, d), [(1, x0, c), (1, x1, d)]),
    bc.InfinityBVP: lambda x0, x1, c, d: (bc.InfinityBVP(x0, c, d),
                                          [(0, x0, c)]),
}
bounded = st.floats(-2.0, 2.0)


def drawn_net(input_dim, seed, biases):
    mlp = MLP.init(MLPSpec(input_dim, (8,), 1, seed=seed))
    mlp.biases = [np.array(biases[:8]), np.array(biases[8:])]
    return lambda *cols: mlp.forward(ad.concat_cols(cols))


def test_property_test_covers_all_variants():
    assert set(PINS) | {bc.BoxIC} == set(bc.ALL_VARIANTS)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       biases=st.lists(bounded, min_size=9, max_size=9),
       x0=st.floats(-1.0, 1.0), length=st.floats(0.25, 2.0),
       c=bounded, d=bounded)
def test_conditions_exact_for_random_networks(seed, biases, x0, length, c, d):
    x1 = x0 + length
    net_fn = drawn_net(1, seed, biases)
    for build in PINS.values():
        cond, pins = build(x0, x1, c, d)
        points = [x0, (x0 + x1) / 2, x1]
        x = column(points)
        u = cond.reparameterize([x], net_fn)
        du = ad.diff(u, x)
        for order, at, value in pins:
            got = (u, du)[order].value[points.index(at), 0]
            assert abs(got - value) <= 1e-12, (type(cond).__name__, order)
        if not pins:
            assert np.array_equal(u.value, net_fn(x).value)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       biases=st.lists(bounded, min_size=9, max_size=9),
       r0=st.floats(0.5, 2.0), c=bounded, d=bounded)
def test_infinity_bvp_angular_limits_for_random_networks(seed, biases, r0, c,
                                                         d):
    # u0 and u_inf as functions of the angle, the spherical form
    cond = bc.InfinityBVP(r0, lambda th: c * ad.cos(th),
                          lambda th: d + ad.sin(th))
    net_fn = drawn_net(2, seed, biases)
    theta = np.array([0.0, 0.7, 2.5, -1.2])
    # at r0 + 40 the envelope e^-40 leaves u_inf to rounding
    for r, want, tol in ((r0, c * np.cos(theta), 1e-14),
                         (r0 + 40.0, d + np.sin(theta), 1e-12)):
        u = cond.reparameterize([column(np.full(4, r)), column(theta)],
                                net_fn)
        np.testing.assert_allclose(u.value[:, 0], want, rtol=0, atol=tol)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       biases=st.lists(bounded, min_size=9, max_size=9),
       xs=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       t=st.floats(0.0, 3.0))
def test_box_ic_exact_for_random_networks(seed, biases, xs, t):
    def profile(*cols):
        return cols[0] * (1.0 - cols[0]) * cols[1] * (1.0 - cols[1])

    cond = bc.BoxIC(profile, 2)
    net_fn = drawn_net(3, seed, biases)
    a, b, p, q = xs
    # rows: t = 0 at an interior point, then t > 0 on each face of the box
    tc = column([0.0, t, t, t, t])
    x1 = column([a, 0.0, 1.0, p, q])
    x2 = column([b, p, q, 0.0, 1.0])
    u = cond.reparameterize([tc, x1, x2], net_fn)
    assert abs(u.value[0, 0] - a * (1 - a) * b * (1 - b)) <= 1e-12
    np.testing.assert_array_equal(u.value[1:, 0], 0.0)


HARMONICS = bases.RealSphericalHarmonics(presets.GAUSSIAN_DEGREE)


def sphere_rule():
    """Angles and weights of a product rule (3 Gauss-Legendre nodes in
    cos theta, 5 equal steps in phi) that integrates every harmonic of
    degree 4 or less exactly; the weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(3)
    phi = np.arange(5) * (2 * np.pi / 5)
    theta, phi = [m.ravel() for m in np.meshgrid(np.arccos(x), phi)]
    weights = np.tile(w, 5) / 10.0
    return theta, phi, weights


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       biases=st.lists(bounded, min_size=8 + HARMONICS.size,
                       max_size=8 + HARMONICS.size))
def test_harmonic_expansion_exact_for_random_networks(seed, biases):
    cond = presets.HarmonicExpansionCondition(HARMONICS)
    mlp = MLP.init(MLPSpec(1, (8,), HARMONICS.size, seed=seed))
    mlp.biases = [np.array(biases[:8]), np.array(biases[8:])]
    theta, phi, weights = sphere_rule()

    def at(radius):
        r = column(np.full(theta.size, radius))
        u = cond.reparameterize(
            [r, column(theta), column(phi)],
            lambda *cols: mlp.forward(ad.concat_cols(cols)))
        return r, u

    _, outer = at(cond.rmax)
    exact = presets.gaussian_potential_exact(cond.rmax)
    np.testing.assert_allclose(outer.value, exact, rtol=0, atol=1e-12)
    r, inner = at(cond.r0)
    assert np.ptp(inner.value) <= 1e-12
    # only the l = 0 coefficient has a pinned slope at r0; the higher
    # harmonics, pinned in value, drop out of the spherical mean
    flux = weights @ ad.diff(inner, r).value[:, 0]
    y00 = 1.0 / (2.0 * np.sqrt(np.pi))
    assert abs(flux - cond.dc0_inner * y00) <= 1e-12
