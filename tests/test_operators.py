import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurodiff import autodiff as ad
from neurodiff import operators as ops
from neurodiff.generators import make_rng
from neurodiff.network import MLP, MLPSpec


def coords_for(system, n=5, seed=0):
    rng = np.random.Generator(np.random.Philox(key=(seed, 17)))
    if system == "cartesian":
        raw = rng.uniform(-1.0, 1.0, size=(n, 3))
    elif system == "cylindrical":
        raw = np.stack([rng.uniform(0.2, 2.0, n),
                        rng.uniform(0.0, 2 * np.pi, n),
                        rng.uniform(-1.0, 1.0, n)], axis=1)
    else:
        raw = np.stack([rng.uniform(0.2, 2.0, n),
                        rng.uniform(0.2, np.pi - 0.2, n),
                        rng.uniform(0.0, 2 * np.pi, n)], axis=1)
    return [ad.variable(raw[:, i:i + 1]) for i in range(3)]


def smooth_scalar(coords, seed=1):
    rng = np.random.Generator(np.random.Philox(key=(seed, 23)))
    w = rng.uniform(-1.0, 1.0, 3)
    c0, c1, c2 = coords
    return ad.tanh(w[0] * c0 + w[1] * c1 + w[2] * c2)


def smooth_vector(coords, seed=2):
    return tuple(smooth_scalar(coords, seed=seed + i) for i in range(3))


def values(result):
    if isinstance(result, tuple):
        return np.hstack([r.value for r in result])
    return result.value


class TestIdentities:
    @pytest.mark.parametrize("system", ops.SYSTEMS)
    @pytest.mark.parametrize("mode", ("naive", "fused"))
    def test_curl_of_grad_is_zero(self, system, mode):
        coords = coords_for(system)
        f = smooth_scalar(coords)
        g = ops.grad(f, coords, system, mode)
        c = ops.curl(g, coords, system, mode)
        assert np.abs(values(c)).max() < 1e-10

    @pytest.mark.parametrize("system", ops.SYSTEMS)
    @pytest.mark.parametrize("mode", ("naive", "fused"))
    def test_div_of_curl_is_zero(self, system, mode):
        coords = coords_for(system)
        F = smooth_vector(coords)
        c = ops.curl(F, coords, system, mode)
        d = ops.div(c, coords, system, mode)
        assert np.abs(d.value).max() < 1e-10

    @pytest.mark.parametrize("system", ops.SYSTEMS)
    def test_laplacian_equals_div_grad(self, system):
        coords = coords_for(system)
        f = smooth_scalar(coords)
        lap = ops.laplacian(f, coords, system)
        dg = ops.div(ops.grad(f, coords, system), coords, system)
        np.testing.assert_allclose(lap.value, dg.value, atol=1e-12)

    @pytest.mark.parametrize("system", ops.SYSTEMS)
    @pytest.mark.parametrize("op", ops.OPERATORS)
    def test_fused_matches_naive(self, system, op):
        coords = coords_for(system)
        f = smooth_scalar(coords)
        F = smooth_vector(coords)
        fn = ops._OP_FNS[op]
        a = values(fn(f, F, coords, system, "naive"))
        b = values(fn(f, F, coords, system, "fused"))
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestForwardLaplacian:
    @pytest.mark.parametrize("system", ops.SYSTEMS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           activation=st.sampled_from(("tanh", "sin", "softplus")),
           biases=st.lists(st.floats(-2.0, 2.0), min_size=17, max_size=17))
    def test_fused_matches_naive_on_random_networks(self, system, seed,
                                                     activation, biases):
        coords = coords_for(system, n=16, seed=seed)
        mlp = MLP.init(MLPSpec(3, (8, 8), 1, activation, seed=seed))
        mlp.biases = [np.array(biases[:8]), np.array(biases[8:16]),
                      np.array(biases[16:])]
        f = mlp.forward(ad.concat_cols(coords))
        fused = ops.laplacian(f, coords, system, "fused")
        naive = ops.laplacian(f, coords, system, "naive")
        np.testing.assert_allclose(fused.value, naive.value, rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("system", ops.SYSTEMS)
    def test_fused_runs_no_backward_pass(self, system, monkeypatch):
        calls = []
        real = ad.backward

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ad, "backward", counting)
        coords = coords_for(system)
        f = smooth_scalar(coords)
        ops.laplacian(f, coords, system, "fused")
        assert len(calls) == 0
        ops.laplacian(f, coords, system, "naive")
        assert len(calls) == 6  # three for grad, three for div

    def test_derivatives_equal_diff_bit_for_bit(self):
        x = ad.variable(np.linspace(-1.0, 1.0, 16).reshape(-1, 1))
        mlp = MLP.init(MLPSpec(1, (8, 8), 1, seed=3))
        u = mlp.forward(x)
        ds = ad._derivatives(u, x, 3)
        assert len(ds) == 3
        for i, d in enumerate(ds):
            assert np.array_equal(d.value, ad.diff(u, x, i + 1).value)


class TestKnownFields:
    def test_cartesian_laplacian_of_quadratic(self):
        coords = coords_for("cartesian")
        x, y, z = coords
        f = x ** 2.0 + y ** 2.0 + z ** 2.0
        lap = ops.laplacian(f, coords, "cartesian")
        np.testing.assert_allclose(lap.value, 6.0, atol=1e-12)

    def test_spherical_laplacian_of_r_squared(self):
        coords = coords_for("spherical")
        r = coords[0]
        lap = ops.laplacian(r ** 2.0, coords, "spherical")
        np.testing.assert_allclose(lap.value, 6.0, atol=1e-10)

    def test_spherical_laplacian_of_inverse_r(self):
        # harmonic away from the origin
        coords = coords_for("spherical")
        r = coords[0]
        lap = ops.laplacian(1.0 / r, coords, "spherical")
        assert np.abs(lap.value).max() < 1e-9

    def test_cylindrical_grad_components(self):
        rho = ad.variable(np.array([[0.5]]))
        phi = ad.variable(np.array([[np.pi / 3]]))
        z = ad.variable(np.array([[0.2]]))
        f = rho * ad.cos(phi)  # the Cartesian x coordinate
        g = ops.grad(f, [rho, phi, z], "cylindrical")
        np.testing.assert_allclose(g[0].value[0, 0], np.cos(np.pi / 3), atol=1e-12)
        np.testing.assert_allclose(g[1].value[0, 0], -np.sin(np.pi / 3), atol=1e-12)
        np.testing.assert_allclose(g[2].value[0, 0], 0.0, atol=1e-12)

    def test_cylindrical_div_of_radial_field(self):
        coords = coords_for("cylindrical")
        rho = coords[0]
        # F = rho e_rho has divergence 2 in cylindrical coordinates
        zero = 0.0 * rho
        d = ops.div((rho, zero, zero), coords, "cylindrical")
        np.testing.assert_allclose(d.value, 2.0, atol=1e-12)

    def test_cartesian_curl_of_rotation_field(self):
        coords = coords_for("cartesian")
        x, y, z = coords
        c = ops.curl((-1.0 * y, x, 0.0 * z), coords, "cartesian")
        np.testing.assert_allclose(c[0].value, 0.0, atol=1e-12)
        np.testing.assert_allclose(c[1].value, 0.0, atol=1e-12)
        np.testing.assert_allclose(c[2].value, 2.0, atol=1e-12)

    def test_vector_laplacian_of_linear_field_is_zero(self):
        coords = coords_for("cartesian")
        x, y, z = coords
        out = ops.vector_laplacian((y, z, x), coords, "cartesian")
        assert np.abs(values(out)).max() < 1e-10


class TestFiniteDifferenceOracle:
    def test_spherical_laplacian_matches_fd(self):
        rv, tv, pv = 1.3, 1.1, 2.0

        def f(r, t, p):
            return np.sin(r) * np.cos(t) * np.sin(p)

        h = 1e-5

        def lap_fd(r, t, p):
            d2r = (f(r + h, t, p) - 2 * f(r, t, p) + f(r - h, t, p)) / h ** 2
            dr = (f(r + h, t, p) - f(r - h, t, p)) / (2 * h)
            d2t = (f(r, t + h, p) - 2 * f(r, t, p) + f(r, t - h, p)) / h ** 2
            dt = (f(r, t + h, p) - f(r, t - h, p)) / (2 * h)
            d2p = (f(r, t, p + h) - 2 * f(r, t, p) + f(r, t, p - h)) / h ** 2
            return (d2r + 2 / r * dr
                    + (d2t + np.cos(t) / np.sin(t) * dt) / r ** 2
                    + d2p / (r * np.sin(t)) ** 2)

        coords = [ad.variable(np.array([[v]])) for v in (rv, tv, pv)]
        r, t, p = coords
        node = ops.laplacian(ad.sin(r) * ad.cos(t) * ad.sin(p), coords,
                             "spherical")
        assert node.value[0, 0] == pytest.approx(lap_fd(rv, tv, pv), rel=1e-4)


class TestErrors:
    def test_unknown_system(self):
        coords = coords_for("cartesian")
        with pytest.raises(ValueError, match="unknown coordinate system"):
            ops.grad(coords[0], coords, "polar")

    def test_unknown_mode(self):
        coords = coords_for("cartesian")
        with pytest.raises(ValueError, match="unknown mode"):
            ops.grad(coords[0], coords, "cartesian", "eager")

    def test_wrong_arity(self):
        coords = coords_for("cartesian")[:2]
        with pytest.raises(ValueError, match="3 coordinates"):
            ops.grad(coords[0], coords, "cartesian")

    def test_cylindrical_axis_singularity(self):
        rho = ad.variable(np.array([[0.0]]))
        phi = ad.variable(np.array([[0.1]]))
        z = ad.variable(np.array([[0.0]]))
        with pytest.raises(ops.SingularityError):
            ops.grad(rho, [rho, phi, z], "cylindrical")

    def test_spherical_polar_singularity(self):
        r = ad.variable(np.array([[1.0]]))
        theta = ad.variable(np.array([[0.0]]))
        phi = ad.variable(np.array([[0.1]]))
        with pytest.raises(ops.SingularityError):
            ops.grad(r, [r, theta, phi], "spherical")


class TestBenchmark:
    def test_rows_and_equality(self):
        rows = ops.bench_operators(sizes=(64,), repeats=2, seed=0)
        assert len(rows) == len(ops.SYSTEMS) * len(ops.OPERATORS)
        for r in rows:
            assert r["equal"] == "ok"
            assert r["naive_ms_mean"] > 0 and r["fused_ms_mean"] > 0

    @pytest.mark.parametrize("kwargs, message", [
        ({"repeats": 0}, "repeats must be an integer >= 1"),
        ({"repeats": 1.0}, "repeats must be an integer >= 1"),
        ({"sizes": (8, 0)}, "sizes must be integers >= 1"),
        ({"sizes": ()}, "sizes must be integers >= 1"),
        ({"seed": -1}, "seed must be an integer"),
        ({"seed": "abc"}, "seed must be an integer"),
        # the key word seed * 1009 + repeats passes 2**64
        ({"seed": 2 ** 64 - 1}, "seed must be an integer"),
        ({"seed": (2 ** 64 - 1) // 1009, "repeats": 1009},
         "seed must be an integer"),
    ])
    def test_bad_arguments_raise(self, kwargs, message):
        args = {"sizes": (8,), "repeats": 1, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=message):
            ops.bench_operators(**args)

    def test_largest_key_word_runs(self):
        seed = (2 ** 64 - 1) // 1009
        assert ops.bench_error((8,), 2 ** 64 - 1 - seed * 1009, seed) is None

    @pytest.mark.parametrize("word", [0, 5 * 1009 + 3, 2 ** 63 - 1])
    def test_streams_below_2_63_are_unchanged(self, word):
        # the streams the benchmark drew before it keyed them with make_rng
        old = np.random.Generator(np.random.Philox(key=(word, 2 * 64)))
        assert (make_rng(word, 2 * 64).random(5) == old.random(5)).all()
