import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neurodiff import generators as gen


def rng():
    return gen.make_rng(3, stream=5)


class TestUniform1D:
    def test_random_within_bounds(self):
        g = gen.Uniform1D(-1.0, 2.0, 64)
        pts = g.sample(rng())
        assert pts.shape == (64, 1)
        assert pts.min() >= -1.0 and pts.max() <= 2.0

    def test_equally_spaced_exact(self):
        g = gen.Uniform1D(0.0, 1.0, 5, "equally-spaced")
        pts = g.sample(rng()).ravel()
        np.testing.assert_allclose(pts, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_noisy_stays_within_bounds_and_near_lattice(self):
        g = gen.Uniform1D(0.0, 1.0, 11, "equally-spaced-noisy")
        pts = g.sample(rng()).ravel()
        assert pts.min() >= 0.0 and pts.max() <= 1.0
        lattice = np.linspace(0.0, 1.0, 11)
        assert np.abs(pts - lattice).max() <= 0.05 + 1e-12

    def test_same_rng_state_reproduces(self):
        g = gen.Uniform1D(0.0, 1.0, 32)
        a = g.sample(gen.make_rng(7, 1))
        b = g.sample(gen.make_rng(7, 1))
        assert a.tobytes() == b.tobytes()

    def test_distinct_streams_differ(self):
        g = gen.Uniform1D(0.0, 1.0, 32)
        a = g.sample(gen.make_rng(7, 1))
        b = g.sample(gen.make_rng(7, 2))
        assert a.tobytes() != b.tobytes()

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            gen.Uniform1D(1.0, 0.0, 8)
        with pytest.raises(ValueError):
            gen.Uniform1D(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            gen.Uniform1D(0.0, 1.0, 8, "sobol")

    def test_with_size(self):
        g = gen.Uniform1D(0.0, 1.0, 8).with_size(20)
        assert len(g) == 20
        assert g.sample(rng()).shape == (20, 1)


@pytest.mark.parametrize("make", [
    lambda n: gen.Uniform1D(0.0, 1.0, n),
    lambda n: gen.Uniform1D(0.0, 1.0, 8).with_size(n),
    lambda n: gen.CubeND([0.0, 0.0], [1.0, 1.0], n),
    lambda n: gen.CubeND([0.0], [1.0], 8).with_size(n),
])
class TestSizes:
    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(4.0), "4"])
    def test_a_size_that_is_not_an_integer_raises(self, make, n):
        with pytest.raises(ValueError, match=r": n must be an integer, got "):
            make(n)

    @pytest.mark.parametrize("n", [0, -3, np.int64(0)])
    def test_a_size_below_1_raises(self, make, n):
        with pytest.raises(ValueError, match=r": n must be at least 1, got "):
            make(n)

    @pytest.mark.parametrize("n", [5, np.int64(5), np.uint16(5)])
    def test_integer_sizes_draw_that_many_points(self, make, n):
        g = make(n)
        assert len(g) == 5 and type(g.n) is int
        assert g.sample(rng()).shape[0] == 5


class TestCubeND:
    def test_bounds_per_axis(self):
        g = gen.CubeND([0.0, -2.0], [1.0, 3.0], 100)
        pts = g.sample(rng())
        assert pts.shape == (100, 2)
        assert pts[:, 0].min() >= 0.0 and pts[:, 0].max() <= 1.0
        assert pts[:, 1].min() >= -2.0 and pts[:, 1].max() <= 3.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            gen.CubeND([0.0, 1.0], [1.0, 0.5], 10)


class TestCombinators:
    def test_static_returns_given_points(self):
        pts = np.array([[1.0], [2.0], [3.0]])
        g = gen.Static(pts)
        np.testing.assert_array_equal(g.sample(rng()), pts)
        assert len(g) == 3

    def test_product_pairs_by_index(self):
        g = gen.Product(gen.Static([1.0, 2.0]), gen.Static([10.0, 20.0]))
        np.testing.assert_array_equal(
            g.sample(rng()), [[1.0, 10.0], [2.0, 20.0]])

    def test_product_size_mismatch(self):
        with pytest.raises(ValueError, match="equal sizes"):
            gen.Product(gen.Static([1.0]), gen.Static([1.0, 2.0]))

    def test_meshed_cross_product(self):
        g = gen.Static([1.0, 2.0]) * gen.Static([10.0, 20.0, 30.0])
        out = g.sample(rng())
        assert out.shape == (6, 2)
        expected = {(a, b) for a in (1.0, 2.0) for b in (10.0, 20.0, 30.0)}
        assert {tuple(row) for row in out} == expected
        assert len(g) == 6

    def test_concat_stacks(self):
        g = gen.Static([1.0]) + gen.Static([2.0, 3.0])
        np.testing.assert_array_equal(g.sample(rng()), [[1.0], [2.0], [3.0]])
        assert len(g) == 3

    def test_transform_applies_map(self):
        g = gen.Transform(gen.Static([1.0, 4.0]), lambda p: p ** 2)
        np.testing.assert_array_equal(g.sample(rng()), [[1.0], [16.0]])

    def test_nested_composition(self):
        inner = gen.Uniform1D(0.0, 1.0, 4) * gen.Uniform1D(0.0, 1.0, 3)
        g = inner + gen.Static(np.zeros((2, 2)))
        out = g.sample(rng())
        assert out.shape == (14, 2)
        assert len(g) == 14


class TestFilter:
    def test_keeps_only_matching_points(self):
        base = gen.Uniform1D(-1.0, 1.0, 50)
        g = gen.Filter(base, lambda p: p[:, 0] > 0)
        pts = g.sample(rng())
        assert pts.shape == (50, 1)
        assert np.all(pts > 0)

    def test_impossible_predicate_fails_loudly(self):
        base = gen.Uniform1D(0.0, 1.0, 10)
        g = gen.Filter(base, lambda p: p[:, 0] > 2.0)
        with pytest.raises(RuntimeError, match="resampling rounds"):
            g.sample(rng())

    def test_annulus_2d(self):
        base = gen.CubeND([-1.0, -1.0], [1.0, 1.0], 200)
        g = gen.Filter(base, lambda p: (p ** 2).sum(axis=1) > 0.25)
        pts = g.sample(rng())
        assert pts.shape == (200, 2)
        assert np.all((pts ** 2).sum(axis=1) > 0.25)


def test_uniform_random_is_uniform():
    # coarse two-sided bound on the mean of 4096 uniforms on [0, 1]
    g = gen.Uniform1D(0.0, 1.0, 4096)
    m = g.sample(gen.make_rng(11, 0)).mean()
    assert abs(m - 0.5) < 0.03


def _draws(rng):
    """The draws ``fit`` and its generators make, as bytes: uniform,
    Beta(1/2, 1/2) (arcsine sampling), integers and 32-bit words."""
    return b"".join([
        rng.uniform(-1.0, 2.0, size=5).tobytes(),
        rng.beta(0.5, 0.5, size=(4, 1)).tobytes(),
        rng.integers(0, 1000, size=3).tobytes(),
        rng.integers(0, 2 ** 32, size=3, dtype=np.uint32).tobytes(),
        rng.uniform(size=2).tobytes(),
    ])


KEY_WORD = st.integers(0, 2 ** 64 - 1)


@settings(max_examples=150, deadline=None)
@given(seed=KEY_WORD, stream=KEY_WORD, old_seed=KEY_WORD,
       old_stream=KEY_WORD, used=st.integers(0, 9))
@example(seed=0, stream=0, old_seed=5, old_stream=7, used=1)
@example(seed=2 ** 64 - 1, stream=2 ** 64 - 1, old_seed=0, old_stream=0,
         used=3)
def test_a_rekeyed_generator_draws_the_new_streams_bytes(
        seed, stream, old_seed, old_stream, used):
    rng = gen.make_rng(old_seed, old_stream)
    # a part-used buffer and, for odd counts, a cached 32-bit half
    rng.integers(0, 2 ** 32, size=used, dtype=np.uint32)
    rng.uniform(size=used % 3)
    assert gen.rekey(rng, seed, stream) is rng
    # a key array of one dtype: numpy turns a tuple that mixes a word below
    # 2**63 with one above it into float64, rounding the large word
    fresh = np.random.Generator(np.random.Philox(
        key=np.array([seed, stream], np.uint64)))
    expected = _draws(fresh)
    assert _draws(rng) == expected
    assert _draws(gen.make_rng(seed, stream)) == expected


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, "3", True, None])
def test_make_rng_rejects_what_cannot_key_a_stream(seed):
    assert not gen.is_seed(seed)
    with pytest.raises(ValueError, match=r"^seed must be an integer in "
                                         r"\[0, 2\*\*64\), got "):
        gen.make_rng(seed)
    with pytest.raises(ValueError, match=r"^stream must be an integer"):
        gen.make_rng(0, seed)


def test_large_key_words_are_not_rounded():
    # Philox(key=(seed, stream)) keyed both of these as (2**63, 0)
    a, b = (_draws(gen.make_rng(2 ** 63 + d, 0)) for d in (0, 1))
    assert a != b
