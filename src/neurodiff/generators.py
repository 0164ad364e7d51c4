"""Composable collocation-point samplers.

A generator is an immutable description; ``sample(rng)`` draws one batch as
an (n, D) float64 array.  The rng is owned by the caller (the solver) so
generators themselves carry no mutable state.  The RNG algorithm is numpy's
counter-based Philox; per-implementation determinism is guaranteed by
seeding, and independent streams are derived by keying Philox with distinct
(seed, stream) pairs.  ``rekey`` is the one way to key a stream: it sets a
generator's Philox to the start of the stream in place, so ``fit`` builds
one Philox and re-keys it for every batch, and ``make_rng`` builds one and
keys it once.
"""

import numbers

import numpy as np


def _is_integer(x):
    """Whether ``x`` is an int or numpy integer (a bool is not)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_count(owner, name, value):
    """Raise ``ValueError`` naming ``owner``'s ``name`` unless ``value`` is
    an integer (``_is_integer``) of at least 1."""
    if not _is_integer(value):
        raise ValueError(f"{owner}: {name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{owner}: {name} must be at least 1, got {value!r}")


def is_seed(value):
    """Whether ``value`` can key a stream: an integer in [0, 2**64), one
    Philox key word."""
    return _is_integer(value) and 0 <= value < 2 ** 64


def rekey(rng, seed, stream=0):
    """Set ``rng``, a Generator on Philox, to the start of the stream for
    (seed, stream) and return it: key [seed, stream], a zero counter, an
    empty buffer and no cached 32-bit half, as ``Philox(key=(seed,
    stream))`` starts, so every draw equals a new generator's byte for
    byte.  Both must be integers in [0, 2**64)."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([seed, stream], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def make_rng(seed, stream=0):
    """A new deterministic Philox stream for (seed, stream)."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not is_seed(value):
            raise ValueError(f"{name} must be an integer in [0, 2**64), "
                             f"got {value!r}")
    # a fixed seed spares Philox drawing OS entropy for a key rekey replaces
    return rekey(np.random.Generator(np.random.Philox(0)), seed, stream)


class Generator:
    """Base class; subclasses implement sample(rng) and __len__."""

    def sample(self, rng):
        raise NotImplementedError

    def __len__(self):
        raise NotImplementedError

    def __add__(self, other):
        return Concat(self, other)

    def __mul__(self, other):
        return Meshed(self, other)


class Uniform1D(Generator):
    def __init__(self, lo, hi, n, method="uniform-random"):
        if not lo < hi:
            raise ValueError(f"Uniform1D requires lo < hi, got [{lo}, {hi}]")
        _check_count("Uniform1D", "n", n)
        if method not in ("equally-spaced", "equally-spaced-noisy", "uniform-random"):
            raise ValueError(f"unknown sampling method {method!r}")
        self.lo, self.hi, self.n, self.method = float(lo), float(hi), int(n), method

    def sample(self, rng):
        if self.method == "uniform-random":
            pts = rng.uniform(self.lo, self.hi, size=self.n)
        else:
            pts = np.linspace(self.lo, self.hi, self.n)
            if self.method == "equally-spaced-noisy":
                spacing = (self.hi - self.lo) / max(self.n - 1, 1)
                pts = pts + rng.uniform(-spacing / 2, spacing / 2, size=self.n)
                pts = np.clip(pts, self.lo, self.hi)
        return pts.reshape(-1, 1)

    def with_size(self, n):
        return Uniform1D(self.lo, self.hi, n, self.method)

    def __len__(self):
        return self.n


class CubeND(Generator):
    def __init__(self, lows, highs, n):
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        if lows.shape != highs.shape or lows.ndim != 1:
            raise ValueError("lows and highs must be 1-D vectors of equal length")
        if not np.all(lows < highs):
            raise ValueError("CubeND requires lows < highs componentwise")
        _check_count("CubeND", "n", n)
        self.lows, self.highs, self.n = lows, highs, int(n)

    def sample(self, rng):
        u = rng.uniform(size=(self.n, self.lows.size))
        return self.lows + u * (self.highs - self.lows)

    def with_size(self, n):
        return CubeND(self.lows, self.highs, n)

    def __len__(self):
        return self.n


class Static(Generator):
    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        self.points = pts

    def sample(self, rng):
        return self.points.copy()

    def __len__(self):
        return self.points.shape[0]


class Product(Generator):
    """Pair two generators by index; sizes must match."""

    def __init__(self, g1, g2):
        if len(g1) != len(g2):
            raise ValueError(
                f"Product requires equal sizes, got {len(g1)} and {len(g2)}"
            )
        self.g1, self.g2 = g1, g2

    def sample(self, rng):
        return np.hstack([self.g1.sample(rng), self.g2.sample(rng)])

    def __len__(self):
        return len(self.g1)


class Meshed(Generator):
    """Full cross product of two generators; size n1 * n2."""

    def __init__(self, g1, g2):
        self.g1, self.g2 = g1, g2

    def sample(self, rng):
        a = self.g1.sample(rng)
        b = self.g2.sample(rng)
        n1, n2 = a.shape[0], b.shape[0]
        left = np.repeat(a, n2, axis=0)
        right = np.tile(b, (n1, 1))
        return np.hstack([left, right])

    def __len__(self):
        return len(self.g1) * len(self.g2)


class Concat(Generator):
    def __init__(self, g1, g2):
        self.g1, self.g2 = g1, g2

    def sample(self, rng):
        return np.vstack([self.g1.sample(rng), self.g2.sample(rng)])

    def __len__(self):
        return len(self.g1) + len(self.g2)


class Filter(Generator):
    """Keep points satisfying a predicate, resampling until the batch fills.

    The predicate is vectorized: it maps an (n, D) array to a boolean mask.
    Gives up after 100 resampling rounds so thin geometries fail loudly.
    """

    MAX_ROUNDS = 100

    def __init__(self, g, predicate):
        self.g, self.predicate = g, predicate

    def sample(self, rng):
        target = len(self.g)
        kept = []
        total = 0
        for _ in range(self.MAX_ROUNDS):
            pts = self.g.sample(rng)
            mask = np.asarray(self.predicate(pts), dtype=bool)
            sel = pts[mask]
            if sel.size:
                kept.append(sel)
                total += sel.shape[0]
            if total >= target:
                return np.vstack(kept)[:target]
        raise RuntimeError(
            f"Filter: predicate kept {total}/{target} points after "
            f"{self.MAX_ROUNDS} resampling rounds"
        )

    def __len__(self):
        return len(self.g)


class Transform(Generator):
    """Apply a coordinate map (n, D) -> (n, D') to every batch."""

    def __init__(self, g, map_fn):
        self.g, self.map_fn = g, map_fn

    def sample(self, rng):
        return np.asarray(self.map_fn(self.g.sample(rng)), dtype=float)

    def __len__(self):
        return len(self.g)
