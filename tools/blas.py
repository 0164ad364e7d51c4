"""Time the benchmark workloads' matmul shapes on this host's numpy and BLAS.

    python3 tools/blas.py

Run from the root of a checkout.  With one BLAS thread (perfbench's
``pin``), it times each product hot, in float64, for the NN form (a
C-ordered left operand: a layer's product) and the TN form (a transposed
one: a weight gradient), on shapes on both sides of OpenBLAS's
small-matrix bound M·K·N = ``autodiff._SMALL_PRODUCT``.  Each line gives
the shape, M·K·N, the µs and GFLOP/s of one ``np.matmul`` call and, where
``autodiff._matmul`` runs the product as row tiles, the tiles and their µs
and GFLOP/s.  A run of it shows whether that bound still holds after an
upgrade of numpy or OpenBLAS.  The last line is one JSON object with the
environment and every row, for a BENCH file.
"""

import json
import os
import sys
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import pin  # noqa: E402

PINNED = pin.pin()  # one BLAS thread; before numpy is imported

import bench  # noqa: E402
import numpy as np  # noqa: E402
from neurodiff import autodiff as ad  # noqa: E402

# (M, K, N) of the NN form; TN is the weight gradient of the same layer,
# (N, M) @ (M, K) read as the transpose of an (M, N) block.  Widths 32
# (heat-d3, poisson-gaussian, decay) and 64 (sho-bundle), at row counts on
# both sides of the bound
SHAPES = [(512, 32, 32), (768, 32, 32), (976, 32, 32), (1024, 32, 32),
          (2048, 32, 32), (1024, 4, 32), (240, 64, 64), (256, 64, 64),
          (512, 64, 64)]


def hot_us(fn, budget=0.05, repeat=5):
    """The best of ``repeat`` timings of ``fn()``, in µs per call, each of
    about ``budget`` seconds."""
    fn()
    number = max(1, int(budget / max(timeit.timeit(fn, number=1), 1e-7)))
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def row(form, a, b):
    """One product's timings as a dict."""
    (m, k), n = a.shape, b.shape[1]
    flops = 2.0 * m * k * n
    us = hot_us(lambda: np.matmul(a, b))
    out = {"form": form, "shape": f"({m}, {k}) @ ({k}, {n})",
           "mkn": m * k * n, "us": round(us, 2),
           "gflops": round(flops / us / 1e3, 1)}
    rows = ad._tile_rows(a, b)
    if rows is not None:
        tiled = hot_us(lambda: ad._matmul(a, b))
        out.update(tiles=-(-m // rows), tile_rows=rows, tiled_us=round(tiled, 2),
                   tiled_gflops=round(flops / tiled / 1e3, 1))
    return out


def main():
    rng = np.random.Generator(np.random.Philox(key=1))
    rows = []
    for m, k, n in SHAPES:
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        rows.append(row("NN", a, b))
        g = rng.standard_normal((m, n))
        rows.append(row("TN", g.T, a))  # (n, m) @ (m, k)
    env = bench.environment(PINNED)
    print(f"bound M·K·N = {ad._SMALL_PRODUCT}, {env['blas']}, "
          f"{env['blas_threads']} BLAS thread")
    for r in rows:
        side = ">" if r["mkn"] > ad._SMALL_PRODUCT else "<="
        line = (f"{r['form']} {r['shape']:>24} MKN {side} bound "
                f"{r['us']:8.1f} us {r['gflops']:6.1f} GFLOP/s")
        if "tiles" in r:
            line += (f"  {r['tiles']} x {r['tile_rows']} rows: "
                     f"{r['tiled_us']:.1f} us {r['tiled_gflops']:.1f} GFLOP/s")
        print(line)
    print(json.dumps({"environment": env, "bound": ad._SMALL_PRODUCT,
                      "rows": rows}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
