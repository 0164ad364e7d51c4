"""The benchmark's workloads: one built-in preset each, trained with its own
recipe, plus the checks and references the benchmark applies to the result.

A trial trains a fresh state for ``epochs`` epochs; the first ``warmup`` of
them are set-up and are not timed.  ``tol`` is the validation loss whose
first crossing gives the time-to-tolerance; it sits on the steep early part
of the loss curve, where every seed probed crossed it well inside the trial.
"""

from dataclasses import dataclass

import numpy as np

from neurodiff import presets


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    epochs: int
    warmup: int
    tol: float

    def build(self):
        return presets.get(self.preset, dim=3)


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("decay", "decay", epochs=150, warmup=3, tol=0.05),
    Workload("sho-bundle", "sho-bundle", epochs=40, warmup=2, tol=0.3),
    Workload("heat-d3", "heat", epochs=80, warmup=2, tol=0.008),
    Workload("poisson-gaussian", "poisson-gaussian", epochs=60, warmup=2,
             tol=0.003),
)}


# Held-out bundle members for sho-bundle, as in acceptance criterion 6.
HELD_OUT_ICS = ((1.0, 0.0), (0.0, 1.0))


def solution_error(name, preset, solution):
    """Max |u - reference| on the preset's solution grid."""
    grid = preset.grid
    if name == "sho-bundle":
        t = grid[0]
        return max(
            float(np.abs(solution(t, np.full_like(t, u0), np.full_like(t, du0))
                         - preset.analytic(t, u0, du0)).max())
            for u0, du0 in HELD_OUT_ICS)
    return float(np.abs(solution(*grid) - preset.analytic(*grid)).max())


def condition_error(name, preset, solution):
    """Max value error of the trained solution where its condition pins it:
    at t0 for the initial-value problems, on t = 0 and the faces of the
    cube for heat, and on the outer sphere for poisson."""
    if name == "decay":
        t = np.zeros(1)
        return float(np.abs(solution(t) - 1.0).max())
    if name == "sho-bundle":
        u0, du0 = [m.ravel() for m in np.meshgrid(np.linspace(0.0, 1.0, 5),
                                                  np.linspace(0.0, 1.0, 5))]
        return float(np.abs(solution(np.zeros_like(u0), u0, du0) - u0).max())
    if name == "heat-d3":
        pts = np.linspace(0.0, 1.0, 7)
        xs = [m.ravel() for m in np.meshgrid(pts, pts, pts, indexing="ij")]
        t0 = np.zeros_like(xs[0])
        err = np.abs(solution(t0, *xs) - preset.analytic(t0, *xs)).max()
        face = [m.ravel() for m in np.meshgrid(pts, pts, indexing="ij")]
        for d in range(3):
            for side in (0.0, 1.0):
                cols = list(face)
                cols.insert(d, np.full_like(face[0], side))
                t = np.linspace(0.0, 1.0, cols[0].size)
                err = max(err, np.abs(solution(t, *cols)).max())
        return float(err)
    th, ph = [m.ravel() for m in np.meshgrid(
        np.linspace(0.2, np.pi - 0.2, 5), np.linspace(0.0, 2 * np.pi, 7))]
    r = np.full_like(th, presets.GAUSSIAN_RMAX)
    return float(np.abs(solution(r, th, ph)
                        - presets.gaussian_potential_exact(r)).max())
