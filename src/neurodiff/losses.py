"""Loss functionals over equation residuals.

All losses are Monte-Carlo estimates over the sampled batch and return a
scalar graph node.  ``mse`` is the optimization default (same minimizers as
``l2`` without the square-root gradient singularity at zero residual); ``l2``
is the literal root-mean-square form used for reporting.  The H1 family
differentiates the residual field itself with respect to the domain
coordinates.
"""

from dataclasses import dataclass

from . import autodiff as ad

KINDS = ("l2", "mse", "l1", "linf", "h1", "semi_h1")


@dataclass(frozen=True)
class LossSpec:
    kind: str = "mse"
    domain_dims: tuple = None  # coord indices for H1 gradients; None = all

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.domain_dims is not None:  # hashable: specs key recordings
            object.__setattr__(self, "domain_dims", tuple(self.domain_dims))


def _grad_sq_sum(residuals, coords):
    total = None
    m = residuals.value.shape[1]
    for j in range(m):
        col = ad.column(residuals, j)
        for x in coords:
            g = ad.diff(col, x)
            term = ad.reduce_sum(g ** 2)
            total = term if total is None else total + term
    return total


def loss(spec, residuals, coords=None):
    """Evaluate the loss for an N x m residual node (m equations)."""
    if residuals.value.ndim != 2:
        raise ad.ShapeError(
            f"residuals must be N x m, got shape {residuals.value.shape}"
        )
    n = residuals.value.shape[0]
    if n == 0:
        raise ValueError("empty residual batch")
    kind = spec.kind
    if kind in ("h1", "semi_h1"):
        if coords is None:
            raise ValueError(f"{kind} loss needs the domain coordinate nodes")
        if spec.domain_dims is not None:
            coords = [coords[i] for i in spec.domain_dims]
        if not coords:
            raise ValueError(f"{kind} loss with no domain coordinates")
    if kind == "mse":
        return ad.reduce_sum(residuals ** 2) / float(n)
    if kind == "l2":
        return ad.sqrt(ad.reduce_sum(residuals ** 2) / float(n))
    if kind == "l1":
        return ad.reduce_sum(abs(residuals)) / float(n)
    if kind == "linf":
        return ad.reduce_max(abs(residuals))
    if kind == "semi_h1":
        return ad.sqrt(_grad_sq_sum(residuals, coords) / float(n))
    # h1
    sq = ad.reduce_sum(residuals ** 2)
    return ad.sqrt((sq + _grad_sq_sum(residuals, coords)) / float(n))
