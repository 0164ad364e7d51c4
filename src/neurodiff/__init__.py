"""Neural-network differential equation solver.

Solves ODEs/PDEs by training networks to minimize equation residuals at
sampled collocation points, with initial/boundary conditions enforced
exactly by reparameterization.
"""

from . import (autodiff, bases, callbacks, conditions, generators, losses,
               network, operators, solver)
from .autodiff import backward, constant, diff, variable
from .losses import LossSpec
from .network import MLP, MLPSpec
from .solver import (Adam, BundleLayout, Problem, SGD, Solution, SolverConfig,
                     fit, fit_inverse, get_solution)

__version__ = "0.1.0"
