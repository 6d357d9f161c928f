"""qhydro: a 1-D quantum hydrodynamics laboratory.

Computes Madelung quantum potentials and forces, correlation and
nonlocality length scales, dynamical-regime labels, and integrates the
deterministic and correlated-noise hydrodynamic equations of motion.
Import names from the submodules (``qhydro.grids``, ``qhydro.dynamics``,
...); the package itself exposes only ``__version__``.
"""

__version__ = "0.1.0"
