"""Numerical engine for radial-function analysis on spherically symmetric
Riemannian manifolds.

The package models a manifold entirely through its warping function, computes
covariant derivatives of radial functions exactly at the jet level, evaluates
weighted Lebesgue/Sobolev norms by adaptive quadrature, and certifies a suite
of identities, inequalities, and embedding constants at desk scale.
"""

__version__ = "0.1.0"

from . import errors, jets  # noqa: F401
from .funcspace import RadialFunction, default_families  # noqa: F401
from .manifold import ManifoldSpec, WarpSpec, c_phi, sphere_volume  # noqa: F401
from .quadrature import DecayEnvelope, Integrand, QuadResult  # noqa: F401
from .verify import CheckSpec, GridSpec, VerificationReport, run_check, run_suite  # noqa: F401
