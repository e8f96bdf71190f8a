"""Numerical laboratory for weighted composition semigroups
C(t)f = m_t (f o phi_t) on spaces of holomorphic and continuous functions.

Modules: holo (complex-analytic calculus and quadrature), spaces (norms,
compact-open seminorms, Saks check), flows (semiflow catalog
and ODE reconstruction), cocycles (integral/coboundary/derivative weights),
semigroup (operators, bounds, generator and continuity probes), exprs (the
small configuration expression grammar), suites/cli (experiment runner).
"""

from .holo import Domain, HoloFn, QuadPolicy, UNIT_DISC, REAL_LINE
from .spaces import SeminormIndex, SpaceSpec
from .flows import Semiflow, make_catalog_semiflow, semiflow_from_generator
from .cocycles import Semicocycle, cocycle_from_g, coboundary, derivative_cocycle, trivial_cocycle
from .semigroup import WcSemigroup

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "HoloFn",
    "QuadPolicy",
    "UNIT_DISC",
    "REAL_LINE",
    "SeminormIndex",
    "SpaceSpec",
    "Semiflow",
    "make_catalog_semiflow",
    "semiflow_from_generator",
    "Semicocycle",
    "cocycle_from_g",
    "coboundary",
    "derivative_cocycle",
    "trivial_cocycle",
    "WcSemigroup",
    "__version__",
]
