"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
plain bugs raise builtins. All inherit from :class:`WcsgError` so a CLI run
can catch one bad case without aborting a sweep.
"""


class WcsgError(Exception):
    """Base class for all package-level errors."""


class DomainExit(WcsgError):
    """A point (or a quadrature circle around it) left the declared domain."""


class NonConvergent(WcsgError):
    """Node-doubling or extrapolation failed its agreement certificate."""


class Unbounded(WcsgError):
    """A norm evaluation blew past the overflow guard (f not in the space)."""


class UnknownCatalogEntry(WcsgError):
    """Requested a semiflow the catalog does not define."""


class InvalidParam(WcsgError, ValueError):
    """Catalog or config parameter outside its admissible range."""


class EscapedDomain(WcsgError):
    """ODE trajectory reached the domain boundary before the requested time."""

    def __init__(self, message, tau_estimate):
        super().__init__(message)
        self.tau_estimate = tau_estimate


class StepUnderflow(WcsgError):
    """ODE step control drove the step size below 1e-14, or a trajectory did
    not reach the requested time within the RK4 step budget."""


class ZeroNotFixed(WcsgError):
    """A declared zero of a coboundary symbol moves under the semiflow."""


class OrderMismatch(WcsgError):
    """Coboundary quotient and derivative-power branches disagree near a zero."""


class DegenerateFixedPoint(WcsgError):
    """Admissibility ratio undefined because G'(b) vanishes."""


class UnsupportedSpaceBound(WcsgError):
    """No theoretical operator-norm formula implemented for this combination."""


class ConfigError(WcsgError):
    """Invalid experiment configuration, named by the offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
