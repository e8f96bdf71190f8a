"""Norms, compact-open seminorms, and the Saks identity check.

Supported spaces: Hardy circle-mean norms, weighted Bergman area norms,
the Dirichlet energy norm, weighted Bloch norms, and sup-weighted spaces of
holomorphic or continuous functions. Each space also carries the directed
family of compact-radius seminorms that generates the compact-open topology
and whose supremum recovers the norm (the Saks identity the diagnostics
check numerically).

Bergman norms with p = 2 and Dirichlet norms, and their seminorms, are
weighted sums of squared Taylor coefficients, which an FFT on a circle near
the boundary gives; doubling the FFT length certifies the sum, and the series
must reproduce f, finite, at two interior points. Where that certificate
fails (coefficients that decay too slowly, or a pole inside the disc), and for
every other integral norm, the functional is truncated at ``policy.r_cap``
and extrapolated to the boundary using the known tail exponent. Bloch norms
and seminorms come from the same expansion (one per function, cached): a
search over radii and angles maximises (1 - |z|^2)^alpha |f'| on the
derivative's series, certified by a uniform bound on how far doubling the FFT
moved f'. Where the expansion or that bound fails, and for the other
sup-type norms, the value is the maximum over a fixed grid. Either way it is
a lower bound for the true sup. Where the functional is the modulus of a
function holomorphic on the grid's disc (the H^infinity norm, |m_t|,
|phi_t|), the maximum principle puts the grid's maximum on its outer circle,
and only that circle is evaluated. Norms and seminorms share one evaluator,
whose one guard raises Unbounded for a value that is not finite or exceeds
the overflow guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exprs, holo
from .errors import InvalidParam, NonConvergent, Unbounded
from .holo import (
    DEFAULT_POLICY,
    OVERFLOW_GUARD,
    HoloFn,
    QuadPolicy,
    annulus_integral,
    boundary_extrapolate,
    circle_mean_p,
    derivative_on_grid,
    disc_integral,
)

INTEGRAL_KINDS = ("hardy", "bergman", "dirichlet")

# Each space kind's own parameters and their defaults (None: required); every
# kind also takes a ``policy``, and a Bloch space's weight is (1 - |z|^2)^alpha.
SPACE_PARAMS = {"hardy": {"p": 2.0}, "bergman": {"alpha": None, "p": 2.0}, "dirichlet": {},
                "bloch": {"alpha": 1.0}, "sup-holo": {"weight": "one"},
                "sup-cont": {"weight": "exp-decay", "halfwidth": 40.0}}


@dataclass(frozen=True)
class SpaceSpec:
    """A space kind, its own parameters (one left out takes its SPACE_PARAMS
    default, one the kind does not take is a ValueError) and a quadrature policy."""

    kind: str
    p: float | None = None
    alpha: float | None = None
    weight: HoloFn | str | None = None
    halfwidth: float | None = None
    policy: QuadPolicy = DEFAULT_POLICY

    def __post_init__(self):
        if self.kind not in SPACE_PARAMS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        own = SPACE_PARAMS[self.kind]
        for key in ("p", "alpha", "weight", "halfwidth"):
            if getattr(self, key) is None:
                object.__setattr__(self, key, own.get(key))
            elif key not in own:
                raise ValueError(f"{key}: not a parameter of {self.kind}")
        if self.p is not None and self.p < 1:
            raise ValueError("p must be >= 1")
        if self.kind == "bergman" and not (self.alpha is not None and self.alpha > -1):
            raise ValueError("bergman weight exponent must be > -1")
        if self.halfwidth is not None and not self.halfwidth > 0:
            raise ValueError(f"halfwidth must be positive, got {self.halfwidth!r}")
        if self.kind == "bloch":
            object.__setattr__(self, "weight", holo.bloch_weight(self.alpha))
        elif "weight" in own:
            object.__setattr__(self, "weight", _weight(self))

    # -- constructors ------------------------------------------------------
    @classmethod
    def hardy(cls, p: float | None = None, policy: QuadPolicy = DEFAULT_POLICY):
        return cls("hardy", p=p, policy=policy)

    @classmethod
    def bergman(cls, alpha: float, p: float | None = None, policy: QuadPolicy = DEFAULT_POLICY):
        return cls("bergman", p=p, alpha=alpha, policy=policy)

    @classmethod
    def dirichlet(cls, policy: QuadPolicy = DEFAULT_POLICY):
        return cls("dirichlet", policy=policy)

    @classmethod
    def bloch(cls, alpha: float | None = None, policy: QuadPolicy = DEFAULT_POLICY):
        return cls("bloch", alpha=alpha, policy=policy)

    @classmethod
    def sup_holo(cls, weight: HoloFn | str | None = None, policy: QuadPolicy = DEFAULT_POLICY):
        return cls("sup-holo", weight=weight, policy=policy)

    @classmethod
    def sup_cont(cls, weight: HoloFn | str | None = None, halfwidth: float | None = None,
                 policy: QuadPolicy = DEFAULT_POLICY):
        return cls("sup-cont", weight=weight, halfwidth=halfwidth, policy=policy)

    @property
    def is_real(self) -> bool:
        return self.kind == "sup-cont"

    @property
    def domain(self) -> holo.Domain:
        return holo.REAL_LINE if self.is_real else holo.UNIT_DISC

    @property
    def label(self) -> str:
        if self.kind == "hardy":
            return f"H^{self.p:g}"
        if self.kind == "bergman":
            return f"A^{self.p:g}_{self.alpha:g}"
        if self.kind == "dirichlet":
            return "Dirichlet"
        prefix = {"bloch": "Bloch", "sup-holo": "Hv", "sup-cont": "Cv"}[self.kind]
        return f"{prefix}[{self.weight.name or 'v'}]"


def _weight(space: SpaceSpec) -> HoloFn:
    """A sup-holo or sup-cont weight from a HoloFn, "one", "exp-decay" or an
    expression on the space's domain; real and > 0 on the space's sup grid."""
    spec, domain = space.weight, space.domain
    names = {"one": holo.unit_weight(domain), "exp-decay": holo.exp_abs_decay_weight()}
    if isinstance(spec, str):
        try:
            spec = names[spec] if spec in names else exprs.to_holofn(spec, domain)
        except ValueError as e:
            raise ValueError(f"weight: bad expression: {e}") from None
    elif not isinstance(spec, HoloFn):
        raise ValueError(f"weight: expected a name or an expression string, got {spec!r}")
    pts = real_sup_points(space.halfwidth) if space.is_real else disc_sup_points(space.policy.r_cap)
    with np.errstate(all="ignore"):  # a pole fails the checks below
        vals = np.asarray(spec.fn(pts))  # as the norms evaluate it
    for bad, what in ((~np.isfinite(vals), "not finite"), (np.imag(vals) != 0.0, "not real"),
                      (~(np.real(vals) > 0.0), "not strictly positive")):
        if np.any(bad):
            raise ValueError(f"weight is {what} at {pts[np.argmax(bad)].item()}")
    return spec


@dataclass(frozen=True)
class SeminormIndex:
    """Radius parameter of a compact-open seminorm."""

    s: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise InvalidParam("seminorm radius must lie in (0, 1)")


# ---------------------------------------------------------------------------
# grids for sup-type evaluation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _sup_circle():
    """The angles of the disc sup grid as points e^(i theta) in increasing
    theta: 512 uniform angles plus angles pi 2^(-j/4) clustered on both sides
    of 0. Also the positions of the 512 uniform angles among them."""
    uniform = 2.0 * np.pi * np.arange(512) / 512
    clustered = np.pi * 2.0 ** (-np.arange(4, 65) / 4)
    angles = np.sort(np.concatenate([uniform, clustered, 2.0 * np.pi - clustered]))
    angles = angles[np.diff(angles, prepend=-1.0) > 0.0]  # pi 2^-m is a uniform angle too
    return np.exp(1j * angles), np.searchsorted(angles, uniform)


@lru_cache(maxsize=32)
def _sup_radii(r_cap: float):
    """The radii of the disc sup grid: those of 0, 0.1, .., 0.4 and
    1 - 2^(-k/4) that lie below r_cap, and r_cap itself, in increasing order."""
    rs = np.concatenate([np.arange(0.0, 0.45, 0.1), 1.0 - 2.0 ** (-np.arange(4, 81) / 4)])
    return np.append(rs[rs < r_cap], r_cap)


@lru_cache(maxsize=32)
def disc_sup_points(r_cap: float):
    """Polar sup grid: the radii of :func:`_sup_radii` times the angles of
    :func:`_sup_circle`; one row of angles per radius, the outermost last."""
    return (_sup_radii(r_cap)[:, None] * _sup_circle()[0][None, :]).ravel()


@lru_cache(maxsize=32)
def real_sup_points(halfwidth: float):
    return np.linspace(-halfwidth, halfwidth, 8193)


def _grid_scale(space: SpaceSpec, radius_scale: float) -> float:
    """The factor on the grid's points: radius_scale on the real line, and
    radius_scale / r_cap on the disc, where the grid ends at r_cap."""
    if space.is_real or radius_scale == 1.0:
        return radius_scale
    return radius_scale / space.policy.r_cap


def _check_bounded(points, vals):
    """Raise Unbounded naming the first point whose value is not finite or
    exceeds the overflow guard."""
    bad = ~np.isfinite(vals) | (vals > OVERFLOW_GUARD)
    if np.any(bad):
        i = int(np.argmax(bad))
        what = "exceeded the overflow guard" if np.isfinite(vals[i]) else "is not finite"
        raise Unbounded(f"sup evaluation {what} at {points[i]}")


def certified_sup(values_at, space: SpaceSpec, radius_scale: float = 1.0) -> float:
    """Certified grid maximum of a pointwise functional.

    ``values_at`` maps a point array to nonnegative reals. Returns its
    maximum over the sup grid, a lower bound for the true sup. It runs on
    the blocks of :func:`holo.row_blocks`, one grid point to a row; a maximum
    is exact in any order, so the blocks do not move the value. A value that
    is not finite or exceeds the overflow guard raises Unbounded naming its
    point.
    """
    pts = real_sup_points(space.halfwidth) if space.is_real else disc_sup_points(
        space.policy.r_cap)
    scale = _grid_scale(space, radius_scale)
    best = -np.inf
    for rows in holo.row_blocks(pts.size, 1):
        block = pts[rows] if scale == 1.0 else pts[rows] * scale
        with np.errstate(all="ignore"):  # a pole on the grid is reported below
            vals = np.asarray(values_at(block), dtype=float)
        _check_bounded(block, vals)
        best = max(best, np.max(vals))
    return float(best)


# Where a Taylor series must reproduce f, and (as multiples of its radius) the
# outer circle's Cauchy integral must reproduce F: 0 and a point off both axes.
_PROBES = np.array([0.0, 0.3 + 0.4j])


def _modulus_sup(F, space: SpaceSpec, radius_scale: float = 1.0) -> tuple[float, str]:
    """:func:`modulus_sup` and the method that gave it:
    ``maximum-principle-circle`` or ``certified-grid-sup``."""
    if not space.is_real:
        circle, uniform = _sup_circle()
        scale = _grid_scale(space, radius_scale)
        ring = disc_sup_points(space.policy.r_cap)[-circle.size:]
        ring = ring if scale == 1.0 else ring * scale
        probes = ring[0].real * _PROBES  # ring[0] is at angle 0
        zeta = ring[uniform]
        with np.errstate(all="ignore"):  # a pole is left to the grid
            vals = np.asarray(F(ring))
            cauchy = np.mean(vals[uniform] * zeta / (zeta - probes[:, None]), axis=1)
            miss = np.abs(cauchy - np.asarray(F(probes)))
            mods = np.abs(vals)
            top = np.max(mods)
        if np.all(np.isfinite(vals)) and np.all(miss <= 1e3 * np.finfo(float).eps * max(1.0, top)):
            _check_bounded(ring, mods)
            return float(top), "maximum-principle-circle"
    return certified_sup(lambda z: np.abs(np.asarray(F(z))), space, radius_scale), \
        "certified-grid-sup"


def modulus_sup(F, space: SpaceSpec, radius_scale: float = 1.0) -> float:
    """max |F| over the space's sup grid, scaled as :func:`certified_sup`
    scales it (``F`` maps a point array to complex values).

    On the disc, for F holomorphic on the grid's disc, |F| peaks on the
    grid's outer circle by the maximum principle, so only its row of the
    grid is evaluated, as long as that row resolves F: every value on it is
    finite, and the trapezoid Cauchy integral over its 512 uniform angles
    reproduces F at 0 and at 0.3 + 0.4i times its radius within
    1e3 eps max(1, max |F| on the circle). Otherwise (a pole inside, a
    singularity the circle does not resolve), and on the real line, where
    no maximum principle holds, the whole grid runs through
    :func:`certified_sup`. Either way the value is a lower bound for the true
    sup, and one past the overflow guard raises Unbounded.
    """
    return _modulus_sup(F, space, radius_scale)[0]


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEvaluation:
    """Norm or seminorm value with the method that gave it."""

    value: float
    method: str


def _density(space: SpaceSpec, f: HoloFn):
    """Area integrand of a Bergman or Dirichlet functional, before scaling,
    as ``(g, radial)`` for :func:`disc_integral`: g of the point and the
    radial weight of the radius (Bergman: |f|^p and (1 - s^2)^alpha;
    Dirichlet: |f'|^2 and None)."""
    if space.kind == "bergman":
        a, p = space.alpha, space.p
        return lambda z: np.abs(f.fn(z)) ** p, lambda s: (1.0 - s * s) ** a
    return lambda z: np.abs(derivative_on_grid(f, z)) ** 2, None


def _area_scale(space: SpaceSpec, integral: float) -> float:
    """Normalise an area integral of the density (Bergman: (a+1)/pi, Dirichlet: 1/pi)."""
    if space.kind == "bergman":
        return (space.alpha + 1.0) / np.pi * integral
    return integral / np.pi


def _radial_functional(space: SpaceSpec, f: HoloFn, r: float) -> float:
    """F(r): the p-power (or squared) integral functional truncated at r."""
    if space.kind == "hardy":
        return circle_mean_p(f, r, space.p, space.policy)
    g, radial = _density(space, f)
    area = _area_scale(space, disc_integral(g, r, space.policy, radial=radial))
    if space.kind == "dirichlet":
        return abs(complex(f(0.0))) ** 2 + area
    return area


def _tail_exponent(space: SpaceSpec) -> float:
    return space.alpha + 1.0 if space.kind == "bergman" else 1.0


def _root(space: SpaceSpec) -> float:
    """Exponent taking an integral functional to its norm."""
    return 0.5 if space.kind == "dirichlet" else 1.0 / space.p


def _annulus_increment(space: SpaceSpec, f: HoloFn, r1: float, r2: float) -> float:
    if space.kind == "hardy":
        return _radial_functional(space, f, r2) - _radial_functional(space, f, r1)
    g, radial = _density(space, f)
    return _area_scale(space, annulus_integral(g, r1, r2, space.policy, radial=radial))


@lru_cache(maxsize=64)
def _coefficient_weights(kind: str, alpha: float | None, s: float, n: int):
    """w_k(s) for k < n, with F(s) = sum_k w_k(s) |a_k|^2 the squared norm
    (s = 1) or seminorm (s < 1) of f = sum_k a_k z^k on a space of this kind
    and alpha; cached, so the array is read-only.

    Dirichlet: w_0 = 1 and w_k = k s^2k. Bergman: w_k = (alpha+1) times the
    integral of u^k (1-u)^alpha over [0, s^2]. With x = s^2,
    T = (1-x)^(alpha+1), P_k = prod_{j<=k} j/(j+alpha+1) (the s = 1 value
    Gamma(k+1) Gamma(alpha+2) / Gamma(k+alpha+2)) and
    t_j = x^j / ((j+alpha+1) P_j), integrating by parts gives w_k = P_k b_k,

        b_k = 1 - T - (alpha+1) T sum_{j=1..k} t_j = (alpha+1) T sum_{j>k} t_j.

    The first form loses a small b_k (large k, small s) to cancellation, so
    the second, a sum of positive terms, is used whenever its series settles
    within 5n terms. Otherwise s is so near 1 that no b_k with k < n is
    small, and the first form holds (within 2e-13 relative of a 50-digit
    reference for alpha from -0.9 to 6 and s up to 0.9999)."""
    k = np.arange(n, dtype=float)
    x = s * s
    if kind == "dirichlet":
        w = k * x ** k
        w[0] = 1.0
    else:
        a1 = alpha + 1.0
        j = np.arange(1.0, 5 * n)
        P = np.cumprod(np.concatenate(([1.0], j / (j + a1))))
        w = P[:n]
        if s != 1.0:
            T = (1.0 - x) ** a1
            t = x ** j / ((j + a1) * P[1:])  # t[i] is t_{i+1}
            if t[-1] <= 1e-17 * (1.0 - x) * t[n - 1]:
                b = a1 * T * np.cumsum(t[::-1])[::-1][:n]
            else:
                b = 1.0 - T - a1 * T * np.concatenate(([0.0], np.cumsum(t[:n - 1])))
            w = w * np.maximum(b, 0.0)
    w.flags.writeable = False
    return w


_EPS = np.finfo(float).eps


@lru_cache(maxsize=8)
def _probe_powers(n: int):
    """The powers 0 .. n-1 of each point of _PROBES, one row per probe."""
    return np.vander(_PROBES, n, increasing=True)


def _expansion(f: HoloFn, policy: QuadPolicy):
    """The Taylor coefficients of f from n = 4 n_theta and 2n FFT points, as
    (coarse, fine, scale) with scale = sum |fine|, which bounds |f| on the FFT
    circle. None when f is not finite on either FFT circle or at _PROBES, or
    when the series of the fine coefficients misses f at _PROBES by more than
    100 tol max(1, |f|) plus the FFT's rounding floor 1e3 eps scale: a pole
    or branch cut inside the circle leaves the coefficients of a function
    that is not f."""
    n = 4 * policy.n_theta
    try:
        coarse, fine = holo.taylor_coefficients(f, n), holo.taylor_coefficients(f, 2 * n)
    except NonConvergent:
        return None
    with np.errstate(all="ignore"):  # f may have a pole at a probe
        at_probes = np.asarray(f(_PROBES))
    if not np.all(np.isfinite(at_probes)):
        return None
    scale = float(np.abs(fine).sum())
    bound = 100.0 * policy.tol * np.maximum(1.0, np.abs(at_probes)) + 1e3 * _EPS * scale
    if not np.all(np.abs(_probe_powers(fine.size) @ fine - at_probes) <= bound):
        return None
    return coarse, fine, scale


def _coefficient_functional(space: SpaceSpec, f: HoloFn, s: float) -> float | None:
    """F(s) from the Taylor coefficients of f (:func:`_expansion`): the weighted
    sums of the coarse and the fine coefficients, certified by
    :func:`holo.certify_doubling`. None when the space is not Dirichlet or
    Bergman with p = 2, or when the expansion or the certificate fails."""
    if not (space.kind == "dirichlet" or (space.kind == "bergman" and space.p == 2.0)):
        return None
    expansion = _expansion(f, space.policy)
    if expansion is None:
        return None
    with np.errstate(all="ignore"):  # a sum that overflows fails the certificate below
        F_coarse, F_fine = [float(np.dot(_coefficient_weights(space.kind, space.alpha, s, a.size), np.abs(a) ** 2))
                            for a in expansion[:2]]
    try:
        return holo.certify_doubling(F_coarse, F_fine, space.policy.tol, "Taylor coefficient sum")
    except NonConvergent:
        return None


@lru_cache(maxsize=16)
def _radius_powers(R: float, n: int):
    """k R^(k-1) for k = 1 .. n-1: the weights of the uniform bound of f'."""
    k = np.arange(1.0, n)
    return k * R ** (k - 1.0)


def _bloch_search(space: SpaceSpec, f: HoloFn, s: float) -> float | None:
    """The Bloch norm (s = 1) or seminorm at radius s < 1 of f, |f(0)| plus the
    max of (1 - |z|^2)^alpha |f'(z)| over |z| <= R (R = r_cap for the norm,
    s for a seminorm), from the Taylor expansion of f (:func:`_expansion`).

    f' is the series of the fine coefficients, trimmed after its last
    coefficient above 32 eps sum |a_k| (the FFT's rounding floor);
    :func:`_weighted_radial_sup` finds its weighted maximum. The coarse and
    fine derivatives differ by at most sum_k k |a_k^fine - a_k^coarse|
    R^(k-1) on the disc of radius R; the value stands when that bound is at
    most 100 tol max(1, value). None for a space that is not Bloch, and when
    the expansion or that certificate fails."""
    if space.kind != "bloch":
        return None
    expansion = _expansion(f, space.policy)
    if expansion is None:
        return None
    coarse, fine, scale = expansion
    R = s if s < 1.0 else space.policy.r_cap
    diff = np.abs(fine[1:])
    above = np.flatnonzero(diff > 32.0 * _EPS * scale)
    K = int(above[-1]) + 1 if above.size else 0
    diff[: coarse.size - 1] = np.abs(fine[1:coarse.size] - coarse[1:])
    gap = float(np.dot(_radius_powers(R, fine.size), diff))
    b = np.arange(1.0, K + 1) * fine[1:K + 1]  # the coefficients of f'
    rs = _sweep_radii(space.policy.r_cap) * (R / space.policy.r_cap)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow guard reports it
        value = abs(complex(f(0.0))) + (_weighted_radial_sup(b, space.alpha, rs) if K else 0.0)
    return value if gap <= 100.0 * space.policy.tol * max(1.0, value) else None


@lru_cache(maxsize=32)
def _sweep_radii(r_cap: float):
    """Every third radius of :func:`_sup_radii`, counted back from r_cap."""
    return _sup_radii(r_cap)[::-3][::-1].copy()


def _sample_peaks(vals, first_row: int, most: int = 8):
    """Row and column indices of the largest sample at rows >= first_row,
    then of up to most - 1 others there, largest first: those that are at
    least half the largest and exceed each of their eight neighbours
    (columns wrap around) by a relative 1e-9."""
    n, m = vals.shape
    ext = np.full((n + 2, m + 2), -np.inf)
    ext[1:-1, 1:-1] = vals
    ext[1:-1, 0], ext[1:-1, -1] = vals[:, -1], vals[:, 0]
    peak = vals >= 0.5 * vals[first_row:].max()
    peak[:first_row] = False
    below = vals / (1.0 + 1e-9)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if di != 1 or dj != 1:
                peak &= ext[di:di + n, dj:dj + m] < below
    first = np.argmax(vals[first_row:]) + first_row * m
    order = np.flatnonzero(peak)
    order = order[np.argsort(-vals.flat[order], kind="stable")]
    return np.unravel_index(np.concatenate(([first], order[order != first][:most - 1])), (n, m))


def _weighted_radial_sup(b, alpha: float, rs) -> float:
    """max of (1 - |z|^2)^alpha |F(z)| over |z| <= R, for F = sum_k b_k z^k
    and the increasing radii rs, from 0 or more to R = rs[-1].

    Sweep: each circle of rs sampled at L >= 4K angles (K = len(b)) by one
    batched inverse FFT. Then safeguarded Newton (:func:`_ascend`) from the
    peaks of the samples off the centre (:func:`_sample_peaks`). The largest
    sample or refined value is returned: a lower bound for the sup. A
    constant F peaks at the centre: |b_0|."""
    K = b.size
    if K == 1:
        return abs(complex(b[0]))
    L = max(16, 1 << (4 * K - 1).bit_length())
    k = np.arange(K)
    mods = np.abs(np.fft.ifft(b * rs[:, None] ** k, L)) * L
    vals = (1.0 - rs * rs)[:, None] ** alpha * mods
    terms = np.array([b, k * b, k * (k - 1.0) * b])

    def local(u, theta):
        """phi = alpha log(1 - r^2) + log|F| at (u, theta) = (log r, arg z),
        its exponential, its gradient and its Hessian (uu, u theta, theta
        theta). log|F| is harmonic in u + i theta, so with g1 = z F'/F and
        g2 = z^2 F''/F its gradient is (Re g1, -Im g1) and its Hessian has
        the entries Re G'', -Im G'' and -Re G'', G'' = g1 + g2 - g1^2."""
        F, zF1, zzF2 = (complex(c) for c in terms @ np.exp(k * complex(u, theta)))
        if F == 0.0:
            return -math.inf, 0.0, None, None
        g1 = zF1 / F
        G2 = g1 + zzF2 / F - g1 * g1
        w = -math.expm1(2.0 * u)  # 1 - r^2
        t = 2.0 * alpha * (1.0 - w) / w
        value = w ** alpha * abs(F)
        grad = (g1.real - t, -g1.imag)
        hess = (G2.real - 2.0 * t / w, -G2.imag, -G2.real)
        return math.log(value) if value > 0.0 else -math.inf, value, grad, hess

    best = float(vals.max())
    for i, j in zip(*_sample_peaks(vals, 1 if rs[0] == 0.0 else 0)):
        best = max(best, _ascend(local, math.log(rs[i]), 2.0 * math.pi * j / L, math.log(rs[-1])))
    return best


def _ascend(local, u: float, theta: float, u_max: float) -> float:
    """The value at the end of safeguarded Newton ascent on ``local`` (see
    :func:`_weighted_radial_sup`) from (u, theta), with u <= u_max: a step
    that does not raise phi is halved, a step past u_max stops on it, and the
    ascent ends when the step's predicted gain is below 4 eps."""
    phi, value, grad, hess = local(u, theta)
    for _ in range(32):
        if grad is None:
            break
        (gu, gt), (huu, hut, htt) = grad, hess
        det = huu * htt - hut * hut
        if huu < 0.0 and det > 0.0:
            su, st = (hut * gt - htt * gu) / det, (hut * gu - huu * gt) / det
        else:
            scale = max(1.0, abs(huu), abs(hut), abs(htt))
            su, st = gu / scale, gt / scale
        if u >= u_max and su > 0.0:  # on the outer circle: move along it
            su, st = 0.0, (-gt / htt if htt < 0.0 else gt)
        elif u + su > u_max:
            su, st = u_max - u, st * (u_max - u) / su
        if gu * su + gt * st <= 4.0 * _EPS:  # no gain above rounding left
            break
        for _ in range(12):
            trial = local(min(u + su, u_max), theta + st)
            if trial[0] > phi:
                break
            su, st = su / 2.0, st / 2.0
        else:
            break
        u, theta = min(u + su, u_max), theta + st
        phi, value, grad, hess = trial
    return value


def _evaluate(space: SpaceSpec, f: HoloFn, s: float) -> NormEvaluation:
    """The norm (s = 1) or the compact-open seminorm at radius s < 1 of f:
    a certified Taylor-coefficient sum, the certified Taylor-coefficient
    search of a Bloch space (:func:`_bloch_search`), the integral quadrature
    at s, the integral norm truncated at r_cap and extrapolated to the
    boundary, the maximum-principle circle of H^infinity with the unit
    weight, or the grid sup (the Bloch one plus |f(0)|, where the search's
    expansion or certificate fails). The one overflow guard of every norm and
    seminorm: a value that is not finite or exceeds it raises Unbounded."""
    if (F := _coefficient_functional(space, f, s)) is not None:
        ev = NormEvaluation(float(F ** 0.5), "taylor-coefficients")
    elif (sup := _bloch_search(space, f, s)) is not None:
        ev = NormEvaluation(sup, "taylor-coefficient-search")
    elif space.kind in INTEGRAL_KINDS and s < 1.0:
        ev = NormEvaluation(float(_radial_functional(space, f, s) ** _root(space)), "quadrature")
    elif space.kind in INTEGRAL_KINDS:
        r1 = space.policy.r_cap
        r2 = 1.0 - (1.0 - r1) / 10.0
        F1 = _radial_functional(space, f, r1)
        F2 = F1 + _annulus_increment(space, f, r1, r2)
        ext = boundary_extrapolate(F1, F2, r1, r2, _tail_exponent(space))
        ext = max(ext, F2)  # the functionals are nondecreasing in r
        ev = NormEvaluation(float(ext ** _root(space)), "truncated-extrapolated")
    elif space.kind == "sup-holo" and space.weight is holo.unit_weight():
        ev = NormEvaluation(*_modulus_sup(f.fn, space, s))
    else:
        vfn = space.weight.fn
        if space.kind == "bloch":
            head, mod = abs(complex(f(0.0))), lambda z: np.abs(derivative_on_grid(f, z))
        else:
            head, mod = 0.0, lambda z: np.abs(f.fn(z))
        ev = NormEvaluation(head + certified_sup(lambda z: mod(z) * np.real(vfn(z)), space, s),
                            "certified-grid-sup")
    if not ev.value <= OVERFLOW_GUARD:
        raise Unbounded(f"{space.label}: the {ev.method} value {ev.value:g} is not finite "
                        f"or exceeds the overflow guard {OVERFLOW_GUARD:g}")
    return ev


def norm_detail(space: SpaceSpec, f: HoloFn) -> NormEvaluation:
    return _evaluate(space, f, 1.0)


def norm(space: SpaceSpec, f: HoloFn) -> float:
    return _evaluate(space, f, 1.0).value


def co_seminorm(space: SpaceSpec, f: HoloFn, idx: SeminormIndex) -> float:
    """Compact-open seminorm at radius idx.s (nondecreasing in s, below norm)."""
    return _evaluate(space, f, idx.s).value


def check_radii(radii) -> list:
    """The radii as floats, nonempty and increasing toward 1 (so their reprs differ)."""
    radii = [float(r) for r in radii]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidParam("radii must be nonempty and increase toward 1")
    return radii


def saks_sup_check(space: SpaceSpec, f: HoloFn, radii, tol: float = 1e-3) -> tuple[dict, bool]:
    """``({norm, max_seminorm, gap}, verdict)``: the norm against the largest
    seminorm over ``radii``, per the Saks identity. The verdict passes when
    the two agree to within tol on either side: a seminorm above the norm
    fails too."""
    radii = check_radii(radii)
    nrm = norm(space, f)
    best = max(co_seminorm(space, f, SeminormIndex(r)) for r in radii)
    gap = nrm - best
    return {"norm": nrm, "max_seminorm": best, "gap": gap}, bool(abs(gap) < tol)


def default_corpus(real: bool = False):
    """The fixed five-function test corpus: 1, z, z^2, 1+z, exp(z/2)."""
    dom = holo.REAL_LINE if real else holo.UNIT_DISC
    return [
        holo.one(dom),
        holo.monomial(1, dom),
        holo.monomial(2, dom),
        holo.poly([1.0, 1.0], dom),
        holo.exp_fn(0.5, dom),
    ]
