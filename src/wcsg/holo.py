"""Complex-analytic function calculus shared by all higher modules.

Functions are evaluator-backed: a :class:`HoloFn` wraps a vectorized callable
over a declared domain, optionally with a vectorized closed-form derivative.
The catalog constructors supply that derivative, a difference ``f - g``
propagates it, and differentiation uses it when present.
Otherwise differentiation falls back to Cauchy's integral formula on circles
(trapezoidal rule, which is spectrally accurate for analytic integrands); the
Cauchy path also serves as the oracle the closed forms are tested against.
Real-domain functions reuse the same wrapper with a real domain tag; the
fallback "derivative" then means central finite differences with Richardson
extrapolation.

All operations are pure functions of immutable inputs. Quadrature sums run
in fixed index order so repeated runs are bit-stable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainExit, NonConvergent

# Node count for Cauchy circles used *inside* norm integrands and grid sups.
# With circle radius (1 - |z|)/2 the trapezoid error decays like 2**-k, so 64
# nodes are at machine precision; the doubling certificate is applied at the
# outer quadrature instead.
INNER_DERIV_NODES = 64

OVERFLOW_GUARD = 1e12

# Most points in one integrand call: a block of whole radial rows of a disc
# integral, of time nodes x points of an integral cocycle, or of a sup grid.
# Caps the memory of a call on large grids. With 8,192-point blocks (128 KB
# complex temporaries, glibc's default mmap threshold) whether each block
# faulted its pages in afresh depended on the heap layout alone: one
# benchmark workload took 6k or 170k minor faults as the size of the
# environment varied. Blocks of 16,384 points doubled the faults.
BLOCK_POINTS = 1 << 12


@dataclass(frozen=True)
class Domain:
    """Domain tag: the open unit disc or the real line."""

    kind: str = "disc"  # disc | real

    def __post_init__(self):
        if self.kind not in ("disc", "real"):
            raise ValueError(f"unknown domain kind {self.kind!r}")

    def contains(self, z, margin: float = 0.0) -> bool:
        z = np.asarray(z)
        if self.kind == "disc":
            return bool(np.all(np.abs(z) < 1.0 - margin))
        return bool(np.all(np.abs(np.imag(np.asarray(z, dtype=complex))) == 0.0))

    @property
    def dtype(self):
        """The dtype of a point: float on the real line, complex otherwise."""
        return float if self.kind == "real" else complex


def at_points(fn, z, dtype):
    """fn on np.atleast_1d(z) cast to dtype, in z's shape; a Python scalar for
    a scalar z. The one call boundary: no evaluator receives a 0-d array, so
    a lone point rounds exactly as it does inside a batch."""
    out = fn(np.atleast_1d(np.asarray(z, dtype=dtype)))
    return out if np.ndim(z) else np.asarray(out).item(0)


UNIT_DISC = Domain("disc")
REAL_LINE = Domain("real")


@dataclass(frozen=True)
class QuadPolicy:
    """Quadrature policy: node counts, boundary truncation, tolerance.

    n_theta   the fine rows of a circle mean or of a disc or annulus
              integral double their trapezoid angles from n_theta / 4 up to
              the cap 2 n_theta and stop once the value settles
    n_radial  total radial Gauss-Legendre node budget for disc integrals
    r_cap     boundary truncation radius for integrals up to |z| = 1
    tol       relative tolerance target for the doubling certificates
    """

    n_theta: int = 256
    n_radial: int = 128
    r_cap: float = 1.0 - 1e-6
    tol: float = 1e-8

    def __post_init__(self):
        if self.n_theta < 16:
            raise ValueError("n_theta must be >= 16")
        if self.n_radial < 8:
            raise ValueError("n_radial must be >= 8")
        if not 0.0 < self.r_cap < 1.0:
            raise ValueError("r_cap must lie in (0, 1)")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


DEFAULT_POLICY = QuadPolicy()


@dataclass(frozen=True)
class HoloFn:
    """A function as an evaluator over a declared domain.

    ``fn`` must accept numpy arrays (complex for disc domains, float for
    real domains) and vectorize elementwise; all catalog constructors below
    do. ``deriv``, when set, is f' with the same calling convention; without it
    :func:`derivative_on_grid` differentiates numerically.
    """

    fn: Callable
    domain: Domain = UNIT_DISC
    name: str = ""
    deriv: Callable | None = None

    def __call__(self, z):
        return at_points(self.fn, z, self.domain.dtype)

    def __sub__(self, other: HoloFn) -> HoloFn:
        """f - g on f's domain, carrying f' - g' when both derivatives are known."""
        f, g, df, dg = self.fn, other.fn, self.deriv, other.deriv
        deriv = None if df is None or dg is None else (lambda z: df(z) - dg(z))
        return HoloFn(lambda z: f(z) - g(z), self.domain,
                      name=f"({self.name or '?'}-{other.name or '?'})", deriv=deriv)


def ensure_finite(values, what: str):
    """Reject NaN/Inf before they enter downstream quadrature."""
    if not np.isfinite(values).all():
        raise NonConvergent(f"non-finite values in {what}")
    return values


def certify_doubling(coarse, fine, tol: float, what: str):
    """``fine`` if it moved from ``coarse`` by at most 100 tol max(1, max|fine|),
    else NonConvergent naming ``what``. A NaN fails the comparison and an inf
    in ``fine`` leaves no finite bound, so a non-finite value never passes."""
    gap = float(np.max(np.abs(coarse - fine)))
    if not gap <= 100.0 * tol * max(1.0, float(np.max(np.abs(fine)))) < np.inf:
        raise NonConvergent(f"{what}: doubling moved the value by {gap:.3e}")
    return fine


def row_blocks(n_rows: int, row_len: int):
    """Slices of whole rows covering range(n_rows) in order, each of at most
    BLOCK_POINTS points and at least one row."""
    step = max(1, BLOCK_POINTS // max(1, row_len))
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

def constant(c, domain: Domain = UNIT_DISC) -> HoloFn:
    c = complex(c)

    def fn(z):
        return np.full(np.shape(z), c, dtype=complex)

    return HoloFn(fn, domain, name=f"const({c:g})" if c.imag == 0 else f"const({c})",
                  deriv=lambda z: np.zeros(np.shape(z), dtype=complex))


def one(domain: Domain = UNIT_DISC) -> HoloFn:
    return dataclasses.replace(constant(1.0, domain), name="one")


def _int_power(z, n: int):
    """z ** n for an integer n >= 0, always a fresh array. Beyond n = 2 (kept
    as numpy's exact values) binary powering with array products: numpy's
    complex power does the same one element at a time, several times slower,
    and rounds within a few ulp of it."""
    if n <= 2:
        return z ** n
    out, base = None, z
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


def monomial(n: int, domain: Domain = UNIT_DISC) -> HoloFn:
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    deriv = np.zeros_like if n == 0 else (lambda z: n * _int_power(z, n - 1))
    return HoloFn(lambda z: _int_power(z, n), domain, name=f"e_{n}", deriv=deriv)


def poly(coeffs, domain: Domain = UNIT_DISC) -> HoloFn:
    """Polynomial with coefficients in increasing degree order."""
    cs = [complex(c) for c in coeffs]
    dcs = [k * c for k, c in enumerate(cs)][1:]

    def horner(ks, z):
        acc = np.zeros(np.shape(z), dtype=complex)
        for c in reversed(ks):
            acc = acc * z + c
        return acc

    return HoloFn(lambda z: horner(cs, z), domain,
                  name="poly" + repr([_fmt(c) for c in cs]), deriv=lambda z: horner(dcs, z))


def _fmt(c: complex):
    return c.real if c.imag == 0 else c


def exp_fn(scale=1.0, domain: Domain = UNIT_DISC) -> HoloFn:
    s = complex(scale)
    label = f"exp({s.real:g}z)" if s.imag == 0 else f"exp(({s})z)"
    return HoloFn(lambda z: np.exp(s * z), domain, name=label,
                  deriv=lambda z: s * np.exp(s * z))


def mobius(a) -> HoloFn:
    """Disc automorphism z -> (a - z) / (1 - conj(a) z)."""
    a = complex(a)
    if abs(a) >= 1:
        raise ValueError("mobius parameter must lie in the open unit disc")
    ac = np.conj(a)
    return HoloFn(lambda z: (a - z) / (1.0 - ac * z), UNIT_DISC, name=f"mobius({a})",
                  deriv=lambda z: (abs(a) ** 2 - 1.0) / (1.0 - ac * z) ** 2)


def mobius_kernel(a) -> HoloFn:
    """Reproducing-kernel style factor z -> 1 / (1 - conj(a) z)."""
    a = complex(a)
    if abs(a) >= 1:
        raise ValueError("kernel parameter must lie in the open unit disc")
    ac = np.conj(a)
    return HoloFn(lambda z: 1.0 / (1.0 - ac * z), UNIT_DISC, name=f"kernel({a})",
                  deriv=lambda z: ac / (1.0 - ac * z) ** 2)


def singular_inner() -> HoloFn:
    """exp((z+1)/(z-1)): bounded by 1 on the disc, essential singularity at 1."""
    return HoloFn(lambda z: np.exp((z + 1.0) / (z - 1.0)), UNIT_DISC, name="singular_inner",
                  deriv=lambda z: -2.0 / (z - 1.0) ** 2 * np.exp((z + 1.0) / (z - 1.0)))


# positive continuous weights (returned values are real)

def unit_weight(domain: Domain = UNIT_DISC) -> HoloFn:
    """The weight 1: one object per domain, so a space can tell it by identity."""
    return _UNIT_WEIGHTS[domain]


_UNIT_WEIGHTS = {d: HoloFn(lambda z: np.ones(np.shape(z), dtype=float), d, name="one")
                 for d in (UNIT_DISC, REAL_LINE)}


@lru_cache(maxsize=32)
def bloch_weight(alpha: float) -> HoloFn:
    """(1 - |z|^2)^alpha, one object per alpha, as named weights are."""
    if alpha <= 0:
        raise ValueError("bloch weight exponent must be positive")
    return HoloFn(lambda z: (1.0 - np.abs(z) ** 2) ** alpha, UNIT_DISC, name=f"v_{alpha:g}")


@lru_cache(maxsize=1)
def exp_abs_decay_weight() -> HoloFn:
    return HoloFn(lambda x: np.exp(-np.abs(x)), REAL_LINE, name="exp(-|x|)")


# ---------------------------------------------------------------------------
# quadrature primitives
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _circle_nodes(n: int):
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.exp(1j * theta)


@lru_cache(maxsize=64)
def _gl_nodes(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


@lru_cache(maxsize=32)
def gl01(n: int):
    """The n-point Gauss-Legendre rule mapped to [0, 1]: (nodes, weights)."""
    x, w = _gl_nodes(n)
    return 0.5 * (x + 1.0), 0.5 * w


def time_integral(h, t: float, zs, n: int, tol: float = DEFAULT_POLICY.tol):
    """The integral of h(tau, z) over tau in [0, t] at each point z of zs:
    the n-node Gauss-Legendre rule, certified against 2n nodes to tol.

    Both rules run in one pass over blocks of time nodes x points, the n
    nodes first: h takes a column of times against one row of the points
    per node, and its values must be finite: the first point with a value
    that is not is named in a NonConvergent. Per block, each rule stacks its
    running sum on its weighted values w_j h(tau_j, z) and takes one cumsum
    along the node axis, in place; cumsum adds row after row in node order,
    so the sum rounds as one node at a time does (a sum over the axis would
    pair the terms and round differently)."""
    pts = np.ravel(zs)
    (x1, w1), (x2, w2) = gl01(n), gl01(2 * n)
    xs, ws = np.concatenate([x1, x2]), np.concatenate([w1, w2])
    acc = [np.zeros(pts.shape, dtype=complex), np.zeros(pts.shape, dtype=complex)]
    for nodes in row_blocks(3 * n, pts.size):
        taus = xs[nodes, None] * t
        with np.errstate(all="ignore"):  # a pole of h is named below
            vals = np.asarray(h(taus, np.broadcast_to(pts, (len(taus), pts.size))))
        bad = np.any(~np.isfinite(vals), axis=0)
        if np.any(bad):
            z = pts[np.argmax(bad)].item()
            raise NonConvergent(f"non-finite values in time integral at {z}")
        for i, (first, last) in enumerate(((0, n), (n, 3 * n))):  # the nodes of each rule
            lo, hi = max(nodes.start, first), min(nodes.stop, last)
            if lo < hi:  # rows [acc; w_j h(tau_j)], summed in place row after row
                part = np.empty((1 + hi - lo, pts.size), dtype=complex)
                part[0] = acc[i]
                np.multiply(ws[lo:hi, None], vals[lo - nodes.start:hi - nodes.start], out=part[1:])
                acc[i] = np.cumsum(part, axis=0, out=part)[-1].copy()
    coarse, fine = (t * a.reshape(np.shape(zs)) for a in acc)
    return certify_doubling(coarse, fine, tol, f"time integral at t={t:g}")


def cauchy_derivative_grid(f, zs, radii, n_nodes: int = INNER_DERIV_NODES):
    """Vectorized f'(z) on an array of points via the Cauchy integral formula.

    ``radii`` may be a scalar or an array matching ``zs``. No doubling
    certificate here; callers certify at their own quadrature level.
    """
    zs = np.asarray(zs, dtype=complex)
    rr = np.broadcast_to(np.asarray(radii, dtype=float), zs.shape)
    ring = _circle_nodes(n_nodes)
    zeta = zs[..., None] + rr[..., None] * ring
    vals = f(zeta)
    return np.mean(vals * np.conj(ring), axis=-1) / rr


def circle_mean_p(f: HoloFn, r: float, p: float, policy: QuadPolicy = DEFAULT_POLICY) -> float:
    """(1/2 pi) integral over the circle |z| = r of |f|^p: the angular
    trapezoid on the one row r, certified by :func:`_certified_rows`."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if r < 0:
        raise DomainExit("negative radius")
    if f.domain.kind == "disc" and r >= 1.0:
        raise DomainExit(f"circle radius {r:g} outside the domain")
    if r == 0.0:
        return float(abs(f(0.0)) ** p)
    row = (np.array([float(r)]), lambda means: float(means[0]))
    return _certified_rows(lambda z: np.abs(f.fn(z)) ** p, row, row, policy,
                           f"circle mean of |f|^{p:g} at r={r:g}", "circle mean")


@lru_cache(maxsize=8)
def taylor_coefficients(f: HoloFn, n: int):
    """The Taylor coefficients a_0, .., a_{n/2 - 1} of f at 0, from the n-point
    FFT of f on the circle of radius rho = 1 - 2/n (Bornemann's radius: the
    aliased a_{k+n} enters damped by rho^n ~ e^-2, and dividing by rho^k
    amplifies rounding by at most about e).

    Cached per (f, n), so the norm and the seminorms of one function, which
    are taken one after another, share one expansion; the returned array is
    read-only. A value on the circle or a coefficient that is not finite
    raises NonConvergent."""
    rho = 1.0 - 2.0 / n
    vals = ensure_finite(f(rho * _circle_nodes(n)), "Taylor coefficients")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        a = ensure_finite(np.fft.fft(vals)[: n // 2] / n / rho ** np.arange(n // 2),
                          "Taylor coefficients")
    a.flags.writeable = False
    return a


def _radial_panels(r: float):
    """Dyadic panel breakpoints clustering toward |z| = 1."""
    if r <= 0.5:
        return [(0.0, r)]
    pts = [0.0, 0.5]
    while True:
        nxt = 1.0 - (1.0 - pts[-1]) / 2.0
        if nxt >= r:
            break
        pts.append(nxt)
    pts.append(r)
    return list(zip(pts[:-1], pts[1:]))


def _radial_rule(panels, m: int, radial):
    """The Gauss-Legendre radii of all ``panels`` (a <= |z| <= b each), m per
    panel, stacked in panel order, and the function taking their angular row
    means to the area integral. ``radial`` (None means 1) runs once, here, on
    the stacked radii and joins the Gauss-Legendre weights. Each panel's sum
    runs in panel order, so the value rounds as one g call per panel does."""
    x, w = _gl_nodes(m)
    halves = [0.5 * (b - a) for a, b in panels]
    s = np.concatenate([0.5 * (a + b) + h * x for (a, b), h in zip(panels, halves)])
    rw = (s if radial is None else s * radial(s)).reshape(-1, m)

    def total(rows):
        return sum(2.0 * np.pi * h * float(np.dot(w, pw * pr))
                   for h, pw, pr in zip(halves, rw, rows.reshape(-1, m)))

    return s, total


def _row_sums(g, s, ring, integrand: str):
    """The sum of g over each row s_i ring, with g called on blocks of whole
    rows, at most BLOCK_POINTS points per call. A NaN or inf at any node, or
    a row sum that overflows, makes its row sum non-finite and raises
    NonConvergent naming ``integrand``."""
    rows = np.empty(s.size)
    for block in row_blocks(s.size, ring.size):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            sums = np.asarray(g(s[block, None] * ring[None, :]), dtype=float).sum(axis=1)
        rows[block] = ensure_finite(sums, integrand)
    return rows


@lru_cache(maxsize=64)
def _angle_ladder(n_theta: int):
    """The angle counts of a certified rule's fine rows: 2 n_theta and its
    halvings, down to the last integer count >= n_theta / 4."""
    ladder = [2 * n_theta]
    while ladder[0] % 2 == 0 and ladder[0] // 2 >= n_theta / 4:
        ladder.insert(0, ladder[0] // 2)
    return tuple(ladder)


@lru_cache(maxsize=64)
def _offset_circle_nodes(n: int):
    """The n-th roots of unity turned by the golden fraction (sqrt(5) - 1)/2
    of their spacing: a mode that a fine grid aliases to a constant enters a
    trapezoid on these nodes with another phase."""
    return _circle_nodes(n) * np.exp(1j * np.pi * (np.sqrt(5.0) - 1.0) / n)


def _certified_rows(g, fine_rule, coarse_rule, policy: QuadPolicy, what: str,
                    integrand: str) -> float:
    """total(row means of g), certified: the one angular rule of every circle
    and area integral. Each rule is ``(s, total)``: the radii of its rows and
    the function taking their angular means to the value. A non-finite row
    sum raises NonConvergent naming ``integrand``.

    The fine rows' angles double along :func:`_angle_ladder`, from
    n_theta / 4 up to the cap 2 n_theta: each doubling evaluates only the new
    odd-index nodes and adds them to the running row sums. At the first level
    N where the doubling moved the fine value by at most tol max(1, |fine|),
    or at the cap, the coarse rows run on N / 2 angles turned by
    :func:`_offset_circle_nodes`, and :func:`certify_doubling` judges the
    two values. A failed certificate below the cap doubles on; at the cap it
    raises NonConvergent naming ``what``.
    """
    ladder = _angle_ladder(policy.n_theta)
    (s, total), (coarse_s, coarse_total) = fine_rule, coarse_rule
    sums = _row_sums(g, s, _circle_nodes(ladder[0]), integrand)
    fine = total(sums / ladder[0])
    for n in ladder[1:]:
        sums = sums + _row_sums(g, s, _circle_nodes(n)[1::2], integrand)
        fine, before = total(sums / n), fine
        if n < ladder[-1] and not abs(fine - before) <= policy.tol * max(1.0, abs(fine)):
            continue
        ring = _offset_circle_nodes(n // 2)
        coarse = coarse_total(_row_sums(g, coarse_s, ring, integrand) / ring.size)
        try:
            return certify_doubling(coarse, fine, policy.tol, what)
        except NonConvergent:
            if n == ladder[-1]:
                raise


def _certified_area(g, panels, m: int, policy: QuadPolicy, radial, what: str) -> float:
    """Integral of g(z) radial(|z|) over the annuli ``panels``: the fine rows
    of :func:`_certified_rows` carry 2m Gauss-Legendre nodes per panel, the
    coarse rows m."""
    return _certified_rows(g, _radial_rule(panels, 2 * m, radial), _radial_rule(panels, m, radial),
                           policy, what, "disc integrand")


def disc_integral(g, r: float, policy: QuadPolicy = DEFAULT_POLICY, radial=None) -> float:
    """Area integral of g(z) radial(|z|) over the disc of radius r.

    ``g`` is real-valued on points; ``radial``, a function of the radius
    (None means 1), carries a radial weight such as Bergman's
    (1 - |z|^2)^alpha and is evaluated on the radial nodes only.
    Tensor rule: composite Gauss-Legendre on dyadic radial panels (nodes
    cluster toward the boundary, where Bergman-type weights are nearly
    singular) times the angular trapezoid, with g called on blocks of whole
    radial rows of at most BLOCK_POINTS points; m = n_radial / panels nodes
    per panel (at least 6), certified by :func:`_certified_area`.
    """
    if not 0.0 < r < 1.0:
        raise DomainExit(f"disc radius {float(r)!r} outside (0, 1)")
    panels = _radial_panels(r)
    return _certified_area(g, panels, max(6, policy.n_radial // len(panels)), policy, radial,
                           f"disc integral to r={r:g}")


def annulus_integral(g, r_inner: float, r_outer: float, policy: QuadPolicy = DEFAULT_POLICY,
                     radial=None) -> float:
    """Integral over the thin annulus r_inner <= |z| <= r_outer (extrapolation
    helper): one radial panel of m = 16 nodes, certified by
    :func:`_certified_area`; ``g`` and ``radial`` as in :func:`disc_integral`."""
    return _certified_area(g, [(r_inner, r_outer)], 16, policy, radial,
                           f"annulus integral over [{float(r_inner)!r}, {float(r_outer)!r}]")


def boundary_extrapolate(value_at_r1: float, value_at_r2: float, r1: float, r2: float,
                         tail_exponent: float) -> float:
    """Extrapolate a radial functional F(r) to r = 1.

    Assumes F(1) - F(r) ~ c (1-r)^e to leading order; with the two sample
    radii in geometric progression toward 1 the tail at r2 follows from the
    increment F(r2) - F(r1).
    """
    ratio = (1.0 - r1) / (1.0 - r2)
    if ratio <= 1.0:
        raise ValueError("need r1 < r2 < 1")
    return value_at_r2 + (value_at_r2 - value_at_r1) / (ratio ** tail_exponent - 1.0)


# ---------------------------------------------------------------------------
# real-line differentiation and Richardson extrapolation
# ---------------------------------------------------------------------------

def richardson(values, steps, order: float = 1.0):
    """Neville extrapolation of values(h) to h = 0, treating the error as a
    polynomial in h**order. Steps must be positive and strictly decreasing.

    Values may be scalars or numpy arrays (extrapolated elementwise); the
    arithmetic keeps their type."""
    hs = [float(h) ** order for h in steps]
    tab = list(values)
    n = len(tab)
    if n != len(hs) or n == 0:
        raise ValueError("values and steps must be equal-length and nonempty")
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            x0, x1 = hs[i], hs[i + level]
            nxt.append((x0 * tab[i + 1] - x1 * tab[i]) / (x0 - x1))
        tab = nxt
    return tab[0]


def real_derivative_grid(f, xs, h0: float = 1e-3):
    """Central differences at h0, h0/2, h0/4, Richardson-extrapolated."""
    xs = np.asarray(xs, dtype=float)
    steps = [h0 / (2 ** k) for k in range(3)]
    quotients = [np.asarray((f(xs + h) - f(xs - h)) / (2.0 * h)) for h in steps]
    return richardson(quotients, steps, order=2.0)


def derivative_on_grid(f: HoloFn, zs):
    """f' on an array of points (a scalar is a one-point array, as in
    :func:`at_points`), dispatching on the domain kind.

    The one derivative path of the package: ``f.deriv`` when the function
    carries a closed form; otherwise the disc uses Cauchy circles of radius
    (1 - |z|)/2 with INNER_DERIV_NODES nodes, and the real line uses central
    differences with Richardson. On the disc a point at or outside the
    boundary raises DomainExit either way.
    """
    def fprime(z):
        if f.domain.kind == "real":
            return f.deriv(z) if f.deriv is not None else real_derivative_grid(f.fn, z)
        radii = 0.5 * (1.0 - np.abs(z))
        if np.any(radii <= 0):
            raise DomainExit("derivative requested outside the open disc")
        if f.deriv is not None:
            return f.deriv(z)
        return cauchy_derivative_grid(f.fn, z, radii, INNER_DERIV_NODES)

    return at_points(fprime, zs, f.domain.dtype)
