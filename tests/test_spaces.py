"""Norm and seminorm checks against analytic oracles.

Expected values are frozen from independent closed forms: Parseval sums for
Hardy norms, the Beta identity for Bergman monomial norms (via lgamma), and
polar-coordinate integrals for the Dirichlet energy.
"""

import copy
import dataclasses
import inspect
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcsg import holo, semigroup, spaces, suites
from wcsg.cocycles import trivial_cocycle
from wcsg.defaults import DEFAULT_CONFIGS
from wcsg.errors import NonConvergent, Unbounded
from wcsg.exprs import to_holofn
from wcsg.flows import semiflow_from_generator
from wcsg.semigroup import WcSemigroup, apply, default_test_functions
from wcsg.spaces import (
    SeminormIndex,
    SpaceSpec,
    certified_sup,
    co_seminorm,
    default_corpus,
    norm,
    norm_detail,
    saks_sup_check,
)


# 1 + z^256: a mode that a grid of 256 angles or fewer aliases to a constant
_HIGH_MODE = holo.poly([1.0] + [0.0] * 255 + [1.0])


def beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@pytest.fixture(params=["taylor-coefficients", "truncated-extrapolated"])
def path(request, monkeypatch):
    """Runs a p = 2 Bergman or Dirichlet test on the Taylor-coefficient path
    and again on the quadrature fallback."""
    if request.param == "truncated-extrapolated":
        monkeypatch.setattr(spaces, "_coefficient_functional", lambda *args: None)
    return request.param


class TestNorm:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_hardy_monomials_are_unit(self, p, n):
        space = SpaceSpec.hardy(p)
        assert norm(space, holo.monomial(n)) == pytest.approx(1.0, abs=1e-8)

    def test_dirichlet_monomial(self, path):
        # squared norm of z^n is n
        detail = norm_detail(SpaceSpec.dirichlet(), holo.monomial(3))
        assert detail.method == path
        assert detail.value == pytest.approx(math.sqrt(3.0), abs=1e-6)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
    @pytest.mark.parametrize("n", [1, 4])
    def test_bergman_via_beta_identity(self, path, alpha, n):
        # ||e_n||^p = (alpha+1) B(np/2 + 1, alpha + 1)
        detail = norm_detail(SpaceSpec.bergman(alpha=alpha, p=2.0), holo.monomial(n))
        expected = math.sqrt((alpha + 1.0) * beta(n + 1.0, alpha + 1.0))
        assert detail.method == path
        # the quadrature extrapolates the tail of the (1-r^2)^-1/2 weight
        # least well: 2.1e-9 relative at alpha = -0.5, n = 4
        rel = 1e-8 if alpha < 0 and path == "truncated-extrapolated" else 1e-9
        assert detail.value == pytest.approx(expected, rel=rel, abs=0)

    def test_beta_identity_at_degree_one(self):
        assert math.sqrt(beta(2.0, 1.0)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_hardy_one_plus_z_parseval(self):
        assert norm(SpaceSpec.hardy(2.0), holo.poly([1, 1])) == pytest.approx(
            math.sqrt(2.0), abs=1e-8
        )

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_hardy_norm_of_a_high_mode_raises(self, p):
        # 1 + z^256 is 1 + r^256 on every grid of up to 256 angles
        with pytest.raises(NonConvergent, match="circle mean"):
            norm(SpaceSpec.hardy(p), _HIGH_MODE)

    @pytest.mark.parametrize("p, ref", [(2.0, math.sqrt(2.0)), (4.0, 6.0 ** 0.25)])
    def test_hardy_norm_of_a_high_mode_with_enough_angles(self, p, ref):
        # the mean of |1 + e^(i k theta)|^p is 2 for p = 2 and 6 for p = 4
        space = SpaceSpec.hardy(p, holo.QuadPolicy(n_theta=4096))
        assert norm(space, _HIGH_MODE) == pytest.approx(ref, rel=0, abs=1e-6)

    def test_hardy_one_norm_of_one_plus_z(self):
        # |1 + e^(i theta)| = 2 |cos(theta / 2)| has a kink at pi, so the
        # trapezoid converges like n^-2, too slowly for tol at 512 angles
        f = holo.poly([1, 1])
        with pytest.raises(NonConvergent, match="circle mean"):
            norm(SpaceSpec.hardy(1.0), f)
        space = SpaceSpec.hardy(1.0, holo.QuadPolicy(n_theta=4096))
        assert norm(space, f) == pytest.approx(4.0 / math.pi, rel=0, abs=1e-7)

    def test_sup_holo_unit_weight(self):
        space = SpaceSpec.sup_holo()
        assert norm(space, holo.one()) == pytest.approx(1.0, abs=1e-12)
        assert norm(space, holo.monomial(2)) == pytest.approx(1.0, abs=1e-5)

    def test_sup_cont_exp_decay(self):
        # sup |x| e^{-|x|} = 1/e at x = 1; grid max is a lower bound
        space = SpaceSpec.sup_cont(holo.exp_abs_decay_weight())
        f = holo.monomial(1, holo.REAL_LINE)
        val = norm(space, f)
        assert val <= 1.0 / math.e + 1e-12
        assert val == pytest.approx(1.0 / math.e, abs=1e-5)

    def test_bloch_monomial_bounded_by_degree(self):
        space = SpaceSpec.bloch(alpha=1.0)
        for n in range(1, 7):
            assert norm(space, holo.monomial(n)) <= n + 1e-9

    @pytest.mark.parametrize("space", [
        SpaceSpec.hardy(2.0), SpaceSpec.bergman(1.0), SpaceSpec.dirichlet(),
        SpaceSpec.bloch(1.0), SpaceSpec.sup_holo(), SpaceSpec.sup_cont(holo.exp_abs_decay_weight()),
    ], ids=lambda space: space.kind)
    def test_zero_function_has_norm_zero(self, space):
        assert norm_detail(space, holo.constant(0.0, space.domain)).value == 0.0

    def test_tiny_function_keeps_its_norm(self):
        # a function below 1e-15 everywhere is not the zero function
        for space in (SpaceSpec.hardy(2.0), SpaceSpec.sup_holo()):
            assert norm(space, holo.constant(1e-17)) == pytest.approx(1e-17, rel=1e-12, abs=0)

    def test_detail_reports_the_method_above_the_truncated_value(self):
        space, f = SpaceSpec.hardy(2.0), holo.monomial(2)
        detail = norm_detail(space, f)
        assert detail.method == "truncated-extrapolated"
        assert spaces._radial_functional(space, f, space.policy.r_cap) ** 0.5 <= detail.value

    @pytest.mark.parametrize("r_cap", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("alpha", [-0.9, -0.5])
    def test_bergman_norms_with_a_singular_weight_return(self, alpha, r_cap):
        # an annulus rule of 8 Gauss-Legendre nodes per panel fails its
        # certificate on each of these, so annulus_integral takes 16
        space = SpaceSpec.bergman(alpha, 3.0, holo.QuadPolicy(r_cap=r_cap))
        for f in default_corpus():
            assert 0.0 < norm(space, f) < 2.0, f.name


class TestTaylorCoefficientPath:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
    def test_weights_at_one_are_the_beta_values(self, alpha):
        # (alpha+1) B(k+1, alpha+1) = prod_{j<=k} j/(j+alpha+1), exact in rationals;
        # the norm-table oracle takes the same product
        w = spaces._coefficient_weights("bergman", alpha, 1.0, 201)
        a1, exact = Fraction(alpha) + 1, Fraction(1)
        for k in range(201):
            if k:
                exact *= Fraction(k) / (k + a1)
            assert w[k] == pytest.approx(float(exact), rel=1e-14, abs=0)
            assert w[k] == pytest.approx(
                suites._bergman_monomial_power(k, 2.0, alpha), rel=1e-14, abs=0)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize("space", [SpaceSpec.bergman(0.5), SpaceSpec.dirichlet()],
                             ids=lambda space: space.label)
    def test_weights_are_cached_read_only_and_equal_a_fresh_computation(self, space, s):
        w = spaces._coefficient_weights(space.kind, space.alpha, s, 33)
        assert spaces._coefficient_weights(space.kind, space.alpha, s, 33) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 2.0
        fresh = spaces._coefficient_weights.__wrapped__(space.kind, space.alpha, s, 33)
        assert fresh is not w and np.array_equal(fresh, w)

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_bergman_oracle_at_degree_200_is_exact(self, alpha):
        # lgamma put the oracle 1.4e-14, 8.4e-14 and 1.7e-13 off here
        exact = math.prod(Fraction(j, j + alpha + 1) for j in range(1, 201))
        value = suites._bergman_monomial_power(200, 2.0, float(alpha))
        assert abs(Fraction(value) / exact - 1) <= 1e-15

    def test_bergman_oracle_off_the_integers_is_the_beta_value(self):
        # z^3 on A^3_0.5: x = 4.5, (alpha+1) B(5.5, 1.5)
        value = suites._bergman_monomial_power(3, 3.0, 0.5)
        assert value == pytest.approx(1.5 * beta(5.5, 1.5), rel=1e-14)

    @pytest.mark.parametrize("c", [1e9, 1e11])
    @pytest.mark.parametrize("space", [SpaceSpec.bergman(0.0), SpaceSpec.dirichlet(),
                                       SpaceSpec.bloch(1.0)], ids=lambda space: space.label)
    def test_a_large_multiple_of_z_keeps_the_coefficient_path(self, space, c):
        # the series must meet f(0) = 0 within the FFT's rounding of c z,
        # about c eps, not within an absolute 1e-6
        unit, detail = norm_detail(space, holo.monomial(1)), norm_detail(space, holo.poly([0, c]))
        assert detail.method == unit.method != "truncated-extrapolated"
        assert detail.method != "certified-grid-sup"
        assert detail.value == pytest.approx(c * unit.value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("s", [0.5, 0.99])
    @pytest.mark.parametrize("space", [SpaceSpec.bergman(-0.5), SpaceSpec.bergman(0.0),
                                       SpaceSpec.bergman(1.5), SpaceSpec.dirichlet()],
                             ids=lambda space: space.label)
    def test_weights_below_one_match_the_area_integral(self, space, s):
        w = spaces._coefficient_weights(space.kind, space.alpha, s, 21)
        for k in range(21):
            if space.kind == "bergman":
                g, radial = (lambda z, k=k: np.abs(z) ** (2 * k)), (
                    lambda r: (1.0 - r * r) ** space.alpha)
            elif k:
                g, radial = (lambda z, k=k: k * k * np.abs(z) ** (2 * k - 2)), None
            else:
                assert w[0] == 1.0
                continue
            area = spaces._area_scale(space, holo.disc_integral(g, s, radial=radial))
            assert w[k] == pytest.approx(area, rel=1e-12, abs=0)

    @pytest.mark.parametrize("s", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("n", range(7))
    def test_dirichlet_seminorm_of_monomial(self, n, s):
        expected = math.sqrt(n) * s ** n if n else 1.0
        val = co_seminorm(SpaceSpec.dirichlet(), holo.monomial(n), SeminormIndex(s))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_kernel_closed_forms(self):
        # sum_k x^k/(k+1) = -ln(1-x)/x and 1 + sum_k k x^k = 1 + x/(1-x)^2, x = |a|^2;
        # the area quadrature raised NonConvergent on both
        bergman = norm_detail(SpaceSpec.bergman(0.0), holo.mobius_kernel(0.98))
        dirichlet = norm_detail(SpaceSpec.dirichlet(), holo.mobius_kernel(0.95))
        assert bergman.method == dirichlet.method == "taylor-coefficients"
        assert bergman.value == pytest.approx(
            math.sqrt(-math.log(1.0 - 0.9604) / 0.9604), rel=1e-12)
        assert dirichlet.value == pytest.approx(math.sqrt(1.0 + 0.9025 / 0.0975 ** 2), rel=1e-12)

    def test_slow_coefficients_fall_back_to_quadrature(self):
        # the essential singularity at 1: the coefficient sum does not settle
        detail = norm_detail(SpaceSpec.bergman(0.0), holo.singular_inner())
        assert detail.method == "truncated-extrapolated"
        # n_theta = 4096 and n_radial = 512 give 0.66731886493
        assert detail.value == 0.6673188649632443

    @pytest.mark.parametrize("expr", [
        "1/(z-0.5)", "z/((z-0.5)*(z+0.5))", "1/z", "1/(z-0.3-0.4*i)",
        # a pole at one probe whose principal part vanishes at the other
        "z + (z-0.3-0.4*i)/z^2", "z + z/(z-0.3-0.4*i)^2",
    ])
    @pytest.mark.parametrize("space", [SpaceSpec.bergman(0.0), SpaceSpec.dirichlet()],
                             ids=lambda space: space.label)
    def test_pole_inside_the_disc_is_left_to_quadrature(self, space, expr):
        # a pole inside the FFT circle leaves no Taylor coefficient, so the
        # coefficient sum alone would be about 0; the series misses f at the
        # probe points, or f is not finite there, and the quadrature reports
        # the divergence
        with pytest.raises(NonConvergent):
            norm_detail(space, to_holofn(expr))

    def test_other_integral_norms_keep_quadrature(self):
        for space in (SpaceSpec.hardy(2.0), SpaceSpec.bergman(0.0, 4.0)):
            assert norm_detail(space, holo.monomial(2)).method == "truncated-extrapolated"

    def test_bergman_norm_does_not_depend_on_r_cap(self):
        space = SpaceSpec.bergman(1.0, policy=holo.QuadPolicy(r_cap=0.5))
        expected = math.sqrt(2.0 * beta(4.0, 2.0))
        assert norm(space, holo.monomial(3)) == pytest.approx(expected, rel=1e-14)

    def test_ode_flow_dirichlet_norm_needs_no_derivative(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Cauchy circle reached")

        monkeypatch.setattr(holo, "cauchy_derivative_grid", refuse)
        G = holo.HoloFn(lambda z: 1.0 - z, holo.UNIT_DISC, name="1-z")
        sg = WcSemigroup(semiflow_from_generator(G), trivial_cocycle(), SpaceSpec.dirichlet())
        detail = norm_detail(sg.space, apply(sg, 1.0, holo.monomial(5)))
        # phi_1(z) = c + d z with d = 1/e, c = 1 - d, so C(1) e_5 = (c + d z)^5
        d = math.exp(-1.0)
        c = 1.0 - d
        coef = [math.comb(5, k) * c ** (5 - k) * d ** k for k in range(6)]
        expected = math.sqrt(coef[0] ** 2 + sum(k * a * a for k, a in enumerate(coef)))
        assert detail.method == "taylor-coefficients"
        assert detail.value == pytest.approx(expected, rel=1e-8)


def _bloch_monomial(n: int, alpha: float) -> float:
    """The v_alpha Bloch norm of z^n: n r^(n-1) (1 - r^2)^alpha at its peak
    r^2 = (n-1)/(n-1+2 alpha)."""
    return n * ((n - 1) / (n - 1 + 2 * alpha)) ** ((n - 1) / 2) * (
        2 * alpha / (n - 1 + 2 * alpha)) ** alpha


class TestBlochSearch:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_monomials(self, n, alpha):
        detail = norm_detail(SpaceSpec.bloch(alpha), holo.monomial(n))
        assert detail.method == "taylor-coefficient-search"
        assert detail.value == pytest.approx(_bloch_monomial(n, alpha), rel=0, abs=1e-12)

    @pytest.mark.parametrize("alpha, f, exact", [
        # |f(0)| + max over r of (1 - r^2) e^(r/2) / 2, at r = sqrt(5) - 2
        (1.0, holo.exp_fn(0.5), 1.5312862605770),
        # |1/(1 + 0.7 z)|' peaks at z = -0.7: 1 + 0.7 / 0.51
        (1.0, holo.mobius_kernel(-0.7), 121.0 / 51.0),
        # 2 r (1 - r^2)^2 at r^2 = 1/5
        (2.0, holo.monomial(2), 1.28 / math.sqrt(5.0)),
    ], ids=["exp(z/2)", "kernel(-0.7)", "z^2"])
    def test_closed_forms(self, alpha, f, exact):
        assert norm(SpaceSpec.bloch(alpha), f) == pytest.approx(exact, rel=0, abs=1e-12)

    def test_saks_gap_of_exp_is_not_negative(self):
        # the grid put the norm 6.8e-4 below the seminorm at 0.9999
        rep, _ = saks_sup_check(SpaceSpec.bloch(1.0), holo.exp_fn(0.5),
                                [0.5, 0.9, 0.99, 0.999, 0.9999])
        assert rep["gap"] >= 0.0
        assert rep["norm"] == pytest.approx(1.5312862605770, rel=0, abs=1e-12)

    def test_seminorm_past_the_peak_is_the_boundary_maximum(self):
        # 2 s (1 - s^2) on |z| <= 0.5, below the peak at s^2 = 1/3
        value = co_seminorm(SpaceSpec.bloch(1.0), holo.monomial(2), SeminormIndex(0.5))
        assert value == pytest.approx(0.75, rel=0, abs=1e-15)

    @pytest.mark.parametrize("expr", ["1/(z-0.5)", "z + z/(z-0.3-0.4*i)^2"])
    def test_pole_inside_the_disc_is_left_to_the_grid(self, expr):
        assert spaces._bloch_search(SpaceSpec.bloch(1.0), to_holofn(expr), 1.0) is None

    def test_singular_inner_keeps_the_grid(self):
        detail = norm_detail(SpaceSpec.bloch(1.0), holo.singular_inner())
        assert detail.method == "certified-grid-sup"
        assert detail.value == 1.103638323514327

    @pytest.mark.parametrize("label", ["bloch1-dilation-derivative",
                                       "bloch2-attracting-trivial"])
    def test_bound_table_norms_are_at_least_the_grid(self, label, monkeypatch):
        cfg = DEFAULT_CONFIGS["bound-table"]
        bcfg = copy.deepcopy(next(c for c in cfg["cases"] if c["label"] == label))
        sg = suites._build_semigroup(suites._read(bcfg, label, {"label": object,
                                                               **suites._SEMIGROUP}), label)
        fs = default_test_functions(sg.space)
        fs += [apply(sg, t, f) for t in cfg["ts"] for f in fs]
        searched = [norm_detail(sg.space, f) for f in fs]
        monkeypatch.setattr(spaces, "_bloch_search", lambda *args: None)
        for f, detail in zip(fs, searched):
            grid = norm_detail(sg.space, f)
            assert grid.method == "certified-grid-sup"
            if detail.method == "certified-grid-sup":
                # only the singular inner function's slow coefficients fall back
                assert f.name.endswith("singular_inner")
                assert detail == grid
            else:
                assert detail.value >= grid.value * (1.0 - 1e-12), f.name


class TestBlockedSup:
    @staticmethod
    def _unblocked(space, radius_scale):
        if space.is_real:
            return spaces.real_sup_points(space.halfwidth) * radius_scale
        pts = spaces.disc_sup_points(space.policy.r_cap)
        return pts if radius_scale == 1.0 else pts * (radius_scale / space.policy.r_cap)

    @pytest.mark.parametrize("radius_scale", [1.0, 0.7])
    @pytest.mark.parametrize("space", [SpaceSpec.sup_holo(),
                                       SpaceSpec.sup_cont(holo.exp_abs_decay_weight())],
                             ids=lambda space: space.kind)
    def test_blocks_give_the_unblocked_max(self, monkeypatch, space, radius_scale):
        monkeypatch.setattr(holo, "BLOCK_POINTS", 1000)
        sizes = []

        def values_at(z):
            sizes.append(z.size)
            return np.abs(z ** 3 - 0.5 * z + 0.25) * np.exp(-np.abs(z))

        pts = self._unblocked(space, radius_scale)
        assert certified_sup(values_at, space, radius_scale) == np.max(values_at(pts))
        sizes.pop()
        assert max(sizes) <= 1000 and sum(sizes) == pts.size and len(sizes) > 8

    def test_nan_in_the_last_block_is_unbounded(self, monkeypatch):
        monkeypatch.setattr(holo, "BLOCK_POINTS", 1000)
        space = SpaceSpec.sup_holo()
        last = spaces.disc_sup_points(space.policy.r_cap)[-1]
        calls = []

        def values_at(z):
            calls.append(z.size)
            return np.where(z == last, np.nan, np.abs(z))

        with pytest.raises(Unbounded):
            certified_sup(values_at, space)
        assert len(calls) == -(-spaces.disc_sup_points(space.policy.r_cap).size // 1000)


class TestSupGridWithoutUnique:
    """The sup grid's angles and radii are np.unique's, without importing numpy.ma."""

    def test_angles_are_the_unique_sorted_angles(self):
        uniform = 2.0 * np.pi * np.arange(512) / 512
        clustered = np.pi * 2.0 ** (-np.arange(4, 65) / 4)
        angles = np.unique(np.concatenate([uniform, clustered, 2.0 * np.pi - clustered]))
        circle, at_uniform = spaces._sup_circle()
        assert angles.size < 512 + 2 * 61  # pi 2^-m, m = 1..8, are uniform angles too
        assert np.array_equal(circle, np.exp(1j * angles))
        assert np.array_equal(at_uniform, np.searchsorted(angles, uniform))

    @pytest.mark.parametrize("r_cap", [holo.DEFAULT_POLICY.r_cap, 0.4, 0.05,
                                       float(1.0 - 2.0 ** (-np.arange(4, 81) / 4)[7])])
    def test_radii_are_the_unique_sorted_radii(self, r_cap):
        # 0.4 and 1 - 2^(-11/4) are grid radii themselves
        rs = np.concatenate([np.arange(0.0, 0.45, 0.1), 1.0 - 2.0 ** (-np.arange(4, 81) / 4)])
        got = spaces._sup_radii(r_cap)
        assert np.array_equal(got, np.unique(np.append(rs[rs < r_cap], r_cap)))
        assert got[-1] == r_cap and np.all(np.diff(got) > 0.0)

    def test_a_default_suite_run_leaves_numpy_ma_unimported(self):
        code = ("import copy, sys\n"
                "from wcsg.cli import run\n"
                "from wcsg.defaults import DEFAULT_CONFIGS\n"
                "for config in DEFAULT_CONFIGS.values():\n"
                "    run(copy.deepcopy(config))\n"
                "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(spaces.__file__).resolve().parents[1])]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


def _spike(theta0):
    """exp(0.01 / (1.001 - e^{-i theta0} z)): bounded on the disc but for a
    spike of height e^9.99 at angle theta0, a pole 0.001 outside the circle."""
    rot = np.exp(-1j * theta0)
    return holo.HoloFn(lambda z: np.exp(0.01 / (1.001 - rot * z)), holo.UNIT_DISC, name="spike")


_SPIKE_ANGLES = [2.0 * np.pi * 100.5 / 512, 0.37 * np.pi / 1000]
_SEMINORM_RADII = [0.5, 0.9, 0.9999]


def _sup_holo_functions():
    space = SpaceSpec.sup_holo()
    return default_corpus() + default_test_functions(space)


class TestModulusSup:
    @staticmethod
    def _grid_max(f, space, radius_scale=1.0):
        return certified_sup(lambda z: np.abs(f.fn(z)), space, radius_scale)

    @pytest.mark.parametrize("radius_scale", [1.0, 0.5, 0.9999])
    def test_circle_is_the_outer_row_of_the_grid(self, radius_scale):
        space = SpaceSpec.sup_holo()
        seen = []

        def F(z):
            seen.append(z)
            return z

        spaces.modulus_sup(F, space, radius_scale)
        grid = TestBlockedSup._unblocked(space, radius_scale)
        row = grid[-spaces._sup_circle()[0].size:]
        assert np.min(np.abs(row)) > np.max(np.abs(grid[:-row.size]))
        assert seen[0].tobytes() == row.tobytes()

    @pytest.mark.parametrize("radius_scale", [1.0] + _SEMINORM_RADII)
    def test_circle_gives_the_grid_max_bit_for_bit(self, radius_scale):
        space = SpaceSpec.sup_holo()
        for f in _sup_holo_functions():
            assert spaces.modulus_sup(f.fn, space, radius_scale) == self._grid_max(
                f, space, radius_scale), f.name

    @pytest.mark.parametrize("theta0", _SPIKE_ANGLES)
    def test_spike_falls_back_to_the_grid(self, theta0):
        space = SpaceSpec.sup_holo()
        f = _spike(theta0)
        detail = norm_detail(space, f)
        assert detail.method == "certified-grid-sup"
        assert detail.value == self._grid_max(f, space)

    def test_real_line_runs_the_whole_grid(self):
        # no maximum principle on the line
        space = SpaceSpec.sup_cont(holo.exp_abs_decay_weight())

        def F(x):
            return np.exp(1j * x) / (1.0 + (x - 3.0) ** 2)

        assert spaces._modulus_sup(F, space) == (
            certified_sup(lambda x: np.abs(F(x)), space), "certified-grid-sup")

    def test_spike_between_the_angles_keeps_the_grid_value(self):
        # at theta0 = 2 pi 100.5/512 the grid's inner rows reach higher than
        # its outer row, which alone would read 1.301601
        space = SpaceSpec.sup_holo()
        f = _spike(_SPIKE_ANGLES[0])
        row = spaces.disc_sup_points(space.policy.r_cap)[-spaces._sup_circle()[0].size:]
        assert np.max(np.abs(f.fn(row))) == pytest.approx(1.301601, abs=1e-6)
        assert norm(space, f) == pytest.approx(2.264636, abs=1e-6)

    def test_singular_inner_falls_back_to_the_grid(self):
        detail = norm_detail(SpaceSpec.sup_holo(), holo.singular_inner())
        assert detail.method == "certified-grid-sup"

    @pytest.mark.parametrize("expr", ["1/(z-0.5)", "z + 1e-12/(z-0.5)"])
    def test_pole_inside_is_unbounded_at_its_grid_point(self, expr):
        with pytest.raises(Unbounded, match=r"not finite at \(0\.5\+0j\)"):
            norm(SpaceSpec.sup_holo(), to_holofn(expr))

    def test_value_past_the_overflow_guard_is_unbounded(self):
        text = r"sup evaluation exceeded the overflow guard at \(0\.999999\+0j\)"
        with pytest.raises(Unbounded, match=text):
            norm(SpaceSpec.sup_holo(), to_holofn("1e13*z"))

    def test_weight_one_as_an_expression_stays_on_the_grid(self):
        space = SpaceSpec.sup_holo(to_holofn("1"))
        detail = norm_detail(space, holo.monomial(3))
        assert detail.method == "certified-grid-sup"
        assert detail.value == norm(SpaceSpec.sup_holo(), holo.monomial(3))

    def test_only_singular_inner_on_the_outer_circle_runs_the_grid(self, monkeypatch):
        calls = []
        grid = spaces.certified_sup

        def counted(*args, **kwargs):
            calls.append(1)
            return grid(*args, **kwargs)

        monkeypatch.setattr(spaces, "certified_sup", counted)
        space = SpaceSpec.sup_holo()
        for f in _sup_holo_functions():
            del calls[:]
            if f.name == "singular_inner":
                assert norm_detail(space, f).method == "certified-grid-sup"
                assert len(calls) == 1
                continue
            assert norm_detail(space, f).method == "maximum-principle-circle"
            for s in _SEMINORM_RADII:
                co_seminorm(space, f, SeminormIndex(s))
            assert calls == [], f.name


class TestCoSeminorm:
    def test_constant_hardy(self):
        assert co_seminorm(SpaceSpec.hardy(2.0), holo.one(), SeminormIndex(0.5)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dirichlet_disc_area_oracle(self, path):
        # (1/pi) * area(D_r) = r^2 for f = z, so the seminorm is r
        val = co_seminorm(SpaceSpec.dirichlet(), holo.monomial(1), SeminormIndex(0.5))
        assert val == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("s", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("space", [SpaceSpec.bergman(-0.5), SpaceSpec.bergman(1.5),
                                       SpaceSpec.dirichlet()], ids=lambda space: space.label)
    def test_polynomial_seminorm_closed_form(self, path, space, s):
        # F(s) = sum_k w_k(s) |a_k|^2 with w_k from the area integral of |z|^2k
        # (Bergman) or of k^2 |z|^(2k-2) (Dirichlet, plus |f(0)|^2)
        coef = [0.5, 1.0, -0.25, 0.75]
        if space.kind == "dirichlet":
            expected = coef[0] ** 2 + sum(k * s ** (2 * k) * a * a for k, a in enumerate(coef))
        else:
            a1 = space.alpha + 1.0
            x = s * s
            # (alpha+1) int_0^x u^k (1-u)^alpha du by the binomial expansion of u^k = (1-(1-u))^k
            expected = sum(a * a * sum(math.comb(k, j) * (-1) ** j * a1 / (a1 + j)
                                       * (1.0 - (1.0 - x) ** (a1 + j)) for j in range(k + 1))
                           for k, a in enumerate(coef))
        val = co_seminorm(space, holo.poly(coef), SeminormIndex(s))
        assert val == pytest.approx(math.sqrt(expected), rel=1e-9)

    def test_hardy_monomial_radius_power(self):
        val = co_seminorm(SpaceSpec.hardy(2.0), holo.monomial(2), SeminormIndex(0.9))
        assert val == pytest.approx(0.81, abs=1e-5)

    def test_hardy_seminorm_is_taken_at_s(self):
        # the circle of radius s, as Bergman, Dirichlet and the sup grid take
        val = co_seminorm(SpaceSpec.hardy(2.0), holo.monomial(1), SeminormIndex(0.9))
        assert val == pytest.approx(0.9, rel=0, abs=1e-15)

    def test_hardy_seminorm_of_a_high_mode_raises(self):
        with pytest.raises(NonConvergent, match="circle mean"):
            co_seminorm(SpaceSpec.hardy(2.0), _HIGH_MODE, SeminormIndex(0.999))
        space = SpaceSpec.hardy(2.0, holo.QuadPolicy(n_theta=4096))
        assert co_seminorm(space, _HIGH_MODE, SeminormIndex(0.999)) == pytest.approx(
            math.sqrt(1.0 + 0.999 ** 512), rel=0, abs=1e-15)

    @pytest.mark.parametrize(
        "space",
        [SpaceSpec.hardy(2.0), SpaceSpec.bergman(0.5, 2.0), SpaceSpec.sup_holo()],
    )
    def test_monotone_in_radius_and_below_norm(self, path, space):
        f = holo.poly([0.5, 1.0, -0.25])
        nrm = norm(space, f)
        vals = [co_seminorm(space, f, SeminormIndex(s)) for s in (0.3, 0.6, 0.9, 0.999)]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
        assert all(v <= nrm + 1e-6 for v in vals)

    @pytest.mark.parametrize("s, ref", [(0.99, 0.9990672197), (0.999, 1.0001651089)])
    def test_bergman_quadrature_seminorm_of_a_high_mode_is_right_or_raises(self, s, ref):
        # ref is the n_theta = 4096 value; one fixed grid of 256 angles is
        # off by 1.4e-4 and 9.3e-4
        f = holo.poly([1.0] + [0.0] * 255 + [1.0])
        try:
            val = co_seminorm(SpaceSpec.bergman(0.5, 3.0), f, SeminormIndex(s))
        except NonConvergent:
            return
        assert val == pytest.approx(ref, rel=0, abs=1e-6)

    @pytest.mark.parametrize("space", [SpaceSpec.bergman(0.5, 4.0), SpaceSpec.bergman(-0.5, 3.0)],
                             ids=lambda space: space.label)
    @pytest.mark.parametrize("f", [holo.monomial(1), holo.exp_fn(0.5)], ids=lambda f: f.name)
    def test_area_seminorm_beyond_r_cap_lies_below_the_norm(self, space, f):
        # s = 1 - 1e-7 lies past r_cap = 1 - 1e-6, inside the disc
        nrm = norm(space, f)
        val = co_seminorm(space, f, SeminormIndex(0.9999999))
        assert nrm - 2.2e-4 < val <= nrm

    def test_sup_grid_stays_inside_r_cap(self):
        space = SpaceSpec.sup_holo(policy=holo.QuadPolicy(r_cap=0.3))
        assert np.max(np.abs(spaces.disc_sup_points(0.3))) == pytest.approx(0.3, rel=0, abs=1e-15)
        assert norm(space, holo.monomial(1)) == pytest.approx(0.3, rel=0, abs=1e-15)
        assert co_seminorm(space, holo.monomial(1), SeminormIndex(0.2)) == pytest.approx(
            0.2, rel=0, abs=1e-15)


class TestOverflowGuard:
    """One guard on the returned norm or seminorm, for every space: a value
    above holo.OVERFLOW_GUARD = 1e12, not its p-th power, is Unbounded."""

    @pytest.mark.parametrize("space, expr, expected", [
        (SpaceSpec.hardy(4.0), "1200*z", 1200.0),
        # 2000 ((alpha+1) B(3, alpha+1))^(1/4) at alpha = 0.5
        (SpaceSpec.bergman(0.5, 4.0), "2000*z", 1382.88313856776),
        (SpaceSpec.hardy(2.0), "2e6*z", 2e6),
        (SpaceSpec.dirichlet(), "2e6*z", 2e6),
    ], ids=lambda x: x.label if isinstance(x, SpaceSpec) else str(x))
    def test_norm_whose_power_passes_the_guard_is_returned(self, space, expr, expected):
        assert norm(space, to_holofn(expr)) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("space", [
        SpaceSpec.hardy(2.0), SpaceSpec.bergman(0.0), SpaceSpec.bergman(0.5, 4.0),
    ], ids=lambda space: space.label)
    def test_integral_seminorm_past_the_guard_is_unbounded(self, space):
        # 5e12, 1.77e12 and 2.90e12 at s = 0.5
        with pytest.raises(Unbounded, match="exceeds the overflow guard"):
            co_seminorm(space, to_holofn("1e13*z"), SeminormIndex(0.5))

    @pytest.mark.parametrize("space", [SpaceSpec.bergman(0.0), SpaceSpec.dirichlet()],
                             ids=lambda space: space.label)
    @pytest.mark.parametrize("expr", ["1e300*z", "1e305*z^5", "exp(700*z)"])
    def test_a_coefficient_sum_that_overflows_raises_without_a_warning(self, space, expr):
        # the squared coefficients (or the FFT) overflow, so the coefficient
        # path leaves the norm to the area rule, whose integrand overflows
        # too; the warnings filter turns a numpy RuntimeWarning into a failure
        with pytest.raises(NonConvergent, match="non-finite values in disc integrand"):
            norm(space, to_holofn(expr))


def _count_layers(monkeypatch):
    """Counts of the calls of the layers the benchmark traces, and of Taylor
    expansions asked for, by the name of the function."""
    counts = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for name in ("circle_mean_p", "disc_integral", "annulus_integral", "certified_sup"):
        counted(spaces, name)
    counted(holo, "cauchy_derivative_grid")
    counted(holo, "taylor_coefficients")
    return counts


class TestHandCount:
    def test_hardy_norm_of_e2_takes_three_circle_means_and_nothing_else(self, monkeypatch):
        # one circle mean at r_cap and two for the extrapolation increment;
        # the benchmark's traced runs count these layers through the same
        # bindings and report a traced run as incorrect when a count differs
        counts = _count_layers(monkeypatch)
        norm(SpaceSpec.hardy(2.0), holo.monomial(2))
        assert counts == {"circle_mean_p": 3}

    def test_bloch_norm_of_e2_takes_two_expansions_and_nothing_else(self, monkeypatch):
        counts = _count_layers(monkeypatch)
        assert norm_detail(SpaceSpec.bloch(1.0), holo.monomial(2)).method == \
            "taylor-coefficient-search"
        assert counts == {"taylor_coefficients": 2}

    @pytest.mark.parametrize("space", [SpaceSpec.bloch(1.0), SpaceSpec.bergman(0.0)],
                             ids=lambda space: space.label)
    def test_a_saks_row_expands_its_function_once(self, space):
        # the norm and five seminorms ask for the same two expansions
        before = holo.taylor_coefficients.cache_info()
        saks_sup_check(space, holo.exp_fn(0.5), [0.5, 0.9, 0.99, 0.999, 0.9999])
        after = holo.taylor_coefficients.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (2, 10)

    def test_the_benchmark_bindings_hold(self, monkeypatch):
        # the traced benchmark reads these parameters by name and rebinds
        # the functions semigroup imports from spaces
        params = {fn: set(inspect.signature(fn).parameters) for fn in (
            spaces.certified_sup, holo.disc_integral, holo.cauchy_derivative_grid,
            holo.real_derivative_grid)}
        assert "values_at" in params[spaces.certified_sup]
        assert "g" in params[holo.disc_integral]
        assert {"zs", "n_nodes"} <= params[holo.cauchy_derivative_grid]
        assert "xs" in params[holo.real_derivative_grid]
        for name in ("norm", "co_seminorm", "certified_sup"):
            assert getattr(semigroup, name) is getattr(spaces, name), name

        counts = {}
        for name in ("norm", "co_seminorm"):
            fn = getattr(spaces, name)

            def wrapped(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(spaces, name, wrapped)
        radii = [0.5, 0.9, 0.99]
        saks_sup_check(SpaceSpec.hardy(2.0), holo.poly([1, 1]), radii)
        assert counts == {"norm": 1, "co_seminorm": len(radii)}


class TestSaks:
    def test_constant_gap_zero(self):
        for space in (SpaceSpec.hardy(2.0), SpaceSpec.dirichlet(), SpaceSpec.sup_holo()):
            rep, verdict = saks_sup_check(space, holo.one(), [0.5, 0.9, 0.9999])
            assert abs(rep["gap"]) < 1e-9
            assert verdict

    def test_hardy_one_plus_z(self):
        rep, _ = saks_sup_check(
            SpaceSpec.hardy(2.0), holo.poly([1, 1]), [0.5, 0.9, 0.99, 0.999, 0.9999]
        )
        assert rep["norm"] == pytest.approx(math.sqrt(2.0), abs=1e-8)
        assert rep["gap"] < 1e-3

    def test_dirichlet_e2(self):
        rep, _ = saks_sup_check(
            SpaceSpec.dirichlet(), holo.monomial(2), [0.5, 0.9, 0.99, 0.999, 0.9999]
        )
        assert rep["norm"] == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert rep["gap"] < 1e-3

    def test_seminorm_above_the_norm_fails(self):
        # a sharp bump halfway between two real-line norm-grid points sits on
        # the grid of the radius-0.5 seminorm, which then exceeds the norm
        step = 80.0 / 8192
        bump = holo.HoloFn(lambda x: np.exp(-((x - 0.5 * step) / 1e-3) ** 2), holo.REAL_LINE)
        rep, verdict = saks_sup_check(SpaceSpec.sup_cont(holo.exp_abs_decay_weight()), bump,
                                      [0.5, 0.9])
        assert rep["gap"] < -0.9
        assert not verdict

    def test_radii_must_increase(self):
        with pytest.raises(ValueError):
            saks_sup_check(SpaceSpec.hardy(2.0), holo.one(), [0.9, 0.5])


class TestSpaceInvariants:
    @pytest.mark.parametrize(
        "space",
        [SpaceSpec.hardy(2.0), SpaceSpec.bergman(0.0, 2.0), SpaceSpec.sup_holo()],
    )
    def test_homogeneity_and_triangle(self, space):
        f = holo.poly([1.0, 0.5])
        g = holo.monomial(2)
        tol = 10.0 * space.policy.tol
        assert norm(space, holo.poly([3.0, 1.5])) == pytest.approx(3.0 * norm(space, f), abs=tol)
        assert norm(space, f - g) <= norm(space, f) + norm(space, g) + tol

    def test_pre_saks_inequality(self):
        # sup on a compact disc is dominated by a multiple of each norm
        s = 0.5
        pts = s * np.exp(1j * np.linspace(0, 2 * np.pi, 64))
        for space in (SpaceSpec.hardy(2.0), SpaceSpec.dirichlet(), SpaceSpec.bloch(1.0)):
            ratios = []
            for f in default_corpus():
                sup = float(np.max(np.abs(f(pts))))
                ratios.append(sup / norm(space, f))
            assert max(ratios) < 1e3

    def test_weight_positivity_checked(self):
        # Re z is 0 at the grid's centre, its first point
        bad = holo.HoloFn(lambda z: np.real(z), holo.UNIT_DISC, name="signed")
        with pytest.raises(ValueError, match=r"^weight is not strictly positive at 0j$"):
            SpaceSpec.sup_holo(bad)

    def test_complex_weight_rejected(self):
        # Re(1 + 0.9iz) > 0 on the disc, but the weight is not real; the
        # grid's first point off the centre is 0.1 (radius 0.1, angle 0)
        bad = holo.HoloFn(lambda z: 1.0 + 0.9j * z, holo.UNIT_DISC, name="1 + 0.9iz")
        with pytest.raises(ValueError, match=r"^weight is not real at \(0\.1\+0j\)$"):
            SpaceSpec.sup_holo(bad)
        assert norm(SpaceSpec.sup_holo(holo.constant(2.0 + 0j)), holo.one()) == 2.0

    @pytest.mark.parametrize("halfwidth", [0.0, -1.0])
    def test_sup_cont_halfwidth_must_be_positive(self, halfwidth):
        with pytest.raises(ValueError, match="halfwidth must be positive"):
            SpaceSpec.sup_cont(holo.exp_abs_decay_weight(), halfwidth)


# A value for each space parameter, for the kinds that do not take it.
_SET = {"p": 3.0, "alpha": 0.5, "weight": "one", "halfwidth": 10.0}
_FOREIGN = [(kind, key) for kind, own in spaces.SPACE_PARAMS.items() for key in _SET
            if key not in own]
# Per kind: its constructor, the positional arguments that set every own
# parameter and the policy, and the config keys that set them alike.
_POLICY = holo.QuadPolicy(tol=1e-9)
_ALL_SET = {
    "hardy": (SpaceSpec.hardy, (3.0, _POLICY), {"p": 3.0}),
    "bergman": (SpaceSpec.bergman, (0.5, 3.0, _POLICY), {"alpha": 0.5, "p": 3.0}),
    "dirichlet": (SpaceSpec.dirichlet, (_POLICY,), {}),
    "bloch": (SpaceSpec.bloch, (2.0, _POLICY), {"alpha": 2.0}),
    "sup-holo": (SpaceSpec.sup_holo, ("exp-decay", _POLICY), {"weight": "exp-decay"}),
    "sup-cont": (SpaceSpec.sup_cont, ("one", 10.0, _POLICY), {"weight": "one", "halfwidth": 10.0}),
}


class TestSpaceParams:
    """spaces.SPACE_PARAMS is the one table of each kind's own parameters."""

    def test_fields_are_the_table_keys_and_a_policy(self):
        keys = {key for own in spaces.SPACE_PARAMS.values() for key in own}
        assert {f.name for f in dataclasses.fields(SpaceSpec)} == {"kind", "policy"} | keys

    @pytest.mark.parametrize("kind, key", _FOREIGN)
    def test_a_foreign_parameter_raises(self, kind, key):
        with pytest.raises(ValueError, match=f"^{key}: not a parameter of {kind}$"):
            SpaceSpec(kind, **{key: _SET[key]})

    @pytest.mark.parametrize("kind", sorted(spaces.SPACE_PARAMS))
    def test_config_and_constructor_build_equal_spaces_with_defaults(self, kind):
        required = {"alpha": 0.5} if kind == "bergman" else {}
        built = suites.build_space({"kind": kind, **required})
        assert built == _ALL_SET[kind][0](*required.values())
        assert built == SpaceSpec(kind, **required)
        for key, default in spaces.SPACE_PARAMS[kind].items():
            if default is not None and key != "weight":
                assert getattr(built, key) == default

    @pytest.mark.parametrize("kind", sorted(spaces.SPACE_PARAMS))
    def test_config_and_constructor_build_equal_spaces_with_every_parameter_set(self, kind):
        make, args, keys = _ALL_SET[kind]
        built = suites.build_space({"kind": kind, **keys, "policy": {"tol": 1e-9}})
        assert built == make(*args) == SpaceSpec(kind, **keys, policy=_POLICY)
        assert built != SpaceSpec(kind, **({"alpha": 0.5} if kind == "bergman" else {}))

    @pytest.mark.parametrize("kind", sorted(spaces.SPACE_PARAMS))
    def test_domain_is_the_line_only_for_sup_cont(self, kind):
        space = SpaceSpec(kind, **({"alpha": 0.5} if kind == "bergman" else {}))
        assert space.domain is (holo.REAL_LINE if kind == "sup-cont" else holo.UNIT_DISC)
        if space.weight is not None:
            assert space.weight.domain.kind == space.domain.kind

    def test_weights_are_derived_or_named(self):
        assert SpaceSpec.bloch(2.0).weight is holo.bloch_weight(2.0)
        assert SpaceSpec.sup_holo().weight is holo.unit_weight()
        assert SpaceSpec.sup_cont().weight is holo.exp_abs_decay_weight()
        assert SpaceSpec.sup_cont("one").weight is holo.unit_weight(holo.REAL_LINE)
        assert SpaceSpec.sup_holo("2.0").label == "Hv[2.0]"
        with pytest.raises(ValueError, match="^weight: bad expression: "):
            SpaceSpec.sup_holo("*z")
        with pytest.raises(ValueError, match="^weight: expected a name or an expression string"):
            SpaceSpec.sup_holo(2.0)

    def test_an_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="^unknown space kind 'hardi'$"):
            SpaceSpec("hardi")


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_hardy_seminorm_monotone_property(s1, s2):
    lo, hi = sorted((s1, s2))
    f = holo.poly([0.3, 1.0, 0.7])
    space = SpaceSpec.hardy(2.0)
    v_lo = co_seminorm(space, f, SeminormIndex(lo))
    v_hi = co_seminorm(space, f, SeminormIndex(hi))
    assert v_lo <= v_hi + 1e-10
