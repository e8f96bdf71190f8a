"""Quadrature and differentiation primitives against closed-form oracles."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcsg import holo, spaces
from wcsg.errors import DomainExit, NonConvergent
from wcsg.holo import (
    DEFAULT_POLICY,
    QuadPolicy,
    annulus_integral,
    boundary_extrapolate,
    cauchy_derivative_grid,
    circle_mean_p,
    derivative_on_grid,
    disc_integral,
    monomial,
    one,
    poly,
    exp_fn,
    mobius,
    real_derivative_grid,
    richardson,
)


class TestTaylorCoefficients:
    def test_exp_coefficients(self):
        a = holo.taylor_coefficients(exp_fn(1.0), 64)
        assert a.shape == (32,)
        expected = [1.0 / math.factorial(k) for k in range(32)]
        assert np.allclose(a, expected, rtol=0, atol=1e-15)

    def test_non_finite_values_raise(self):
        bad = holo.HoloFn(lambda z: np.where(np.real(z) > 0.9, np.nan, z), holo.UNIT_DISC)
        with pytest.raises(NonConvergent):
            holo.taylor_coefficients(bad, 64)


class TestCauchyDerivative:
    def test_square_at_half(self):
        d = cauchy_derivative_grid(monomial(2), 0.5, 0.3)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_cube_derivative_vanishes_at_zero(self):
        d = cauchy_derivative_grid(monomial(3), 0.0, 0.4)
        assert abs(d) < 1e-12

    def test_exp_matches_closed_form(self):
        z = 0.2 + 0.1j
        expected = cmath.exp(z)  # (e^z)' = e^z
        d = cauchy_derivative_grid(exp_fn(), z, 0.25)
        assert d == pytest.approx(expected, abs=1e-11)

    def test_circle_leaving_domain_rejected(self):
        # on the boundary no Cauchy circle fits inside the disc
        with pytest.raises(DomainExit):
            derivative_on_grid(monomial(2), np.array([0.5, 1.0]))

    def test_radius_independence(self):
        f = exp_fn()
        d1 = cauchy_derivative_grid(f, 0.1 + 0.2j, 0.2)
        d2 = cauchy_derivative_grid(f, 0.1 + 0.2j, 0.5)
        assert abs(d1 - d2) <= 10.0 * DEFAULT_POLICY.tol

    @pytest.mark.parametrize("fn", [monomial(12), exp_fn(), mobius(0.4 + 0.2j)])
    def test_doubling_certificate_on_smooth_corpus(self, fn):
        # doubling the node count twice leaves the value in place
        d_small = cauchy_derivative_grid(fn, 0.3 - 0.1j, 0.25, 64)
        d_big = cauchy_derivative_grid(fn, 0.3 - 0.1j, 0.25, 256)
        assert abs(d_small - d_big) < 100.0 * DEFAULT_POLICY.tol


class TestCircleMean:
    def test_constant(self):
        assert circle_mean_p(one(), 0.5, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_monomial_analytic_oracle(self):
        # |r^2 e^{2 i theta}|^2 = r^4
        assert circle_mean_p(monomial(2), 0.5, 2.0) == pytest.approx(0.5 ** 4, abs=1e-14)

    def test_parseval_oracle_one_plus_z(self):
        # mean |1 + r e^{i theta}|^2 = 1 + r^2 by Parseval
        f = poly([1.0, 1.0])
        assert circle_mean_p(f, 0.5, 2.0) == pytest.approx(1.25, abs=1e-14)

    def test_radius_outside_domain(self):
        with pytest.raises(DomainExit):
            circle_mean_p(one(), 1.5, 2.0)

    def test_hardy_convexity_monotone_in_r(self):
        f = poly([0.3, 1.0, -0.5, 0.0, 2.0])
        radii = np.linspace(0.05, 0.95, 10)
        means = [circle_mean_p(f, r, 2.0) for r in radii]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_mode_aliased_on_every_fine_grid_raises_at_the_cap(self):
        # |1 + z^256|^2 is (1 + r^256)^2 ~ 4 on every grid of up to 256
        # angles, and the mean is 1 + r^512 ~ 2: only the turned coarse rows
        # see the mode, so the certificate fails up to the cap
        calls = []

        def fn(z):
            calls.append(z.shape)
            return 1.0 + z ** 256

        with pytest.raises(NonConvergent, match=re.escape("circle mean of |f|^2 at r=0.999999")):
            circle_mean_p(holo.HoloFn(fn), 0.999999, 2.0)
        # the last call is the coarse row at the cap: n_theta turned angles
        assert calls[-1] == (1, DEFAULT_POLICY.n_theta)

    def test_a_nan_on_the_circle_names_the_circle_mean(self):
        f = holo.HoloFn(lambda z: np.where(np.real(z) > 0.4, np.nan, z))
        with pytest.raises(NonConvergent, match="non-finite values in circle mean"):
            circle_mean_p(f, 0.5, 2.0)


def _coarse_pass(g, r, policy=DEFAULT_POLICY, radial=None):
    """holo's radial rule and row sums on disc_integral's panels to r: m
    nodes per panel times n_theta angles, with no certificate."""
    panels = holo._radial_panels(r)
    s, total = holo._radial_rule(panels, max(6, policy.n_radial // len(panels)), radial)
    ring = holo._circle_nodes(policy.n_theta)
    return total(holo._row_sums(g, s, ring, "disc integrand") / policy.n_theta)


class TestDiscIntegral:
    def test_area(self):
        r = 1.0 - 1e-6
        val = disc_integral(lambda z: np.ones(z.shape), r)
        assert val == pytest.approx(math.pi * r * r, rel=1e-10)

    def test_abs_square_polar_oracle(self):
        # 2 pi * int_0^r s^3 ds = pi r^4 / 2
        r = 0.5
        val = disc_integral(lambda z: np.abs(z) ** 2, r)
        assert val == pytest.approx(math.pi * r ** 4 / 2.0, rel=1e-11)

    def test_flat_weight_full_disc(self):
        val = disc_integral(lambda z: (1.0 - np.abs(z) ** 2) ** 0, 1.0 - 1e-6)
        assert val == pytest.approx(math.pi, rel=1e-5)

    def test_bergman_weight_near_boundary(self):
        # int_D (1-|z|^2)^alpha dA = pi/(alpha+1), truncation tail ~ (1e-6)^{alpha+1}
        alpha = 0.5
        val = disc_integral(lambda z: (1.0 - np.abs(z) ** 2) ** alpha, 1.0 - 1e-6)
        assert val == pytest.approx(math.pi / (alpha + 1.0), rel=1e-7)

    def test_radius_validation(self):
        with pytest.raises(DomainExit):
            disc_integral(lambda z: np.ones(z.shape), 1.0)

    def test_radius_error_prints_radius_and_bound_exactly(self):
        # a radius just past 1 would print as 1 with %g
        text = r"disc radius 1\.0000001 outside \(0, 1\)"
        with pytest.raises(DomainExit, match=text):
            disc_integral(lambda z: np.ones(z.shape), 1.0000001)

    def test_radius_past_r_cap_is_inside_the_disc(self):
        # pi r^4 / 2 at r = 1 - 1e-7, beyond r_cap = 1 - 1e-6
        r = 0.9999999
        val = disc_integral(lambda z: np.abs(z) ** 2, r)
        assert val == pytest.approx(math.pi * r ** 4 / 2.0, rel=1e-11)

    def test_doubling_stability_smooth_corpus(self):
        f = mobius(0.3)
        g = lambda z: np.abs(f.fn(z)) ** 2
        for r in (0.5, 0.99):
            v1 = _coarse_pass(g, r)
            v2 = _coarse_pass(g, r, QuadPolicy(n_theta=512, n_radial=256))
            assert abs(v1 - v2) < 100.0 * DEFAULT_POLICY.tol * max(1.0, abs(v2))


def _tensor_reference(g, r, m, n_theta, radial=None):
    """The tensor rule one panel at a time: a composite Gauss-Legendre sum
    over holo's radial panels times the angular mean, with ``radial`` (None
    means 1) on the radial nodes."""
    ring = holo._circle_nodes(n_theta)
    x, w = holo._gl_nodes(m)
    total = 0.0
    for a, b in holo._radial_panels(r):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        s = mid + half * x
        vals = np.asarray(g(s[:, None] * ring[None, :]), dtype=float)
        rw = s if radial is None else s * radial(s)
        total += 2.0 * np.pi * half * float(np.dot(w, rw * np.mean(vals, axis=1)))
    return total


def _fine_m(r):
    """Gauss-Legendre nodes per panel of disc_integral's fine pass to r."""
    return 2 * max(6, DEFAULT_POLICY.n_radial // len(holo._radial_panels(r)))


def _bergman_weight(alpha):
    return lambda s: (1.0 - s * s) ** alpha


class TestRadialFactor:
    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5])
    def test_weight_alone_matches_closed_form(self, alpha):
        # 2 pi int_0^r s (1-s^2)^alpha ds = pi (1 - (1-r^2)^(alpha+1)) / (alpha+1)
        val = disc_integral(lambda z: np.ones(z.shape), 1.0 - 1e-6, radial=_bergman_weight(alpha))
        exact = math.pi * (1.0 - (2e-6 - 1e-12) ** (alpha + 1.0)) / (alpha + 1.0)
        assert val == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5])
    @pytest.mark.parametrize("r", [0.5, 0.99])
    def test_agrees_with_weight_inside_the_integrand(self, alpha, r):
        f = mobius(0.3)
        g = lambda z: np.abs(f.fn(z)) ** 2
        inside = lambda z: np.abs(f.fn(z)) ** 2 * (1.0 - np.abs(z) ** 2) ** alpha
        folded = disc_integral(g, r, radial=_bergman_weight(alpha))
        assert folded == pytest.approx(disc_integral(inside, r), rel=1e-13)
        r1, r2 = r, 1.0 - (1.0 - r) / 10.0
        folded = annulus_integral(g, r1, r2, radial=_bergman_weight(alpha))
        assert folded == pytest.approx(annulus_integral(inside, r1, r2), rel=1e-13)

    def test_no_radial_factor_is_the_plain_tensor_rule(self):
        oracles = [lambda z: np.ones(z.shape), lambda z: np.abs(z) ** 2,
                   lambda z: (1.0 - np.abs(z) ** 2) ** 0.5,
                   lambda z: np.abs(mobius(0.3).fn(z)) ** 2]
        for g in oracles:
            for r in (0.5, 0.99, 1.0 - 1e-6):
                ref = _tensor_reference(g, r, _fine_m(r), 2 * DEFAULT_POLICY.n_theta)
                assert disc_integral(g, r) == ref
                assert disc_integral(g, r, radial=lambda s: np.ones_like(s)) == ref

    def test_radial_factor_runs_on_radial_nodes_only(self):
        sizes = []

        def radial(s):
            sizes.append(np.shape(s))
            return 1.0 - s * s

        _coarse_pass(lambda z: np.ones(z.shape), 0.5, radial=radial)
        m = max(6, DEFAULT_POLICY.n_radial)
        assert sizes == [(m,)]


def _recording(g, calls):
    """g, appending each call's (rows, row length, first radius, first angle)."""
    def wrapped(z):
        calls.append((z.shape[0], z.shape[1], abs(z[0, 0]), np.angle(z[0, 0])))
        return g(z)

    return wrapped


class TestBlockedPass:
    """g runs on blocks of whole radial rows; the fine value is the per-panel
    rule at the angle count the ladder settled on."""

    @pytest.mark.parametrize("radial", [None, _bergman_weight(0.5)], ids=["plain", "bergman"])
    @pytest.mark.parametrize("r", [0.5, 0.99, 1.0 - 1e-6])
    def test_fine_value_is_the_per_panel_rule_at_the_settled_count(self, monkeypatch, r, radial):
        # 3,000 points: 46 rows of 64 angles per call (23 of 128 should the
        # ladder settle at 256), which cut across panels of 6 to 256 rows
        monkeypatch.setattr(holo, "BLOCK_POINTS", 3000)
        f = mobius(0.3)
        g = lambda z: np.abs(f.fn(z)) ** 2.5
        calls = []
        val = disc_integral(_recording(g, calls), r, radial=radial)
        # the coarse rows of the settled level N run last, on N / 2 turned angles
        n = 2 * calls[-1][1]
        assert n in holo._angle_ladder(DEFAULT_POLICY.n_theta)[1:]
        assert calls[-1][3] == pytest.approx(np.angle(holo._offset_circle_nodes(n // 2)[0]))
        assert val == pytest.approx(_tensor_reference(g, r, _fine_m(r), n, radial),
                                    rel=4 * _EPS, abs=0)

    # fine rows: 240 of 64 angles, then 240 of the 64 new angles of 128;
    # coarse rows: 120 of 64 turned angles. 46 or 64 rows per call.
    @pytest.mark.parametrize("block, n_calls", [(3000, 6 + 6 + 3), (holo.BLOCK_POINTS, 4 + 4 + 2)])
    def test_every_call_is_whole_rows_within_the_block(self, monkeypatch, block, n_calls):
        monkeypatch.setattr(holo, "BLOCK_POINTS", block)
        calls = []
        r = 1.0 - 1e-6  # 20 panels of 6 (coarse) and 12 (fine) rows
        disc_integral(_recording(lambda z: np.ones(z.shape), calls), r)
        assert all(c == DEFAULT_POLICY.n_theta // 4 and k * c <= block for k, c, _, _ in calls)
        ends = np.cumsum([k for k, _, _, _ in calls])
        assert {240, 480, 600} <= set(ends) and ends[-1] == 600
        assert len(calls) == n_calls

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_bad_node_in_the_last_block_raises(self, monkeypatch, bad):
        monkeypatch.setattr(holo, "BLOCK_POINTS", 3000)
        calls = []

        def g(z):
            calls.append(z.shape)
            vals = np.ones(z.shape)
            if len(calls) == n_calls:
                vals.flat[-1] = bad
            return vals

        n_calls = 0
        disc_integral(g, 0.99)
        n_calls, calls = len(calls), []
        with pytest.raises(NonConvergent, match="non-finite values in disc integrand"):
            disc_integral(g, 0.99)
        assert len(calls) == n_calls


def _angular(k):
    """1 + cos(k arg z): 2 on any grid of N angles with N | k."""
    return lambda z: 1.0 + np.cos(k * np.angle(z))


def _peaked(z):
    """A row whose trapezoid moves at every level up to 512 angles."""
    return 1.0 / (1.0001 - np.real(z) / np.abs(z))


class TestAngleLadder:
    """The fine rows double their angles on nested nodes up to 2 n_theta; the
    coarse rows run on half the settled count, turned off the fine grid."""

    @pytest.mark.parametrize("n_theta, ladder", [
        (16, [4, 8, 16, 32]), (17, [17, 34]), (18, [9, 18, 36]),
        (100, [25, 50, 100, 200]), (256, [64, 128, 256, 512])])
    def test_ladder(self, n_theta, ladder):
        assert holo._angle_ladder(n_theta) == tuple(ladder)
        assert ladder[-1] == 2 * n_theta and ladder[-1] // 2 == n_theta
        assert all(b == 2 * a for a, b in zip(ladder, ladder[1:]))

    def test_odd_n_theta_runs_two_levels(self):
        # fine rows at 17 angles, then the 17 new ones of 34; coarse at 17
        calls = []
        with pytest.raises(NonConvergent, match="disc integral to r=0.99: doubling moved"):
            disc_integral(_recording(_peaked, calls), 0.99, QuadPolicy(n_theta=17))
        assert {c for _, c, _, _ in calls} == {17}
        panels = len(holo._radial_panels(0.99))
        m = max(6, DEFAULT_POLICY.n_radial // panels)
        assert sum(k for k, _, _, _ in calls) == (2 * m + 2 * m + m) * panels

    @pytest.mark.parametrize("g, settles", [(_peaked, False), (_angular(128), True)],
                             ids=["peaked", "aliased-below-the-cap"])
    def test_points_stay_within_the_fixed_rule(self, g, settles):
        # today's fixed rule: 2m rows of 2 n_theta and m rows of n_theta
        r, n = 1.0 - 1e-6, DEFAULT_POLICY.n_theta
        panels = holo._radial_panels(r)
        m = max(6, DEFAULT_POLICY.n_radial // len(panels))
        fine_s, _ = holo._radial_rule(panels, 2 * m, None)
        calls = []
        if settles:
            assert disc_integral(_recording(g, calls), r) == pytest.approx(math.pi * r * r,
                                                                          rel=1e-12)
        else:
            with pytest.raises(NonConvergent):
                disc_integral(_recording(g, calls), r)
        fine = sum(k * c for k, c, s, _ in calls if np.isclose(s, fine_s, rtol=0, atol=1e-15).any())
        total = sum(k * c for k, c, _, _ in calls)
        fixed = len(panels) * (2 * m * 2 * n + m * n)
        assert fine == len(panels) * 2 * m * 2 * n
        assert total <= 1.2 * fixed

    def test_mode_aliased_at_every_level_raises(self):
        # 1 + cos(512 theta) is 2 on every fine grid; the fixed rule returned
        # twice the area, since its coarse 256 angles alias it too
        with pytest.raises(NonConvergent, match="disc integral to r=0.99"):
            disc_integral(_angular(512), 0.99)

    @pytest.mark.parametrize("k", [128, 512])
    def test_bergman_norm_of_a_high_mode_is_right_or_raises(self, k):
        f = poly([1.0] + [0.0] * (k - 1) + [1.0])
        ref = spaces.norm(spaces.SpaceSpec.bergman(0.5, 3.0, QuadPolicy(n_theta=4096)), f)
        try:
            val = spaces.norm(spaces.SpaceSpec.bergman(0.5, 3.0), f)
        except NonConvergent:
            return
        assert val == pytest.approx(ref, rel=0, abs=1e-6)

    def test_singular_inner_runs_to_the_cap(self, monkeypatch):
        calls = []
        certified = holo.disc_integral
        monkeypatch.setattr(spaces, "disc_integral",
                            lambda g, *a, **kw: certified(_recording(g, calls), *a, **kw))
        detail = spaces.norm_detail(spaces.SpaceSpec.bergman(0.0), holo.singular_inner())
        assert detail.method == "truncated-extrapolated"
        # n_theta = 4096 and n_radial = 512 give 0.66731886493
        assert detail.value == 0.6673188649632443
        assert max(c for _, c, _, _ in calls) == DEFAULT_POLICY.n_theta

    def test_annulus_mode_aliased_at_every_level_raises_at_the_cap(self):
        # 1 + cos(512 theta) is 2 on every fine grid; only the turned coarse
        # rows see the mode, so the certificate fails up to the cap
        calls = []
        with pytest.raises(NonConvergent, match=r"annulus integral over \[0.5, 0.6\]"):
            annulus_integral(_recording(_angular(512), calls), 0.5, 0.6)
        assert max(c for _, c, _, _ in calls) == DEFAULT_POLICY.n_theta


_EPS = np.finfo(float).eps


def _monomial_points():
    rng = np.random.default_rng(7)
    rs, ts = rng.uniform(0.5, 1.0, 500), rng.uniform(0.0, 2.0 * np.pi, 500)
    disc = np.concatenate([rs * np.exp(1j * ts), [0.0, 1.0, -1.0, 1j, -1j, 0.5, 0.9 + 0.3j]])
    real = np.concatenate([rng.uniform(-2.0, 2.0, 500), [0.0, 1.0, -1.0, 0.5]])
    return disc, real


class TestMonomial:
    """Binary powering against numpy's power: within 4 n eps, bitwise for
    n <= 2, and never the input array."""

    @pytest.mark.parametrize("n", range(41))
    def test_matches_numpy_power(self, n):
        for z, dom in zip(_monomial_points(), (holo.UNIT_DISC, holo.REAL_LINE)):
            f = monomial(n, dom)
            ref_f, ref_d = z ** n, n * z ** max(n - 1, 0)
            for got, ref in ((f.fn(z), ref_f), (f.deriv(z), ref_d)):
                assert np.all(np.abs(got - ref) <= 4 * n * _EPS * np.abs(ref))
                assert n > 2 or np.array_equal(got, ref)
                assert not np.shares_memory(got, z)


def _poisoned(bad, k=1234):
    """An integrand equal to 1 except at the k-th node of each call."""
    def g(z):
        vals = np.ones(z.shape)
        vals.flat[k % vals.size] = bad
        return vals

    return g


class TestFiniteness:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("radial", [None, _bergman_weight(-0.5)])
    @pytest.mark.parametrize("integral", [
        lambda g, radial: disc_integral(g, 0.99, radial=radial),
        lambda g, radial: _coarse_pass(g, 0.99, radial=radial),
        lambda g, radial: annulus_integral(g, 0.99, 0.999, radial=radial),
    ], ids=["certified", "uncertified", "annulus"])
    def test_one_bad_node_raises(self, bad, radial, integral):
        with pytest.raises(NonConvergent, match="non-finite values in disc integrand"):
            integral(_poisoned(bad), radial)

    def test_overflowing_row_sum_raises(self):
        with pytest.raises(NonConvergent, match="non-finite values in disc integrand"):
            with np.errstate(over="ignore"):
                _coarse_pass(lambda z: np.full(z.shape, 1e307), 0.5)


class TestDoublingCertificate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["coarse", "fine"])
    def test_a_non_finite_value_raises(self, bad, side):
        good = np.array([0.5, 1.0 + 1j, -2.0])
        spoilt = good.copy()
        spoilt[1] = bad
        coarse, fine = (spoilt, good) if side == "coarse" else (good, spoilt)
        with pytest.raises(NonConvergent, match="the quantity: doubling moved the value by"):
            holo.certify_doubling(coarse, fine, 1e-8, "the quantity")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_scalar_raises(self, bad):
        with pytest.raises(NonConvergent, match="scalar"):
            holo.certify_doubling(1.0, bad, 1e-8, "scalar")
        with pytest.raises(NonConvergent, match="scalar"):
            holo.certify_doubling(bad, 1.0, 1e-8, "scalar")

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_bound_is_100_tol_times_the_larger_of_1_and_max_fine(self, scale):
        tol = 1e-8
        fine = np.array([0.1, -1.0]) * scale
        bound = 100.0 * tol * max(1.0, scale)
        within, beyond = fine + 0.5 * bound, fine.copy()
        beyond[0] += 2.0 * bound
        assert holo.certify_doubling(within, fine, tol, "q") is fine
        with pytest.raises(NonConvergent, match="a sum at t=1: doubling moved the value by"):
            holo.certify_doubling(beyond, fine, tol, "a sum at t=1")

    def test_equal_values_return_fine(self):
        assert holo.certify_doubling(2.5, 2.5, 1e-8, "q") == 2.5


class TestRowBlocks:
    @pytest.mark.parametrize("block", [50, 1000, holo.BLOCK_POINTS])
    @pytest.mark.parametrize("n_rows, row_len", [(0, 7), (1, 1), (37, 1), (50_677, 1),
                                                 (120, 256), (33, 13), (9, 4096), (5, 5000),
                                                 (12, 0)])
    def test_every_row_once_in_order_within_the_block(self, monkeypatch, block, n_rows,
                                                      row_len):
        monkeypatch.setattr(holo, "BLOCK_POINTS", block)
        slices = list(holo.row_blocks(n_rows, row_len))
        covered = [i for sl in slices for i in range(n_rows)[sl]]
        assert covered == list(range(n_rows))
        sizes = [len(range(n_rows)[sl]) for sl in slices]
        assert all(k >= 1 for k in sizes)
        if row_len > block:
            assert set(sizes) <= {1}
        else:
            assert all(k * max(1, row_len) <= block for k in sizes)
            # only the last block may hold fewer rows than fit
            assert all(k == block // max(1, row_len) for k in sizes[:-1])


def _per_node_time_integral(h, t, zs, n):
    """The rule of holo.time_integral at n nodes, one h call per node."""
    xs, ws = holo.gl01(n)
    pts = np.ravel(zs)
    acc = np.zeros(pts.shape, dtype=complex)
    for x, w in zip(xs, ws):
        acc = acc + w * np.asarray(h(np.array([[x]]) * t, pts[None, :]))[0]
    return t * acc.reshape(np.shape(zs))


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bits, so -0.0 differs from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _orbit_integrand(taus, pts):
    """exp(i tau z) z^2 + tau, standing in for g along a flow."""
    return np.exp(1j * taus * pts) * pts ** 2 + taus


class TestTimeIntegral:
    @pytest.mark.parametrize("block", [50, holo.BLOCK_POINTS])
    @pytest.mark.parametrize("shape", [(13,), (3, 5), (5000,)])
    def test_equals_the_per_node_loop(self, monkeypatch, block, shape):
        monkeypatch.setattr(holo, "BLOCK_POINTS", block)
        n_pts = math.prod(shape)
        zs = np.linspace(0.0, 0.9, n_pts) * np.exp(2j * np.pi * np.arange(n_pts) / 7)
        zs = zs.reshape(shape)
        for t, n in [(0.3, 8), (1.7, 55)]:
            got = holo.time_integral(_orbit_integrand, t, zs, n)
            assert got.shape == shape
            assert np.array_equal(got, _per_node_time_integral(_orbit_integrand, t, zs, 2 * n))

    @pytest.mark.parametrize("block", [50, 13 * 20, holo.BLOCK_POINTS])
    def test_both_rules_run_in_one_pass_and_certify_their_own_sums(self, monkeypatch, block):
        # 13 * 20 points puts the last n-rule node and the first 2n-rule
        # nodes of n = 8 in one block
        monkeypatch.setattr(holo, "BLOCK_POINTS", block)
        certified, calls = [], []
        certify = holo.certify_doubling
        monkeypatch.setattr(holo, "certify_doubling",
                            lambda *a: certified.append(a[:2]) or certify(*a))
        zs = np.linspace(0.0, 0.9, 13) * np.exp(2j * np.pi * np.arange(13) / 7)
        h = lambda taus, pts: calls.append(taus[:, 0] / 0.3) or _orbit_integrand(taus, pts)
        holo.time_integral(h, 0.3, zs, 8)
        (coarse, fine), = certified
        assert np.array_equal(coarse, _per_node_time_integral(_orbit_integrand, 0.3, zs, 8))
        assert np.array_equal(fine, _per_node_time_integral(_orbit_integrand, 0.3, zs, 16))
        nodes = np.concatenate(calls)
        assert np.allclose(nodes, np.concatenate([holo.gl01(8)[0], holo.gl01(16)[0]]))
        assert len(calls) == math.ceil(24 / (block // 13))

    @pytest.mark.parametrize("block", [50, holo.BLOCK_POINTS])
    def test_every_call_is_whole_nodes_within_the_block(self, monkeypatch, block):
        monkeypatch.setattr(holo, "BLOCK_POINTS", block)
        shapes = []

        def h(taus, pts):
            shapes.append((taus.shape, pts.shape))
            return np.ones(pts.shape)

        holo.time_integral(h, 0.5, np.zeros(13), 8)
        for taus_shape, pts_shape in shapes:
            k = taus_shape[0]
            assert taus_shape == (k, 1) and pts_shape == (k, 13) and k * 13 <= max(block, 13)
        assert sum(taus_shape[0] for taus_shape, _ in shapes) == 8 + 16

    @pytest.mark.parametrize("n_pts", [1, 43, 100])
    def test_the_default_rule_equals_the_per_node_loop_bit_for_bit(self, n_pts):
        # n = 32 puts 3n = 96 nodes in a pass; 4096 // 96 = 42 points fit one
        # block, so 43 and 100 points split the nodes across blocks
        zs = np.linspace(0.05, 0.9, n_pts) * np.exp(2j * np.pi * np.arange(n_pts) / 7)
        certified = []
        certify = holo.certify_doubling
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(holo, "certify_doubling", lambda *a: certified.append(a[:2]) or certify(*a))
            holo.time_integral(_orbit_integrand, 0.9, zs, 32)
        for got, n in zip(certified[0], (32, 64)):
            assert _same_bits(got, _per_node_time_integral(_orbit_integrand, 0.9, zs, n))

    @pytest.mark.parametrize("complex_values", [True, False])
    def test_signed_zeros_round_as_the_per_node_loop(self, monkeypatch, complex_values):
        # -0.0 at every node of the points off the right half plane, and a
        # sum of -0.0 and -1e-300 on it: the running sum starts at +0.0, so a
        # sum that skipped it or paired terms differently could flip a sign
        zs = np.array([0.0, -0.0, 0.5, -0.5, 0.25j, -0.25j])

        def h(taus, pts):
            tiny = np.where((taus > 0.5) & (pts.real > 0.0), -1e-300, 0.0)
            vals = np.copysign(0.0, -1.0) * pts * taus + tiny
            return vals if complex_values else np.real(vals)

        certified = []
        certify = holo.certify_doubling
        monkeypatch.setattr(holo, "certify_doubling",
                            lambda *a: certified.append(a[:2]) or certify(*a))
        holo.time_integral(h, 1.0, zs, 8)
        for got, n in zip(certified[0], (8, 16)):
            assert _same_bits(got, _per_node_time_integral(h, 1.0, zs, n))

    def test_polynomial_in_time_is_exact(self):
        zs = np.array([0.0, 0.5, -0.3 + 0.4j])
        got = holo.time_integral(lambda taus, pts: 3.0 * taus ** 2 * pts + 1.0, 2.0, zs, 8)
        assert np.allclose(got, 8.0 * zs + 2.0, rtol=0, atol=1e-14)

    def test_a_pole_on_an_orbit_raises_without_a_warning(self):
        # h has a pole at z = 0 for every tau; the warnings filter turns a
        # numpy RuntimeWarning into a failure
        h = lambda taus, pts: 1.0 / (pts + 0.0 * taus)
        zs = np.array([0.5, 0.0, 0.25j])
        with pytest.raises(NonConvergent, match="non-finite values in time integral"):
            holo.time_integral(h, 1.0, zs, 8)

    def test_an_unresolved_integrand_fails_the_doubling(self):
        h = lambda taus, pts: np.exp(400j * taus) * np.ones(pts.shape)
        with pytest.raises(NonConvergent, match="time integral at t=1: doubling moved the value"):
            holo.time_integral(h, 1.0, np.zeros(3), 8)


class TestExtrapolation:
    def test_boundary_extrapolate_linear_tail(self):
        F = lambda r: 1.0 - 3.0 * (1.0 - r)  # exact linear tail
        r1, r2 = 1.0 - 1e-6, 1.0 - 1e-7
        assert boundary_extrapolate(F(r1), F(r2), r1, r2, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_boundary_extrapolate_power_tail(self):
        e = 1.5
        F = lambda r: 2.0 - 0.7 * (1.0 - r) ** e
        r1, r2 = 1.0 - 1e-4, 1.0 - 1e-5
        assert boundary_extrapolate(F(r1), F(r2), r1, r2, e) == pytest.approx(2.0, abs=1e-12)

    def test_richardson_kills_linear_term(self):
        D = lambda h: 4.0 + 2.5 * h + 0.3 * h * h
        steps = [1e-2, 5e-3, 2.5e-3]
        val = richardson([D(h) for h in steps], steps)
        assert val == pytest.approx(4.0, abs=1e-12)

    def test_real_derivative(self):
        d = real_derivative_grid(np.sin, [0.7])[0]
        assert d == pytest.approx(math.cos(0.7), abs=1e-10)


def _neville_reference(values, steps, order):
    """The elementwise Neville tableau richardson replaced, kept as the oracle."""
    hs = [h ** order for h in steps]
    tab = list(values)
    n = len(tab)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            x0, x1 = hs[i], hs[i + level]
            nxt.append((x0 * tab[i + 1] - x1 * tab[i]) / (x0 - x1))
        tab = nxt
    return tab[0]


class TestRichardsonTypes:
    steps = [1e-2, 5e-3, 2.5e-3]

    @pytest.mark.parametrize("order", [1.0, 2.0])
    def test_real_arrays_exact(self, order):
        xs = np.linspace(-1.0, 1.0, 17)
        values = [np.sin(xs + h) / (1.0 + h) for h in self.steps]
        got = richardson(values, self.steps, order=order)
        assert got.dtype == np.float64
        assert np.array_equal(got, _neville_reference(values, self.steps, order))

    @pytest.mark.parametrize("order", [1.0, 2.0])
    def test_complex_arrays_exact(self, order):
        zs = 0.7 * np.exp(2j * np.pi * np.arange(12) / 12)
        values = [np.exp(zs * (1.0 + h)) for h in self.steps]
        got = richardson(values, self.steps, order=order)
        assert got.dtype == np.complex128
        assert np.array_equal(got, _neville_reference(values, self.steps, order))

    def test_python_complex_scalars_exact(self):
        values = [complex(math.cos(h), 0.3 + h * h) / 3.0 for h in self.steps]
        got = richardson(values, self.steps)
        assert type(got) is complex
        assert got == _neville_reference(values, self.steps, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.floats(min_value=0.1, max_value=0.9))
def test_circle_mean_monomial_property(n, r):
    # mean |z^n|^p on |z| = r equals r^{np}
    assert circle_mean_p(monomial(n), r, 2.0) == pytest.approx(r ** (2 * n), rel=1e-10, abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=6),
    st.floats(min_value=-0.42, max_value=0.42),
    st.floats(min_value=-0.42, max_value=0.42),
)
def test_cauchy_derivative_polynomial_property(coeffs, re, im):
    # derivative of a polynomial at an interior point, against the coefficient
    # rule; the sample box keeps |z| + radius inside the disc
    z = complex(re, im)
    f = poly(coeffs)
    expected = sum(k * c * z ** (k - 1) for k, c in enumerate(coeffs) if k > 0)
    got = cauchy_derivative_grid(f, z, 0.3)
    assert got == pytest.approx(complex(expected), abs=1e-9)
