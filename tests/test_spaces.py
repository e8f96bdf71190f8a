"""Norm and seminorm checks against analytic oracles.

Expected values are frozen from independent closed forms: Parseval sums for
Hardy norms, the Beta identity for Bergman monomial norms (via lgamma), and
polar-coordinate integrals for the Dirichlet energy.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcsg import holo
from wcsg.spaces import (
    SeminormIndex,
    SpaceSpec,
    co_seminorm,
    default_corpus,
    norm,
    norm_detail,
    saks_sup_check,
)


def beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


class TestNorm:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_hardy_monomials_are_unit(self, p, n):
        space = SpaceSpec.hardy(p)
        assert norm(space, holo.monomial(n)) == pytest.approx(1.0, abs=1e-8)

    def test_dirichlet_monomial(self):
        # squared norm of z^n is n
        assert norm(SpaceSpec.dirichlet(), holo.monomial(3)) == pytest.approx(
            math.sqrt(3.0), abs=1e-6
        )

    def test_bergman_via_beta_identity(self):
        # ||e_n||^p = (alpha+1) B(np/2 + 1, alpha + 1)
        space = SpaceSpec.bergman(alpha=0.0, p=2.0)
        expected = math.sqrt(1.0 * beta(2.0, 1.0))
        assert norm(space, holo.monomial(1)) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_hardy_one_plus_z_parseval(self):
        assert norm(SpaceSpec.hardy(2.0), holo.poly([1, 1])) == pytest.approx(
            math.sqrt(2.0), abs=1e-8
        )

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
        dom = holo.REAL_LINE if space.is_real else holo.UNIT_DISC
        assert norm_detail(space, holo.constant(0.0, dom)).value == 0.0

    def test_tiny_function_keeps_its_norm(self):
        # a function below 1e-15 everywhere is not the zero function
        for space in (SpaceSpec.hardy(2.0), SpaceSpec.sup_holo()):
            assert norm(space, holo.constant(1e-17)) == pytest.approx(1e-17, rel=1e-12, abs=0)

    def test_detail_reports_truncation_radii(self):
        detail = norm_detail(SpaceSpec.hardy(2.0), holo.monomial(2))
        assert detail.r_truncate == pytest.approx(1.0 - 1e-6)
        assert detail.r_refine == pytest.approx(1.0 - 1e-7)
        assert detail.truncated_value <= detail.value + 1e-12


class TestCoSeminorm:
    def test_constant_hardy(self):
        assert co_seminorm(SpaceSpec.hardy(2.0), holo.one(), SeminormIndex(0.5)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dirichlet_disc_area_oracle(self):
        # (1/pi) * area(D_r) = r^2 for f = z, so the seminorm is r
        val = co_seminorm(SpaceSpec.dirichlet(), holo.monomial(1), SeminormIndex(0.5))
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_hardy_monomial_radius_power(self):
        val = co_seminorm(SpaceSpec.hardy(2.0), holo.monomial(2), SeminormIndex(0.9))
        assert val == pytest.approx(0.81, abs=1e-5)

    @pytest.mark.parametrize(
        "space",
        [SpaceSpec.hardy(2.0), SpaceSpec.bergman(0.5, 2.0), SpaceSpec.sup_holo()],
    )
    def test_monotone_in_radius_and_below_norm(self, space):
        f = holo.poly([0.5, 1.0, -0.25])
        nrm = norm(space, f)
        vals = [co_seminorm(space, f, SeminormIndex(s)) for s in (0.3, 0.6, 0.9, 0.999)]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
        assert all(v <= nrm + 1e-6 for v in vals)


class TestSaks:
    def test_constant_gap_zero(self):
        for space in (SpaceSpec.hardy(2.0), SpaceSpec.dirichlet(), SpaceSpec.sup_holo()):
            rep = saks_sup_check(space, holo.one(), [0.5, 0.9, 0.9999])
            assert abs(rep.gap) < 1e-9
            assert rep.verdict

    def test_hardy_one_plus_z(self):
        rep = saks_sup_check(
            SpaceSpec.hardy(2.0), holo.poly([1, 1]), [0.5, 0.9, 0.99, 0.999, 0.9999]
        )
        assert rep.norm == pytest.approx(math.sqrt(2.0), abs=1e-8)
        assert rep.gap < 1e-3

    def test_dirichlet_e2(self):
        rep = saks_sup_check(
            SpaceSpec.dirichlet(), holo.monomial(2), [0.5, 0.9, 0.99, 0.999, 0.9999]
        )
        assert rep.norm == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert rep.gap < 1e-3

    def test_seminorm_above_the_norm_fails(self):
        # a sharp bump halfway between two real-line norm-grid points sits on
        # the grid of the radius-0.5 seminorm, which then exceeds the norm
        step = 80.0 / 8192
        bump = holo.HoloFn(lambda x: np.exp(-((x - 0.5 * step) / 1e-3) ** 2), holo.REAL_LINE)
        rep = saks_sup_check(SpaceSpec.sup_cont(holo.exp_abs_decay_weight()), bump, [0.5, 0.9])
        assert rep.gap < -0.9
        assert not rep.verdict

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
        bad = holo.HoloFn(lambda z: np.real(z), holo.UNIT_DISC, name="signed")
        with pytest.raises(ValueError):
            SpaceSpec.sup_holo(bad)

    def test_complex_weight_rejected(self):
        # Re(1 + 0.9iz) > 0 on the disc, but the weight is not real
        bad = holo.HoloFn(lambda z: 1.0 + 0.9j * z, holo.UNIT_DISC, name="1 + 0.9iz")
        with pytest.raises(ValueError, match="real-valued"):
            SpaceSpec.sup_holo(bad)
        assert norm(SpaceSpec.sup_holo(holo.constant(2.0 + 0j)), holo.one()) == 2.0

    @pytest.mark.parametrize("halfwidth", [0.0, -1.0])
    def test_sup_cont_halfwidth_must_be_positive(self, halfwidth):
        with pytest.raises(ValueError, match="halfwidth must be positive"):
            SpaceSpec.sup_cont(holo.exp_abs_decay_weight(), halfwidth)


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
