"""Cocycle constructors and laws against closed forms."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcsg import cocycles, flows, holo
from wcsg.cocycles import (
    cocycle_from_g,
    cocycle_law_residual,
    coboundary,
    coboundary_admissibility,
    derivative_cocycle,
    mdot0,
    trivial_cocycle,
)
from wcsg.defaults import DEFAULT_CONFIGS
from wcsg.errors import (
    DegenerateFixedPoint,
    InvalidParam,
    NonConvergent,
    OrderMismatch,
    ZeroNotFixed,
)
from wcsg.exprs import to_holofn
from wcsg.flows import disc_sample_grid, make_catalog_semiflow, semiflow_from_generator
from wcsg.suites import run_cocycle_check

TS = (0.0, 0.1, 0.5, 1.0)
GRID = disc_sample_grid(0.95)


def _exp_tail(z):
    """(exp(z) - 1 - z) / z^2 by its power series, for |z| < 1e-3."""
    return sum(z**k / math.factorial(k + 2) for k in range(8))


def dilation(c=1.0):
    return make_catalog_semiflow("dilation", {"c": c})


class TestIntegralCocycle:
    def test_constant_integrand(self):
        m = cocycle_from_g(holo.constant(-1.0), dilation())
        for z in (0.0, 0.3 + 0.2j):
            assert complex(np.asarray(m(0.7, z))) == pytest.approx(
                math.exp(-0.7), abs=1e-12
            )
        assert m.constant_in_z

    def test_matches_derivative_cocycle_of_dilation(self):
        # g = -1 integrates to e^{-t}, which is exactly phi_t' for the dilation
        phi = dilation(1.0)
        m_int = cocycle_from_g(holo.constant(-1.0), phi)
        m_der = derivative_cocycle(phi)
        pts = disc_sample_grid(0.9)
        for t in (0.3, 1.0):
            gap = np.max(np.abs(np.asarray(m_int(t, pts)) - np.asarray(m_der(t, pts))))
            assert gap < 1e-10

    def test_zero_integrand_gives_one(self):
        m = cocycle_from_g(holo.constant(0.0), make_catalog_semiflow("attracting"))
        assert complex(np.asarray(m(2.0, 0.4))) == pytest.approx(1.0, abs=1e-14)

    def test_law_residual_nonconstant_g(self):
        phi = make_catalog_semiflow("attracting")
        m = cocycle_from_g(holo.monomial(1), phi)
        assert cocycle_law_residual(m, phi, TS, GRID) < 1e-7
        assert not m.constant_in_z

    def test_law_residual_rejects_negative_times(self):
        # the attracting flow leaves the disc backwards in time, where the
        # cocycle law is not defined
        phi = make_catalog_semiflow("attracting")
        with pytest.raises(InvalidParam, match="cocycle times must be >= 0"):
            cocycle_law_residual(trivial_cocycle(), phi, (0.0, -0.5), GRID)

    def test_law_residual_solves_each_time_on_the_grid_once(self):
        # the cocycle-check shape of the ode-flows workload: m_t(pts) once
        # per distinct time in {0, t, t+s}, m_s(phi_t) once per pair
        phi = make_catalog_semiflow("attracting")
        m = cocycle_from_g(to_holofn("0.4*z^2"), phi)
        calls = []

        def counted(t, z):
            calls.append(t)
            return m.eval(t, z)

        pts = disc_sample_grid(0.9, 1, 4)
        assert cocycle_law_residual(dataclasses.replace(m, eval=counted), phi, [0.0, 0.25],
                                    pts) == cocycle_law_residual(m, phi, [0.0, 0.25], pts)
        assert len(calls) == 7 and sum(t > 0 for t in calls) == 4

    def test_a_replaced_cocycle_keeps_its_generator_and_constancy(self):
        # a benchmark tracer rebuilds cocycles with dataclasses.replace(m, eval=...)
        phi = dilation()
        for g, constant in ((holo.constant(-1.0), True), (holo.monomial(1), False)):
            m = cocycle_from_g(g, phi)
            rebuilt = dataclasses.replace(m, eval=lambda t, z, m=m: m.eval(t, z))
            assert rebuilt.g is g and rebuilt.constant_in_z is constant
            assert not rebuilt.trivial
        one = trivial_cocycle()
        assert dataclasses.replace(one, eval=lambda t, z: one.eval(t, z)).trivial
        with pytest.raises(TypeError):
            cocycles.Semicocycle(eval=phi.eval, constant_in_z=True)
        with pytest.raises(TypeError):
            cocycles.Semicocycle(eval=phi.eval, provenance="trivial")

    def test_symmetric_generators_are_not_constant(self):
        # z^7 and z^14 take one value on seven equally spaced points of a
        # circle; C(1)e_1 under the dilation is then e^{-1} z e^{a z^7},
        # a = (1 - e^{-7})/7, whose derivative is e^{-1} e^{a z^7} (1 + 7 a z^7)
        from wcsg.semigroup import WcSemigroup, apply
        from wcsg.spaces import SpaceSpec

        phi = dilation()
        for g in ("z^7", "z^14"):
            assert not cocycle_from_g(to_holofn(g), phi).constant_in_z
        sg = WcSemigroup(phi, cocycle_from_g(to_holofn("z^7"), phi), SpaceSpec.hardy(2.0))
        a, z = (1.0 - math.exp(-7.0)) / 7.0, 0.9
        exact = math.exp(-1.0 + a * z ** 7) * (1.0 + 7.0 * a * z ** 7)
        assert exact == pytest.approx(0.5820851, abs=1e-7)
        got = holo.derivative_on_grid(apply(sg, 1.0, holo.monomial(1)), z)
        assert abs(got - exact) < 1e-9

    def test_law_residual_keeps_a_nan_after_the_first_pair(self):
        # m_1 is NaN: only the pair (0.5, 0.5) reaches it, after finite residuals
        m = cocycles.Semicocycle(
            eval=lambda t, z: np.full(np.shape(z), np.nan if t == 1.0 else 1.0, dtype=complex))
        assert math.isnan(cocycle_law_residual(m, dilation(), (0.0, 0.5), GRID))

    def test_a_pole_of_g_on_an_orbit_is_nonconvergent(self):
        # the grid holds 0, a fixed point of the dilation where 1/z has its pole
        m = cocycle_from_g(to_holofn("1/z"), dilation())
        with pytest.raises(NonConvergent, match="non-finite values in time integral"):
            m(0.5, GRID)

    def test_never_vanishes(self):
        m = cocycle_from_g(holo.monomial(1), make_catalog_semiflow("attracting"))
        vals = np.abs(np.asarray(m(1.0, GRID)))
        assert np.min(vals) > 0.0

    def test_exponential_representation_self_consistency(self):
        # m_t(z) agrees with exp of the time integral of the *recovered*
        # derivative-at-zero along the orbit
        phi = make_catalog_semiflow("attracting")
        m = cocycle_from_g(holo.poly([0.5, -1.0]), phi)
        xs, ws = np.polynomial.legendre.leggauss(16)
        for z in (0.3, -0.2 + 0.4j):
            for t in (0.5, 1.0):
                nodes = 0.5 * t * (xs + 1.0)
                acc = 0.0 + 0.0j
                for s_node, w in zip(nodes, 0.5 * t * ws):
                    orbit_pt = complex(np.asarray(phi(s_node, z)))
                    acc += w * mdot0(m, orbit_pt)
                rebuilt = np.exp(acc)
                direct = complex(np.asarray(m(t, z)))
                assert abs(direct - rebuilt) < 1e-7


def _per_node_cocycle(g, phi, t, zs):
    """exp of the fine time integral, one flow evaluation per node."""
    xs, ws = holo.gl01(2 * cocycles._time_nodes(t))
    acc = np.zeros(np.shape(zs), dtype=complex)
    for x, w in zip(xs, ws):
        acc = acc + w * np.asarray(g(np.asarray(phi(x * t, zs))))
    return np.exp(t * acc)


class TestBlockedTimeIntegral:
    """The node blocks of the time integral round as one node at a time."""

    @pytest.mark.parametrize("n_points", [13, 20_000])
    def test_catalog_flow_equals_per_node_loop(self, n_points):
        phi = make_catalog_semiflow("attracting")
        g = to_holofn("0.3*z^2 - i*z")
        zs = np.linspace(0.0, 0.95, n_points) * np.exp(2j * np.pi * np.arange(n_points) / 7)
        for t in (0.3, 1.7):
            assert np.array_equal(cocycle_from_g(g, phi)(t, zs), _per_node_cocycle(g, phi, t, zs))

    @pytest.mark.parametrize("n_points", [13, 100])
    def test_ode_flow_equals_per_node_loop(self, monkeypatch, n_points):
        # a 50-point block holds 3 nodes of 13 points (the last block of 32
        # nodes holds 2), or one node of 100
        monkeypatch.setattr(holo, "BLOCK_POINTS", 50)
        phi = semiflow_from_generator(to_holofn("-0.9*z + 0.25*i*z^2"))
        g = to_holofn("0.4*z^2 + 1")
        zs = disc_sample_grid(0.9, 3, 4) if n_points == 13 else disc_sample_grid(0.9, 9, 11)
        assert zs.size == n_points
        assert np.array_equal(cocycle_from_g(g, phi)(0.6, zs), _per_node_cocycle(g, phi, 0.6, zs))

    def test_a_13_point_grid_takes_one_rk4_call_per_quadrature_rule(self, monkeypatch):
        calls = []
        integrate = flows._integrate
        monkeypatch.setattr(flows, "_integrate", lambda *a: calls.append(1) or integrate(*a))
        m = cocycle_from_g(to_holofn("z"), semiflow_from_generator(to_holofn("-z")))
        m(0.8, disc_sample_grid(0.9, 3, 4))
        assert len(calls) <= 2


class TestTimeNodeCap:
    def test_the_cap_is_reached_at_t_16(self):
        assert cocycles._time_nodes(0.2) == 32
        assert cocycles._time_nodes(16.0) == cocycles.TIME_NODE_CAP == 512

    @pytest.mark.parametrize("t", [16.01, 200.0])
    def test_past_the_cap_is_invalid_before_any_rule_is_built(self, monkeypatch, t):
        built = []
        monkeypatch.setattr(holo, "gl01", lambda n: built.append(n))
        m = cocycle_from_g(to_holofn("z"), make_catalog_semiflow("dilation"))
        with pytest.raises(InvalidParam, match=rf"^integral cocycle at t={t:g} needs \d+ time "
                                               r"nodes, more than the cap of 512 \(t <= 16\)$"):
            m(t, GRID)
        assert built == []

    def test_a_law_check_past_the_cap_is_an_error_case(self):
        # t + s = 20 needs 640 nodes; the times below the cap keep rules of
        # at most 2 x 320 nodes
        cfg = {"flow": {"name": "dilation"}, "sweep": {"ts": [0.0, 10.0]},
               "cocycles": [{"type": "integral", "g": "z"}]}
        case, = run_cocycle_check(cfg)
        assert case.verdict == "error"
        assert case.error == ("integral cocycle at t=20 needs 640 time nodes, more than the cap "
                              "of 512 (t <= 16)")


class TestCoboundary:
    def test_identity_symbol_dilation(self):
        # omega = z, Fix = {0}, order 1: m_t = e^{-ct} everywhere including 0
        phi = dilation(1.0)
        m = coboundary(holo.monomial(1), phi, {0.0: 1})
        t = 0.8
        for z in (0.0, 0.5, 0.2 - 0.4j):
            assert complex(np.asarray(m(t, z))) == pytest.approx(math.exp(-t), abs=1e-11)

    def test_square_symbol_value_at_zero(self):
        # omega = z^2: the quotient limit at 0 is e^{-2t}
        phi = dilation(1.0)
        m = coboundary(holo.monomial(2), phi, {0.0: 2})
        assert complex(np.asarray(m(1.0, 0.0))) == pytest.approx(
            math.exp(-2.0), abs=1e-12
        )

    def test_nonvanishing_symbol_gives_quotient(self):
        # omega with no zeros: plain quotient, equals 1 for the identity flow
        phi = make_catalog_semiflow("identity")
        m = coboundary(holo.exp_fn(), phi, {})
        assert complex(np.asarray(m(3.0, 0.3))) == pytest.approx(1.0, abs=1e-14)

    def test_moving_zero_rejected(self):
        phi = make_catalog_semiflow("attracting")  # fixes nothing inside the disc
        with pytest.raises(ZeroNotFixed):
            coboundary(holo.monomial(1), phi, {0.0: 1})

    def test_wrong_order_detected(self):
        phi = dilation(1.0)
        with pytest.raises(OrderMismatch):
            coboundary(holo.monomial(2), phi, {0.0: 1})

    @pytest.mark.parametrize("n", [1, 3])
    def test_wrong_order_of_a_cancelling_zero_detected(self, n):
        # exp(z) - 1.0 - z has a zero of order 2 at 0, its value there a cancellation
        with pytest.raises(OrderMismatch):
            coboundary(to_holofn("exp(z) - 1.0 - z"), dilation(1.0), {0.0: n})

    def test_no_finite_quotient_on_the_guard_circle_detected(self):
        # omega = 0 gives 0/0 on the guard circle: no order fits
        with pytest.raises(OrderMismatch):
            coboundary(to_holofn("z - z"), dilation(1.0), {0.0: 1})

    @pytest.mark.parametrize("omega, order, exact, floor, rounding", [
        ("z + z^2", 1, lambda z, q: q * (1.0 + q * z) / (1.0 + z), 1e-8, 0.0),
        # exp(z) - 1.0 cancels near 0, so its quotient carries ~eps/|z| of rounding
        ("exp(z) - 1.0", 1, lambda z, q: np.expm1(q * z) / np.expm1(z), 1e-8,
         4.0 * np.finfo(float).eps),
        # and exp(z) - 1.0 - z carries ~eps/|z|^2; omega(z) / z^2 by its series
        ("exp(z) - 1.0 - z", 2,
         lambda z, q: q * q * _exp_tail(q * z) / _exp_tail(z), 2e-6, 32.0 * np.finfo(float).eps),
    ], ids=["z+z^2", "exp(z)-1", "exp(z)-1-z"])
    def test_no_jump_at_the_zero_guard(self, omega, order, exact, floor, rounding):
        # m_t = omega(e^-t z) / omega(z) in closed form, on both sides of the guard
        t = 1.0
        m = coboundary(to_holofn(omega), dilation(1.0), {0.0: order})
        r = np.logspace(-12, math.log10(9.9e-4), 50)
        zs = (r[:, None] * np.exp(2j * np.pi * np.arange(8) / 8)).ravel()
        want = exact(zs, math.exp(-t))
        err = np.abs(np.asarray(m(t, zs)) - want) / np.abs(want)
        assert np.all(err <= np.maximum(floor, rounding / np.abs(zs) ** order))

    def test_law_residual(self):
        phi = dilation(1.0)
        m = coboundary(holo.monomial(2), phi, {0.0: 2})
        assert cocycle_law_residual(m, phi, TS, GRID) < 1e-10

    def test_coboundary_equals_integral_form(self):
        # quotient cocycle == exp-integral of G omega'/omega: for G = -z and
        # omega = z^2 that integrand is -2 everywhere, and both are e^{-2t}
        phi = dilation(1.0)
        m_cob = coboundary(holo.monomial(2), phi, {0.0: 2})
        m_int = cocycle_from_g(holo.constant(-2.0), phi)
        pts = disc_sample_grid(0.9)
        for t in (0.25, 1.0):
            gap = np.max(np.abs(np.asarray(m_cob(t, pts)) - np.asarray(m_int(t, pts))))
            assert gap < 1e-7


class TestMdot0:
    def test_default_cocycle_check_round_trips_every_known_generator(self):
        # the trivial (g = 0) and derivative (g = G') cocycles carry g too
        cases = run_cocycle_check(copy.deepcopy(DEFAULT_CONFIGS["cocycle-check"]))
        roundtrip = {c.id: c.numbers.get("mdot0_roundtrip") for c in cases}
        assert roundtrip["cocycle/trivial0"] == 0.0
        assert roundtrip["cocycle/derivative3"] < 1e-8
        assert all(c.passed for c in cases)

    def test_round_trip_with_square_integrand(self):
        phi = make_catalog_semiflow("attracting")
        g = holo.monomial(2)
        m = cocycle_from_g(g, phi)
        for z in (0.3, -0.2 + 0.4j):
            assert mdot0(m, z) == pytest.approx(complex(z) ** 2, abs=1e-6)

    def test_derivative_cocycle_constant(self):
        c = 0.7
        m = derivative_cocycle(dilation(c))
        for z in (0.0, 0.5j):
            assert mdot0(m, z) == pytest.approx(-c, abs=1e-8)

    def test_trivial(self):
        assert abs(mdot0(trivial_cocycle(), 0.4)) < 1e-12

    def test_trivial_cocycle_has_generator_zero(self):
        m = trivial_cocycle()
        assert np.all(m.g(np.array([0.0, 0.5j, -0.9])) == 0.0)
        assert m.constant_in_z


def elliptic(b=0.3, c=1.0):
    """phi_t = tau_b(e^{-ct} tau_b(z)) with tau_b(z) = (b - z)/(1 - b z), its
    generator c (z - b)(b z - 1)/(1 - b^2) and its closed-form phi_t', which
    is not constant in z."""
    def tau(z):
        return (b - z) / (1 - b * z)

    def dtau(z):
        return (b * b - 1) / (1 - b * z) ** 2

    k = c / (1 - b * b)
    return flows.Semiflow(
        eval=lambda t, z: tau(np.exp(-c * t) * tau(z)),
        name="elliptic",
        generator=holo.poly([b * k, -(1 + b * b) * k, b * k]),
        prime=lambda t, z: dtau(np.exp(-c * t) * tau(z)) * np.exp(-c * t) * dtau(z),
    )


class TestDerivativeCocycle:
    def test_constant_in_z_exactly_when_the_generator_is_affine(self):
        affine = [make_catalog_semiflow(n) for n in ("dilation", "rotation", "attracting",
                                                     "translation-real", "identity")]
        affine.append(semiflow_from_generator(holo.poly([0.1, -1.0])))
        others = [make_catalog_semiflow("cubic-real"), elliptic(),
                  semiflow_from_generator(holo.poly([0.0, 0.0, -1.0]))]
        assert all(derivative_cocycle(phi).constant_in_z for phi in affine)
        assert not any(derivative_cocycle(phi).constant_in_z for phi in others)

    def test_real_line_derivative_cocycles_carry_their_generator(self):
        xs = np.linspace(-2.0, 2.0, 5)
        translation = derivative_cocycle(make_catalog_semiflow("translation-real"))
        assert np.all(translation.g(xs) == 0.0)
        cubic = derivative_cocycle(make_catalog_semiflow("cubic-real"))
        assert cubic.g(1.0) == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_a_closed_form_prime_does_not_make_the_cocycle_constant(self):
        # m_1 = phi_1' of the elliptic flow moves with z, so C(1)e_2 carries
        # no chain-rule derivative, which would read 0.1209 at 0.5
        from wcsg.semigroup import WcSemigroup, apply
        from wcsg.spaces import SpaceSpec

        phi = elliptic()
        m = derivative_cocycle(phi)
        assert m(1.0, 0.0) == pytest.approx(0.3258618, abs=1e-7)
        assert m(1.0, 0.9) == pytest.approx(0.4805339, abs=1e-7)
        assert not m.constant_in_z
        Cf = apply(WcSemigroup(phi, m, SpaceSpec.hardy(2.0)), 1.0, holo.monomial(2))
        assert Cf.deriv is None
        assert holo.derivative_on_grid(Cf, 0.5) == pytest.approx(0.1456459, abs=1e-7)

    def test_ode_flow_derivative_matches_closed_form(self):
        from wcsg.flows import semiflow_from_generator

        ode = derivative_cocycle(semiflow_from_generator(holo.poly([0.0, -1.0])))
        pts = np.array([0.0, 0.3 + 0.2j])
        assert np.allclose(ode(0.5, pts), math.exp(-0.5), atol=1e-8)
        assert np.allclose(ode.g(pts), -1.0, atol=1e-10)


class TestAdmissibility:
    def test_derivative_cocycle_of_dilation_is_admissible(self):
        # G = -z, G' = -1, g = -1 at the fixed point 0: ratio 1, order 1
        phi = dilation(1.0)
        _, rows = coboundary_admissibility(holo.constant(-1.0), phi.generator, [0.0])
        rec = rows[0]
        assert rec["admissible"] and rec["nearest_order"] == 1
        assert rec["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_half_ratio_not_admissible(self):
        phi = dilation(1.0)
        _, rows = coboundary_admissibility(holo.constant(-0.5), phi.generator, [0.0])
        rec = rows[0]
        assert not rec["admissible"]
        assert rec["ratio"] == pytest.approx(0.5, abs=1e-12)

    def test_vanishing_g_admissible_order_zero(self):
        phi = dilation(1.0)
        _, rows = coboundary_admissibility(holo.constant(0.0), phi.generator, [0.0])
        rec = rows[0]
        assert rec["admissible"] and rec["nearest_order"] == 0

    def test_degenerate_derivative(self):
        G = holo.monomial(2)  # G'(0) = 0
        with pytest.raises(DegenerateFixedPoint):
            coboundary_admissibility(holo.constant(1.0), G, [0.0])

    def test_cauchy_fallback_when_gprime_missing(self, monkeypatch):
        # G = -z compiled from an expression carries no G', so G'(0) comes
        # from one Cauchy circle
        calls = []
        cauchy = holo.cauchy_derivative_grid

        def counted(*args):
            calls.append(args)
            return cauchy(*args)

        monkeypatch.setattr(holo, "cauchy_derivative_grid", counted)
        G = to_holofn("-z")
        assert G.deriv is None
        _, rows = coboundary_admissibility(holo.constant(-1.0), G, [0.0])
        assert len(calls) == 1
        rec = rows[0]
        assert rec["admissible"] and rec["nearest_order"] == 1
        assert rec["ratio"] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.5), st.floats(min_value=0.0, max_value=1.5))
def test_cocycle_law_property(t, s):
    phi = dilation(0.5)
    m = derivative_cocycle(phi)
    pts = disc_sample_grid(0.8, n_radii=2, n_angles=4)
    lhs = np.asarray(m(t + s, pts))
    rhs = np.asarray(m(t, pts)) * np.asarray(m(s, np.asarray(phi(t, pts))))
    assert float(np.max(np.abs(lhs - rhs))) < 1e-12
