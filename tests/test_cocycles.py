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
    coboundary_admissibility,
    derivative_cocycle,
    mdot0,
    trivial_cocycle,
)
from wcsg.defaults import DEFAULT_CONFIGS
from wcsg.errors import DegenerateFixedPoint, InvalidParam, NonConvergent
from wcsg.exprs import to_holofn
from wcsg.flows import disc_sample_grid, make_catalog_semiflow, semiflow_from_generator
from wcsg.suites import _COCYCLE_KEYS, build_cocycle, build_flow, run_cocycle_check

TS = (0.0, 0.1, 0.5, 1.0)
GRID = disc_sample_grid(0.95)


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
        zero = holo.constant(0.0)
        with pytest.raises(TypeError):
            cocycles.Semicocycle(eval=phi.eval, g=zero, constant_in_z=True)
        with pytest.raises(TypeError):
            cocycles.Semicocycle(eval=phi.eval, g=zero, provenance="trivial")

    def test_a_cocycle_without_its_generator_cannot_be_built(self):
        # every cocycle carries g = d/dt m_t at 0, and every flow its G
        phi = dilation()
        with pytest.raises(TypeError, match="'g'"):
            cocycles.Semicocycle(eval=phi.eval)
        with pytest.raises(TypeError, match="'generator'"):
            flows.Semiflow(eval=phi.eval)

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
            eval=lambda t, z: np.full(np.shape(z), np.nan if t == 1.0 else 1.0, dtype=complex),
            g=holo.constant(0.0))
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


# (flow, its fixed point b, omega, g = G omega'/omega, the zero order of omega
# at b, omega(phi_t(z))/omega(z) in closed form): the integral cocycle of g
# is that quotient, and g(b)/G'(b) is that order
_QUOTIENTS = {
    "z": ("dilation", 0.0, "-1", 1, lambda t, z: np.exp(-t) + 0 * z),
    "z^2": ("dilation", 0.0, "-2", 2, lambda t, z: np.exp(-2 * t) + 0 * z),
    "z+z^2": ("dilation", 0.0, "-(1+2*z)/(1+z)", 1,
              lambda t, z: np.exp(-t) * (1 + np.exp(-t) * z) / (1 + z)),
    "2+z": ("dilation", 0.0, "-z/(2+z)", 0, lambda t, z: (2 + np.exp(-t) * z) / (2 + z)),
    "exp(z)": ("dilation", 0.0, "-z", 0, lambda t, z: np.exp((np.exp(-t) - 1) * z)),
    "z^3-rotation": ("rotation", 0.0, "3*i", 3, lambda t, z: np.exp(3j * t) + 0 * z),
    "1-z-attracting": ("attracting", 1.0, "-1", 1, lambda t, z: np.exp(-t) + 0 * z),
}


class TestQuotientForm:
    @pytest.mark.parametrize("omega", sorted(_QUOTIENTS))
    def test_integral_cocycle_equals_the_quotient(self, omega):
        # on a grid, at the fixed point and on circles down to radius 1e-12
        # about it, where the quotient is 0/0 and its limit
        name, b, g, _, exact = _QUOTIENTS[omega]
        phi = make_catalog_semiflow(name)
        r = np.logspace(-12, -1, 12)
        zs = np.concatenate([disc_sample_grid(0.8), [b],
                             (b + r[:, None] * np.exp(2j * np.pi * np.arange(5) / 5)).ravel()])
        if b != 0.0:
            zs = zs[np.abs(zs) < 1.0]
        m = cocycle_from_g(to_holofn(g), phi)
        for t in (0.3, 1.0):
            assert np.max(np.abs(np.asarray(m(t, zs)) - exact(t, zs))) < 1e-10

    def test_identity_flow_integrates_g_at_a_standing_point(self):
        # phi_t(z) = z, so m_t(z) = exp(t g(z)) for any g
        m = cocycle_from_g(to_holofn("exp(z)"), make_catalog_semiflow("identity"))
        for t in (0.5, 2.0):
            assert np.max(np.abs(np.asarray(m(t, GRID)) - np.exp(t * np.exp(GRID)))) < 1e-10


class TestMdot0:
    def test_default_cocycle_check_round_trips_every_generator(self):
        # the trivial (g = 0) and derivative (g = G') cocycles carry g too
        cases = run_cocycle_check(copy.deepcopy(DEFAULT_CONFIGS["cocycle-check"]))
        roundtrip = {c.id: c.numbers["mdot0_roundtrip"] for c in cases}
        assert roundtrip["cocycle/trivial0"] == 0.0
        assert roundtrip["cocycle/derivative3"] < 1e-8
        assert all(c.passed for c in cases)

    @pytest.mark.parametrize("kind", sorted(_COCYCLE_KEYS))
    def test_every_cocycle_type_carries_its_generator(self, kind):
        # built on the default cocycle-check flow, each type's case reports
        # the round trip of its g and passes the default tolerance on it
        cfg = copy.deepcopy(DEFAULT_CONFIGS["cocycle-check"])
        entry = {"type": kind, **({"g": "z"} if kind == "integral" else {})}
        m = build_cocycle(copy.deepcopy(entry), build_flow(cfg["flow"]))
        assert isinstance(m.g, holo.HoloFn)
        (case,) = run_cocycle_check({**cfg, "cocycles": [entry]})
        assert "mdot0_roundtrip" in case.numbers and case.passed

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

    # the ratio takes G'(b), defined at fixed points inside the disc
    @pytest.mark.parametrize("omega", sorted(k for k, v in _QUOTIENTS.items() if abs(v[1]) < 1))
    def test_ratio_is_the_zero_order_of_the_quotient_symbol(self, omega):
        name, b, g, order, _ = _QUOTIENTS[omega]
        (verdict, (rec,)) = coboundary_admissibility(
            to_holofn(g), make_catalog_semiflow(name).generator, [b])
        assert verdict["admissible"] and rec["nearest_order"] == order
        assert rec["ratio"] == pytest.approx(order, abs=1e-12)

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
