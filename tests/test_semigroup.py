"""Weighted composition operators: laws, bounds, generator and continuity probes."""

import dataclasses
import math

import numpy as np
import pytest

from wcsg import flows, holo, semigroup, spaces
from wcsg.cli import run
from wcsg.cocycles import (
    Semicocycle,
    coboundary,
    cocycle_from_g,
    cocycle_law_residual,
    derivative_cocycle,
    mdot0,
    trivial_cocycle,
)
from wcsg.errors import (
    DomainExit,
    EscapedDomain,
    InvalidParam,
    NonConvergent,
    UnsupportedSpaceBound,
)
from wcsg.exprs import to_holofn
from wcsg.flows import (
    DEFAULT_FD_STEPS,
    Semiflow,
    disc_sample_grid,
    generator_fd,
    make_catalog_semiflow,
    real_sample_grid,
    semiflow_from_generator,
)
from wcsg.semigroup import (
    WcSemigroup,
    apply,
    continuity_probe,
    default_test_functions,
    generator_formula_apply,
    generator_residual,
    operator_norm_lower_bound,
    semigroup_residual,
    theoretical_bound,
)
from wcsg.spaces import SpaceSpec, norm


def sg_dilation_derivative(space=None):
    phi = make_catalog_semiflow("dilation", {"c": 1.0})
    return WcSemigroup(phi, derivative_cocycle(phi), space or SpaceSpec.hardy(2.0))


def sg_trivial(space=None, flow="attracting", params=None):
    phi = make_catalog_semiflow(flow, params or {})
    return WcSemigroup(phi, trivial_cocycle(), space or SpaceSpec.hardy(2.0))


GENERATOR_GRID = disc_sample_grid(0.9, 4, 16)  # generator-check's grid at its default radius


class TestApply:
    def test_time_zero_is_identity(self):
        sg = sg_dilation_derivative()
        f = holo.poly([0.2, 1.0, -0.5])
        pts = disc_sample_grid(0.9)
        gap = np.max(np.abs(np.asarray(apply(sg, 0.0, f).fn(pts)) - np.asarray(f.fn(pts))))
        assert gap < 1e-14

    def test_dilation_with_derivative_weight(self):
        # C(1)e_1 (z) = e^{-1} * (e^{-1} z), so at z = 0.5 the value is 0.5 e^{-2}
        sg = sg_dilation_derivative()
        val = complex(apply(sg, 1.0, holo.monomial(1))(0.5))
        assert val == pytest.approx(0.5 * math.exp(-2.0), abs=1e-13)

    def test_identity_pair_fixes_everything(self):
        phi = make_catalog_semiflow("identity")
        sg = WcSemigroup(phi, trivial_cocycle(), SpaceSpec.sup_holo())
        f = holo.exp_fn()
        pts = disc_sample_grid(0.9)
        for t in (0.5, 2.0):
            gap = np.max(np.abs(np.asarray(apply(sg, t, f).fn(pts)) - np.asarray(f.fn(pts))))
            assert gap < 1e-14

    @pytest.mark.parametrize("real", [False, True], ids=["disc", "real"])
    def test_trivial_cocycle_is_not_multiplied(self, real):
        # m_t = 1 is skipped, not multiplied: the values and the chain rule
        # equal m_t f(phi_t) and m_t f'(phi_t) phi_t' bit for bit. On the
        # real line the skip keeps f's float values where m_t is complex.
        if real:
            sg = WcSemigroup(make_catalog_semiflow("translation-real"), trivial_cocycle(),
                             SpaceSpec.sup_cont(holo.exp_abs_decay_weight()))
            pts, same = real_sample_grid(), np.abs
            fs = [holo.monomial(3, holo.REAL_LINE), holo.exp_fn(0.5, holo.REAL_LINE)]
        else:
            sg, pts, same = sg_trivial(), disc_sample_grid(0.95), lambda v: v
            fs = [holo.exp_fn(0.5), holo.mobius(0.3 - 0.2j), holo.poly([0.2, -1.0, 0.5j])]
        for f in fs:
            for t in (0.0, 0.3, 2.0):
                Cf, moved, m_t = apply(sg, t, f), sg.phi(t, pts), sg.m(t, pts)
                assert np.array_equal(same(Cf.fn(pts)), same(m_t * f.fn(moved)))
                assert Cf.fn(pts).dtype == f.fn(moved).dtype
                chain = m_t * f.deriv(moved) * sg.phi.prime(t, pts)
                assert np.array_equal(same(Cf.deriv(pts)), same(chain))


class TestSemigroupResidual:
    def test_closed_form_pairs(self):
        grid = disc_sample_grid(0.95)
        for sg in (sg_dilation_derivative(), sg_trivial()):
            assert semigroup_residual(sg, (0.1, 0.5, 1.0), grid)[2] < 1e-11

    def test_integral_cocycle_pair(self):
        phi = make_catalog_semiflow("attracting")
        m = cocycle_from_g(holo.monomial(1), phi)
        sg = WcSemigroup(phi, m, SpaceSpec.hardy(2.0))
        assert semigroup_residual(sg, (0.5, 0.1), disc_sample_grid(0.95))[2] < 1e-7

    def test_zero_times(self):
        sg = sg_trivial()
        assert semigroup_residual(sg, (0.0,), disc_sample_grid(0.9))[2] < 1e-14

    def test_negative_time_is_invalid(self):
        with pytest.raises(InvalidParam):
            semigroup_residual(sg_trivial(), (0.5, -0.1), disc_sample_grid(0.9))

    def test_grid_outside_the_domain_is_a_domain_exit(self):
        with pytest.raises(DomainExit, match="sample grid must lie inside the domain"):
            semigroup_residual(sg_trivial(), (0.5,), np.array([0.5, 1.5 + 0j]))

    def test_phi_t_leaving_the_disc_names_its_start_point(self):
        # phi_t(z) = e^t z carries 0.9 out of the disc by t = 0.5; 0.1 stays in
        phi = Semiflow(eval=lambda t, z: np.exp(t) * z, name="expanding")
        sg = WcSemigroup(phi, trivial_cocycle(), SpaceSpec.hardy(2.0))
        with pytest.raises(DomainExit, match=r"^phi_t left the domain at t=0.5 from \(0\.9\+0j\)$"):
            semigroup_residual(sg, (0.0, 0.5), np.array([0.1, 0.9 + 0j]))

    def test_a_nan_after_the_first_pair_is_kept(self):
        # m_1 is NaN: only the pair (0.5, 0.5) reaches it, after finite residuals
        phi = make_catalog_semiflow("dilation", {"c": 1.0})
        m = Semicocycle(
            eval=lambda t, z: np.full(np.shape(z), np.nan if t == 1.0 else 1.0, dtype=complex))
        flow, cocycle, semigroup = semigroup_residual(
            WcSemigroup(phi, m, SpaceSpec.hardy(2.0)), (0.0, 0.5), disc_sample_grid(0.9))
        assert flow < 1e-15 and math.isnan(cocycle) and math.isnan(semigroup)

    @pytest.mark.parametrize("corpus_size", [1, 5, 20])
    def test_flow_is_evaluated_once_per_time_set(self, monkeypatch, corpus_size):
        # ts = (0, 0.25, 0.5): phi_u once for each of the 5 distinct u in
        # {0, t, t+s} and phi_s(phi_t) once for each of the 9 pairs, whatever
        # the corpus size; the times take one flow call, the pairs another
        corpus = (spaces.default_corpus() * 4)[:corpus_size]
        monkeypatch.setattr(spaces, "default_corpus", lambda real=False: corpus)
        ts, grid = (0.0, 0.25, 0.5), disc_sample_grid(0.9, 3, 4)
        phi = make_catalog_semiflow("attracting")
        evals = []
        counted = dataclasses.replace(phi, eval=lambda t, z: evals.append(z.size) or phi.eval(t, z))
        semigroup_residual(WcSemigroup(counted, trivial_cocycle(), SpaceSpec.hardy(2.0)), ts, grid)
        assert len(evals) == 2 and sum(evals) == (5 + 9) * grid.size

        # with an integral cocycle on an ODE flow, each m_u and m_s(phi_t)
        # at a time u, s > 0 adds one RK4 call (the coarse and the doubled
        # node set in one block): 4 distinct u > 0 and 6 pairs with s > 0
        calls = []
        integrate = flows._integrate
        monkeypatch.setattr(flows, "_integrate", lambda *a: calls.append(1) or integrate(*a))
        ode = semiflow_from_generator(to_holofn("1 - z"))
        sg = WcSemigroup(ode, cocycle_from_g(holo.monomial(1), ode), SpaceSpec.hardy(2.0))
        semigroup_residual(sg, ts, grid)
        assert len(calls) == 2 + (4 + 6)


def _one_time_per_call(phi):
    """phi with an eval that runs each distinct time of a call alone, in the
    order of its first point, as the law checks once called the flow."""
    def eval_fn(t, z):
        ts = np.broadcast_to(np.asarray(t, dtype=float), z.shape)
        out = np.empty(z.shape, dtype=z.dtype)
        for u in dict.fromkeys(ts.ravel().tolist()):
            at = ts == u
            out[at] = phi.eval(u, z[at])
        return out

    return dataclasses.replace(phi, eval=eval_fn)


class TestOneFlowCallPerTimeSet:
    """Each law check passes its times to an ODE flow as one column against
    the points; every value equals the flow called once per time."""

    ts, grid = (0.0, 0.25, 0.5), disc_sample_grid(0.9, 2, 6)

    @staticmethod
    def _flows():
        phi = semiflow_from_generator(to_holofn("-0.9*z + (0.2 - 0.15*i)*z^2"))
        return phi, _one_time_per_call(phi)

    def test_semigroup_residual(self):
        g = to_holofn("-0.5 + 0.4*i*z^2")
        got, ref = (semigroup_residual(WcSemigroup(phi, cocycle_from_g(g, phi),
                                                   SpaceSpec.hardy(2.0)), self.ts, self.grid)
                    for phi in self._flows())
        assert got == ref and min(got) > 0.0

    def test_cocycle_law_residual_with_an_integral_cocycle(self):
        g = to_holofn("1 - z + z^3")
        got, ref = (cocycle_law_residual(cocycle_from_g(g, phi), phi, self.ts, self.grid)
                    for phi in self._flows())
        assert got == ref and got > 0.0

    def test_generator_fd(self):
        got, ref = (flows.generator_fd(phi, self.grid) for phi in self._flows())
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name, params", [
        ("dilation", {"c": 0.7 - 0.4j}), ("rotation", {"rate": -1.3}), ("attracting", {}),
        ("identity", {}), ("identity", {"domain": "real"}), ("translation-real", {}),
        ("cubic-real", {}),
    ])
    def test_catalog_rows_equal_each_time_alone(self, name, params):
        phi = make_catalog_semiflow(name, params)
        grid = self.grid if phi.domain.kind == "disc" else real_sample_grid()
        ts = (0.0, 0.013, 0.25, 1.7)
        rows = phi.at_times(ts, grid)
        assert rows.shape == (len(ts),) + grid.shape and rows.dtype == phi.domain.dtype
        assert np.array_equal(rows, [phi(t, grid) for t in ts])

    @pytest.mark.parametrize("t", [0.3, 1.7])
    def test_time_integral(self, t):
        g = to_holofn("1 - z + z^3")
        got, ref = (holo.time_integral(lambda taus, pts: g(np.asarray(phi(taus, pts))), t,
                                       self.grid, 32) for phi in self._flows())
        assert np.array_equal(got, ref)

    # u' = u^2 leaves the disc from 0.95 at t ~ 0.0526 and from 0.7125 at
    # t ~ 0.40; each text is the one the flow gave when called once per time
    @pytest.mark.parametrize("ts, text", [
        ((0.0, 0.25, 0.5), "trajectory from (0.95+0j) reached the boundary near t=0.0525732"),
        ((0.5, 0.25),
         "trajectory from (0.7124999999999999+0j) reached the boundary near t=0.403457"),
    ])
    def test_an_escape_is_reported_as_by_one_call_per_time(self, ts, text):
        phi = semiflow_from_generator(to_holofn("z^2"))
        for flow in (phi, _one_time_per_call(phi)):
            with pytest.raises(EscapedDomain) as err:
                semigroup_residual(WcSemigroup(flow, trivial_cocycle(), SpaceSpec.hardy(2.0)),
                                   ts, disc_sample_grid(0.95))
            assert str(err.value) == text
        report = run({"suite": "reconstruct", "sweep": {"ts": list(ts), "grid_rmax": 0.95},
                      "cases": [{"generator": "z^2", "reference": {"name": "dilation"}}]})
        assert [case.error for case in report.cases] == [text]


class TestTheoreticalBound:
    def test_hardy_attracting_sqrt3(self):
        sg = sg_trivial(SpaceSpec.hardy(2.0))
        res = theoretical_bound(sg, math.log(2.0))
        # phi_t(0) = 1/2 at t = ln 2: ((1 + 1/2)/(1 - 1/2))^(1/2) = sqrt(3)
        assert res["theoretical"] == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert res["formula"] == "hardy"

    def test_dirichlet_attracting(self):
        sg = sg_trivial(SpaceSpec.dirichlet())
        res = theoretical_bound(sg, math.log(2.0))
        L = -math.log(0.75)
        expected = math.sqrt(1.0 + 0.5 * (L + math.sqrt(L * (4.0 + L))))
        assert res["theoretical"] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.30352, abs=1e-4)

    def test_bergman_sup_at_the_base_point_is_a_domain_exit(self):
        # attracting at t = 37: |phi_t| rounds to |phi_t(0)| < 1 on the whole sup grid
        with pytest.raises(DomainExit, match="sup \\|phi_t\\| does not exceed"):
            theoretical_bound(sg_trivial(SpaceSpec.bergman(1.0, 2.0)), 37.0)

    def test_translation_weight_ratio(self):
        # v = e^{-|x|}: v(x)/v(x+t) = e^{|x+t|-|x|} <= e^t, attained on x >= 0
        space = SpaceSpec.sup_cont(holo.exp_abs_decay_weight())
        phi = make_catalog_semiflow("translation-real")
        sg = WcSemigroup(phi, trivial_cocycle(), space)
        res = theoretical_bound(sg, 1.0)
        assert res["theoretical"] == pytest.approx(math.e, rel=1e-9)
        assert res["theoretical"] <= math.e * 1.001

    def test_bergman_dilation_is_one(self):
        sg = sg_trivial(SpaceSpec.bergman(0.0, 2.0), flow="dilation", params={"c": 1.0})
        res = theoretical_bound(sg, 1.0)
        assert res["theoretical"] == pytest.approx(1.0, abs=1e-9)

    def test_bloch_dilation_decay(self):
        # the weight-ratio factor decays like e^{-Re(c) t}; the norm bound
        # floors at 1 because constants are fixed by the operator
        sg = sg_trivial(SpaceSpec.bloch(1.0), flow="dilation", params={"c": 1.0})
        res = theoretical_bound(sg, 0.5)
        assert res["components"]["K_weight"] <= math.exp(-0.5) + 1e-9
        assert res["theoretical"] == pytest.approx(1.0, abs=1e-12)

    # attracting has phi_t(0) = r = 1 - e^-t; the base-point term is the
    # integral of (1 - s^2)^-alpha over [0, r], in closed form for alpha = 1, 2
    @pytest.mark.parametrize("alpha, exact", [
        (1.0, math.atanh),
        (2.0, lambda r: r / (2.0 * (1.0 - r * r)) + math.atanh(r) / 2.0),
    ], ids=["alpha1", "alpha2"])
    @pytest.mark.parametrize("t", [math.log(2.0), 1.0, math.log(1e3), math.log(1e4)])
    def test_bloch_base_point_term_is_exact(self, alpha, exact, t):
        res = theoretical_bound(sg_trivial(SpaceSpec.bloch(alpha)), t)
        assert res["components"]["base_point_shift"] == pytest.approx(exact(-math.expm1(-t)),
                                                                   rel=1e-12, abs=0)

    @pytest.mark.parametrize("t", [math.log(1e3), math.log(1e4)])
    def test_bloch_bound_dominates_the_atanh_witness(self, t):
        # (C(t) atanh)(0) = atanh(phi_t(0)) is the alpha = 1 base-point term itself
        space, f = SpaceSpec.bloch(1.0), holo.HoloFn(np.arctanh, deriv=lambda z: 1.0 / (1.0 - z * z))
        sg = sg_trivial(space)
        ratio = norm(space, apply(sg, t, f)) / norm(space, f)
        assert theoretical_bound(sg, t)["theoretical"] >= ratio * (1.0 - 1e-12)

    def test_bloch_base_point_term_is_certified_to_the_space_tol(self):
        # alpha = 2, t = 20: the 32- and 64-node rules differ by ~2e-14 relative,
        # inside the 100 tol of the default tol 1e-8 but not of tol = 1e-18
        sg = sg_trivial(SpaceSpec.bloch(2.0))
        assert theoretical_bound(sg, 20.0)["components"]["base_point_shift"] > 0
        sg = sg_trivial(SpaceSpec.bloch(2.0, holo.QuadPolicy(tol=1e-18)))
        with pytest.raises(NonConvergent, match="time integral"):
            theoretical_bound(sg, 20.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_bloch_base_point_on_the_circle_is_a_domain_exit(self, alpha):
        # attracting at t = 38: phi_t(0) = 1 - e^-38 rounds to 1
        with pytest.raises(DomainExit, match="reached the unit circle"):
            theoretical_bound(sg_trivial(SpaceSpec.bloch(alpha)), 38.0)

    def test_dirichlet_general_cocycle_unsupported(self):
        phi = make_catalog_semiflow("dilation", {"c": 1.0})
        m = cocycle_from_g(holo.monomial(1), phi)  # genuinely z-dependent
        sg = WcSemigroup(phi, m, SpaceSpec.dirichlet())
        with pytest.raises(UnsupportedSpaceBound):
            theoretical_bound(sg, 0.5)

    def test_product_split_tag_for_weighted(self):
        sg = sg_dilation_derivative()
        assert theoretical_bound(sg, 0.5)["formula"] == "product-split"


def lower_bound(sg, t, testset=None):
    """operator_norm_lower_bound over testset (the space's default test
    functions if None), with the reference norms it is given in bound-table."""
    fs = default_test_functions(sg.space) if testset is None else testset
    return operator_norm_lower_bound(sg, t, fs, [norm(sg.space, f) for f in fs])


class TestEmpiricalLower:
    def test_identity_exactly_one(self):
        phi = make_catalog_semiflow("identity")
        sg = WcSemigroup(phi, trivial_cocycle(), SpaceSpec.hardy(2.0))
        val = lower_bound(sg, 1.0, testset=[holo.monomial(n) for n in range(4)])
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_rotation_isometric_on_hardy(self):
        sg = sg_trivial(SpaceSpec.hardy(2.0), flow="rotation", params={"rate": 1.0})
        val = lower_bound(sg, 0.7)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_dilation_witnessed_by_constants(self):
        sg = sg_trivial(SpaceSpec.hardy(2.0), flow="dilation", params={"c": 1.0})
        val = lower_bound(sg, 1.0, testset=[holo.monomial(n) for n in range(4)])
        assert val == pytest.approx(1.0, abs=1e-10)  # e_0 is fixed

    def test_tiny_cocycle_is_bracketed_exactly(self):
        # m_t = e^{-40 t} on H^2 under dilation: every C(t)f is a tiny multiple
        # of f o phi_t, and e_0 attains the norm e^{-40}, far below 1e-15
        phi = make_catalog_semiflow("dilation", {"c": 1.0})
        sg = WcSemigroup(phi, cocycle_from_g(holo.constant(-40.0), phi), SpaceSpec.hardy(2.0))
        res = theoretical_bound(sg, 1.0)
        assert res["theoretical"] == pytest.approx(math.exp(-40.0), rel=1e-12, abs=0)
        lower = lower_bound(sg, 1.0)
        assert lower == pytest.approx(res["theoretical"], rel=1e-12, abs=0)

    def test_underflowed_cocycle_is_invalid(self):
        phi = make_catalog_semiflow("dilation", {"c": 1.0})
        sg = WcSemigroup(phi, cocycle_from_g(holo.constant(-1000.0), phi), SpaceSpec.hardy(2.0))
        with pytest.raises(InvalidParam, match="underflowed to 0 at t=1"):
            theoretical_bound(sg, 1.0)

    def test_dominance_spot(self):
        sg = sg_dilation_derivative()
        res = theoretical_bound(sg, 0.5)
        lower = lower_bound(sg, 0.5, testset=[holo.monomial(n) for n in range(5)])
        assert lower <= res["theoretical"] * (1 + 1e-3)

    def test_versioned_corpus_contents(self):
        names = [f.name for f in default_test_functions(SpaceSpec.sup_holo())]
        assert "e_0" in names and "singular_inner" in names
        for space in (SpaceSpec.hardy(2.0), SpaceSpec.dirichlet()):
            assert "singular_inner" not in [f.name for f in default_test_functions(space)]


class TestGeneratorFormula:
    def test_linear_field_on_e1(self):
        G = holo.HoloFn(lambda z: -z, holo.UNIT_DISC, name="-z")
        Af = generator_formula_apply(G, holo.constant(0.0), holo.monomial(1))
        pts = disc_sample_grid(0.8)
        assert np.max(np.abs(np.asarray(Af.fn(pts)) - (-pts))) < 1e-10

    def test_polynomial_oracle(self):
        # (1-z) * 2z + (-1) * z^2 = 2z - 3z^2
        G = holo.HoloFn(lambda z: 1.0 - z, holo.UNIT_DISC, name="1-z")
        Af = generator_formula_apply(G, holo.constant(-1.0), holo.monomial(2))
        pts = disc_sample_grid(0.8)
        expected = 2.0 * pts - 3.0 * pts ** 2
        assert np.max(np.abs(np.asarray(Af.fn(pts)) - expected)) < 1e-10

    def test_constant_function_isolates_multiplier(self):
        G = holo.HoloFn(lambda z: 1.0 - z, holo.UNIT_DISC, name="1-z")
        g = holo.monomial(2)
        Af = generator_formula_apply(G, g, holo.one())
        pts = disc_sample_grid(0.8)
        assert np.max(np.abs(np.asarray(Af.fn(pts)) - pts ** 2)) < 1e-10

    def test_linearity(self):
        G = holo.HoloFn(lambda z: -z, holo.UNIT_DISC, name="-z")
        g = holo.constant(-1.0)
        f1, f2 = holo.monomial(1), holo.monomial(3)
        pts = disc_sample_grid(0.8)
        f = holo.poly([0.0, 1.0, 0.0, 2.0])  # f1 + 2 f2
        lhs = np.asarray(generator_formula_apply(G, g, f).fn(pts))
        rhs = np.asarray(generator_formula_apply(G, g, f1).fn(pts)) + 2.0 * np.asarray(
            generator_formula_apply(G, g, f2).fn(pts)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestGeneratorResidual:
    def test_dilation_on_e2(self):
        sg = sg_trivial(SpaceSpec.hardy(2.0), flow="dilation", params={"c": 1.0})
        rep, _ = generator_residual(sg, holo.monomial(2), DEFAULT_FD_STEPS, GENERATOR_GRID)
        assert rep["residual"] < 1e-6
        assert rep["order"] >= 0.9

    def test_multiplication_semigroup(self):
        # phi = id, m_t = e^{t g}: the generator acts by multiplication with g
        phi = make_catalog_semiflow("identity")
        g = holo.monomial(2)
        sg = WcSemigroup(phi, cocycle_from_g(g, phi), SpaceSpec.sup_holo())
        rep, _ = generator_residual(sg, holo.monomial(1), DEFAULT_FD_STEPS, GENERATOR_GRID)
        assert rep["residual"] < 1e-8

    def test_unknown_cocycle_generator_is_invalid(self):
        # a coboundary carries no g, so Af = G f' + g f has no target
        phi = make_catalog_semiflow("dilation", {"c": 1.0})
        sg = WcSemigroup(phi, coboundary(holo.monomial(2), phi, {0.0: 2}), SpaceSpec.hardy(2.0))
        with pytest.raises(InvalidParam, match=r"the generator g of cocycle cob\[e_2\] is not"):
            generator_residual(sg, holo.monomial(1), DEFAULT_FD_STEPS, GENERATOR_GRID)

    def test_trivial_case_zero_residual(self):
        phi = make_catalog_semiflow("identity")
        sg = WcSemigroup(phi, trivial_cocycle(), SpaceSpec.sup_holo())
        rep, rows = generator_residual(sg, holo.one(), DEFAULT_FD_STEPS, GENERATOR_GRID)
        assert rep["residual"] < 1e-14
        assert all(row["sup_residual"] < 1e-14 for row in rows)


# The three t -> 0+ limits of the generator: G of the flow, g of the cocycle
# and A f = G f' + g f of the semigroup, each at the step ladder ``steps``.
def _right_limits(phi, m, steps):
    sg = WcSemigroup(phi, m, SpaceSpec.sup_cont(holo.exp_abs_decay_weight())
                     if phi.domain.kind == "real" else SpaceSpec.hardy(2.0))
    grid = real_sample_grid(1.0, 5) if phi.domain.kind == "real" else GENERATOR_GRID
    return {"generator_fd": lambda: generator_fd(phi, grid[1:3], steps),
            "mdot0": lambda: mdot0(m, grid[1:3], steps),
            "generator_residual": lambda: generator_residual(sg, holo.monomial(1, phi.domain),
                                                             steps, grid)}


@pytest.mark.parametrize("steps", [(1e-2,), (1e-3, 1e-2), (1e-2, 1e-2), (1e-2, 0.0),
                                   (1e-2, -5e-3)])
@pytest.mark.parametrize("limit", ["generator_fd", "mdot0", "generator_residual"])
def test_each_generator_limit_rejects_a_bad_ladder_with_one_message(limit, steps):
    phi = make_catalog_semiflow("attracting")
    with pytest.raises(InvalidParam, match=r"^steps must be two or more positive, strictly "
                                           r"decreasing values$"):
        _right_limits(phi, cocycle_from_g(holo.monomial(1), phi), steps)[limit]()


@pytest.mark.parametrize("limit", ["generator_fd", "mdot0", "generator_residual"])
def test_each_generator_limit_rejects_diverging_quotients(limit):
    # phi_t(x) = x + 1e-10 t^-3 and m_t(x) = 1 + 1e-10 t^-3 have the quotients
    # 1e-10 h^-4, and so has f(x) = x: over the default ladder their
    # differences grow sixteenfold
    zero = holo.HoloFn(lambda x: np.zeros(np.shape(x)), holo.REAL_LINE, name="0")
    phi = Semiflow(eval=lambda t, x: x + 1e-10 / t ** 3, domain=holo.REAL_LINE, generator=zero)
    m = Semicocycle(eval=lambda t, x: 1.0 + 1e-10 / t ** 3 + 0 * x, g=zero)
    with pytest.raises(NonConvergent, match="quotients diverge as h decreases"):
        _right_limits(phi, m, DEFAULT_FD_STEPS)[limit]()


class TestContinuityProbe:
    def test_dilation_on_sup_space(self):
        sg = sg_trivial(SpaceSpec.sup_holo(), flow="dilation", params={"c": 1.0})
        probe, rows = continuity_probe(
            sg, holo.monomial(1), [0.1, 0.01, 0.001], [0.5, 0.9], tol_co=0.01, tol_norm=0.01
        )
        # norm residual is 1 - e^{-t} (up to the grid cap)
        for rec in rows:
            assert rec["norm_residual"] == pytest.approx(1.0 - math.exp(-rec["t"]), abs=1e-4)
        assert probe["norm_verdict"] and probe["gamma_verdict"]

    def test_rotation_dichotomy(self):
        sg = sg_trivial(SpaceSpec.sup_holo(), flow="rotation", params={"rate": 0.2})
        probe, rows = continuity_probe(
            sg, holo.singular_inner(), [0.1, 0.01, 0.001], [0.5, 0.9], norm_cap=1.0 + 1e-9
        )
        assert probe["gamma_verdict"]
        assert not probe["norm_verdict"]
        assert all(rec["norm_residual"] >= 0.1 for rec in rows)
        assert all(rec["norm_of_Cf"] <= 1.0 + 1e-12 for rec in rows)

    def test_identity_all_zero(self):
        phi = make_catalog_semiflow("identity")
        sg = WcSemigroup(phi, trivial_cocycle(), SpaceSpec.sup_holo())
        probe, rows = continuity_probe(sg, holo.exp_fn(), [0.1, 0.001], [0.5, 0.9])
        for rec in rows:
            assert rec["norm_residual"] < 1e-14
            assert all(v < 1e-14 for k, v in rec.items() if k.startswith("co_residual"))

    def test_norm_convergence_implies_gamma(self):
        # norm topology is finer: a positive norm verdict forces a positive gamma verdict
        cases = [
            sg_trivial(SpaceSpec.sup_holo(), flow="dilation", params={"c": 1.0}),
            sg_dilation_derivative(SpaceSpec.hardy(2.0)),
        ]
        for sg in cases:
            probe, _ = continuity_probe(
                sg, holo.monomial(1), [0.1, 0.01, 0.001], [0.5, 0.9], tol_co=0.01, tol_norm=0.01
            )
            if probe["norm_verdict"]:
                assert probe["gamma_verdict"]


class TestMultiplierAndSplit:
    @pytest.mark.parametrize(
        "space",
        [SpaceSpec.hardy(2.0), SpaceSpec.bergman(0.0, 2.0), SpaceSpec.sup_holo()],
    )
    def test_multiplier_bound(self, space):
        phi = make_catalog_semiflow("attracting")
        m = cocycle_from_g(holo.monomial(1), phi)
        t = 0.5
        sup_m = spaces.modulus_sup(lambda z: m(t, z), space)
        for f in (holo.monomial(1), holo.poly([1, 1])):
            mf = HoloTimes(m, t, f)
            assert norm(space, mf) <= sup_m * norm(space, f) * (1.0 + 1e-6)

    @pytest.mark.parametrize("flow", ["attracting", "dilation"])
    def test_disc_sups_of_m_t_and_phi_t_run_on_the_outer_circle(self, monkeypatch, flow):
        phi = make_catalog_semiflow(flow)
        sg = WcSemigroup(phi, cocycle_from_g(holo.monomial(1), phi), SpaceSpec.bergman(0.5))
        grid = {"m": spaces.certified_sup(lambda z: np.abs(sg.m(0.5, z)), sg.space),
                "phi": spaces.certified_sup(lambda z: np.abs(phi(0.5, z)), sg.space)}
        for module in (spaces, semigroup):  # the grid must not run
            monkeypatch.setattr(module, "certified_sup", None)
        comps = theoretical_bound(sg, 0.5)["components"]
        assert comps["sup_abs_m_t"] == grid["m"]
        assert comps["sup_abs_phi_t"] == grid["phi"]

    def test_cocycle_named_one_keeps_its_multiplier(self):
        # triviality is a constructor flag, not the name "one"
        m = Semicocycle(eval=lambda t, z: np.full(np.shape(z), 2.0, dtype=complex),
                        name="one", g=holo.constant(0.0))
        sg = WcSemigroup(make_catalog_semiflow("attracting"), m, SpaceSpec.hardy(2.0))
        res = theoretical_bound(sg, 0.5)
        assert res["components"]["multiplier"] == pytest.approx(2.0)
        assert res["formula"] == "product-split"
        assert res["theoretical"] == pytest.approx(2.0 * res["components"]["composition"])

    # m_t = e^{tz} is a cocycle of the identity flow with g(z) = z, so the
    # composition factor is 1 and the bound is the multiplier factor alone.
    # sup |m_t| = e^t, and |m_t'| = t e^{t Re z} peaks on the positive axis.
    @pytest.mark.parametrize("alpha", [2.0, 1.0, 0.5])
    def test_bloch_multiplier_factor_of_a_z_dependent_cocycle(self, alpha):
        t = 0.5
        m = Semicocycle(eval=lambda t, z: np.exp(t * z), name="exp(tz)", g=holo.monomial(1))
        sg = WcSemigroup(make_catalog_semiflow("identity"), m, SpaceSpec.bloch(alpha))
        res = theoretical_bound(sg, t)
        comps = res["components"]
        assert comps["sup_abs_m_t"] == pytest.approx(math.exp(t), rel=1e-6)
        if alpha > 1:  # (3 + L) sup |m_t| with L = 2^(alpha-1) / (alpha-1) = 2
            assert comps["multiplier"] == 5.0 * comps["sup_abs_m_t"]
        elif alpha == 1:  # 3 sup |m_t| + sup |m_t'| u log(2/u), u = 1 - |z|^2, from the grid
            x = np.linspace(0.0, 1.0, 2_000_001)[:-1]
            u = 1.0 - x * x
            hand = 3.0 * comps["sup_abs_m_t"] + np.max(t * np.exp(t * x) * u * np.log(2.0 / u))
            assert hand * (1.0 - 1e-4) <= comps["multiplier"] <= hand * (1.0 + 1e-12)
        else:  # 3 (1 + L) ||m_t|| with L = 1/(1-alpha) = 2, and ||m_t|| = 1 + sup |m_t'| v_alpha,
            # attained where t (1 - x^2) = x
            x = (math.sqrt(1.0 + 4.0 * t * t) - 1.0) / (2.0 * t)
            hand = 9.0 * (1.0 + t * math.exp(t * x) * math.sqrt(1.0 - x * x))
            assert comps["multiplier"] == pytest.approx(hand, rel=1e-9)
        assert res["theoretical"] == comps["multiplier"]
        fs = default_test_functions(sg.space)
        lower = operator_norm_lower_bound(sg, t, fs, [norm(sg.space, f) for f in fs])
        assert lower <= res["theoretical"]

    def test_split_estimate_hardy(self):
        sg = sg_dilation_derivative(SpaceSpec.hardy(2.0))
        t = 0.5
        bound = theoretical_bound(sg, t)
        for f in (holo.monomial(2), holo.poly([1, 1])):
            assert norm(sg.space, apply(sg, t, f)) <= bound["theoretical"] * norm(
                sg.space, f
            ) * (1.0 + 1e-6)


def HoloTimes(m, t, f):
    return holo.HoloFn(
        lambda z: np.asarray(m(t, z)) * np.asarray(f.fn(z)),
        f.domain,
        name=f"m_t*{f.name}",
    )
