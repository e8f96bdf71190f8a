"""Semiflow catalog, laws, generator extraction, and ODE round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcsg import exprs, holo
from wcsg.cocycles import trivial_cocycle
from wcsg.errors import (
    EscapedDomain,
    InvalidParam,
    NonConvergent,
    StepUnderflow,
    UnknownCatalogEntry,
)
from wcsg.flows import (
    disc_sample_grid,
    fixed_points,
    generator_fd,
    make_catalog_semiflow,
    real_sample_grid,
    semiflow_from_generator,
)
from wcsg.semigroup import WcSemigroup, semigroup_residual
from wcsg.spaces import SpaceSpec

TS = (0.0, 0.1, 0.5, 1.0)


def semiflow_law_residual(phi, ts, grid):
    """The semiflow residual of the law sweep, with the trivial cocycle on
    H^2 or, for a real-line flow, on C_v with v = exp(-|x|)."""
    if phi.domain.kind == "real":
        space = SpaceSpec.sup_cont(holo.exp_abs_decay_weight())
    else:
        space = SpaceSpec.hardy(2.0)
    return semigroup_residual(WcSemigroup(phi, trivial_cocycle(), space), ts, grid)[0]


class TestCatalog:
    def test_dilation_value(self):
        phi = make_catalog_semiflow("dilation", {"c": 1.0})
        assert complex(phi(math.log(2.0), 0.6)) == pytest.approx(0.3, abs=1e-15)

    def test_cubic_value(self):
        phi = make_catalog_semiflow("cubic-real")
        expected = (8 ** (1 / 3) + 1 / 3) ** 3  # 343/27
        assert float(phi(1.0, 8.0)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(343.0 / 27.0, abs=1e-12)

    def test_attracting_time_zero(self):
        phi = make_catalog_semiflow("attracting")
        z = 0.2 + 0.1j
        assert complex(phi(0.0, z)) == pytest.approx(z, abs=1e-15)

    def test_unknown_entry(self):
        with pytest.raises(UnknownCatalogEntry):
            make_catalog_semiflow("parabolic")

    def test_invalid_param(self):
        with pytest.raises(InvalidParam):
            make_catalog_semiflow("dilation", {"c": -0.5})

    @pytest.mark.parametrize("name, params", [("dilation", {"rate": 5.0}),
                                              ("attracting", {"c": 1.0}),
                                              ("identity", {"domain": "disc", "c": 2.0})])
    def test_parameter_the_flow_does_not_take(self, name, params):
        with pytest.raises(InvalidParam, match=f"not a parameter of {name}"):
            make_catalog_semiflow(name, params)


class TestAffineFamily:
    """Five catalog flows are the flows of G(z) = a z + b: about the fixed
    point beta = -b/a, phi_t(z) = beta + e^(at) (z - beta), or z + b t for
    a = 0, with G' = a and phi_t' = e^(at)."""

    @pytest.mark.parametrize("name, params, a, b", [
        ("dilation", {"c": 0.5 + 0.25j}, -(0.5 + 0.25j), 0.0),
        ("rotation", {"rate": 0.7}, 0.7j, 0.0),
        ("attracting", {}, -1.0, 1.0),
        ("translation-real", {}, 0.0, 1.0),
        ("identity", {}, 0.0, 0.0),
        ("identity", {"domain": "real"}, 0.0, 0.0),
    ])
    def test_closed_forms_of_az_plus_b(self, name, params, a, b):
        phi = make_catalog_semiflow(name, params)
        G, dtype = phi.generator, phi.domain.dtype
        z = disc_sample_grid(0.95) if phi.domain.kind == "disc" else real_sample_grid(10.0)
        np.testing.assert_allclose(G(z), a * z + b, rtol=0, atol=1e-15)
        assert G.deriv is not None
        dG = holo.derivative_on_grid(G, z)
        assert dG.dtype == dtype
        np.testing.assert_array_equal(dG, np.full(z.shape, a))
        for t in (0.0, 0.3, 1.0):
            want = z + b * t if a == 0 else -b / a + np.exp(a * t) * (z + b / a)
            np.testing.assert_allclose(phi(t, z), want, rtol=0, atol=1e-14)
            prime = phi.space_derivative(t, z)
            assert prime.dtype == dtype
            np.testing.assert_allclose(prime, np.exp(a * t), rtol=1e-15, atol=0)


class TestLawResidual:
    @pytest.mark.parametrize("name,params", [
        ("dilation", {"c": 1.0}),
        ("rotation", {"rate": 0.7}),
        ("attracting", {}),
        ("identity", {}),
    ])
    def test_catalog_flows_exact(self, name, params):
        phi = make_catalog_semiflow(name, params)
        res = semiflow_law_residual(phi, TS, disc_sample_grid(0.95))
        assert res < 1e-12

    def test_real_flows_exact(self):
        for name in ("translation-real", "cubic-real"):
            phi = make_catalog_semiflow(name)
            res = semiflow_law_residual(phi, TS, real_sample_grid(10.0))
            assert res < 1e-9

    def test_identity_zero(self):
        phi = make_catalog_semiflow("identity")
        assert semiflow_law_residual(phi, TS, disc_sample_grid(0.95)) == 0.0

    def test_ode_reconstructed_dilation(self):
        G = holo.HoloFn(lambda z: -z, holo.UNIT_DISC, name="-z")
        phi = semiflow_from_generator(G)
        grid = disc_sample_grid(0.9, n_radii=2, n_angles=6)
        res = semiflow_law_residual(phi, (0.0, 0.25, 0.5), grid)
        assert res < 1e-7


class TestGeneratorFd:
    def test_attracting(self):
        phi = make_catalog_semiflow("attracting")
        assert generator_fd(phi, 0.4) == pytest.approx(0.6, abs=1e-8)  # G(z) = 1 - z

    def test_cubic(self):
        phi = make_catalog_semiflow("cubic-real")
        assert generator_fd(phi, 8.0) == pytest.approx(4.0, abs=1e-7)  # G(x) = x^(2/3)

    def test_identity(self):
        phi = make_catalog_semiflow("identity")
        assert abs(generator_fd(phi, 0.3 + 0.2j)) < 1e-12

    def test_bad_steps_rejected(self):
        phi = make_catalog_semiflow("attracting")
        with pytest.raises(ValueError):
            generator_fd(phi, 0.1, steps=(1e-3, 1e-2))


class TestFixedPoints:
    def test_dilation_origin(self):
        phi = make_catalog_semiflow("dilation", {"c": 1.0})
        res = fixed_points(phi, disc_sample_grid(0.9))
        assert len(res.points) == 1
        assert abs(res.points[0]) < 1e-10
        assert not res.trivial

    def test_attracting_empty_inside_disc(self):
        phi = make_catalog_semiflow("attracting")
        res = fixed_points(phi, disc_sample_grid(0.9))
        assert res.points == ()

    def test_identity_trivial_verdict(self):
        phi = make_catalog_semiflow("identity")
        res = fixed_points(phi, disc_sample_grid(0.9))
        assert res.trivial
        assert res.points == ()

    def test_double_zero_is_one_point(self):
        # Newton converges only linearly to the double zero 0 of -z^2: every
        # seed must end on it, not at its own point near it
        phi = semiflow_from_generator(exprs.to_holofn("-z^2"))
        assert fixed_points(phi, disc_sample_grid(0.9, 4, 12)).points == (0j,)

    def test_cubic_zero_of_field_is_not_fixed(self):
        # G(0) = 0 but the flow escapes: the phi-side check must reject 0
        phi = make_catalog_semiflow("cubic-real")
        res = fixed_points(phi, real_sample_grid(5.0, 11))
        assert res.points == ()
        assert any(abs(b) < 1e-6 for b in res.rejected)


class TestOdeReconstruction:
    def test_dilation_point_value(self):
        G = holo.HoloFn(lambda z: -z, holo.UNIT_DISC, name="-z")
        phi = semiflow_from_generator(G)
        got = complex(phi(1.0, 0.5))
        assert got == pytest.approx(0.5 * math.exp(-1.0), abs=1e-8)

    def test_attracting_point_value(self):
        G = holo.HoloFn(lambda z: 1.0 - z, holo.UNIT_DISC, name="1-z")
        phi = semiflow_from_generator(G)
        assert complex(phi(math.log(2.0), 0.0)) == pytest.approx(0.5, abs=1e-8)

    def test_zero_field_identity(self):
        G = holo.HoloFn(lambda z: np.zeros(np.shape(z), dtype=complex), holo.UNIT_DISC, name="0")
        phi = semiflow_from_generator(G)
        z = 0.3 - 0.4j
        assert complex(phi(2.0, z)) == pytest.approx(z, abs=1e-14)

    def test_step_underflow_at_a_pole(self):
        # u^4 = z^4 + 4t reaches the pole 0 of z^(-3) at t = 1e-4 from z = 0.1 + 0.1i
        phi = semiflow_from_generator(exprs.to_holofn("z^(-3)"))
        with pytest.raises(StepUnderflow, match=r"^step size underflow at t=0\.0001$"):
            phi(1.0, 0.1 + 0.1j)

    def test_round_trip_generator_recovery(self):
        G = holo.HoloFn(lambda z: -z, holo.UNIT_DISC, name="-z")
        phi = semiflow_from_generator(G)
        for z in (0.5, 0.2 + 0.3j, -0.6j):
            assert generator_fd(phi, z) == pytest.approx(-complex(z), abs=1e-5)

    def test_escape_reported_with_time(self):
        # repelling field: |u| = 0.9 e^t hits the boundary at t = ln(1/0.9)
        G = holo.HoloFn(lambda z: z, holo.UNIT_DISC, name="z")
        phi = semiflow_from_generator(G)
        with pytest.raises(EscapedDomain) as exc:
            phi(0.3, 0.9)
        assert exc.value.tau_estimate == pytest.approx(math.log(1.0 / 0.9), abs=1e-3)

    def test_closed_form_match_on_grid(self):
        G = holo.HoloFn(lambda z: 1.0 - z, holo.UNIT_DISC, name="1-z")
        phi = semiflow_from_generator(G)
        worst = 0.0
        for t in (0.25, 1.0):
            for z in disc_sample_grid(0.9, n_radii=2, n_angles=4):
                exact = math.exp(-t) * z + 1.0 - math.exp(-t)
                worst = max(worst, abs(complex(phi(t, z)) - exact))
        assert worst < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=-0.9, max_value=0.9),
    st.floats(min_value=-0.3, max_value=0.3),
)
def test_semigroup_law_property(t, s, re, im):
    z = complex(re, im) * 0.9
    for name, params in (("dilation", {"c": 0.5 + 0.5j}), ("attracting", {})):
        phi = make_catalog_semiflow(name, params)
        lhs = complex(phi(t + s, z))
        rhs = complex(phi(t, complex(phi(s, z))))
        assert lhs == pytest.approx(rhs, abs=1e-12)


_ARRAY_PATH_EXPRS = [
    "-0.9*z + (0.1 + 0.2*i)*z^2",
    "-z*exp(z)",
    "-z*(1 + mobius(0.3 + 0.2*i))",
    "1.0 - z",
    "1/(1+x^2)",
    "x^(2/3)",
]


def _sample_grid(G):
    if G.domain.kind == "real":
        return real_sample_grid(3.0, 13)
    return disc_sample_grid(0.9, n_radii=3, n_angles=5)


class TestArrayPath:
    """A lone point is a one-point array, and one RK4 loop steps a point
    array with per-point step control."""

    @pytest.mark.parametrize("src", _ARRAY_PATH_EXPRS)
    @pytest.mark.parametrize("t", [0.0, 0.013, 0.5, 1.7])
    def test_batch_equals_points_alone(self, src, t):
        G = exprs.to_holofn(src)
        phi = semiflow_from_generator(G)
        grid = _sample_grid(G)
        batch = phi(t, grid)
        alone = np.array([phi(t, z) for z in grid])
        assert batch.shape == grid.shape and batch.dtype == grid.dtype
        assert np.array_equal(batch, alone)

    @pytest.mark.parametrize("src", _ARRAY_PATH_EXPRS)
    def test_scalar_evaluation_is_bitwise_a_one_point_array(self, src):
        # a 0-d input would run numpy scalar arithmetic, whose complex
        # multiply rounds differently from the array loop
        G = exprs.to_holofn(src)
        if G.domain.kind == "real":
            grid = np.linspace(-3.0, 3.0, 1001)
        else:
            grid = disc_sample_grid(0.95, n_radii=20, n_angles=50)
        alone = np.array([G(z) for z in grid])
        assert np.array_equal(alone, [G(np.array([z]))[0] for z in grid])

    @pytest.mark.parametrize("src", _ARRAY_PATH_EXPRS)
    def test_generator_fd_batch_equals_points_alone(self, src):
        G = exprs.to_holofn(src)
        phi = semiflow_from_generator(G)
        grid = _sample_grid(G)
        assert np.array_equal(generator_fd(phi, grid), [generator_fd(phi, z) for z in grid])

    def test_scalar_in_scalar_out(self):
        assert type(semiflow_from_generator(exprs.to_holofn("-z"))(0.5, 0.3)) is complex
        assert type(semiflow_from_generator(exprs.to_holofn("x^(2/3)"))(0.5, 2.0)) is float

    def test_first_escape_in_array_order_is_raised(self):
        # u' = u^2 leaves the disc from 0.95 at t ~ 0.053, before 0.9 at t ~ 0.111
        phi = semiflow_from_generator(exprs.to_holofn("z^2"))
        with pytest.raises(EscapedDomain) as batch:
            phi(0.5, np.array([0.1, 0.9, 0.95, -0.5]))
        with pytest.raises(EscapedDomain) as alone:
            phi(0.5, 0.9)
        assert str(batch.value) == str(alone.value)
        assert "from (0.9+0j)" in str(batch.value)
        assert batch.value.tau_estimate == alone.value.tau_estimate

    def test_step_budget_ends_a_creeping_trajectory(self):
        # u' = -u^(1/3) reaches its non-Lipschitz zero at t = 1.5 u0^(2/3);
        # past it RK4 creeps instead of arriving. 2.0 arrives by t = 1, 0.5
        # and -0.3 do not: the batch raises for 0.5, as 0.5 alone does.
        phi = semiflow_from_generator(exprs.to_holofn("-x^(1/3)"))
        with pytest.raises(StepUnderflow) as batch:
            phi(1.0, np.array([2.0, 0.5, -0.3]))
        with pytest.raises(StepUnderflow) as alone:
            phi(1.0, 0.5)
        assert str(batch.value) == str(alone.value)
        assert "trajectory from 0.5 stalled" in str(alone.value)

    def test_a_non_finite_step_names_its_start_point(self):
        # 0.01/z has its pole at 0: the first step from 0 is NaN, while 0.5
        # integrates; the batch raises for 0, as 0 alone does, with no warning
        phi = semiflow_from_generator(exprs.to_holofn("-z + 0.01/z"))
        with pytest.raises(NonConvergent) as batch:
            phi(0.5, np.array([0.5, 0.0, -0.5]))
        with pytest.raises(NonConvergent) as alone:
            phi(0.5, 0.0)
        assert str(batch.value) == str(alone.value)
        assert "trajectory from 0j took a non-finite RK4 step at t=0" in str(alone.value)
        assert np.isfinite(phi(0.5, 0.5))

    @pytest.mark.parametrize("src", _ARRAY_PATH_EXPRS)
    def test_per_point_times_equal_each_time_alone(self, src):
        G = exprs.to_holofn(src)
        phi = semiflow_from_generator(G)
        grid = _sample_grid(G)
        ts = np.resize([0.0, 0.013, 0.5, 1.7], grid.shape)
        batch = phi(ts, grid)
        alone = np.array([phi(t, z) for t, z in zip(ts, grid)])
        assert batch.shape == grid.shape and batch.dtype == grid.dtype
        assert np.array_equal(batch, alone)
        # a column of times against a row of points, as the cocycle's node blocks
        column = np.array([[0.013], [0.5], [1.7]])
        block = phi(column, np.broadcast_to(grid, (3, grid.size)))
        assert np.array_equal(block, [phi(t, grid) for t in column[:, 0]])

    def test_earliest_node_escape_is_raised_with_per_point_times(self):
        # one row of points per time node, as in the cocycle's blocks: u' = u^2
        # keeps 0.9 inside until t ~ 0.111, so the 0.5 row is the first to escape
        phi = semiflow_from_generator(exprs.to_holofn("z^2"))
        with pytest.raises(EscapedDomain) as batch:
            phi(np.array([[0.05], [0.5], [1.0]]), np.array([[0.1, 0.9]] * 3))
        with pytest.raises(EscapedDomain) as alone:
            phi(0.5, 0.9)
        assert str(batch.value) == str(alone.value)
        assert batch.value.tau_estimate == alone.value.tau_estimate

    def test_step_budget_with_per_point_times(self):
        # 0.5 reaches the zero of -x^(1/3) at t ~ 0.945, so t = 0.2 arrives;
        # -0.3 reaches it at t ~ 0.67 and creeps until the budget runs out
        phi = semiflow_from_generator(exprs.to_holofn("-x^(1/3)"))
        with pytest.raises(StepUnderflow) as batch:
            phi(np.array([1.0, 0.2, 1.0]), np.array([2.0, 0.5, -0.3]))
        with pytest.raises(StepUnderflow) as alone:
            phi(1.0, -0.3)
        assert str(batch.value) == str(alone.value)
        assert "trajectory from -0.3 stalled" in str(alone.value)

    def test_generator_never_sees_a_0d_array(self):
        ndims = []

        def fn(z):
            ndims.append(np.ndim(z))
            return -z

        phi = semiflow_from_generator(holo.HoloFn(fn, holo.UNIT_DISC, name="-z"))
        phi(0.5, disc_sample_grid(0.9, n_radii=2, n_angles=4))
        assert ndims and set(ndims) == {1}
