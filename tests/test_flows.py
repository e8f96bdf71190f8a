"""Semiflow catalog, laws, generator extraction, and ODE round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcsg import exprs, holo
from wcsg.errors import EscapedDomain, InvalidParam, UnknownCatalogEntry
from wcsg.flows import (
    OdeCfg,
    disc_sample_grid,
    fixed_points,
    generator_fd,
    make_catalog_semiflow,
    real_sample_grid,
    semiflow_from_generator,
    semiflow_law_residual,
)

TS = (0.0, 0.1, 0.5, 1.0)


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
        est = generator_fd(phi, 0.4)
        assert est.value == pytest.approx(0.6, abs=1e-8)  # G(z) = 1 - z
        assert est.order_evidence == pytest.approx(1.0, abs=0.2)

    def test_cubic(self):
        phi = make_catalog_semiflow("cubic-real")
        est = generator_fd(phi, 8.0)
        assert est.value == pytest.approx(4.0, abs=1e-7)  # G(x) = x^(2/3)

    def test_identity(self):
        phi = make_catalog_semiflow("identity")
        est = generator_fd(phi, 0.3 + 0.2j)
        assert abs(est.value) < 1e-12

    def test_bad_steps_rejected(self):
        phi = make_catalog_semiflow("attracting")
        with pytest.raises(ValueError):
            generator_fd(phi, 0.1, steps=(1e-3, 1e-2))


class TestFixedPoints:
    def test_dilation_origin(self):
        phi = make_catalog_semiflow("dilation", {"c": 1.0})
        res = fixed_points(phi, phi.generator, disc_sample_grid(0.9))
        assert len(res.points) == 1
        assert abs(res.points[0]) < 1e-10
        assert not res.trivial

    def test_attracting_empty_inside_disc(self):
        phi = make_catalog_semiflow("attracting")
        res = fixed_points(phi, phi.generator, disc_sample_grid(0.9))
        assert res.points == ()

    def test_identity_trivial_verdict(self):
        phi = make_catalog_semiflow("identity")
        res = fixed_points(phi, phi.generator, disc_sample_grid(0.9))
        assert res.trivial
        assert res.points == ()

    def test_cubic_zero_of_field_is_not_fixed(self):
        # G(0) = 0 but the flow escapes: the phi-side check must reject 0
        phi = make_catalog_semiflow("cubic-real")
        res = fixed_points(phi, phi.generator, real_sample_grid(5.0, 11))
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

    def test_round_trip_generator_recovery(self):
        G = holo.HoloFn(lambda z: -z, holo.UNIT_DISC, name="-z")
        phi = semiflow_from_generator(G)
        for z in (0.5, 0.2 + 0.3j, -0.6j):
            est = generator_fd(phi, z)
            assert est.value == pytest.approx(-complex(z), abs=1e-5)

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


class TestArrayPath:
    """One RK4 loop over point arrays, with per-point step control."""

    @pytest.mark.parametrize("src", [
        "-0.9*z + (0.1 + 0.2*i)*z^2",
        "-z*exp(z)",
        "-z*(1 + mobius(0.3 + 0.2*i))",
        "1.0 - z",
        "1/(1+x^2)",
        "x^(2/3)",
    ])
    @pytest.mark.parametrize("t", [0.0, 0.013, 0.5, 1.7])
    def test_batch_equals_points_alone(self, src, t):
        G = exprs.to_holofn(src)
        phi = semiflow_from_generator(G)
        if G.domain.kind == "real":
            grid = real_sample_grid(3.0, 13)
        else:
            grid = disc_sample_grid(0.9, n_radii=3, n_angles=5)
        batch = phi(t, grid)
        alone = np.array([phi(t, z) for z in grid])
        assert batch.shape == grid.shape and batch.dtype == grid.dtype
        assert np.array_equal(batch, alone)

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

    def test_generator_never_sees_a_0d_array(self):
        ndims = []

        def fn(z):
            ndims.append(np.ndim(z))
            return -z

        phi = semiflow_from_generator(holo.HoloFn(fn, holo.UNIT_DISC, name="-z"))
        phi(0.5, disc_sample_grid(0.9, n_radii=2, n_angles=4))
        assert ndims and set(ndims) == {1}
