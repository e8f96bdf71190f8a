"""Closed-form derivatives against the Cauchy-integral oracle, and dispatch."""

import numpy as np
import pytest

from wcsg import exprs, holo, spaces
from wcsg.cocycles import cocycle_from_g, derivative_cocycle, trivial_cocycle
from wcsg.flows import make_catalog_semiflow
from wcsg.semigroup import WcSemigroup, apply, default_test_functions
from wcsg.spaces import SpaceSpec

R_CAP = holo.DEFAULT_POLICY.r_cap
RING = np.exp(2j * np.pi * (np.arange(24) + 0.5) / 24)
# (radius, relative tolerance): at r_cap the oracle's own rounding error,
# about eps * max|f| / (Cauchy circle radius), reaches ~1e-10.
RINGS = [(0.5, 1e-12), (0.9, 1e-12), (0.99, 1e-12), (R_CAP, 1e-9)]


def assert_matches_oracle(f):
    assert f.deriv is not None, f.name
    for r, tol in RINGS:
        zs = r * RING
        oracle = holo.cauchy_derivative_grid(f.fn, zs, 0.5 * (1.0 - np.abs(zs)))
        closed = np.asarray(f.deriv(zs))
        err = np.abs(closed - oracle)
        assert np.all(err <= tol * np.maximum(1.0, np.abs(closed))), (f.name, r, float(np.max(err)))


CATALOG = [
    holo.constant(2.0 - 1.0j),
    holo.one(),
    holo.monomial(0),
    holo.monomial(1),
    holo.monomial(7),
    holo.poly([1.0, -2.0j, 0.5, 3.0]),
    holo.poly([4.0]),
    holo.exp_fn(),
    holo.exp_fn(0.5 - 2.0j),
    holo.mobius(0.4 - 0.3j),
    holo.mobius(0.0),
    holo.mobius_kernel(0.6 - 0.35j),
    holo.mobius_kernel(-0.7),
    holo.singular_inner(),
]


@pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.name)
def test_catalog_constructor(f):
    assert_matches_oracle(f)


@pytest.mark.parametrize(
    "f", default_test_functions(SpaceSpec.bloch(1.0)) + spaces.default_corpus(),
    ids=lambda f: f.name,
)
def test_default_sets(f):
    assert_matches_oracle(f)


def test_combinators():
    a, b = holo.mobius_kernel(0.5j), holo.exp_fn(0.5)
    for f in (a - b, b - a, (a - b) - holo.monomial(3), a - holo.constant(1.5j)):
        assert_matches_oracle(f)


def test_combining_with_an_evaluator_drops_the_derivative():
    f = holo.monomial(2) - exprs.to_holofn("z^2")
    assert f.deriv is None


@pytest.mark.parametrize("flow, params, cocycle", [
    ("attracting", {}, trivial_cocycle),
    ("dilation", {"c": 1.0}, derivative_cocycle),
    ("dilation", {"c": 1.0 + 0.5j}, derivative_cocycle),
])
def test_apply_composites(flow, params, cocycle):
    phi = make_catalog_semiflow(flow, params)
    m = cocycle() if cocycle is trivial_cocycle else cocycle(phi)
    sg = WcSemigroup(phi, m, SpaceSpec.dirichlet())
    for f in (holo.monomial(3), holo.mobius_kernel(-0.7), holo.singular_inner()):
        for t in (0.25, 1.0):
            assert_matches_oracle(apply(sg, t, f))
            assert_matches_oracle(apply(sg, t, f) - f)


def test_generator_derivatives():
    for name, params in (("dilation", {"c": 2.0 - 1.0j}), ("rotation", {"rate": 0.2}),
                         ("attracting", {})):
        assert_matches_oracle(make_catalog_semiflow(name, params).generator)


def test_real_domain_uses_closed_form():
    f = holo.monomial(3, holo.REAL_LINE)
    xs = np.linspace(-2.0, 2.0, 9)
    assert np.allclose(holo.derivative_on_grid(f, xs), 3.0 * xs ** 2, rtol=0, atol=1e-15)


def test_closed_form_keeps_the_domain_check():
    with pytest.raises(holo.DomainExit):
        holo.derivative_on_grid(holo.monomial(2), np.array([0.5, 1.0]))


@pytest.fixture
def cauchy_calls(monkeypatch):
    calls = []
    original = holo.cauchy_derivative_grid

    def counting(f, zs, radii, n_nodes=holo.INNER_DERIV_NODES):
        calls.append(np.size(zs))
        return original(f, zs, radii, n_nodes)

    monkeypatch.setattr(holo, "cauchy_derivative_grid", counting)
    return calls


def test_hot_path_makes_no_cauchy_calls(cauchy_calls):
    sg = WcSemigroup(make_catalog_semiflow("attracting"), trivial_cocycle(),
                     SpaceSpec.dirichlet())
    value = spaces.norm(sg.space, apply(sg, 0.5, holo.monomial(3)))
    bloch = spaces.norm(SpaceSpec.bloch(1.0), holo.singular_inner())
    assert np.isfinite(value) and np.isfinite(bloch)
    assert cauchy_calls == []


def test_fallback_reaches_cauchy(cauchy_calls):
    zs = 0.6 * RING
    expr = exprs.to_holofn("z^2")
    assert np.allclose(holo.derivative_on_grid(expr, zs), 2.0 * zs, rtol=0, atol=1e-12)
    assert len(cauchy_calls) == 1

    phi = make_catalog_semiflow("dilation", {"c": 1.0})
    # g = z is not constant in z, so C(t) e_2 has no closed-form derivative:
    # m_t = e^{a z} with a = 1 - e^{-t}, and C(t) e_2 = e^{-2t} z^2 e^{a z}
    sg = WcSemigroup(phi, cocycle_from_g(exprs.to_holofn("z"), phi), SpaceSpec.dirichlet())
    moved = apply(sg, 0.5, holo.monomial(2))
    assert moved.deriv is None
    a = 1.0 - np.exp(-0.5)
    expected = np.exp(-1.0) * np.exp(a * zs) * (2.0 * zs + a * zs ** 2)
    assert np.allclose(holo.derivative_on_grid(moved, zs), expected, rtol=0, atol=1e-12)
    assert len(cauchy_calls) == 2
