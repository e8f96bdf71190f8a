"""Measured gaps: verdicts and bounds the lab gets wrong today.

Each test asserts the true value and is a strict expected failure that
names the ROADMAP item meant to close it. A change that closes a gap makes
its test pass, so the run fails until that change removes the marker.
``raises=AssertionError`` keeps a crash from counting as the expected
failure, and so does an error case where the test reads its numbers.
"""

import math

import pytest

from wcsg import semigroup, spaces
from wcsg.cli import run
from wcsg.cocycles import cocycle_from_g
from wcsg.exprs import to_holofn
from wcsg.flows import make_catalog_semiflow
from wcsg.semigroup import WcSemigroup
from wcsg.spaces import SpaceSpec

THETA0 = 2.0 * math.pi * 100.5 / 512
# g = 0.01/(1.001 - e^{-i theta0} z): a pole 0.001 outside the circle, between two sup-grid angles
SPIKE = f"0.01/(1.001 - ({math.cos(THETA0)!r} - {math.sin(THETA0)!r}*i)*z)"
# g = 1/(z - 1) on the identity flow: m_t = e^{-t/2} S_{t/2}, with S_a atomic singular inner
MULTIPLIER = {"flow": {"name": "identity"}, "cocycle": {"type": "integral", "g": "1/(z-1)"}}
HINF = {"kind": "sup-holo"}


def gap(reason: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def only_case(suite: str, entry: dict, **config):
    """The one case of a suite run on a config holding just ``entry``."""
    (case,) = run({"suite": suite, "cases": [entry], **config}).cases
    return case


def identity_multiplier(g: str, space: SpaceSpec) -> WcSemigroup:
    phi = make_catalog_semiflow("identity")
    return WcSemigroup(phi, cocycle_from_g(to_holofn(g), phi), space)


@gap("items 1 and 2: the sup grid misses the spike of m_1, so the upper side is 10^4 too low")
def test_spike_cocycle_bound_reaches_the_spike():
    row = semigroup.theoretical_bound(identity_multiplier(SPIKE, SpaceSpec.sup_holo()), 1.0)
    assert row["theoretical"] >= 21807.0


@gap("item 1: sup norms stop at r_cap, so the H^inf norm of an automorphism reads below 1")
def test_automorphism_has_sup_norm_one():
    tau = to_holofn("(0.3 - z)/(1 - 0.3*z)")
    assert spaces.norm(SpaceSpec.sup_holo(), tau) == pytest.approx(1.0, abs=1e-9)


@gap("items 1 and 2: item 21's upper side on H^inf lies below the exact norm e^{-1/2}")
def test_multiplier_bound_covers_its_exact_norm():
    row = semigroup.theoretical_bound(identity_multiplier("1/(z-1)", SpaceSpec.sup_holo()), 1.0)
    assert row["theoretical"] >= math.exp(-0.5)


@gap("item 2: the corpus witness of hardy2-attracting is 28% below the exact norm e^{1/2}")
def test_attracting_lower_side_reaches_cowens_norm():
    case = only_case("bound-table", {"space": {"kind": "hardy"}, "flow": {"name": "attracting"}},
                     ts=[1.0])
    assert case.rows[0]["empirical_lower"] >= 0.99 * math.exp(0.5)


@gap("item 3: the rotation's norm residual on H^inf falls once t passes the grid's angle step")
def test_rotation_of_the_inner_function_is_not_norm_continuous():
    case = only_case("continuity-probe", {
        "space": HINF, "flow": {"name": "rotation", "params": {"rate": 0.2}},
        "f": "singular-inner", "ts": [1e-2, 1e-6, 1e-7, 1e-8], "tolerances": {"norm": 1e-2},
        "expect": {"norm": False}})
    assert case.numbers["norm_verdict"] is False


@gap("item 3: translation's norm residual on C_b falls once pi/(2t) passes the halfwidth")
def test_translation_of_a_chirp_is_not_norm_continuous():
    case = only_case("continuity-probe", {
        "space": {"kind": "sup-cont", "weight": "one"}, "flow": {"name": "translation-real"},
        "f": "exp(i*x^2)", "ts": [1e-1, 1e-2, 1e-3, 1e-4], "tolerances": {"norm": 1e-2},
        "expect": {"norm": False}})
    assert case.numbers["norm_verdict"] is False


@gap("item 3: item 21's norm residual of f = 1 on H^inf falls once t passes 1 - r_cap")
def test_multiplier_of_one_is_not_norm_continuous():
    case = only_case("continuity-probe", {
        "space": HINF, **MULTIPLIER, "f": "1", "ts": [1e-2, 1e-8, 1e-9, 1e-10],
        "expect": {"norm": False}})
    assert case.numbers["norm_verdict"] is False


@gap("item 13: item 21's H^2 bracket ends in a circle-mean doubling error")
def test_multiplier_bracket_on_hardy2_is_not_an_error():
    case = only_case("bound-table", {"space": {"kind": "hardy"}, **MULTIPLIER}, ts=[1.0])
    assert case.verdict != "error", case.error


@gap("item 4: 1 is not in the domain of item 21's generator on H^inf, yet the check passes")
def test_one_is_not_in_the_multiplier_generators_domain():
    case = only_case("generator-check", {"space": HINF, **MULTIPLIER, "f": "1"})
    assert case.verdict is not True
