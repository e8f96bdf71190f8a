"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output of a failure). Expected values come from independent
oracles: Parseval/Beta identities via lgamma, closed-form flows via math,
and the printed bound formulas evaluated directly.
"""

import copy
import math
import time

import numpy as np
import pytest

from wcsg import cli, holo
from wcsg.cocycles import (
    cocycle_from_g,
    coboundary_admissibility,
    derivative_cocycle,
    trivial_cocycle,
)
from wcsg.defaults import DEFAULT_CONFIGS
from wcsg.flows import (
    disc_sample_grid,
    generator_fd,
    make_catalog_semiflow,
    semiflow_from_generator,
)
from wcsg.reporting import report_to_json
from wcsg.semigroup import (
    WcSemigroup,
    continuity_probe,
    semigroup_residual,
    theoretical_bound,
)
from wcsg.spaces import SpaceSpec, modulus_sup, norm, saks_sup_check, default_corpus
from wcsg.suites import LN2, run_bound_table, run_generator_check


def record(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def beta(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def test_criterion_1_monomial_norm_tables():
    start = time.perf_counter()
    worst_hardy = 0.0
    for p in (1.0, 2.0, 4.0):
        space = SpaceSpec.hardy(p)
        for n in range(9):
            worst_hardy = max(worst_hardy, abs(norm(space, holo.monomial(n)) - 1.0))
    worst_dirichlet = 0.0
    space = SpaceSpec.dirichlet()
    for n in range(1, 9):  # the energy identity n = ||e_n||^2 starts at degree 1
        val = norm(space, holo.monomial(n))
        worst_dirichlet = max(worst_dirichlet, abs(val * val - n))
    worst_bergman = 0.0
    for alpha, p in ((0.0, 2.0), (1.0, 2.0), (0.5, 4.0)):
        space = SpaceSpec.bergman(alpha, p)
        for n in range(9):
            expected = (alpha + 1.0) * beta(n * p / 2.0 + 1.0, alpha + 1.0)
            worst_bergman = max(
                worst_bergman, abs(norm(space, holo.monomial(n)) ** p - expected)
            )
    elapsed = time.perf_counter() - start
    ok = worst_hardy < 1e-8 and worst_dirichlet < 1e-6 and worst_bergman < 1e-6 and elapsed < 10.0
    record(
        1,
        ok,
        f"monomial norms: hardy err {worst_hardy:.2e} (<1e-8), dirichlet {worst_dirichlet:.2e}"
        f" (<1e-6), bergman {worst_bergman:.2e} (<1e-6), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_saks_supremum():
    start = time.perf_counter()
    space_list = [
        SpaceSpec.hardy(2.0),
        SpaceSpec.bergman(0.0, 2.0),
        SpaceSpec.dirichlet(),
        SpaceSpec.bloch(1.0),
        SpaceSpec.sup_holo(),
        SpaceSpec.sup_cont(holo.exp_abs_decay_weight()),
    ]
    radii = [0.5, 0.9, 0.99, 0.999, 0.9999]
    worst = -float("inf")
    for space in space_list:
        for f in default_corpus(real=space.is_real):
            rep, _ = saks_sup_check(space, f, radii, tol=1e-3)
            worst = max(worst, rep["gap"])
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 30.0
    record(2, ok, f"saks gap worst {worst:.2e} (<1e-3) over 6 spaces x 5 fns, {elapsed:.1f}s (<30s)")


def test_criterion_3_law_residuals():
    start = time.perf_counter()
    ts = (0.0, 0.1, 0.5, 1.0)
    grid = disc_sample_grid(0.95)
    closed = []
    for name, params in (("dilation", {"c": 1.0}), ("rotation", {"rate": 0.7}), ("attracting", {})):
        phi = make_catalog_semiflow(name, params)
        m = derivative_cocycle(phi)
        sg = WcSemigroup(phi, m, SpaceSpec.hardy(2.0))
        closed.extend(semigroup_residual(sg, ts, grid))  # semiflow, cocycle, semigroup
    quad = []
    for g in (holo.constant(-1.0), holo.monomial(1)):
        phi = make_catalog_semiflow("attracting")
        m = cocycle_from_g(g, phi)
        sg = WcSemigroup(phi, m, SpaceSpec.hardy(2.0))
        quad.extend(semigroup_residual(sg, ts, grid)[1:])  # cocycle, semigroup
    elapsed = time.perf_counter() - start
    ok = max(closed) < 1e-10 and max(quad) < 1e-7 and elapsed < 60.0
    record(
        3,
        ok,
        f"laws: closed-form {max(closed):.2e} (<1e-10), quadrature {max(quad):.2e} (<1e-7),"
        f" {elapsed:.1f}s (<60s)",
    )


def test_criterion_4_ode_round_trip():
    fields = {
        "-z": (lambda t, z: math.exp(-t) * z, holo.HoloFn(lambda z: -z, holo.UNIT_DISC, name="-z")),
        "1-z": (
            lambda t, z: math.exp(-t) * z + 1.0 - math.exp(-t),
            holo.HoloFn(lambda z: 1.0 - z, holo.UNIT_DISC, name="1-z"),
        ),
    }
    grid = disc_sample_grid(0.9, n_radii=3, n_angles=8)
    worst_dev, worst_fd = 0.0, 0.0
    for label, (exact, G) in fields.items():
        phi = semiflow_from_generator(G)
        for t in (0.25, 0.5, 0.75, 1.0):
            got = np.asarray(phi(t, grid))
            want = np.asarray([exact(t, z) for z in grid])
            worst_dev = max(worst_dev, float(np.max(np.abs(got - want))))
        for z in grid[::7]:
            worst_fd = max(worst_fd, abs(generator_fd(phi, z) - G(z)))
    ok = worst_dev < 1e-6 and worst_fd < 1e-5
    record(4, ok, f"ode round-trip: deviation {worst_dev:.2e} (<1e-6), fd recovery {worst_fd:.2e} (<1e-5)")


def test_criterion_5_bound_dominance():
    cases = run_bound_table(copy.deepcopy(DEFAULT_CONFIGS["bound-table"]))
    failures = [c.id for c in cases if not c.passed]

    # spot: Hardy(2), attracting, t = ln 2 -> sqrt(3)
    sg = WcSemigroup(
        make_catalog_semiflow("attracting"), trivial_cocycle(), SpaceSpec.hardy(2.0)
    )
    hardy_spot = theoretical_bound(sg, LN2)["theoretical"]
    spot_hardy_ok = abs(hardy_spot - math.sqrt(3.0)) < 1e-9

    sg_d = WcSemigroup(
        make_catalog_semiflow("attracting"), trivial_cocycle(), SpaceSpec.dirichlet()
    )
    dirichlet_spot = theoretical_bound(sg_d, LN2)["theoretical"]
    spot_dirichlet_ok = abs(dirichlet_spot - 1.30352) < 1e-4

    space = SpaceSpec.sup_cont(holo.exp_abs_decay_weight())
    sg_t = WcSemigroup(make_catalog_semiflow("translation-real"), trivial_cocycle(), space)
    k_ok = True
    for t in (0.25, 1.0):
        K = theoretical_bound(sg_t, t)["components"]["K_weight"]
        k_ok = k_ok and K <= math.exp(t) * 1.001
    ok = not failures and spot_hardy_ok and spot_dirichlet_ok and k_ok
    record(
        5,
        ok,
        f"dominance: {len(cases)} sweep cases, failures {failures or 'none'};"
        f" spots sqrt3={hardy_spot:.9f}, dirichlet={dirichlet_spot:.5f}, K<=e^t {k_ok}",
    )


def test_criterion_6_generator_formula():
    cases = run_generator_check(copy.deepcopy(DEFAULT_CONFIGS["generator-check"]))
    assert len(cases) == 6
    failures = [c.id for c in cases if not c.passed]
    details = {c.id: (c.numbers.get("residual"), c.numbers.get("order")) for c in cases}
    ok = not failures
    worst = max(v[0] for v in details.values())
    record(
        6,
        ok,
        f"generator formula: 6 combos, worst residual {worst:.2e} (<1e-4), orders >= 0.9;"
        f" failures {failures or 'none'}",
    )


def test_criterion_7_continuity_dichotomy():
    sg = WcSemigroup(
        make_catalog_semiflow("rotation", {"rate": 0.2}),
        trivial_cocycle(),
        SpaceSpec.sup_holo(),
    )
    probe, rows = continuity_probe(
        sg,
        holo.singular_inner(),
        [1e-1, 1e-2, 1e-3],
        [0.5, 0.9],
        tol_co=1e-3,
        norm_cap=1.0 + 1e-9,
    )
    last = [v for k, v in rows[-1].items() if k.startswith("co_residual")]
    co_ok = all(v < 1e-3 for v in last)
    norm_stays = all(rec["norm_residual"] >= 0.1 for rec in rows)
    bounded = all(rec["norm_of_Cf"] <= 1.0 + 1e-12 for rec in rows)
    ok = co_ok and norm_stays and bounded and probe["gamma_verdict"] and not probe["norm_verdict"]
    record(
        7,
        ok,
        f"dichotomy: co@1e-3 {[f'{v:.1e}' for v in last]} (<1e-3),"
        f" norm residuals {[f'{rec:.2f}' for rec in (r['norm_residual'] for r in rows)]} (>=0.1),"
        f" gamma={probe['gamma_verdict']}, norm={probe['norm_verdict']}",
    )


def test_criterion_8_coboundary_admissibility():
    phi = make_catalog_semiflow("dilation", {"c": 1.0})
    v1, rows1 = coboundary_admissibility(holo.constant(-1.0), phi.generator, [0.0])
    first_ok = v1["admissible"] and rows1[0]["nearest_order"] == 1
    v2, _ = coboundary_admissibility(holo.constant(-0.5), phi.generator, [0.0])
    second_ok = not v2["admissible"]

    # g = -2 is admissible with order 2: its integral cocycle is the quotient
    # (omega o phi_t)/omega of omega = z^2, that is (phi_t(z)/z)^2 = e^{-2t},
    # also at the zero of omega
    v3, rows3 = coboundary_admissibility(holo.constant(-2.0), phi.generator, [0.0])
    third_ok = v3["admissible"] and rows3[0]["nearest_order"] == 2
    m = cocycle_from_g(holo.constant(-2.0), phi)
    worst = 0.0
    for t in (0.3, 1.0, 2.0):
        for z in (0.0, 0.5, 0.2 - 0.4j):
            quotient = (complex(phi(t, z)) / z) ** 2 if z else math.exp(-2.0 * t)
            worst = max(worst, abs(complex(np.asarray(m(t, z))) - quotient))
    ok = first_ok and second_ok and third_ok and worst < 1e-9
    record(
        8,
        ok,
        f"admissibility: g=-1 -> ord 1 {first_ok}, g=-1/2 rejected {second_ok},"
        f" g=-2 -> ord 2 {third_ok}, quotient value error {worst:.2e} (<1e-9)",
    )


def test_criterion_9_cocycle_sup_bounds():
    dil = make_catalog_semiflow("dilation", {"c": 1.0})
    rot = make_catalog_semiflow("rotation", {"rate": 1.0})
    att = make_catalog_semiflow("attracting")
    # the five catalog cocycles, and g = -1 - z with Re g <= 0 on the disc,
    # so |m_t| <= e^{t sup Re g} = 1
    catalog = [
        (dil, derivative_cocycle(dil)),
        (dil, cocycle_from_g(holo.constant(-1.0), dil)),
        (rot, cocycle_from_g(holo.constant(-1j), rot)),
        (att, cocycle_from_g(holo.constant(0.0), att)),
        (att, trivial_cocycle()),
        (att, cocycle_from_g(holo.poly([-1.0, -1.0]), att)),
    ]
    hinf = SpaceSpec.sup_holo()
    ts = (0.0, 0.25, 0.5, 1.0)
    worst_sup = max(
        modulus_sup(lambda z: m(t, z), hinf) for phi, m in catalog for t in ts
    )
    decay_err = max(
        abs(modulus_sup(lambda z: catalog[0][1](t, z), hinf) - math.exp(-t)) for t in ts
    )
    ok = worst_sup <= 1.0 + 1e-9 and decay_err <= 1e-12
    record(9, ok, f"cocycle sups: worst sup|m_t| {worst_sup:.12f} (<=1+1e-9), "
                  f"dilation derivative vs e^-t {decay_err:.1e} (<=1e-12)")


def test_criterion_10_determinism_and_budget():
    def full_run():
        start = time.perf_counter()
        outputs = {}
        for suite, cfg in DEFAULT_CONFIGS.items():
            report = cli.run(copy.deepcopy(cfg))
            outputs[suite] = report_to_json(report)
        return outputs, time.perf_counter() - start

    first, t1 = full_run()
    second, t2 = full_run()
    identical = first == second
    budget_ok = max(t1, t2) < 300.0
    ok = identical and budget_ok
    record(
        10,
        ok,
        f"determinism: byte-identical={identical}, wall {t1:.1f}s / {t2:.1f}s (<300s each)",
    )
