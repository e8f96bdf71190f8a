"""Workload definitions: the suite configs each benchmark workload runs.

The program only ever receives these configs, through ``wcsg.cli.run``.
``suite-defaults`` ignores the seed; the generated workloads keep their shape
(suites, case counts, grid sizes, degree ranges) fixed and let the seed draw
only continuous parameters from ranges on which every case passes, so the
work per run stays the same from seed to seed.
"""

from __future__ import annotations

import cmath
import copy
import math
import random

# Order of scripts/run_all_suites.py.
SUITE_ORDER = [
    "norm-table",
    "semigroup-check",
    "cocycle-check",
    "bound-table",
    "generator-check",
    "reconstruct",
    "continuity-probe",
    "admissibility",
]

# Layers (tracer names) that must record at least one span in the traced run
# of each workload; a missed rebinding then fails the run instead of reading 0.
EXPECTED_LAYERS = {
    "suite-defaults": [
        "holo.cauchy_derivative_grid",
        "holo.disc_integral",
        "holo.circle_mean_p",
        "holo.annulus_integral",
        "holo.real_derivative_grid",
        "spaces.norm",
        "spaces.co_seminorm",
        "spaces.certified_sup",
        "flows.ode_eval",
        "cocycles.integral_eval",
        "cocycles.cocycle_law_residual",
        "semigroup.theoretical_bound",
        "semigroup.operator_norm_lower_bound",
        "semigroup.semigroup_residual",
        "semigroup.generator_residual",
        "semigroup.continuity_probe",
        "exprs.to_holofn",
        "reporting.emit",
    ],
    "closed-form-norms": [
        "holo.disc_integral",
        "holo.circle_mean_p",
        "holo.annulus_integral",
        "spaces.norm",
        "spaces.co_seminorm",
        "spaces.certified_sup",
        "semigroup.theoretical_bound",
        "semigroup.operator_norm_lower_bound",
        "semigroup.continuity_probe",
        "exprs.to_holofn",
        "reporting.emit",
    ],
    "ode-flows": [
        "flows.ode_eval",
        "cocycles.integral_eval",
        "cocycles.cocycle_law_residual",
        "semigroup.semigroup_residual",
        "exprs.to_holofn",
        "reporting.emit",
    ],
}


def _suite_defaults(rng: random.Random) -> list:
    from wcsg.defaults import DEFAULT_CONFIGS

    return [copy.deepcopy(DEFAULT_CONFIGS[s]) for s in SUITE_ORDER]


def _u(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _closed_form_norms(rng: random.Random) -> list:
    """Norm, bound and continuity configs on spaces whose integrands need no
    derivative: Hardy p, Bergman (alpha, p), H-infinity and exp-decay sup-cont."""
    hardy = [{"kind": "hardy", "p": _u(rng, 1.0, 4.0)} for _ in range(2)]
    bergman = [
        {"kind": "bergman", "alpha": _u(rng, -0.5, 2.0), "p": _u(rng, 1.5, 4.0)}
        for _ in range(3)
    ]
    hinf = {"kind": "sup-holo", "weight": "one"}
    cont = {"kind": "sup-cont", "weight": "exp-decay"}
    norm_table = {
        "suite": "norm-table",
        # sup-cont stays out: x^16 e^{-|x|} passes the overflow guard on the
        # real grid, so it joins the Saks part only.
        "spaces": hardy + bergman + [hinf],
        "max_degree": 16,
        # The Saks gaps are set by the truncation tail at the largest radius,
        # not by quadrature, so their spaces are fixed: the smallest headroom
        # then does not move with the seed.
        "saks": {
            "spaces": [{"kind": "hardy", "p": 2.0},
                       {"kind": "bergman", "alpha": 0.0, "p": 2.0}, hinf, cont],
            "radii": [0.5, 0.9, 0.99, 0.999, 0.9999],
            "gap_tol": 1e-3,
        },
    }

    def dilation():
        return {"name": "dilation", "params": {"c": _u(rng, 0.5, 2.0)}}

    def rotation():
        return {"name": "rotation", "params": {"rate": _u(rng, 0.2, 1.0)}}

    ts = sorted(_u(rng, 0.1, 1.5) for _ in range(4))
    bound_table = {
        "suite": "bound-table",
        "ts": ts,
        "slack": 1e-3,
        "max_test_degree": 8,
        "cases": [
            {"label": "hardy-attracting-trivial", "space": hardy[0],
             "flow": {"name": "attracting"}, "cocycle": {"type": "trivial"}},
            {"label": "hardy-dilation-derivative", "space": hardy[1],
             "flow": dilation(), "cocycle": {"type": "derivative"}},
            {"label": "bergman-dilation-trivial", "space": bergman[0],
             "flow": dilation(), "cocycle": {"type": "trivial"}},
            {"label": "bergman-rotation-derivative", "space": bergman[1],
             "flow": rotation(), "cocycle": {"type": "derivative"}},
            {"label": "hinf-rotation-trivial", "space": hinf,
             "flow": rotation(), "cocycle": {"type": "trivial"}},
            {"label": "cont-translation-trivial", "space": cont,
             "flow": {"name": "translation-real"}, "cocycle": {"type": "trivial"}},
        ],
    }

    probe_ts = [0.1, 0.01, 0.001]
    continuity = {
        "suite": "continuity-probe",
        "cases": [
            {"label": "hinf-rotation-dichotomy", "space": hinf, "flow": rotation(),
             "cocycle": {"type": "trivial"}, "f": "singular-inner", "ts": probe_ts,
             "radii": [0.5, 0.9], "norm_cap": 1.000001,
             "tolerances": {"co": 1e-2, "norm": 1e-2},
             "expect": {"gamma": True, "norm": False}},
            {"label": "hinf-dilation-monomial", "space": hinf, "flow": dilation(),
             "cocycle": {"type": "trivial"}, "f": f"e_{rng.randint(1, 2)}", "ts": probe_ts,
             "radii": [0.5, 0.9], "tolerances": {"co": 1e-2, "norm": 1e-2},
             "expect": {"gamma": True, "norm": True}},
            {"label": "bergman-dilation-monomial", "space": bergman[0], "flow": dilation(),
             "cocycle": {"type": "trivial"}, "f": f"e_{rng.randint(1, 3)}", "ts": probe_ts,
             "radii": [0.5, 0.9], "tolerances": {"co": 1e-2, "norm": 1e-2},
             "expect": {"gamma": True, "norm": True}},
            {"label": "cont-translation-bump", "space": cont,
             "flow": {"name": "translation-real"}, "cocycle": {"type": "trivial"},
             "f": f"1.0 / (1.0 + {_u(rng, 0.5, 2.0)}*x^2)", "ts": probe_ts,
             "radii": [0.5, 0.9], "tolerances": {"co": 1e-2, "norm": 1e-2},
             "expect": {"gamma": True, "norm": True}},
        ],
    }
    return [norm_table, bound_table, continuity]


def _phase(rng: random.Random, modulus: float, max_angle: float = math.pi) -> complex:
    """A complex number of fixed modulus and seeded argument."""
    w = modulus * cmath.exp(1j * rng.uniform(-max_angle, max_angle))
    return complex(round(w.real, 4), round(w.imag, 4))


def _cplx(w: complex) -> str:
    """A complex constant in the config expression grammar."""
    return f"({w.real!r} + {w.imag!r}*i)"


def _ode_flows(rng: random.Random) -> list:
    """Reconstruct, semigroup-check and cocycle-check configs on flows rebuilt
    from their generator by RK4.

    Two access patterns: many points at few times (reconstruct on a dense
    grid, semigroup laws) and few points at many times (an integral cocycle,
    which solves every point at 2n Gauss-Legendre time nodes). Grids stay
    small: one ODE point costs about a millisecond.

    The adaptive step count grows with the size of the vector field, so the
    seed draws only arguments of complex coefficients whose moduli are fixed;
    the ODE work then stays about the same from seed to seed.
    """
    c = _phase(rng, 1.0, 1.0)  # Re c > 0 keeps the disc invariant
    rate = rng.choice([-1.0, 1.0])
    reconstruct = {
        "suite": "reconstruct",
        "cases": [
            {"label": "dilation", "generator": f"-{_cplx(c)}*z",
             "reference": {"name": "dilation", "params": {"c": {"re": c.real, "im": c.imag}}}},
            {"label": "rotation", "generator": f"i*{rate!r}*z",
             "reference": {"name": "rotation", "params": {"rate": rate}}},
            {"label": "attracting", "generator": "1.0 - z",
             "reference": {"name": "attracting"}},
        ],
        "sweep": {"ts": [0.5, 1.0], "grid_rmax": 0.9, "grid_n": 12},
        "tolerances": {"deviation": 1e-6, "generator_fd": 1e-5},
    }

    def inward():
        # G(z) = -0.9 z + b z^2 with |b| = 0.25 < 0.9 points into the disc on |z| = 1.
        return f"-0.9*z + {_cplx(_phase(rng, 0.25))}*z^2"

    semigroup_check = {
        "suite": "semigroup-check",
        "pairs": [
            {"label": "ode-trivial", "space": {"kind": "hardy", "p": 2.0},
             "flow": {"generator": inward()}, "cocycle": {"type": "trivial"}, "tol": 1e-7},
        ],
        "sweep": {"ts": [0.0, 0.25, 0.5], "grid_rmax": 0.9, "grid_n": 2},
    }
    cocycle_check = {
        "suite": "cocycle-check",
        # A fixed flow: the cocycle's step count moves with the flow's
        # argument by up to 20%, so the seed draws only the weight g.
        "flow": {"generator": "-0.9*z + 0.25*z^2"},
        "cocycles": [
            {"type": "trivial"},
            {"type": "integral", "g": f"-0.5 + {_cplx(_phase(rng, 0.4))}*z^2"},
        ],
        "sweep": {"ts": [0.0, 0.25], "grid_rmax": 0.9, "grid_n": 1},
        "tolerances": {"law": 1e-7, "mdot0": 1e-5},
    }
    return [reconstruct, semigroup_check, cocycle_check]


WORKLOADS = {
    "suite-defaults": _suite_defaults,
    "closed-form-norms": _closed_form_norms,
    "ode-flows": _ode_flows,
}


def build_configs(workload: str, seed: int) -> list:
    """The configs of one workload run; the same seed gives the same configs."""
    return WORKLOADS[workload](random.Random(seed))
