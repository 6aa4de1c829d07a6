"""Seeded scenario generator for the benchmark workloads.

Each workload is one of the two shipped demo drives, at a horizon short
enough that a measured run holds several repetitions. Seed 0 gives the demo
drive unchanged; any other seed perturbs it inside the operating envelope
README describes: |Phi| stays small, vtheta0 starts at 1 and 2 Phi^2 - vtheta0
stays far from its pole. The static harmonic workload varies only re_omega and
the superposition, so its metric stays the identity.

The base drives are copied here rather than read from phinv, so a later change
to the program's demos cannot silently change the benchmark's inputs;
test_perfbench.py checks that seed 0 still hash-matches demo_scenarios().
"""

from __future__ import annotations

import copy
import math
import random

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

DEMO_HARMONIC = {
    "dim": 64,
    "t_max": 5.0,
    "dt": 1e-3,
    "mode": "generator",
    "seed": 0,
    "initial_metric": {"phi_cap": 0.0, "vtheta_zero": 1.0},
    "profiles": {
        "re_omega": {"kind": "constant", "value": 1.0},
        "im_omega": {"kind": "constant", "value": 0.0},
        "im_beta": {"kind": "constant", "value": 0.0},
    },
    "quantum_numbers": [0, 1, 2, 3, 4, 5, 6],
    "superposition": [[_INV_SQRT2, 0.0], [_INV_SQRT2, 0.0]] + [[0.0, 0.0]] * 5,
}

DEMO_TD = {
    "dim": 64,
    "t_max": 5.0,
    "dt": 1e-3,
    "mode": "generator",
    "seed": 0,
    "initial_metric": {"phi_cap": 0.2, "vtheta_zero": 1.0},
    "profiles": {
        "re_omega": {"kind": "constant", "value": 1.0},
        "im_omega": {
            "kind": "sinusoid",
            "offset": 0.0,
            "amplitude": 0.1,
            "frequency": 1.0,
            "phase": 0.0,
        },
        "im_beta": {"kind": "constant", "value": -0.02},
    },
    "quantum_numbers": [0, 1],
    "superposition": [[_INV_SQRT2, 0.0], [_INV_SQRT2, 0.0]],
}

# name -> (base drive, fields replaced at every seed, benchmark horizon).
# The horizons keep one repetition at 4-15 s on two cores, so a sweep of 70
# benchmark runs over the three workloads fits in under an hour. Each
# time-dependent horizon still holds more report times than the 256-entry
# metric caches, so they miss as they do on the demo horizon. phinv's direct
# RK4 oracle covers the first 0.5 of any run: half of td_gentle and
# harmonic_static, but all of td_dim192, which is too slow for a longer one.
WORKLOADS = {
    "td_gentle": (DEMO_TD, {}, 1.0),
    "harmonic_static": (DEMO_HARMONIC, {}, 1.0),
    "td_dim192": (DEMO_TD, {"dim": 192}, 0.27),
}


def _perturb_td(doc: dict, rng: random.Random) -> None:
    # Phi(0) and the amplitude stay within 25 % of the demo drive, the
    # frequency within 50 %. Wider ranges (Phi(0) up to 0.3, amplitude up to
    # 0.15) reach a drive on which phinv fails oracle_overlap and
    # oracle_eta_drift; perfbench/README.md records it as an open defect.
    doc["initial_metric"]["phi_cap"] = 0.2 * rng.uniform(0.75, 1.25)
    im_omega = doc["profiles"]["im_omega"]
    im_omega["amplitude"] = 0.1 * rng.uniform(0.75, 1.25)
    im_omega["frequency"] = rng.uniform(0.5, 1.5)
    im_omega["phase"] = rng.uniform(0.0, 2.0 * math.pi)
    doc["profiles"]["im_beta"]["value"] = -0.02 * rng.uniform(0.5, 1.5)


def _perturb_harmonic(doc: dict, rng: random.Random) -> None:
    doc["profiles"]["re_omega"]["value"] = rng.uniform(0.8, 1.2)
    pairs = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in doc["quantum_numbers"]]
    norm = math.sqrt(sum(re * re + im * im for re, im in pairs))
    doc["superposition"] = [[re / norm, im / norm] for re, im in pairs]


def make_scenario(workload: str, seed: int) -> dict:
    """Scenario document for one workload and seed, at the workload's
    benchmark horizon. With t_max set back to the demo horizon (5.0), seed 0
    is the shipped demo config exactly."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    base, fixed, horizon = WORKLOADS[workload]
    doc = copy.deepcopy(base)
    doc.update(fixed)
    doc["t_max"] = horizon
    if seed != 0:
        rng = random.Random(seed)
        if base is DEMO_TD:
            _perturb_td(doc, rng)
        else:
            _perturb_harmonic(doc, rng)
    return doc
