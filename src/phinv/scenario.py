"""Scenario configuration: JSON parsing, validation, profiles, provenance.

A scenario names the Hamiltonian coefficient profiles, the initial metric
state, the grid, which invariant eigenstates to track, and the tolerances
the verification report is judged against. Parsing applies documented
defaults and rejects anything violating the config invariants, naming the
offending field; the resolved config is canonically serialized and hashed
so runs are reproducible and artifacts can be paired with their config.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .errors import ConfigError, FormatError

GENERATOR_PROFILES = ("re_omega", "im_omega", "im_beta")
CHECK_PROFILES = (
    "re_omega", "im_omega", "re_alpha", "im_alpha", "re_beta", "im_beta"
)


class Check(NamedTuple):
    """A row of report.json: name, default tolerance and, where verify
    recomputes it from series.csv, the column and the margin (the rows at
    each end of the report grid where the meter does not apply). A drift
    check judges its series' change from the first value."""

    name: str
    tolerance: float
    column: str | None = None
    margin: int = 0
    drift: bool = False


# The one list of check rows, in report order; run and verify read it.
CHECKS = (
    Check("schrodinger", 1e-6, "schrodinger_residual", 2),
    Check("invariant", 5e-6, "invariant_residual", 4),
    Check("dyson", 5e-6, "dyson_residual", 4),
    Check("eta_norm_drift", 1e-7, "eta_norm", 0, drift=True),
    Check("im_w", 1e-10),
    Check("rayleigh", 1e-8),
    Check("hermitian_image", 1e-9),
    Check("constraint", 1e-12),
    Check("eta_positivity", 0.0),
    Check("tail_support", 1e-6, "tail_support", 0),
    Check("gram", 1e-6),
    Check("canonical", 1e-9),
    Check("cross_representation", 1e-6),
    Check("oracle_overlap", 1e-6),
    Check("oracle_vector", 1e-5),
    Check("oracle_eta_drift", 1e-7),
    Check("hermitian_side", 1e-6),
)

# local_error is a flow-guard threshold, not a check: it has no row.
DEFAULT_TOLERANCES = {**{c.name: c.tolerance for c in CHECKS}, "local_error": 1e-8}

_DEFAULTS = {
    "dim": 64,
    "t_max": 5.0,
    "dt": 1e-3,
    "mode": "generator",
    "seed": 0,
    "quantum_numbers": [0],
    "superposition": [[1.0, 0.0]],
}


@dataclass(frozen=True)
class Profile:
    """Closed-form scalar of time: constant, linear, or A + B sin(Ct + D)."""

    kind: str
    params: tuple[tuple[str, float], ...]

    def __call__(self, t):
        """The profile at a time, or elementwise at an array of times."""
        p = dict(self.params)
        if self.kind == "constant":
            return np.full(np.shape(t), p["value"])
        if self.kind == "linear":
            return p["intercept"] + p["slope"] * t
        return p["offset"] + p["amplitude"] * np.sin(p["frequency"] * t + p["phase"])

    def to_json(self) -> dict[str, float | str]:
        out: dict[str, float | str] = {"kind": self.kind}
        out.update(dict(self.params))
        return out


_PROFILE_PARAMS = {
    "constant": ("value",),
    "linear": ("intercept", "slope"),
    "sinusoid": ("offset", "amplitude", "frequency", "phase"),
}
_PROFILE_DEFAULTS = {"sinusoid": {"phase": 0.0}}


def _parse_profile(name: str, raw: Any) -> Profile:
    where = f"profiles.{name}"
    if not isinstance(raw, dict):
        raise ConfigError(where, "profile must be an object with a 'kind'")
    kind = raw.get("kind")
    if kind not in _PROFILE_PARAMS:
        raise ConfigError(
            where, f"unknown profile kind {kind!r}; expected one of {sorted(_PROFILE_PARAMS)}"
        )
    wanted = _PROFILE_PARAMS[kind]
    defaults = _PROFILE_DEFAULTS.get(kind, {})
    params = []
    for key in wanted:
        if key in raw:
            val = raw[key]
        elif key in defaults:
            val = defaults[key]
        else:
            raise ConfigError(f"{where}.{key}", f"missing parameter for {kind} profile")
        params.append((key, _require_number(val, f"{where}.{key}")))
    extra = set(raw) - {"kind", *wanted}
    if extra:
        raise ConfigError(where, f"unknown parameters {sorted(extra)} for {kind} profile")
    return Profile(kind=kind, params=tuple(params))


@dataclass(frozen=True)
class ScenarioConfig:
    dim: int
    t_max: float
    dt: float
    mode: str
    profiles: dict[str, Profile]
    phi0: float
    vtheta0: float
    quantum_numbers: tuple[int, ...]
    superposition: tuple[complex, ...]
    tolerances: dict[str, float] = field(default_factory=dict)
    seed: int = 0

    def effective(self) -> dict[str, Any]:
        """Fully resolved config as plain JSON data (defaults included)."""
        return {
            "dim": self.dim,
            "t_max": self.t_max,
            "dt": self.dt,
            "mode": self.mode,
            "seed": self.seed,
            "initial_metric": {"phi_cap": self.phi0, "vtheta_zero": self.vtheta0},
            "profiles": {k: self.profiles[k].to_json() for k in sorted(self.profiles)},
            "quantum_numbers": list(self.quantum_numbers),
            "superposition": [[c.real, c.imag] for c in self.superposition],
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
        }

    def config_hash(self) -> str:
        return canonical_hash(self.effective())


def canonical_hash(doc: Any) -> str:
    """sha256 of the canonical JSON of doc (sorted keys, no whitespace), the
    config hash of an effective config; a JSON round trip keeps it."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _require_number(raw: Any, where: str) -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ConfigError(where, "must be a number")
    if not abs(raw) <= sys.float_info.max:
        raise ConfigError(where, "must be a finite number")
    return float(raw)


def _require_int(raw: Any, where: str, lo: int, hi: float = math.inf) -> int:
    """raw if it is an integer (a bool is not) in [lo, hi], else a
    ConfigError naming where."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ConfigError(where, "must be an integer")
    if not lo <= raw <= hi:
        bound = f"be >= {lo}" if hi == math.inf else f"lie in [{lo}, {hi}]"
        raise ConfigError(where, f"must {bound}, got {raw}")
    return raw


def tolerance_overrides(pairs: Iterable[tuple[str, Any]]) -> dict[str, float]:
    """(name, value) pairs as a config's `tolerances`, `phinv run --tolerance`
    and `phinv verify --tolerance` accept them: known names, finite numbers
    >= 0. A later pair for a name replaces an earlier one."""
    out = {}
    for name, value in pairs:
        if name not in DEFAULT_TOLERANCES:
            raise ConfigError(f"tolerances.{name}", "unknown tolerance name")
        out[name] = _require_number(value, f"tolerances.{name}")
        if out[name] < 0:
            raise ConfigError(f"tolerances.{name}", f"must be >= 0, got {out[name]}")
    return out


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(
            f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "scenario must be a JSON object")

    known = {
        "dim", "t_max", "dt", "mode", "profiles", "initial_metric",
        "quantum_numbers", "superposition", "tolerances", "seed",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown configuration key")

    merged = {**_DEFAULTS, **doc}

    dim = _require_int(merged["dim"], "dim", 8, 256)

    dt = _require_number(merged["dt"], "dt")
    if not dt > 0:
        raise ConfigError("dt", f"must be positive, got {dt}")
    t_max = _require_number(merged["t_max"], "t_max")
    if t_max < 10 * dt:
        raise ConfigError("t_max", f"must be at least 10*dt = {10 * dt}, got {t_max}")
    steps = round(t_max / dt)
    if abs(steps * dt - t_max) > 1e-9 * max(1.0, t_max):
        raise ConfigError("t_max", "must be an integer multiple of dt")

    mode = merged["mode"]
    if mode not in ("generator", "check"):
        raise ConfigError("mode", f"must be 'generator' or 'check', got {mode!r}")

    if "initial_metric" not in doc:
        raise ConfigError("initial_metric", "missing")
    im = doc["initial_metric"]
    if not isinstance(im, dict):
        raise ConfigError("initial_metric", "must be an object")
    if "phi_cap" not in im:
        raise ConfigError("initial_metric.phi_cap", "missing")
    if "vtheta_zero" not in im:
        raise ConfigError("initial_metric.vtheta_zero", "missing")
    phi0 = _require_number(im["phi_cap"], "initial_metric.phi_cap")
    vtheta0 = _require_number(im["vtheta_zero"], "initial_metric.vtheta_zero")
    if not vtheta0 > 0:
        raise ConfigError(
            "initial_metric.vtheta_zero",
            f"must be positive (the metric factor vtheta0^K0 requires it), got {vtheta0}",
        )
    extra_im = set(im) - {"phi_cap", "vtheta_zero"}
    if extra_im:
        raise ConfigError(f"initial_metric.{sorted(extra_im)[0]}", "unknown key")

    if "profiles" not in doc:
        raise ConfigError("profiles", "missing")
    raw_profiles = doc["profiles"]
    if not isinstance(raw_profiles, dict):
        raise ConfigError("profiles", "must be an object")
    wanted = GENERATOR_PROFILES if mode == "generator" else CHECK_PROFILES
    for name in wanted:
        if name not in raw_profiles:
            raise ConfigError(f"profiles.{name}", f"missing (required in {mode} mode)")
    extra = set(raw_profiles) - set(wanted)
    if extra:
        raise ConfigError(
            f"profiles.{sorted(extra)[0]}", f"not a {mode}-mode profile name"
        )
    profiles = {name: _parse_profile(name, raw_profiles[name]) for name in wanted}

    qn_raw = merged["quantum_numbers"]
    if not isinstance(qn_raw, list) or not qn_raw:
        raise ConfigError("quantum_numbers", "must be a non-empty list of integers")
    qns = []
    for q in qn_raw:
        try:
            qns.append(_require_int(q, "quantum_numbers", 0))
        except ConfigError:
            raise ConfigError(
                "quantum_numbers", f"entries must be integers >= 0, got {q!r}"
            ) from None
    if len(set(qns)) != len(qns):
        raise ConfigError("quantum_numbers", "entries must be distinct")
    if max(qns) > dim / 4:
        raise ConfigError(
            "quantum_numbers",
            f"max quantum number {max(qns)} exceeds dim/4 = {dim / 4} "
            "(truncation-tail policy)",
        )

    sp_raw = merged["superposition"]
    if not isinstance(sp_raw, list) or len(sp_raw) != len(qns):
        raise ConfigError(
            "superposition",
            f"must list one [re, im] pair per quantum number ({len(qns)} expected)",
        )
    coeffs = []
    for i, pair in enumerate(sp_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError("superposition", f"entry {i} must be a [re, im] pair")
        coeffs.append(complex(*(_require_number(v, f"superposition[{i}]") for v in pair)))
    if all(c == 0 for c in coeffs):
        raise ConfigError("superposition", "at least one coefficient must be nonzero")

    tol_raw = merged.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ConfigError("tolerances", "must be an object")
    tol = {**DEFAULT_TOLERANCES, **tolerance_overrides(tol_raw.items())}

    seed = _require_int(merged["seed"], "seed", 0)

    order = sorted(range(len(qns)), key=lambda i: qns[i])
    return ScenarioConfig(
        dim=dim,
        t_max=t_max,
        dt=dt,
        mode=mode,
        profiles=profiles,
        phi0=phi0,
        vtheta0=vtheta0,
        quantum_numbers=tuple(qns[i] for i in order),
        superposition=tuple(coeffs[i] for i in order),
        tolerances=tol,
        seed=seed,
    )


def demo_scenarios() -> dict[str, dict[str, Any]]:
    """The two built-in scenarios: the harmonic baseline and a gentle
    time-dependent run that stays away from the constraint singularity."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    harmonic = {
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
        "superposition": [[inv_sqrt2, 0.0], [inv_sqrt2, 0.0]] + [[0.0, 0.0]] * 5,
    }
    gentle = {
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
        "superposition": [[inv_sqrt2, 0.0], [inv_sqrt2, 0.0]],
    }
    return {"demo_harmonic": harmonic, "demo_td": gentle}
