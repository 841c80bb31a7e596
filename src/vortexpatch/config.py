"""Run configuration: strict schema, defaults, canonical hashing.

Unknown keys are rejected at every level (silent misconfiguration is the
main failure mode of research CLIs); the hash is over a canonical dump with
sorted keys so semantically identical configs hash identically.
"""

import copy
import hashlib
import json

import numpy as np

from .errors import ConfigError

# schema: key -> (types, default, validator or None); None default = required
_DOMAIN_KEYS = {
    "kind": (str, "disk", None),
    "radius": ((int, float), 1.0, lambda v: v > 0),
    "center": (list, [0.0, 0.0], lambda v: len(v) == 2),
    "a": ((int, float), 1.0, lambda v: v > 0),
    "b": ((int, float), 0.6, lambda v: v > 0),
    "wobble": ((int, float), 0.12, None),
    "mode": (int, 3, lambda v: v >= 1),
    "samples": ((list, type(None)), None, None),
    "n_boundary": (int, 512, lambda v: v >= 32),
    "big_r": ((int, float, type(None)), None, None),
    "backend": ((str, type(None)), None,
                lambda v: v in (None, "images", "boundary-integral")),
}

_VORTEX_KEYS = {
    "kappa_plus": (list, None, None),
    "kappa_minus": (list, [], None),
    "seeds": ((list, type(None)), None, None),
    "positions": ((list, type(None)), None, None),
    "subdomain_radius": ((int, float, list, type(None)), None, None),
}

_BACKGROUND_KEYS = {
    "kind": (str, "zero",
             lambda v: v in ("zero", "vn-fourier", "vn-samples", "harmonic-poly")),
    "offset": ((int, float), 0.0, None),
    "cos": (dict, {}, None),
    "sin": (dict, {}, None),
    "values": (list, [], None),
    "coeffs": (list, [], None),
}

_PROFILE_KEYS = {
    "p": ((int, float), 2.0, lambda v: v > 1),
}

_GRID_KEYS = {
    "h": ((int, float, type(None)), None, lambda v: v is None or v > 0),
    "points_per_core": ((int, float), 8.0, lambda v: v >= 4),
}

_SOLVER_KEYS = {
    "tol": ((int, float), 1e-10, lambda v: v > 0),
    "max_iter": (int, 60, lambda v: v >= 1),
    "continuation": (bool, True, None),
}

_SEARCH_KEYS = {
    "tol": ((int, float, type(None)), None, None),
    "max_iter": (int, 200, lambda v: v >= 1),
    "multistart": (int, 0, lambda v: v >= 0),
}

_OUTPUT_KEYS = {
    "precision": (int, 17, lambda v: 6 <= v <= 17),
}

_TOP_KEYS = {
    "domain": (dict, {}, None),
    "vortices": (dict, None, None),
    "background": (dict, {}, None),
    "profile": (dict, {}, None),
    "eps": (list, None, None),
    "grid": (dict, {}, None),
    "solver": (dict, {}, None),
    "search": (dict, {}, None),
    "output": (dict, {}, None),
    "seed": (int, 0, None),
}

_SECTIONS = {
    "domain": _DOMAIN_KEYS, "vortices": _VORTEX_KEYS,
    "background": _BACKGROUND_KEYS, "profile": _PROFILE_KEYS,
    "grid": _GRID_KEYS, "solver": _SOLVER_KEYS, "search": _SEARCH_KEYS,
    "output": _OUTPUT_KEYS,
}


def _type_ok(val, types):
    """isinstance, except that a bool is not a number: isinstance(True, int)
    holds, and {"tol": true} would read as 1.0."""
    types = types if isinstance(types, tuple) else (types,)
    return isinstance(val, types) and (bool in types or not isinstance(val, bool))


def _apply_schema(section, data, schema):
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(data) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r}: {sorted(unknown)}")
    out = {}
    for key, (types, default, check) in schema.items():
        if key in data:
            val = data[key]
        elif default is None and type(None) not in (types if isinstance(types, tuple) else (types,)):
            raise ConfigError(f"missing required key {section!r}.{key!r}")
        else:
            # a copy: every config gets its own lists and dicts
            val = copy.deepcopy(default)
        if not _type_ok(val, types):
            raise ConfigError(f"{section!r}.{key!r} has wrong type {type(val).__name__}")
        if check is not None and val is not None and not check(val):
            raise ConfigError(f"{section!r}.{key!r} fails validation: {val!r}")
        out[key] = val
    return out


def validate_config(raw):
    """Validate a raw dict; returns the fully-defaulted config."""
    cfg = _apply_schema("config", raw, _TOP_KEYS)
    for name, schema in _SECTIONS.items():
        cfg[name] = _apply_schema(name, cfg[name], schema)

    eps = cfg["eps"]
    if not eps or not all(_type_ok(e, (int, float)) and e > 0 for e in eps):
        raise ConfigError("eps must be a nonempty list of positive numbers")
    if any(e >= 1.0 for e in eps):
        raise ConfigError("eps values must be below 1")
    if sorted(eps, reverse=True) != list(eps):
        raise ConfigError("eps values must be sorted descending (continuation order)")

    v = cfg["vortices"]
    m = len(v["kappa_plus"])
    n = len(v["kappa_minus"])
    if m + n < 1:
        raise ConfigError("need at least one vortex (m + n >= 1)")
    if any(k <= 0 for k in v["kappa_plus"] + v["kappa_minus"]):
        raise ConfigError("vortex strengths must be positive")
    seeds = v["positions"] if v["positions"] is not None else v["seeds"]
    if seeds is None or len(seeds) != m + n:
        raise ConfigError("need one seed/position per vortex (plus block first)")
    rad = v["subdomain_radius"]
    radii = [] if rad is None else rad if isinstance(rad, list) else [rad]
    if (isinstance(rad, list) and len(rad) != m + n) or \
            not all(_type_ok(r, (int, float)) and r > 0 for r in radii):
        raise ConfigError("vortices.subdomain_radius must be a positive number "
                          "or a list of m + n positive numbers")

    d = cfg["domain"]
    if d["kind"] not in ("disk", "ellipse", "blob", "samples"):
        raise ConfigError(f"unknown domain kind {d['kind']!r}")
    if d["kind"] == "samples" and not d["samples"]:
        raise ConfigError("domain kind 'samples' needs boundary samples")
    return cfg


def load_config(path):
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return validate_config(raw)


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(repr(float(obj)))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def config_hash(cfg):
    """sha256 over the canonical dump; reordered keys hash identically."""
    payload = json.dumps(_canonical(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
