"""Flat key-value run configuration: the one module that reads config keys.

One `key = value` pair per line, `#` starts a comment, no nesting.  Known keys:

    quad.abs_tol, quad.rel_tol -> quadrature tolerances (rel_tol also sets
                                  where the damped transforms truncate)
    seed                       -> RNG seed for sampled checks (default 42)
    tol.<check family>         -> per-suite tolerance overrides, see DEFAULT_TOLERANCES

``load_config`` reads a file into a dict of key -> text, and
``settings_from_config`` turns that into the :class:`SuiteSettings` of a run.
Any other key, a tolerance that is not positive and finite, a ``quad.*``
value the engine rejects, and a seed that is not a non-negative integer raise
a :class:`ConfigError` naming the key.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .spectral import QuadratureSpec

__all__ = ["ConfigError", "load_config", "SuiteSettings", "settings_from_config",
           "DEFAULT_TOLERANCES"]

DEFAULT_TOLERANCES = {
    "tol.fresnel": 1e-12,
    "tol.modes.matching": 1e-10,
    "tol.modes.divergence": 1e-6,
    "tol.kernels.residue": 1e-6,
    "tol.kernels.te": 1e-8,
    "tol.kernels.assembly": 1e-4,
    "tol.kernels.poisson": 1e-12,
    "tol.kernels.curl": 1e-6,
    "tol.kernels.slope": 0.2,
    "tol.energy": 1e-4,
}

_QUAD_FIELDS = {  # config key -> QuadratureSpec field
    "quad.abs_tol": "abs_tol",
    "quad.rel_tol": "rel_tol",
}
_KNOWN_KEYS = frozenset((*_QUAD_FIELDS, "seed", *DEFAULT_TOLERANCES))


class ConfigError(ValueError):
    pass


@dataclass
class SuiteSettings:
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    seed: int = 42
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))


def load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            _check_keys((key,), f"{path}:{lineno}: ")
            values[key] = value
    return values


def settings_from_config(cfg: dict | None = None, seed: int | None = None) -> SuiteSettings:
    """The settings of a run from a loaded config; ``seed`` overrides the
    config's seed."""
    cfg = cfg or {}
    _check_keys(cfg)
    seed = seed if seed is not None else _config_value(cfg, "seed", int, 42)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    spec = QuadratureSpec()  # a quad.* value that the spec rejects names its key
    for key, name in _QUAD_FIELDS.items():
        spec = _config_value(cfg, key, lambda text: replace(spec, **{name: float(text)}), spec)
    tolerances = dict(DEFAULT_TOLERANCES)
    for key in DEFAULT_TOLERANCES:
        tolerances[key] = value = _config_value(cfg, key, float, tolerances[key])
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"config key {key}: tolerance must be positive and finite, "
                              f"got {cfg[key]!r}")
    return SuiteSettings(spec, seed, tolerances)


def _check_keys(keys, where: str = "") -> None:
    """Raise ConfigError naming the first of ``keys`` that is not a config
    key, after the location prefix ``where``."""
    for key in keys:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{where}unknown config key {key!r}")


def _config_value(cfg: dict[str, str], key: str, cast, default):
    """``cast(cfg[key])``, or ``default`` when the key is not set."""
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from exc

