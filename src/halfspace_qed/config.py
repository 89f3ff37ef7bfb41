"""Flat key-value run configuration and the check bounds of the verifier.

A run is a :class:`QuadratureSpec` plus an RNG seed; the seed is the
``verify --seed`` flag.  A config file sets the spec: one ``key = value``
pair per line, ``#`` starts a comment, no nesting.  The known keys are

    quad.abs_tol, quad.rel_tol -> quadrature tolerances (rel_tol also sets
                                  where the damped transforms truncate)

``load_config`` reads a file into a dict of key -> text, and
``spec_from_config`` turns that into the spec of a run.  Any other key and a
value the spec rejects raise a :class:`ConfigError` naming the key.

``DEFAULT_TOLERANCES`` is the one table of check bounds: every check of the
verifier reads its bound from it, and no run can change one.
"""
from __future__ import annotations

from dataclasses import replace

from .spectral import QuadratureSpec

__all__ = ["ConfigError", "load_config", "spec_from_config", "DEFAULT_TOLERANCES"]

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
    "tol.energy.image": 1e-12,
}

_QUAD_FIELDS = {  # config key -> QuadratureSpec field
    "quad.abs_tol": "abs_tol",
    "quad.rel_tol": "rel_tol",
}


class ConfigError(ValueError):
    pass


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


def spec_from_config(cfg: dict[str, str]) -> QuadratureSpec:
    """The quadrature spec of a run from a loaded config."""
    _check_keys(cfg)
    spec = QuadratureSpec()
    for key, name in _QUAD_FIELDS.items():
        if key in cfg:  # a value that the spec rejects names its key
            try:
                spec = replace(spec, **{name: float(cfg[key])})
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
    return spec


def _check_keys(keys, where: str = "") -> None:
    """Raise ConfigError naming the first of ``keys`` that is not a config
    key, after the location prefix ``where``."""
    for key in keys:
        if key not in _QUAD_FIELDS:
            raise ConfigError(f"{where}unknown config key {key!r}")
