"""Run configuration with defaults < config file < command-line flags.

The config file is a flat ``key = value`` text file (``#`` starts a
comment); keys match the flag names with either ``-`` or ``_`` as the
separator.  The environment variable ``CAPWHITHAM_CONFIG`` may point at
a default file, overridden by the ``--config`` flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import DomainError
from .symmetry_breaking import _ROOT_XTOL, DEFAULT_GRID_SIZE
from .waves import SolverSettings

__all__ = ["RunConfig", "CONFIG_ENV_VAR", "load_config_file", "resolve_config"]

CONFIG_ENV_VAR = "CAPWHITHAM_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    """Tolerances, sizes, parallelism and output destination of a run."""

    tol_root: float = _ROOT_XTOL
    tol_w: float = SolverSettings.tol_w
    tol_newton: float = SolverSettings.tol_newton
    grid: int = DEFAULT_GRID_SIZE
    K: int = SolverSettings.K
    jobs: int = 1
    out: str = "."
    format: str = ""

    def __post_init__(self):
        if not (self.tol_root > 0.0 and self.tol_w > 0.0 and self.tol_newton > 0.0):
            raise DomainError(
                "tolerances must be positive",
                tol_root=self.tol_root,
                tol_w=self.tol_w,
                tol_newton=self.tol_newton,
            )
        if self.grid < 2 or self.K < 1 or self.jobs < 1:
            raise DomainError(
                "sizes must be positive", grid=self.grid, K=self.K, jobs=self.jobs
            )
        if self.format not in ("", "csv", "json"):
            raise DomainError("unknown output format", format=self.format)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind == "float":
        return float(raw)
    if kind == "int":
        return int(raw)
    return raw


def load_config_file(path: str) -> dict:
    """Parse a flat key = value file into typed config overrides."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(
                    "config lines must be key = value", path=path, line=lineno
                )
            key, raw = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _FIELD_TYPES:
                raise DomainError("unknown config key", path=path, key=key)
            overrides[key] = _coerce(key, raw)
    return overrides


def resolve_config(flag_values: dict, config_path: str | None = None) -> RunConfig:
    """Merge defaults, an optional config file, and explicit flag values.

    ``flag_values`` maps names to values or None, such as ``vars()`` of the
    parsed flags; None entries leave the lower-precedence value in place,
    and names that are not RunConfig fields are ignored.
    """
    config = RunConfig()
    path = config_path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        config = replace(config, **load_config_file(path))
    explicit = {
        key: value
        for key, value in flag_values.items()
        if value is not None and key in _FIELD_TYPES
    }
    if explicit:
        config = replace(config, **explicit)
    return config
