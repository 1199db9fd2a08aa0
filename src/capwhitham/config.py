"""Run configuration with defaults < config file < command-line flags.

The config file is a flat ``key = value`` text file (``#`` starts a
comment); keys match the flag names with either ``-`` or ``_`` as the
separator.  The environment variable ``CAPWHITHAM_CONFIG`` may point at
a default file, overridden by the ``--config`` flag.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .errors import DomainError
from .symmetry_breaking import _ROOT_XTOL, DEFAULT_GRID_SIZE
from .waves import SolverSettings

__all__ = ["RunConfig", "CONFIG_ENV_VAR", "load_config_file", "resolve_config"]

CONFIG_ENV_VAR = "CAPWHITHAM_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    """Tolerances, sizes, parallelism and output destination of a run.

    ``tol_root`` applies to ``phi root`` only; ``pairs --refine`` always
    refines roots to the fixed ``_ROOT_XTOL``.
    """

    tol_root: float = _ROOT_XTOL
    tol_w: float = SolverSettings.tol_w
    tol_newton: float = SolverSettings.tol_newton
    grid: int = DEFAULT_GRID_SIZE
    K: int = SolverSettings.K
    jobs: int = 1
    out: str = "."
    format: str = ""

    def __post_init__(self):
        if not all(0.0 < tol < math.inf for tol in (self.tol_root, self.tol_w, self.tol_newton)):
            raise DomainError(
                "tolerances must be positive and finite",
                tol_root=self.tol_root,
                tol_w=self.tol_w,
                tol_newton=self.tol_newton,
            )
        if self.grid < 2 or self.K < 1 or self.jobs < 1:
            raise DomainError(
                "sizes need grid >= 2, K >= 1 and jobs >= 1",
                grid=self.grid, K=self.K, jobs=self.jobs,
            )
        if self.format not in ("", "csv", "json"):
            raise DomainError("unknown output format", format=self.format)


# Each field's default, whose type parses that key's config-file values.
_DEFAULTS = dict(vars(RunConfig()))


def load_config_file(path: str) -> dict:
    """Parse a flat key = value file into typed config overrides.

    An unreadable file, a malformed line, an unknown key and a value of
    the wrong type raise ``DomainError`` naming the path and, for a
    line, its number and key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:
        raise DomainError("cannot read config file", path=path, reason=str(exc)) from None
    overrides = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(
                "config lines must be key = value", path=path, line=lineno
            )
        key, raw = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _DEFAULTS:
            raise DomainError("unknown config key", path=path, line=lineno, key=key)
        try:
            overrides[key] = type(_DEFAULTS[key])(raw)
        except ValueError:
            raise DomainError(
                "config value has the wrong type",
                path=path, line=lineno, key=key, value=raw,
            ) from None
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
        if value is not None and key in _DEFAULTS
    }
    if explicit:
        config = replace(config, **explicit)
    return config
