"""Deterministic job digests for the sweep engine.

A sweep job is ``(experiment, config, seed)`` and its cache identity is
the SHA-256 of the canonical JSON of::

    {"experiment": ..., "config": ..., "seed": ..., "code": code_version()}

Canonicalisation sorts dict keys recursively and normalises tuples to
lists, so the digest is independent of insertion order and of which
process computes it.  ``code_version()`` digests the installed
``repro`` source tree, so any source change — a model fix, a new
default — invalidates every cached result automatically.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError

#: Environment override for the code-version component (useful to pin a
#: cache namespace across a deliberately-compatible refactor, or to
#: segregate experiments without touching code).
CODE_VERSION_ENV = "REPRO_SWEEP_CODE_VERSION"

_JSON_SCALARS = (str, int, float, bool, type(None))


def canonical(obj: Any, _path: str = "config") -> Any:
    """Normalise *obj* to a canonical JSON-able structure.

    Dicts must have string keys (sorted on serialisation); tuples
    become lists.  Anything non-JSON (sets, objects, NaN) is rejected
    with :class:`ConfigurationError` — silent ``repr`` fallbacks would
    make digests depend on memory addresses.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ConfigurationError(
                f"non-finite float at {_path} cannot be digested"
            )
        return obj
    if isinstance(obj, (list, tuple)):
        return [canonical(v, f"{_path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, dict):
        out = {}
        for k in obj:
            if not isinstance(k, str):
                raise ConfigurationError(
                    f"config key {k!r} at {_path} must be a string"
                )
            out[k] = canonical(obj[k], f"{_path}.{k}")
        return out
    raise ConfigurationError(
        f"config value of type {type(obj).__name__} at {_path} is not "
        f"JSON-serialisable; use scalars, lists and string-keyed dicts"
    )


def canonical_json(obj: Any) -> str:
    """Canonical compact JSON used for all digest inputs."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def config_digest(config: dict) -> str:
    """SHA-256 of the canonical JSON of *config*."""
    return _sha256(canonical_json(config))


def payload_checksum(payload: Any) -> str:
    """SHA-256 of a job payload's canonical JSON.

    Computed by the process that produced the payload, verified by the
    parent — the sweep engine's end-to-end integrity check against
    corruption between worker and report.
    """
    return _sha256(canonical_json(payload))


def uniform(key: str) -> float:
    """Deterministic uniform draw in ``[0, 1)`` derived from *key*.

    The backbone of reproducible fault injection: the same
    key yields the same draw on every machine and every run, with no
    process-global RNG state to leak between components.
    """
    h = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(h[:8], "big") / 2**64


_code_version_cache: dict[str, str] = {}


def code_version() -> str:
    """Digest of the installed ``repro`` sources (cached per process).

    Hashes the contents of every ``*.py`` under the package directory,
    keyed by package-relative path, so it is stable across machines,
    working directories and file mtimes — and changes whenever any
    simulator source changes.  Overridable via ``REPRO_SWEEP_CODE_VERSION``.
    """
    override = os.environ.get(CODE_VERSION_ENV)
    if override:
        return override
    cached = _code_version_cache.get("v")
    if cached is not None:
        return cached
    import repro

    pkg_root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(pkg_root.rglob("*.py")):
        rel = path.relative_to(pkg_root).as_posix()
        if "__pycache__" in rel:
            continue  # pragma: no cover - rglob('*.py') skips .pyc anyway
        h.update(rel.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    version = h.hexdigest()
    _code_version_cache["v"] = version
    return version


def job_digest(
    experiment: str, config: dict, seed: int, code: str | None = None
) -> str:
    """The content address of one sweep job."""
    return _sha256(
        canonical_json(
            {
                "experiment": experiment,
                "config": config,
                "seed": int(seed),
                "code": code if code is not None else code_version(),
            }
        )
    )
