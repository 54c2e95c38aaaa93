"""Small shared helpers: seed derivation, number checks and canonical JSON."""

from __future__ import annotations

import hashlib
import json
import math
import numbers

from .errors import ConfigError


def derive_seed(master: int, *parts) -> int:
    """Stable 63-bit seed for a named component of a seeded run.

    Hash-based so that adding components never shifts the streams of existing ones, and
    identical (master, parts) always map to the same seed on every platform. A bool or a
    float ``master`` raises ConfigError instead of truncating into another seed's stream.
    """
    key = json.dumps([check_int("seed", master, -math.inf), *[str(p) for p in parts]], separators=(",", ":"))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as a plain int; ConfigError unless it is an integer (numpy ones too, bools not) in [lo, hi]."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo
            or (hi is not None and value > hi)):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """True for a real number (numpy ones too) that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def canonical_json(obj) -> str:
    """Deterministic JSON used for hashing and line-delimited records."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(obj) -> str:
    """Short stable hash of a JSON-serializable config tree."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:12]
