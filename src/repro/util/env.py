"""``CONCORD_*`` environment defaults, parsed in one place.

The env vars let CI (and users) run an entire existing test or serve
workload under a different storage backend or chunking scheme without
touching call sites.  A typo must not silently mean the
default, so anything but unset/empty or a valid value raises.
"""

from __future__ import annotations

import os

__all__ = ["env_default"]


def env_default(name: str, default, choices: tuple[str, ...] | None = None):
    """``$name`` if set and non-empty, else ``default``.

    With ``choices`` the value must be one of them (case-insensitive;
    returned lower-cased); without, a positive integer.  Anything else
    raises ``ValueError`` naming the variable and the valid values.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    if choices is not None:
        if raw.lower() in choices:
            return raw.lower()
        expected = "one of " + ", ".join(choices)
    else:
        if raw.isdecimal() and int(raw) >= 1:
            return int(raw)
        expected = "an integer >= 1"
    raise ValueError(f"${name}={raw!r} is not valid: expected {expected}")
