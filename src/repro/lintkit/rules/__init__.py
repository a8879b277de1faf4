"""Built-in rule plugins; importing this package registers them all."""

from __future__ import annotations

from . import (  # noqa: F401
    rpl001_unit_literals,
    rpl002_dimensions,
    rpl003_determinism,
    rpl004_facade,
    rpl005_obs_guard,
    rpl006_swallow,
    rpl007_async_blocking,
    rpl008_fork_safety,
    rpl011_deadline,
)
