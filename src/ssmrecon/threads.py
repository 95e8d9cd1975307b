"""The thread cap, ``SSMRECON_THREADS``, and the capped pool every parallel step uses."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError


def thread_count() -> int:
    """Worker threads a parallel step may use: ``SSMRECON_THREADS`` if set, else the CPU count.

    A value that is not an integer of at least 1 is a ConfigError.
    """
    env = os.environ.get("SSMRECON_THREADS")
    if not env:
        return max(1, os.cpu_count() or 1)
    try:
        n = int(env)
    except ValueError as exc:
        raise ConfigError(f"SSMRECON_THREADS must be an integer, got {env!r}") from exc
    if n < 1:
        raise ConfigError(f"SSMRECON_THREADS must be >= 1, got {env!r}")
    return n


def parallel_map(fn, items) -> list:
    """``[fn(item) for item in items]``, on up to `thread_count` threads, in the order of ``items``."""
    items = list(items)
    workers = min(thread_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
