"""Size bound for the on-disk caches under ``~/.cache/repro``.

Both disk layers — the trace cache (``traces/``) and the result cache
(``results/``) — grow without limit as sweeps vary their parameters, so
each is swept by mtime LRU: when the directory exceeds its byte budget,
the least recently *used* entries (oldest mtime; reads bump it) are
deleted until it fits.  One sweep stats every file of the directory.
The trace cache sweeps after every store (its entries are few and
large); the result cache holds one small file per cell, so it sweeps
once at the end of each ``run_cells`` call that stored results
(:meth:`repro.runner.result_cache.ResultCache.apply_budget`).  The
budget is ``REPRO_CACHE_MAX_MB`` megabytes per directory (default
512); ``0`` or a negative value disables eviction.

``python -m repro cache --stats/--clear`` reports and empties the same
directories.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

#: per-directory budget in megabytes when ``REPRO_CACHE_MAX_MB`` is unset
DEFAULT_MAX_MB = 512

_ENV_VAR = "REPRO_CACHE_MAX_MB"


def cache_root() -> str:
    """The shared parent of every on-disk cache layer."""
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def max_cache_bytes() -> Optional[int]:
    """Per-directory byte budget; ``None`` when eviction is disabled.

    A malformed ``REPRO_CACHE_MAX_MB`` raises :exc:`ValueError` naming
    the variable — silently falling back to the default would let a
    typo (``512MB``, ``1,024``) defeat the budget the user asked for.
    """
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_MAX_MB * 1024 * 1024
    try:
        megabytes = float(raw)
    except ValueError:
        raise ValueError(
            f"{_ENV_VAR} must be a number of megabytes "
            f"(0 or negative disables eviction), got {raw!r}") from None
    if megabytes != megabytes:  # NaN
        raise ValueError(f"{_ENV_VAR} must be a number of megabytes, "
                         f"got {raw!r}")
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


def _scan(directory: str) -> List[Tuple[float, int, str]]:
    """``(mtime, size, path)`` per regular file, oldest first."""
    entries: List[Tuple[float, int, str]] = []
    try:
        with os.scandir(directory) as it:
            for entry in it:
                try:
                    if not entry.is_file(follow_symlinks=False):
                        continue
                    stat = entry.stat(follow_symlinks=False)
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, entry.path))
    except OSError:
        return []
    entries.sort()
    return entries


def dir_stats(directory: Optional[str]) -> Dict[str, int]:
    """``{"files": n, "bytes": total}`` for one cache directory."""
    if not directory:
        return {"files": 0, "bytes": 0}
    entries = _scan(directory)
    return {"files": len(entries),
            "bytes": sum(size for _, size, _ in entries)}


def evict_lru(directory: str, max_bytes: int) -> int:
    """Delete oldest-mtime files until the directory fits; returns the
    number of files removed."""
    entries = _scan(directory)
    total = sum(size for _, size, _ in entries)
    removed = 0
    for _mtime, size, path in entries:
        if total <= max_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
        removed += 1
    return removed


def maybe_evict(directory: Optional[str]) -> int:
    """Apply the environment-configured budget to one cache directory."""
    if not directory:
        return 0
    budget = max_cache_bytes()
    if budget is None:
        return 0
    return evict_lru(directory, budget)


def clear_dir(directory: Optional[str]) -> Dict[str, int]:
    """Delete every file in one cache directory (non-recursive)."""
    if not directory:
        return {"files": 0, "bytes": 0}
    entries = _scan(directory)
    removed = 0
    freed = 0
    for _mtime, size, path in entries:
        try:
            os.unlink(path)
        except OSError:
            continue
        removed += 1
        freed += size
    return {"files": removed, "bytes": freed}
