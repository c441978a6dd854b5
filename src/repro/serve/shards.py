"""Server-side administration of the shared sharded cache directory.

The cache's correctness machinery lives in :mod:`repro.smt.qcache` (shard
layout, advisory locks, checksums, quarantine).  This module is the
*operator's* view of one cache directory: make sure it exists before
workers start hammering it, and summarize / audit its contents for
``/v1/stats`` and the bench harness.
"""

from __future__ import annotations

import json
import os

from ..smt.qcache import FORMAT_TAG
from ..smt.qcache import _verify_payload  # the one shared verifier

__all__ = ["ensure_layout", "scan_shards", "verify_shards"]


def ensure_layout(disk_dir: str | os.PathLike) -> None:
    """Create ``disk_dir`` if needed, once at server startup, before the
    worker pool exists."""
    os.makedirs(disk_dir, exist_ok=True)


def _shard_dirs(root: str) -> list[str]:
    try:
        names = os.listdir(root)
    except OSError:
        return []
    return sorted(
        os.path.join(root, n) for n in names
        if len(n) == 2 and os.path.isdir(os.path.join(root, n)))


def scan_shards(disk_dir: str | os.PathLike) -> dict:
    """Cheap inventory of a cache directory: entry/corrupt counts and
    total bytes, per the whole store (no payloads are read)."""
    root = os.fspath(disk_dir)
    entries = corrupt = size = 0
    shards = _shard_dirs(root)
    for shard in shards:
        try:
            names = os.listdir(shard)
        except OSError:  # pragma: no cover - shard vanished mid-scan
            continue
        for name in names:
            if name.endswith(".json"):
                entries += 1
            elif name.endswith(".corrupt"):
                corrupt += 1
            else:
                continue
            try:
                size += os.path.getsize(os.path.join(shard, name))
            except OSError:  # pragma: no cover
                pass
    return {"dir": root, "shards": len(shards), "entries": entries,
            "corrupt": corrupt, "bytes": size}


def verify_shards(disk_dir: str | os.PathLike,
                  format_tag: str = FORMAT_TAG) -> dict:
    """Audit every entry's checksum — the deep integrity pass.

    Reads and re-verifies each sharded entry exactly as a lookup would,
    without quarantining anything (the audit observes, the hot path
    acts).  Used by the concurrency tests and the bench harness to prove
    that N writers left zero damaged entries behind.
    """
    root = os.fspath(disk_dir)
    ok = stale = bad = 0
    for shard in _shard_dirs(root):
        try:
            names = os.listdir(shard)
        except OSError:  # pragma: no cover
            continue
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(shard, name),
                          encoding="utf-8") as fh:
                    state = _verify_payload(json.load(fh), format_tag)
            except (OSError, ValueError):
                state = "bad"
            if state == "ok":
                ok += 1
            elif state == "stale":
                stale += 1
            else:
                bad += 1
    return {"dir": root, "ok": ok, "stale": stale, "bad": bad}
