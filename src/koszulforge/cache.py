"""Content-addressed cache of expensive computation results.

Keys are SHA-256 hashes of canonical JSON of the full inputs (presentation,
order, operation, bounds), so collisions are impossible by construction and
intact entries are immutable once written; a damaged entry reads as a miss
and is rewritten.  Writes are atomic (temp file plus rename); an unwritable
directory degrades to no caching with a warning, and a failed write costs
only the entry, with a warning.  ``source_digest`` fingerprints the code
itself, so that a caller can put it in each key and an entry does not
outlive the code that computed it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path


def cache_key(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.cache
def source_digest() -> str:
    """SHA-256 of the package's own ``.py`` sources, read once per process:
    an entry that other code wrote has another key."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


class ResultCache:
    """A directory of immutable JSON entries addressed by content hash."""

    def __init__(self, directory: str | os.PathLike | None):
        self.directory = Path(directory) if directory else None
        self.enabled = self.directory is not None
        if self.enabled:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                probe = self.directory / ".writable"
                probe.write_text("")
                probe.unlink()
            except OSError as exc:
                print(f"warning: cache directory unusable ({exc}); caching disabled",
                      file=sys.stderr)
                self.enabled = False

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored entry, or None when it is missing or damaged."""
        if not self.enabled:
            return None
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or "value" not in entry:
            return None
        return entry

    def put(self, key: str, value: dict) -> None:
        """Store an entry; an intact existing entry is never overwritten.  A
        failed write (a full disk, say) only warns: the value stands, and no
        temp file is left behind."""
        if not self.enabled or self.get(key) is not None:
            return
        entry = {"key": key, "created_at": time.time(), "value": value}
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except OSError as exc:
            print(f"warning: cache write failed ({exc}); result not cached",
                  file=sys.stderr)
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def get_value(self, key: str) -> dict | None:
        entry = self.get(key)
        return entry["value"] if entry else None


def default_cache_dir() -> str | None:
    env = os.environ.get("KOSZUL_FORGE_CACHE")
    if env:
        return env
    return None
