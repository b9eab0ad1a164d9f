"""Persistent result cache keyed by content hashes.

Entries are JSON values, re-derivable from scratch; the CLI stores each
result as its JSON output text in a sealed envelope (cli._sealedText), so a
hit decodes one string and nothing else.  The key carries a hash
of the package's sources, so any change to the code silently starts a fresh
namespace instead of serving stale values.  Writes go through a temp file
and an atomic rename.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile


def hashSources(directory: str) -> str:
    """sha256 over the names and bytes of the *.py files in directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), "rb") as fh:
                data = fh.read()
            h.update(f"{name}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


@functools.cache
def sourceTag() -> str:
    """Hash of this package's sources, computed once, at first use."""
    return hashSources(os.path.dirname(os.path.abspath(__file__)))


class DiskCache:
    def __init__(self, root: str | None):
        self.root = root
        if root:
            os.makedirs(root, exist_ok=True)

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def key(self, family: str, rank: int, kind: str, params) -> str:
        blob = json.dumps(
            {"family": family, "rank": rank, "kind": kind, "params": params,
             "source": sourceTag()},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    def get(self, key: str):
        if not self.enabled:
            return None
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError, RecursionError):   # nested too deep to decode
            return None

    def put(self, key: str, value) -> None:
        if not self.enabled:
            return
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # one-shot dumps runs the C encoder; json.dump never does
                fh.write(json.dumps(value, sort_keys=True))
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
