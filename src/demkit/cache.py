"""Persistent result cache keyed by content hashes.

An entry is a command's --format json text, sealed: a line of the 64
lowercase hex digits of sha256(key + text), then the text as raw ASCII bytes.
A hit checks the newline, the ASCII and the hash and returns the text with
nothing decoded; any other file is a miss, recomputed and overwritten.  Files
keep the name <key>.json, though they hold no JSON: the benchmark's tracer
sizes that path.  The key carries a hash of the package's sources, so any
change to the code silently starts a fresh namespace instead of serving stale
values.  Writes go through a temp file and an atomic rename.
"""
from __future__ import annotations

import contextlib
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


def _sealLine(key: str, body: bytes) -> bytes:
    h = hashlib.sha256(key.encode())
    h.update(body)   # not key + body: that would copy a large text once more
    return h.hexdigest().encode() + b"\n"


class DiskCache:
    def __init__(self, root: str | None):
        self.root = root
        if root is not None:
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

    def get(self, key: str) -> str | None:
        """The text stored under key, or None on a miss."""
        if not self.enabled:
            return None
        try:
            # unbuffered: the text is read in one piece, with no second copy
            with open(self._path(key), "rb", buffering=0) as fh:
                seal, body = fh.read(65), fh.read()
        except OSError:
            return None
        if body.isascii() and seal == _sealLine(key, body):
            return body.decode("ascii")
        return None

    def put(self, key: str, text: str) -> None:
        """Store ASCII text under key; a write that fails leaves no temp file."""
        if not self.enabled:
            return
        body = text.encode("ascii")
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_sealLine(key, body))
                fh.write(body)
            os.replace(tmp, self._path(key))
        except BaseException as e:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            if not isinstance(e, OSError):
                raise
