"""Persistent result cache keyed by content hashes.

An entry is what a command printed, and its exit status, sealed: a line of
the status digit, a space and the 64 lowercase hex digits of
sha256(key + " " + status + "\\n" + text), then the text as raw bytes in the
encoding the caller names.  A hit checks the seal and decodes the text
strictly in that encoding; any other file is a miss, recomputed and
overwritten.  Files keep the name <key>.json, though they hold no JSON: the
benchmark's tracer sizes that path.  The key carries a hash of the package's
sources, so any change to the code silently starts a fresh namespace instead
of serving stale values.  Writes go through a temp file and an atomic rename.
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


SEAL_BYTES = 67   # status digit, space, 64 hex digits, newline


def _sealLine(key: str, status: int, body: bytes) -> bytes:
    h = hashlib.sha256(b"%s %d\n" % (key.encode(), status))
    h.update(body)   # not prefix + body: that would copy a large text once more
    return b"%d %s\n" % (status, h.hexdigest().encode())


class DiskCache:
    def __init__(self, root: str | None):
        self.root = root
        if root is not None:
            os.makedirs(root, exist_ok=True)

    def key(self, family: str, rank: int, kind: str, params) -> str:
        blob = json.dumps(
            {"family": family, "rank": rank, "kind": kind, "params": params,
             "source": sourceTag()},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    def get(self, key: str, encoding: str) -> tuple[int, str] | None:
        """(status, text) stored under key, or None on a miss."""
        if self.root is None:
            return None
        try:
            # unbuffered: the text is read in one piece, with no second copy
            with open(self._path(key), "rb", buffering=0) as fh:
                seal, body = fh.read(SEAL_BYTES), fh.read()
        except OSError:
            return None
        status = seal[:1]
        if status.isdigit() and seal == _sealLine(key, int(status), body):
            with contextlib.suppress(UnicodeDecodeError):
                return int(status), body.decode(encoding)
        return None

    def put(self, key: str, encoding: str, status: int, text: str) -> None:
        """Store text, in encoding, and a one-digit exit status under key.
        A text the encoding cannot write raises; a write that fails is
        skipped and leaves no temp file."""
        if self.root is None:
            return
        if status not in range(10):
            raise ValueError(f"exit status {status!r} is not one digit")
        body = text.encode(encoding)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_sealLine(key, status, body))
                fh.write(body)
            os.replace(tmp, self._path(key))
        except BaseException as e:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            if not isinstance(e, OSError):
                raise
