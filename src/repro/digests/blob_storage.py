"""Simulated Azure Immutable Blob Storage (§2.4).

The contract this models: once written, a blob can never be modified or
deleted — by anyone, including the storage operator.  Digests parked here
are therefore outside the database adversary's reach, which is the root of
trust for the whole verification story.

The store is file-backed (one file per blob under a root directory) so it
survives process restarts, and write-once is enforced at the API: any
attempt to overwrite or delete raises :class:`ImmutabilityViolationError`.

Writes are crash-atomic: data lands in a uniquely-named temp file, is
fsynced, and is then published under the blob name via ``os.link`` — which
both guarantees readers never observe a half-written "immutable" digest and
enforces write-once at the filesystem level (link fails on an existing
target).  A crash mid-upload leaves only a ``.tmp-`` file, which listings
ignore.
"""

from __future__ import annotations

import itertools
import os
import re
import zlib
from typing import List

from repro.errors import (
    BlobNotFoundError,
    ImmutabilityViolationError,
    InjectedCrashError,
)
from repro.faults import FAULTS

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9._\-/]+$")
_TMP_PREFIX = ".tmp-"
_tmp_counter = itertools.count()

#: Self-describing prefix for compressed JSON blobs.  JSON documents always
#: start with ``{`` or ``[``, never these bytes, so :meth:`get_document` can
#: sniff the format and keep reading digests written before compression.
_COMPRESSED_JSON_MAGIC = b"SLZ1"

#: zlib level for JSON digests.
_COMPRESSION_LEVEL = 6

FAULTS.register(
    "blob.put",
    "Before a digest upload writes anything.  Used with times=N and a "
    "TransientStorageError to model a flaky blob endpoint that the digest "
    "manager's retry/backoff must absorb.",
)
FAULTS.register(
    "blob.torn_upload",
    "Crash mid-upload: half the digest bytes reach a temp file, then the "
    "process dies.  The blob name is never linked, so no reader can ever "
    "see the partial digest.",
    kind="tear",
)


class ImmutableBlobStorage:
    """Append-only, write-once blob containers rooted at a directory."""

    def __init__(self, root: str) -> None:
        self._root = root
        os.makedirs(root, exist_ok=True)

    # -- container / blob naming -------------------------------------------------

    def _blob_path(self, container: str, name: str) -> str:
        for part in (container, name):
            if not _NAME_PATTERN.match(part) or ".." in part:
                raise ImmutabilityViolationError(
                    f"illegal container/blob name {part!r}"
                )
        return os.path.join(self._root, container, name)

    # -- write-once API ---------------------------------------------------------

    def put(self, container: str, name: str, data: bytes) -> None:
        """Write a new blob atomically.  Fails if the blob already exists.

        The data is staged in a uniquely-named temp file and fsynced before
        being published via ``os.link``, so the blob either exists complete
        or not at all — a crash mid-upload can never leave a half-written
        "immutable" digest under the real name.
        """
        path = self._blob_path(container, name)
        if os.path.exists(path):
            raise ImmutabilityViolationError(
                f"blob {container}/{name} already exists and is immutable"
            )
        FAULTS.fire("blob.put", container=container, blob=name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Unique per process and per call, so a crashed upload's leftover
        # temp file never collides with the retry.
        tmp = os.path.join(
            os.path.dirname(path),
            f"{_TMP_PREFIX}{os.getpid()}-{next(_tmp_counter)}",
        )
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        crashed = False
        try:
            with os.fdopen(fd, "wb") as f:
                if FAULTS.triggered(
                    "blob.torn_upload", container=container, blob=name
                ):
                    # A dead process runs no cleanup: the torn temp file is
                    # deliberately left behind for listings to ignore.
                    crashed = True
                    f.write(data[: len(data) // 2])
                    f.flush()
                    raise InjectedCrashError("blob.torn_upload")
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            # link (not rename) enforces write-once at the filesystem level:
            # it fails with EEXIST instead of silently replacing a blob.
            try:
                os.link(tmp, path)
            except FileExistsError:
                raise ImmutabilityViolationError(
                    f"blob {container}/{name} already exists and is immutable"
                ) from None
            os.chmod(path, 0o444)
        finally:
            if not crashed and os.path.exists(tmp):
                os.unlink(tmp)

    def get(self, container: str, name: str) -> bytes:
        path = self._blob_path(container, name)
        if not os.path.exists(path):
            raise BlobNotFoundError(f"blob {container}/{name} does not exist")
        with open(path, "rb") as f:
            return f.read()

    def exists(self, container: str, name: str) -> bool:
        return os.path.exists(self._blob_path(container, name))

    def delete(self, container: str, name: str) -> None:
        """Always refused: immutable blobs cannot be deleted."""
        raise ImmutabilityViolationError(
            f"blob {container}/{name} is immutable and cannot be deleted"
        )

    def overwrite(self, container: str, name: str, data: bytes) -> None:
        """Always refused: immutable blobs cannot be overwritten."""
        raise ImmutabilityViolationError(
            f"blob {container}/{name} is immutable and cannot be overwritten"
        )

    def list_blobs(self, container: str, prefix: str = "") -> List[str]:
        """Names of the blobs in a container that start with ``prefix``,
        sorted; ``[]`` for a container that does not exist.

        A name is the blob's path below the container, ``/``-separated.
        Temp files a crashed upload left (``.tmp-`` names) are not blobs.
        One ``os.scandir`` per folder, built up from the folder's name, and
        only folders a name under ``prefix`` can lie in are entered — so
        listing one incarnation does not read the others.  A symbolic link
        to a folder is neither entered nor listed.
        """
        names: List[str] = []
        folders = [(os.path.join(self._root, container), "")]
        while folders:
            path, under = folders.pop()
            try:
                entries = list(os.scandir(path))
            except OSError:
                continue  # no such container, or not a folder
            for entry in entries:
                name = under + entry.name
                if entry.is_dir():
                    if not entry.is_symlink():
                        folder = name + "/"
                        if folder.startswith(prefix) or prefix.startswith(folder):
                            folders.append((entry.path, folder))
                elif name.startswith(prefix) and not entry.name.startswith(
                    _TMP_PREFIX
                ):
                    names.append(name)
        names.sort()
        return names

    # -- JSON helpers (digests are JSON documents) --------------------------------

    def put_document(self, container: str, name: str, raw: bytes) -> None:
        """Store a (JSON-text) document zlib-compressed behind the ``SLZ1``
        magic, so the blob is self-describing; :meth:`get_document` reads
        it and the raw JSON blobs written before compression."""
        self.put(
            container, name,
            _COMPRESSED_JSON_MAGIC + zlib.compress(raw, _COMPRESSION_LEVEL),
        )

    def get_document(self, container: str, name: str) -> bytes:
        """Read a document written by :meth:`put_document` — or by code that
        predates compression — sniffing the magic to pick the decode path."""
        data = self.get(container, name)
        if data.startswith(_COMPRESSED_JSON_MAGIC):
            data = zlib.decompress(data[len(_COMPRESSED_JSON_MAGIC) :])
        return data
