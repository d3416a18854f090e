"""Advisory file locking for multi-process store sharing.

One :class:`FileLock` guards a :class:`~repro.store.store.ResultStore`
root against the only cross-process races the layout cannot absorb by
construction:

* **cache writers** (``put_solo`` / ``put_corun`` / ``put_scenario``)
  take the lock *shared* — any number of campaign processes may write
  entries concurrently (each appends to a segment log of its own);
* **maintenance** (``store gc``'s shard pruning, a campaign manifest
  freeze) takes the lock *exclusive* — ``shutil.rmtree`` of a cache
  shard must never interleave with a writer appending to a segment in
  that same shard, and two campaigns must not freeze ``manifest.json``
  at the same instant.

The lock file is ``<root>/.lock``; it carries no data and is never
deleted (deleting a lock file while another process holds its fd is
the classic advisory-lock bug).  On POSIX the implementation is
``fcntl.flock`` — per open-file-description, so two handles *within*
one process also exclude each other, which is what lets the test suite
exercise writer-vs-gc interleavings with threads.  On Windows a
``msvcrt.locking`` shim provides exclusive-only byte locks (shared
acquisitions degrade to exclusive — correct, just less concurrent).
Platforms with neither module fall back to a no-op lock: single-process
use stays safe because no other writer appends to a process's segments
and every other write is atomic.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO

__all__ = ["FileLock", "HAVE_FILE_LOCKS", "store_lock"]

try:  # POSIX
    import fcntl

    HAVE_FILE_LOCKS = True

    def _acquire(fh: IO[bytes], *, exclusive: bool, blocking: bool) -> bool:
        flags = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
        if not blocking:
            flags |= fcntl.LOCK_NB
        try:
            fcntl.flock(fh.fileno(), flags)
        except OSError:
            return False
        return True

    def _release(fh: IO[bytes]) -> None:
        fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

except ImportError:  # pragma: no cover - exercised only on Windows
    try:
        import msvcrt

        HAVE_FILE_LOCKS = True

        def _acquire(fh: IO[bytes], *, exclusive: bool, blocking: bool) -> bool:
            # msvcrt has no shared mode: every acquisition is exclusive.
            mode = msvcrt.LK_LOCK if blocking else msvcrt.LK_NBLCK
            try:
                fh.seek(0)
                msvcrt.locking(fh.fileno(), mode, 1)
            except OSError:
                return False
            return True

        def _release(fh: IO[bytes]) -> None:
            fh.seek(0)
            msvcrt.locking(fh.fileno(), msvcrt.LK_UNLCK, 1)

    except ImportError:
        HAVE_FILE_LOCKS = False

        def _acquire(fh: IO[bytes], *, exclusive: bool, blocking: bool) -> bool:
            return True

        def _release(fh: IO[bytes]) -> None:
            pass


class FileLock:
    """Advisory lock on one path, shared or exclusive, context-managed.

    ::

        with FileLock(root / ".lock", exclusive=False):   # writer
            ...publish a cache entry...

        lock = FileLock(root / ".lock")                   # maintenance
        if lock.acquire(blocking=False):
            try: ...
            finally: lock.release()

    Instances are not reentrant and not thread-safe — use one per
    acquisition site (they are cheap: one ``open`` + one ``flock``).
    """

    def __init__(self, path: str | os.PathLike[str], *, exclusive: bool = True) -> None:
        self.path = Path(path)
        self.exclusive = exclusive
        self._fh: IO[bytes] | None = None

    @property
    def held(self) -> bool:
        return self._fh is not None

    def acquire(self, *, blocking: bool = True) -> bool:
        """Take the lock; returns False only for a failed non-blocking try.

        A *blocking* acquire that still fails (``msvcrt`` gives up after
        ~10 s of contention; ``flock`` can be interrupted by a signal)
        raises instead of returning — callers relying on ``with lock:``
        must never proceed unlocked into a prune or manifest freeze.
        """
        if self._fh is not None:
            return True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "ab")
        if not _acquire(fh, exclusive=self.exclusive, blocking=blocking):
            fh.close()
            if blocking:
                from repro.errors import StoreError

                raise StoreError(
                    f"could not acquire {'exclusive' if self.exclusive else 'shared'} "
                    f"lock on {self.path} (held elsewhere for too long?)"
                )
            return False
        self._fh = fh
        return True

    def release(self) -> None:
        if self._fh is None:
            return
        try:
            _release(self._fh)
        finally:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


def store_lock(root: str | os.PathLike[str], *, exclusive: bool = True) -> FileLock:
    """The store-root lock: ``<root>/.lock``, shared for cache writers,
    exclusive for ``gc`` shard pruning and manifest freezes."""
    return FileLock(Path(root) / ".lock", exclusive=exclusive)
