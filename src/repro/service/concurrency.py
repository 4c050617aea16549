"""Two names kept for the per-layer benchmark probe, and nothing else.

:class:`~repro.service.database.QueryService` is the thread-safe service:
a published table is an immutable engine that queries read without a
lock, and the :class:`~repro.service.database.Database` serialises its
own writers (see its module docstring).  ``benchmarks/e2e/layers.py``
still imports and times the two names below, so they stay until that
probe stops naming them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from .database import QueryService

#: Kept only because ``benchmarks/e2e/layers.py`` imports and times it.
ConcurrentQueryService = QueryService


class ReadWriteLock:
    """A reader-writer lock with writer preference.

    Kept only because ``benchmarks/e2e/layers.py`` times an uncontended
    read acquire + release (``concurrency.rwlock_ns``); nothing in
    ``src/`` uses it.

    Many readers may hold the lock at once; a writer holds it exclusively.
    While any writer is *waiting*, new readers block, so a continuous
    stream of readers cannot starve a writer.  Re-entrant acquisition is
    not supported.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------ #
    # Reader side

    def acquire_read(self, timeout: float | None = None) -> None:
        with self._cond:
            if not self._cond.wait_for(
                lambda: not self._writer_active and self._writers_waiting == 0,
                timeout=timeout,
            ):
                raise TimeoutError("timed out waiting for read lock")
            self._active_readers += 1

    def release_read(self) -> None:
        with self._cond:
            if self._active_readers <= 0:
                raise RuntimeError("release_read without a matching acquire_read")
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Writer side

    def acquire_write(self, timeout: float | None = None) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                acquired = self._cond.wait_for(
                    lambda: not self._writer_active and self._active_readers == 0,
                    timeout=timeout,
                )
            finally:
                self._writers_waiting -= 1
            if not acquired:
                # Readers that queued behind this writer are eligible again
                # now that it is gone; wake them or they stay parked until
                # the current readers fully drain.
                self._cond.notify_all()
                raise TimeoutError("timed out waiting for write lock")
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire_write")
            self._writer_active = False
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Context managers

    @contextmanager
    def read_locked(self, timeout: float | None = None):
        self.acquire_read(timeout=timeout)
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self, timeout: float | None = None):
        self.acquire_write(timeout=timeout)
        try:
            yield self
        finally:
            self.release_write()
