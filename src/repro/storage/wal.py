"""Write-ahead ingest log: length-prefixed, checksummed, segment-rotated.

Every committed mutation (register / ingest / drop) is appended as one
record *before* the commit returns, so a crash loses at most the batch
that never acknowledged.  The on-disk format is a sequence of segment
files, each a run of records:

    <lsn:u64><type:u8><length:u32><crc32:u32><payload:length bytes>

The CRC covers the header fields and the payload, so a flipped bit
anywhere in a record is detected.  LSNs are assigned sequentially across
segments; segment files are named by the first LSN they contain, so the
set of files is itself an index.  A record is never split across
segments; a segment rotates once it exceeds ``segment_max_bytes``.

Recovery semantics: the log is the prefix of records that are fully
written and checksum-clean.  A torn tail (crash mid-write) or a corrupted
record ends the log at the last valid record — :class:`WriteAheadLog`
truncates the torn bytes when reopened for append, and read-side
:meth:`read_records` simply stops there, reporting what it saw in
:attr:`last_scan`.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..obs import metrics as obs_metrics
from .faults import crash_points_armed, maybe_crash

_HEADER = struct.Struct("<QBII")  # lsn, record type, payload length, crc32
_SEGMENT_SUFFIX = ".wal"

_WAL_APPENDS = obs_metrics.counter(
    "aqp_wal_appends_total", "WAL records durably appended."
)
_WAL_APPENDED_BYTES = obs_metrics.counter(
    "aqp_wal_appended_bytes_total", "Framed bytes appended to the WAL."
)
_WAL_FSYNCS = obs_metrics.counter(
    "aqp_wal_fsyncs_total", "fsync() calls issued by the WAL."
)
_WAL_FSYNC_SECONDS = obs_metrics.histogram(
    "aqp_wal_fsync_seconds", "Wall time of each WAL fsync."
)
_WAL_ROTATIONS = obs_metrics.counter(
    "aqp_wal_segment_rotations_total", "WAL segment-file rotations."
)
# Rebind to the pre-resolved cells — these run on every append/fsync and
# must not pay label handling (the metrics have no labels anyway).
_WAL_APPENDS = _WAL_APPENDS.labels()
_WAL_APPENDED_BYTES = _WAL_APPENDED_BYTES.labels()
_WAL_FSYNCS = _WAL_FSYNCS.labels()
_WAL_FSYNC_SECONDS = _WAL_FSYNC_SECONDS.labels()
_WAL_ROTATIONS = _WAL_ROTATIONS.labels()

#: Default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class WalRecord:
    """One durable log record."""

    lsn: int
    rtype: int
    payload: bytes


@dataclass
class WalScanReport:
    """What a full scan of the log saw (recovery observability)."""

    last_lsn: int = 0
    valid_records: int = 0
    #: Bytes discarded from a torn tail (crash mid-append).
    torn_bytes: int = 0
    #: Segment in which a checksum / framing error ended the log, if any.
    corrupt_segment: str | None = None
    segments: list[str] = field(default_factory=list)


def _segment_name(first_lsn: int) -> str:
    return f"{first_lsn:020d}{_SEGMENT_SUFFIX}"


def _frame(lsn: int, rtype: int, payload: bytes) -> bytes:
    crc = zlib.crc32(struct.pack("<QBI", lsn, rtype, len(payload)) + payload)
    return _HEADER.pack(lsn, rtype, len(payload), crc) + payload


def _read_segment(path: Path, expect_lsn: int | None):
    """Yield ``(record, end_offset)`` for every valid record of one segment.

    Stops (without raising) at the first incomplete or checksum-failing
    record; the caller decides whether that ends the whole log.  Returns
    via StopIteration, so callers use the generator protocol.
    """
    data = path.read_bytes()
    offset = 0
    while offset + _HEADER.size <= len(data):
        lsn, rtype, length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if end > len(data):
            break  # torn tail: payload never finished
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(struct.pack("<QBI", lsn, rtype, length) + payload) != crc:
            break  # corrupted record
        if expect_lsn is not None and lsn != expect_lsn:
            break  # framing desynchronised; treat like corruption
        yield WalRecord(lsn=lsn, rtype=rtype, payload=payload), end
        offset = end
        if expect_lsn is not None:
            expect_lsn += 1


class WriteAheadLog:
    """Append-only, checksummed, segment-rotated log under one directory.

    Thread-safe: appends, syncs, rotation and truncation serialize on an
    internal mutex (the durable database additionally orders appends
    against its own commits).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.fsync = fsync
        self._mutex = threading.Lock()
        self._file = None
        self._segment_path: Path | None = None
        #: In-flight :meth:`read_records` iterators, token -> ``after_lsn``.
        #: Truncation never deletes a segment such a reader still needs.
        self._active_readers: dict[object, int] = {}
        #: Whether the last :meth:`truncate_through` was floored below the
        #: LSN it was asked for (a follower or an in-flight reader held
        #: segments back), so its caller knows to retry.
        self.truncation_held = False
        #: Byte offset of the last appended record within the active
        #: segment — consumed (once) by :meth:`rollback_last`.
        self._last_append_offset: int | None = None
        self.last_scan = self._open_for_append()

    # ------------------------------------------------------------------ #
    # Opening / scanning

    def segment_paths(self) -> list[Path]:
        """Segment files in LSN order."""
        return sorted(self.directory.glob(f"*{_SEGMENT_SUFFIX}"))

    def _open_for_append(self) -> WalScanReport:
        """Scan every segment, drop invalid tails, open the last for append.

        The first torn or corrupt record ends the log: the bytes from it
        onward are truncated from its segment and any *later* segments are
        removed (they are unreachable once the LSN chain is broken).
        """
        report = WalScanReport()
        segments = self.segment_paths()
        expect = None
        broken_at: int | None = None
        for index, path in enumerate(segments):
            report.segments.append(path.name)
            size = path.stat().st_size
            valid_end = 0
            for record, end in _read_segment(path, expect):
                report.last_lsn = record.lsn
                report.valid_records += 1
                expect = record.lsn + 1
                valid_end = end
            if valid_end < size:
                report.torn_bytes += size - valid_end
                report.corrupt_segment = path.name
                with path.open("r+b") as fh:
                    fh.truncate(valid_end)
                broken_at = index
                break
        if broken_at is not None:
            for stale in segments[broken_at + 1 :]:
                report.torn_bytes += stale.stat().st_size
                stale.unlink()
        self._last_lsn = report.last_lsn
        live = self.segment_paths()
        if report.valid_records == 0 and live:
            # Only empty segments (e.g. freshly rotated after a checkpoint
            # truncated everything): the next LSN is encoded in the segment
            # name, so numbering continues instead of restarting at 1.
            self._last_lsn = int(live[0].name[: -len(_SEGMENT_SUFFIX)]) - 1
            report.last_lsn = self._last_lsn
        if live:
            self._segment_path = live[-1]
        else:
            self._segment_path = self.directory / _segment_name(self._last_lsn + 1)
            self._segment_path.touch()
        self._file = self._segment_path.open("ab")
        return report

    # ------------------------------------------------------------------ #
    # Writing

    @property
    def last_lsn(self) -> int:
        """LSN of the most recent durable record (0 for an empty log)."""
        with self._mutex:
            return self._last_lsn

    def first_lsn(self) -> int:
        """Lowest LSN still readable from the log.

        ``last_lsn + 1`` when the log holds no records (empty or fully
        truncated) — i.e. the log can serve exactly ``lsn >= first_lsn()``.
        Replication uses this as the truncation horizon: a follower whose
        position is below ``first_lsn() - 1`` cannot be caught up from the
        log alone and needs a snapshot seed.
        """
        with self._mutex:
            segments = self.segment_paths()
            if not segments:
                return self._last_lsn + 1
            return int(segments[0].name[: -len(_SEGMENT_SUFFIX)])

    def append(self, rtype: int, payload: bytes) -> int:
        """Durably append one record, returning its LSN."""
        with self._mutex:
            if self._file.tell() >= self.segment_max_bytes:
                self._rotate_locked()
            lsn = self._last_lsn + 1
            start = self._file.tell()
            frame = _frame(lsn, rtype, payload)
            if crash_points_armed():
                maybe_crash("wal.append.before_write")
                # Two flushed writes so an armed mid-write crash point
                # leaves a genuinely torn record on disk, exactly like a
                # real crash.
                half = len(frame) // 2
                self._file.write(frame[:half])
                self._file.flush()
                maybe_crash("wal.append.mid_write")
                self._file.write(frame[half:])
            else:
                self._file.write(frame)
            self._file.flush()
            if self.fsync:
                fsync_started = time.perf_counter()
                os.fsync(self._file.fileno())
                _WAL_FSYNCS.inc()
                _WAL_FSYNC_SECONDS.observe(time.perf_counter() - fsync_started)
            self._last_lsn = lsn
            self._last_append_offset = start
            _WAL_APPENDS.inc()
            _WAL_APPENDED_BYTES.inc(len(frame))
            return lsn

    def rollback_last(self, lsn: int) -> None:
        """Remove the most recent record — compensation for a commit that
        failed *after* its WAL append (the caller still holds the durable
        mutex, so no later record can exist).  Only the record appended
        last is removable; anything else raises."""
        with self._mutex:
            if lsn != self._last_lsn or self._last_append_offset is None:
                raise ValueError(
                    f"cannot roll back lsn {lsn}: the last appended record "
                    f"is {self._last_lsn}"
                )
            self._file.flush()
            self._file.truncate(self._last_append_offset)
            self._file.seek(self._last_append_offset)
            if self.fsync:
                os.fsync(self._file.fileno())
            self._last_lsn = lsn - 1
            self._last_append_offset = None

    def sync(self) -> int:
        """Flush and fsync whatever has been appended; returns the last LSN."""
        with self._mutex:
            self._file.flush()
            fsync_started = time.perf_counter()
            os.fsync(self._file.fileno())
            _WAL_FSYNCS.inc()
            _WAL_FSYNC_SECONDS.observe(time.perf_counter() - fsync_started)
            return self._last_lsn

    def _rotate_locked(self) -> None:
        self._file.close()
        self._segment_path = self.directory / _segment_name(self._last_lsn + 1)
        self._segment_path.touch()
        self._file = self._segment_path.open("ab")
        _WAL_ROTATIONS.inc()

    # ------------------------------------------------------------------ #
    # Reading

    def read_records(self, after_lsn: int = 0) -> Iterator[WalRecord]:
        """Iterate valid records with ``lsn > after_lsn`` across all segments.

        Stops silently at the first torn or corrupt record — by
        construction everything after it was never acknowledged.

        While the iterator is live it registers ``after_lsn`` as a
        retention floor, so a concurrent :meth:`truncate_through` (e.g. a
        background checkpoint) cannot unlink a segment out from under it.
        Exhaust or ``close()`` the iterator promptly — an abandoned one
        holds the floor until garbage collection.
        """
        token = object()
        with self._mutex:
            self._file.flush()
            segments = self.segment_paths()
            self._active_readers[token] = after_lsn
        try:
            # Skip segments that cannot contain lsn > after_lsn: a segment
            # is fully covered when its successor's first LSN (encoded in
            # the file name) is <= after_lsn + 1.  A tailing subscriber
            # polling the log then re-reads only the segment it is
            # positioned in, not the whole history.
            start = 0
            for index, successor in enumerate(segments[1:]):
                if int(successor.name[: -len(_SEGMENT_SUFFIX)]) <= after_lsn + 1:
                    start = index + 1
            expect = None
            for path in segments[start:]:
                for record, _ in _read_segment(path, expect):
                    expect = record.lsn + 1
                    if record.lsn > after_lsn:
                        yield record
        finally:
            with self._mutex:
                self._active_readers.pop(token, None)

    # ------------------------------------------------------------------ #
    # Truncation

    def truncate_through(self, lsn: int, retain_after_lsn: int | None = None) -> list[str]:
        """Drop segments made obsolete by a checkpoint at ``lsn``.

        A segment may be deleted once every record in it has LSN ``<= lsn``.
        If the *active* segment is itself fully covered, it is rotated
        first so its file can go too; the new empty segment is named by
        the next LSN, keeping the chain contiguous.

        ``retain_after_lsn`` lowers the effective truncation point: every
        record with LSN ``> retain_after_lsn`` stays readable, so the
        segment containing ``retain_after_lsn + 1`` is never deleted.
        Replication passes the minimum acknowledged follower position here
        so a live subscriber is never truncated out from under.  In-flight
        :meth:`read_records` iterators impose the same floor implicitly.
        """
        with self._mutex:
            floor = lsn
            if retain_after_lsn is not None:
                floor = min(floor, retain_after_lsn)
            for reader_after in self._active_readers.values():
                floor = min(floor, reader_after)
            self.truncation_held = floor < lsn
            if self._last_lsn <= floor and self._file.tell() > 0:
                self._rotate_locked()
            segments = self.segment_paths()
            removed: list[str] = []
            for path, successor in zip(segments, segments[1:]):
                first_of_next = int(successor.name[: -len(_SEGMENT_SUFFIX)])
                if first_of_next <= floor + 1:
                    path.unlink()
                    removed.append(path.name)
            return removed

    def reset_to(self, lsn: int) -> None:
        """Restart the log just past ``lsn``, discarding every segment.

        Only legal when every surviving record is at or below ``lsn`` —
        the recovery path calls this when a snapshot's checkpoint LSN is
        *above* the last scannable record (corruption ate part of a log
        the crashed checkpoint never got to truncate).  Appending at the
        old, lower LSNs instead would make the next checkpoint sort below
        the stale snapshot and silently lose the new mutations on the
        following restart.
        """
        with self._mutex:
            if lsn < self._last_lsn:
                raise ValueError(
                    f"cannot reset the WAL to lsn {lsn}: records up to "
                    f"{self._last_lsn} exist"
                )
            self._file.close()
            for path in self.segment_paths():
                path.unlink()
            self._last_lsn = lsn
            self._segment_path = self.directory / _segment_name(lsn + 1)
            self._segment_path.touch()
            self._file = self._segment_path.open("ab")

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        with self._mutex:
            if self._file is not None:
                self._file.flush()
                self._file.close()
                self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
