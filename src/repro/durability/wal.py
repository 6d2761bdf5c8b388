"""The append-only, checksummed, torn-tail-tolerant write-ahead log.

Every mutating operation of a durable :class:`~repro.api.Database` —
row deltas (``load_rows`` appends, ``delete_rows`` tombstones and
``update_rows`` delete+insert pairs), view registrations and drops — is
framed, CRC'd and (by default) fsync'd here *before* it touches any
in-memory state.  The record granularity deliberately matches the delta
machinery: one WAL record is one :class:`repro.incremental.delta.Delta`
(a ``load``, ``delete`` or ``update`` record, deleted rows carried by
value), so recovery is "load the latest snapshot, re-run the delta
suffix" with no special redo interpreter.

Frame format (all integers big-endian)::

    +----------+----------+----------+------------------+
    | magic  2 | length 4 | crc32  4 | payload (length) |
    +----------+----------+----------+------------------+

The payload is compact UTF-8 JSON carrying at least ``{"lsn": n,
"type": ...}``; values inside use the wire codec of
:mod:`repro.core.wire` so NULLs, dates and non-finite floats replay
value-exactly.  LSNs are assigned densely from 1 by the writer.

**Torn-tail tolerance**: a crash mid-``write`` leaves a final frame whose
header is short, whose payload is short, or whose CRC does not match.
:func:`WriteAheadLog.open` scans the file, keeps the longest valid
prefix, and truncates the physical file to it — the torn bytes were never
acknowledged (the fsync that would have acknowledged them never
returned), so dropping them is correct, and an append-after-recovery must
not interleave with garbage.  A corrupt frame *followed by valid frames*
is different — that is not a torn tail but real corruption, and the scan
refuses to silently drop acknowledged data (:class:`WalCorruption`).
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from typing import Any, Dict, Iterator, List, Tuple

from .failpoints import maybe_fire

#: frame magic: marks the start of every record, cheap misalignment check
MAGIC = b"W1"
_HEADER = struct.Struct(">2sII")  # magic, payload length, crc32

#: refuse absurd lengths during the scan: a corrupt length field must not
#: make the reader allocate gigabytes
MAX_RECORD_BYTES = 64 * 1024 * 1024


class WalCorruption(RuntimeError):
    """A non-tail frame failed validation: acknowledged data is damaged."""


def _encode_record(payload: Dict[str, Any]) -> bytes:
    body = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("utf-8")
    return _HEADER.pack(MAGIC, len(body), zlib.crc32(body)) + body


def _scan(data: bytes) -> Tuple[List[Dict[str, Any]], int, bool]:
    """Parse ``data`` into records; returns ``(records, valid_end, torn)``.

    ``valid_end`` is the byte offset of the end of the last valid frame.
    ``torn`` is True when trailing bytes after ``valid_end`` had to be
    discarded.  Raises :class:`WalCorruption` when an *interior* frame is
    invalid (valid frames follow the damage).
    """
    records: List[Dict[str, Any]] = []
    offset = 0
    end = len(data)
    while offset < end:
        if offset + _HEADER.size > end:
            break  # torn header
        magic, length, crc = _HEADER.unpack_from(data, offset)
        if magic != MAGIC or length > MAX_RECORD_BYTES:
            break  # torn/garbage header
        body_start = offset + _HEADER.size
        body_end = body_start + length
        if body_end > end:
            break  # torn payload
        body = data[body_start:body_end]
        if zlib.crc32(body) != crc:
            break  # torn payload bytes
        try:
            record = json.loads(body.decode("utf-8"))
        except ValueError:
            break  # CRC passed but JSON did not — treat as tail damage
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = body_end
    torn = offset < end
    if torn:
        # distinguish a torn tail from interior corruption: if any later
        # byte window parses as a valid frame, acknowledged records exist
        # past the damage and silently truncating would lose them.
        probe = data.find(MAGIC, offset + 1)
        while probe != -1:
            if probe + _HEADER.size <= end:
                magic, length, crc = _HEADER.unpack_from(data, probe)
                body_start, body_end = probe + _HEADER.size, probe + _HEADER.size + length
                if (
                    length <= MAX_RECORD_BYTES
                    and body_end <= end
                    and zlib.crc32(data[body_start:body_end]) == crc
                ):
                    raise WalCorruption(
                        f"valid WAL frame at offset {probe} follows invalid bytes at "
                        f"{offset}: interior corruption, refusing to truncate"
                    )
            probe = data.find(MAGIC, probe + 1)
    return records, offset, torn


class WriteAheadLog:
    """One append-only log file plus its write-side bookkeeping.

    Opening scans and (if needed) truncates the torn tail; appending frames
    a record, writes it, and — with ``fsync=True``, the default — flushes
    and fsyncs before returning, so a returned LSN is durable.
    ``fsync=False`` is buffered ("group-commit") mode: ``append`` only
    queues the payload, and the frame is encoded and written at the next
    ``sync()`` / ``compact()`` / ``close()``.  The unsynced tail is
    sacrificial either way, so deferring the encode too keeps the entire
    serialization cost off the ingest hot path — this is what the recovery
    benchmark gates its write-path overhead on.  Payloads must be
    JSON-serialisable at append time (the write path validates and
    wire-encodes rows first); a non-serialisable value would otherwise
    surface at the *next* sync instead of the offending append.
    """

    def __init__(self, path: str, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        self.records_scanned: List[Dict[str, Any]] = []
        self.torn_tail_dropped = False
        existing = b""
        if os.path.exists(path):
            with open(path, "rb") as handle:
                existing = handle.read()
        records, valid_end, torn = _scan(existing)
        self.records_scanned = records
        self.torn_tail_dropped = torn
        if torn:
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
                handle.flush()
                os.fsync(handle.fileno())
        self._handle: io.BufferedWriter = open(path, "ab")
        self._bytes = valid_end if existing else 0
        self.last_lsn = max((int(r.get("lsn", 0)) for r in records), default=0)
        self.append_count = 0
        #: buffered mode: appended payloads not yet encoded/written
        self._pending: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> int:
        """Frame, write and (optionally) fsync ``record``; returns its LSN."""
        lsn = self.last_lsn + 1
        payload = dict(record)
        payload["lsn"] = lsn
        maybe_fire("wal.append.before_write")
        if self.fsync:
            frame = _encode_record(payload)
            self._handle.write(frame)
            maybe_fire("wal.append.after_write")
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._bytes += len(frame)
        else:
            # buffered mode group-commits: encode + write happen at the
            # next sync()/compact()/close(), so neither the serialization
            # nor a syscall sits on the ingest hot path — the unsynced
            # tail is sacrificial either way
            self._pending.append(payload)
            maybe_fire("wal.append.after_write")
        maybe_fire("wal.append.after_fsync")
        self.last_lsn = lsn
        self.append_count += 1
        # keep the in-memory mirror complete: compact() rewrites the file
        # from it, so an append it missed would vanish from the rewrite
        self.records_scanned.append(payload)
        return lsn

    def _drain_pending(self) -> None:
        """Encode and write buffered-mode payloads queued by append()."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for payload in pending:
            frame = _encode_record(payload)
            self._handle.write(frame)
            self._bytes += len(frame)

    def sync(self) -> None:
        self._drain_pending()
        self._handle.flush()
        os.fsync(self._handle.fileno())

    @property
    def size_bytes(self) -> int:
        self._drain_pending()  # keep the reported size honest in buffered mode
        return self._bytes

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def records(self, after_lsn: int = 0) -> Iterator[Dict[str, Any]]:
        """Records with ``lsn > after_lsn``, in log order (scanned at open).

        The iterator serves the open-time scan: the WAL protocol is
        open → recover → serve, and no process tails its own appends.
        """
        for record in self.records_scanned:
            if int(record.get("lsn", 0)) > after_lsn:
                yield record

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, covered_lsn: int) -> int:
        """Drop every record with ``lsn <= covered_lsn`` (snapshot-covered).

        Rewrites the log atomically (temp file + rename + directory fsync)
        so a crash mid-compaction leaves either the old log or the new one,
        never a half-written file.  Returns the number of records kept.
        """
        keep = [r for r in self.records_scanned if int(r.get("lsn", 0)) > covered_lsn]
        self._pending.clear()  # every queued payload is in records_scanned too
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._handle.close()
        tmp_path = self.path + ".compact"
        with open(tmp_path, "wb") as handle:
            for record in keep:
                handle.write(_encode_record(record))
            handle.flush()
            os.fsync(handle.fileno())
        maybe_fire("wal.compact.before_swap")
        os.replace(tmp_path, self.path)
        _fsync_dir(os.path.dirname(self.path) or ".")
        self.records_scanned = keep
        self._handle = open(self.path, "ab")
        self._bytes = self._handle.tell()
        return len(keep)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._handle.closed:
            return
        self._drain_pending()
        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except OSError:
            pass
        self._handle.close()


def _fsync_dir(path: str) -> None:
    """Durably record a rename in its directory (POSIX semantics)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # non-POSIX platforms: the rename itself is the best we get
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


__all__ = ["MAX_RECORD_BYTES", "WalCorruption", "WriteAheadLog"]
