"""Append-only record log with checksum framing and torn-tail recovery.

Every tier of the store is one of these files.  A record is::

    <length:u32le> <crc32(payload):u32le> <payload:canonical JSON>

Canonical JSON (sorted keys, compact separators, ascii) makes the byte
stream a pure function of the record sequence — the crash-replay suite
leans on that to assert prefix consistency and byte-identical rebuilds,
and compaction leans on it to copy a live record's frame verbatim.

Recovery happens at open: the file is scanned record by record and
truncated at the first frame whose length or checksum does not hold.
Everything before that point is served; nothing after it ever is.  A
torn tail is therefore indistinguishable from a clean log that simply
stopped earlier — the write-ahead contract.  A ``<path>.tmp`` left by a
rewrite that died before its rename is deleted at open.

The log keeps no decoded records: :meth:`RecordLog.append` returns the
new record's :class:`Frame` (offset and length in the file), the owner
keeps whatever index it needs, and :meth:`RecordLog.read` decodes one
frame on demand through the same framing.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.store.faults import StorageFault

_HEADER = struct.Struct("<II")

#: Upper bound on a single record's payload, as a corruption guard: a torn
#: header can otherwise decode as a multi-gigabyte length and defeat the
#: scan.  Pages in the simulated web are a few KB; 16 MiB is generous.
MAX_RECORD_BYTES = 16 * 1024 * 1024


class Frame(NamedTuple):
    """Where one record's frame (header included) sits in its log."""

    offset: int
    length: int


#: Canonical JSON: sorted keys, compact separators, ascii.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def encode_record(record: dict[str, Any]) -> bytes:
    """Frame one record as bytes (header + canonical JSON payload)."""
    payload = _CANONICAL.encode(record).encode("ascii")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode(data: bytes, offset: int) -> tuple[dict[str, Any], int] | None:
    """The record framed at ``offset`` and the offset past it, or ``None``
    when the frame there is torn or corrupt."""
    if offset + _HEADER.size > len(data):
        return None
    length, crc = _HEADER.unpack_from(data, offset)
    start = offset + _HEADER.size
    end = start + length
    if length > MAX_RECORD_BYTES or end > len(data):
        return None
    payload = data[start:end]
    if zlib.crc32(payload) != crc:
        return None
    try:
        record = json.loads(payload.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    return record, end


def iter_frames(data: bytes) -> Iterator[tuple[Frame, dict[str, Any]]]:
    """Yield ``(frame, record)`` for each complete, checksum-valid record of
    ``data``, stopping at the first that is not."""
    offset = 0
    while (decoded := _decode(data, offset)) is not None:
        record, end = decoded
        yield Frame(offset, end - offset), record
        offset = end


def scan_records(data: bytes) -> tuple[list[dict[str, Any]], int]:
    """Decode ``data``, returning ``(records, good_end)``.

    ``good_end`` is the offset of the first byte that is not part of a
    complete, checksum-valid record — the truncation point for recovery.
    """
    records: list[dict[str, Any]] = []
    good_end = 0
    for frame, record in iter_frames(data):
        records.append(record)
        good_end = frame.offset + frame.length
    return records, good_end


class RecordLog:
    """One append-only framed log file.

    ``fsync=False`` (the default) flushes to the OS after every append but
    leaves durability to the page cache — the store's crash model injects
    faults *above* the OS write, so recovery guarantees are identical in
    either mode; fsync only narrows the window against real power loss.

    ``index`` is called with ``(frame, record)`` for every good record the
    recovery scan finds, oldest first: the owner builds its index from the
    one decode an open pays.
    """

    def __init__(
        self,
        path: str,
        fsync: bool = False,
        fault: StorageFault | None = None,
        index: Callable[[Frame, dict[str, Any]], None] | None = None,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self._fault = fault
        self._lock = threading.Lock()
        try:
            os.remove(path + ".tmp")  # a rewrite that died before its rename
        except FileNotFoundError:
            pass
        self.count = 0
        self.size = 0
        self.torn_bytes = self._recover(index)
        self._handle = open(path, "a+b")

    def _recover(self, index: Callable[[Frame, dict[str, Any]], None] | None) -> int:
        """Scan the file, index its good records, truncate any torn tail;
        returns the torn byte count."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return 0
        for frame, record in iter_frames(data):
            if index is not None:
                index(frame, record)
            self.count += 1
            self.size = frame.offset + frame.length
        torn = len(data) - self.size
        if torn:
            with open(self.path, "r+b") as handle:
                handle.truncate(self.size)
        return torn

    @property
    def records(self) -> list[dict[str, Any]]:
        """All durable records, oldest first, decoded from the file."""
        data = self.frame_bytes(Frame(0, self.size))
        return [record for _, record in iter_frames(data)]

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.records)

    def read(self, frame: Frame) -> dict[str, Any]:
        """Decode the record at ``frame`` (one the log handed out)."""
        decoded = _decode(self.frame_bytes(frame), 0)
        if decoded is None:
            raise ValueError("%s: no valid record at %r" % (self.path, frame))
        return decoded[0]

    def frame_bytes(self, frame: Frame) -> bytes:
        """The frame's bytes, header included, as they sit in the file
        (read through the path once the log is closed)."""
        with self._lock:
            if not self._handle.closed:
                return os.pread(self._handle.fileno(), frame.length, frame.offset)
            with open(self.path, "rb") as handle:
                handle.seek(frame.offset)
                return handle.read(frame.length)

    def _write(self, handle: Any, data: bytes) -> None:
        if self._fault is not None:
            self._fault.write(handle, data)
        else:
            handle.write(data)

    def append(self, record: dict[str, Any]) -> Frame:
        """Append one record durably; raises StorageCrash on a torn write."""
        data = encode_record(record)
        with self._lock:
            self._write(self._handle, data)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            frame = Frame(self.size, len(data))
            self.size += len(data)
            self.count += 1
        return frame

    def rewrite(self, frames: Sequence[bytes | memoryview]) -> list[Frame]:
        """Atomically replace the log's contents with ``frames`` (already
        framed records, in order); returns where each one now sits.

        Written to ``<path>.tmp`` through the fault layer (a compaction's
        bytes count toward the store's write stream like any append) and
        renamed over the original, so a crash leaves either the old log or
        the new one — never a mix — plus a temp file the next open
        deletes.  The temp file is fsynced before the rename when the log
        is.
        """
        placed: list[Frame] = []
        offset = 0
        for data in frames:
            placed.append(Frame(offset, len(data)))
            offset += len(data)
        tmp = self.path + ".tmp"
        with self._lock:
            with open(tmp, "wb") as handle:
                self._write(handle, b"".join(frames))
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp, self.path)
            self._handle = open(self.path, "a+b")
            self.count = len(placed)
            self.size = offset
        return placed

    def size_bytes(self) -> int:
        """Current on-disk size of the log."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()
