"""Embedded persistent key-value store (Berkeley DB substitute).

The paper stores VFILTER in Berkeley DB and XML fragments in Berkeley DB
XML.  This module provides the equivalent substrate: a log-structured
store with

* append-only on-disk log of CRC-protected records,
* an in-memory hash index (key → offset) rebuilt on open,
* delete tombstones and offline compaction,
* a pure in-memory mode (``path=None``) for tests and benchmarks that
  measure algorithmic cost without disk noise,
* byte-accurate size accounting (``stored_bytes``) used by the
  Figure 11 experiment (VFILTER database size scaling).

Record layout::

    [u32 crc] [u8 flag] [varint key_len] [varint value_len] [key] [value]

``flag`` distinguishes puts from delete tombstones; the CRC covers
everything after it, so recovery can both detect corruption and truncate
a torn tail from an interrupted write.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import Iterator

from ..errors import StorageCorruptionError, StorageError
from .serialize import decode_varint, encode_varint

__all__ = ["KVStore"]

_FLAG_PUT = 0
_FLAG_DEL = 1
_CRC_STRUCT = struct.Struct("<I")


class KVStore:
    """A tiny embedded key-value store with byte keys and values.

    Use as a context manager or call :meth:`close` explicitly.  All
    operations are synchronous; :meth:`flush` forces data to the OS.

    Thread-safe: the file-backed mode shares one OS handle between the
    append path (seek-to-end + write) and the read path (seek-to-offset
    + read), so racing writers could tear a record mid-log and racing
    readers could read from a writer's offset.  A re-entrant lock
    serialises every operation; the in-memory mode takes the same lock
    so ``stored_bytes`` accounting stays consistent under concurrency.
    """

    def __init__(self, path: str | None = None):
        self.path = path  #: state: hard
        #: Serialises every store operation; the log I/O happens under
        #: it by design (see the class docstring).
        #: lock: blocking-allowed
        self._lock = threading.RLock()
        #: key -> (offset, vlen)
        #: guarded-by: _lock
        #: state: soft(derived-from=_handle; rebuild=_recover)
        self._index: dict[bytes, tuple[int, int]] = {}
        #: guarded-by: _lock
        #: state: soft(derived-from=_index, _memory?; rebuild=_recover)
        self._live_bytes = 0
        #: guarded-by: _lock
        self._handle = None  #: state: hard
        #: guarded-by: _lock
        #: state: soft(derived-from=_handle; rebuild=_recover)
        self._length = 0
        if path is not None:
            exists = os.path.exists(path)
            self._handle = open(path, "a+b")
            if exists:
                self._recover()
            self._length = self._handle.seek(0, os.SEEK_END)
        else:
            #: guarded-by: _lock
            self._memory: dict[bytes, bytes] = {}  #: state: hard

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def in_memory(self) -> bool:
        return self.path is None

    # ------------------------------------------------------------------
    # record framing
    # ------------------------------------------------------------------
    @staticmethod
    def _frame(flag: int, key: bytes, value: bytes) -> bytes:
        body = (
            bytes([flag])
            + encode_varint(len(key))
            + encode_varint(len(value))
            + key
            + value
        )
        return _CRC_STRUCT.pack(zlib.crc32(body)) + body

    def _recover(self) -> None:
        """Rebuild the index by scanning the log; truncate a torn tail.

        The log is fully scanned (and the torn tail dropped) *before*
        the first index write, so the index never reflects bytes the
        truncation is about to remove — the derived state is rebuilt
        strictly after its source stops changing.
        """
        assert self._handle is not None
        self._handle.seek(0)
        data = self._handle.read()
        offset = 0
        good_upto = 0
        records: list[tuple[int, bytes, int, int]] = []
        while offset < len(data):
            try:
                record_offset = offset
                if offset + 4 > len(data):
                    raise StorageError("torn record")
                (crc,) = _CRC_STRUCT.unpack_from(data, offset)
                offset += 4
                body_start = offset
                if offset >= len(data):
                    raise StorageError("torn record")
                flag = data[offset]
                offset += 1
                key_len, offset = decode_varint(data, offset)
                value_len, offset = decode_varint(data, offset)
                end = offset + key_len + value_len
                if end > len(data):
                    raise StorageError("torn record")
                if zlib.crc32(data[body_start:end]) != crc:
                    raise StorageCorruptionError(
                        f"bad checksum at offset {record_offset}"
                    )
                if flag not in (_FLAG_PUT, _FLAG_DEL):
                    raise StorageCorruptionError(f"bad flag {flag}")
                key = data[offset : offset + key_len]
                value_offset = offset + key_len
                records.append((flag, key, value_offset, value_len))
                offset = end
                good_upto = end
            except StorageCorruptionError:
                raise
            except StorageError:
                # Torn tail from an interrupted write: drop it.
                break
        if good_upto < len(data):
            self._handle.seek(good_upto)
            self._handle.truncate()
        # Reset the derived state only once the log has reached its
        # final (possibly truncated) form, then replay.
        self._index.clear()
        self._live_bytes = 0
        for flag, key, value_offset, value_len in records:
            if flag == _FLAG_PUT:
                previous = self._index.get(key)
                if previous is not None:
                    self._live_bytes -= previous[1] + len(key)
                self._index[key] = (value_offset, value_len)
                self._live_bytes += value_len + len(key)
            else:
                previous = self._index.pop(key, None)
                freed = previous[1] + len(key) if previous is not None else 0
                self._live_bytes -= freed

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        with self._lock:
            if self.in_memory:
                previous = self._memory.get(key)
                if previous is not None:
                    self._live_bytes -= len(previous) + len(key)
                self._memory[key] = value
                self._live_bytes += len(value) + len(key)
                return
            assert self._handle is not None
            record = self._frame(_FLAG_PUT, key, value)
            self._handle.seek(0, os.SEEK_END)
            offset = self._handle.tell()
            self._handle.write(record)
            self._length = offset + len(record)
            previous = self._index.get(key)
            if previous is not None:
                self._live_bytes -= previous[1] + len(key)
            value_offset = offset + len(record) - len(value)
            self._index[key] = (value_offset, len(value))
            self._live_bytes += len(value) + len(key)

    def get(self, key: bytes) -> bytes | None:
        """Return the value for ``key`` or ``None``."""
        with self._lock:
            if self.in_memory:
                return self._memory.get(key)
            entry = self._index.get(key)
            if entry is None:
                return None
            assert self._handle is not None
            offset, length = entry
            self._handle.seek(offset)
            value = self._handle.read(length)
            if len(value) != length:
                raise StorageCorruptionError(f"short read for key {key!r}")
            return value

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns True when it existed."""
        with self._lock:
            if self.in_memory:
                previous = self._memory.pop(key, None)
                if previous is not None:
                    self._live_bytes -= len(previous) + len(key)
                return previous is not None
            if key not in self._index:
                return False
            assert self._handle is not None
            record = self._frame(_FLAG_DEL, key, b"")
            self._handle.seek(0, os.SEEK_END)
            self._handle.write(record)
            self._length = self._handle.tell()
            previous = self._index.pop(key)
            self._live_bytes -= previous[1] + len(key)
            return True

    def __contains__(self, key: bytes) -> bool:
        with self._lock:
            if self.in_memory:
                return key in self._memory
            return key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory) if self.in_memory else len(self._index)

    def keys(self) -> Iterator[bytes]:
        """Iterate over live keys (insertion order for in-memory);
        snapshots the key set, so mutation during iteration is safe."""
        with self._lock:
            source = self._memory if self.in_memory else self._index
            snapshot = list(source.keys())
        yield from snapshot

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` for every key starting with ``prefix``."""
        for key in self.keys():
            if key.startswith(prefix):
                value = self.get(key)
                assert value is not None
                yield key, value

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    # ------------------------------------------------------------------
    # sizing / maintenance
    # ------------------------------------------------------------------
    @property
    def stored_bytes(self) -> int:
        """Live payload bytes (keys + values), the Figure 11 metric."""
        with self._lock:
            return self._live_bytes

    @property
    def file_bytes(self) -> int:
        """On-disk log length, including garbage awaiting compaction."""
        with self._lock:
            if self.in_memory:
                return self._live_bytes
            return self._length

    #: state: mutator
    def compact(self) -> None:
        """Rewrite the log keeping only live records."""
        with self._lock:
            if self.in_memory:
                return
            assert self.path is not None and self._handle is not None
            temp_path = self.path + ".compact"
            entries = [(key, self.get(key)) for key in self.keys()]
            with open(temp_path, "wb") as temp:
                for key, value in entries:
                    assert value is not None
                    temp.write(self._frame(_FLAG_PUT, key, value))
            # Invalidate-first: the index and length describe the old
            # log, so a failure reopening or re-scanning the new one must
            # not leave them pointing into it.
            self._index.clear()
            self._live_bytes = 0
            self._length = 0
            self._handle.close()
            os.replace(temp_path, self.path)
            self._handle = open(self.path, "a+b")
            self._recover()
            self._length = self._handle.seek(0, os.SEEK_END)
