"""Zero-copy buffer transport for the process backend, leak-proof.

Shard fan-out to worker *processes* (:mod:`repro.parallel.procpool`)
cannot share numpy arrays the way threads do, and pickling dense
mirrors through pipes would erase the win the workers exist for.  This
module moves the packed buffers — character-code arrays, per-character
``(σ, T, T_em)`` stacks, :class:`~repro.kernels.bitmat.BitMatrix` /
``PackedVec`` words, serialized SLP arenas — through
``multiprocessing.shared_memory`` instead: the parent lays every input
array and every preallocated result slot out in **one segment per
request**, workers attach, compute, and write results in place, and the
only bytes that cross a pipe are task descriptors and acknowledgements.

The hard part of shared memory is not sharing it but *unlinking* it: a
worker that is OOM-killed or SIGKILLed mid-fold can never run its
cleanup, and a leaked ``/dev/shm`` segment outlives the process that
lost it.  The leak-proofing contract here is structural, and
``tools/check_shm_hygiene.py`` lints it:

* **only the parent creates segments** — workers attach to existing
  names and never own one, so no worker death can leak a segment;
* every creation goes through a :class:`SegmentRegistry`, whose
  ``close()`` runs on success, failure, and (via ``atexit``) interpreter
  exit — the unlink does not depend on the request finishing cleanly;
* workers share the parent's ``resource_tracker`` (they start from a
  forkserver or by spawn, and both pass the tracker's fd on), so a
  worker's attach-time registration is a duplicate of the parent's and
  never triggers an unlink of its own when the worker exits.

:func:`live_segments` reports every segment this process created and has
not yet unlinked; the test suite asserts it is empty after every
process-backend test, crash tests included.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ParallelError

__all__ = [
    "SEGMENT_PREFIX",
    "SegmentRegistry",
    "ShmArray",
    "attach",
    "attached_job",
    "live_segments",
]

#: every segment this module creates is named
#: ``repro-shm-<pid>-<token>-<counter>``: the pid plus a random token make
#: the name host-unique (concurrent repro processes never collide, nor does
#: a restart collide with segments a SIGKILLed predecessor leaked), the
#: counter makes it unique within a process, and the prefix keeps stray
#: segments attributable (grep-able in ``/dev/shm``)
SEGMENT_PREFIX = "repro-shm"

_ALIGN = 64  # align each array's offset; keeps views cache-line friendly

_live_lock = threading.Lock()
_live: dict[str, object] = {}  # name -> SharedMemory (created, not yet unlinked)
_counter = 0


def _shared_memory():
    """Deferred stdlib import (importing it spawns no tracker by itself,
    but keeping it out of module import keeps cold starts lean)."""
    from multiprocessing import shared_memory

    return shared_memory


def _segment_name() -> str:
    """A fresh host-unique segment name (see :data:`SEGMENT_PREFIX`)."""
    global _counter
    with _live_lock:
        _counter += 1
        count = _counter
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}-{count}"


def live_segments() -> list[str]:
    """Names of segments created by this process and not yet unlinked.

    The leak oracle: after any process-backend request — successful,
    failed, or chaos-killed — this list must be empty again once the
    request's :class:`SegmentRegistry` closed."""
    with _live_lock:
        return sorted(_live)


def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    with _live_lock:
        leftovers = list(_live.values())
        _live.clear()
    for segment in leftovers:
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass


atexit.register(_cleanup_at_exit)


@dataclass(frozen=True)
class ShmArray:
    """A picklable pointer to one numpy array inside a shared segment."""

    segment: str
    dtype: str
    shape: tuple
    offset: int

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


class SegmentRegistry:
    """Owner of every shared-memory segment of one parent-side request.

    A context manager: segments created inside the ``with`` block are
    unlinked when it exits — on the success path, on any exception, and
    (should the process die with registries open) by the module's
    ``atexit`` hook.  Unlink is idempotent; a vanished segment is not an
    error during cleanup."""

    def __init__(self) -> None:
        self._segments: list = []
        self._closed = False

    # -- creation (the only SharedMemory creation site in the library) --
    def create(self, nbytes: int):
        if self._closed:
            raise RuntimeError("SegmentRegistry used after close")
        shared_memory = _shared_memory()
        size = max(1, int(nbytes))
        t0 = time.perf_counter_ns() if obs.enabled() else 0
        segment = None
        last_error: BaseException | None = None
        # the pid + random token in _segment_name() make a clash all but
        # impossible, but a leaked segment from a pid-reused predecessor
        # still costs only a retry under a fresh token, never the request
        for _ in range(8):
            try:
                segment = shared_memory.SharedMemory(
                    create=True, name=_segment_name(), size=size
                )
                break
            except FileExistsError as exc:
                last_error = exc
        if segment is None:
            raise ParallelError(
                "could not allocate a unique shared-memory segment name"
                " after 8 attempts"
            ) from last_error
        with _live_lock:
            _live[segment.name] = segment
        self._segments.append(segment)
        if obs.enabled():
            registry = obs.metrics()
            registry.counter("parallel.shm.segments").inc()
            registry.counter("parallel.shm.bytes").inc(segment.size)
            registry.histogram("parallel.shm.create_ns").record(
                time.perf_counter_ns() - t0
            )
        return segment

    def pack(self, arrays) -> list[ShmArray]:
        """Copy *arrays* into one fresh segment; return their descriptors.

        Arrays are laid out back to back at :data:`_ALIGN`-byte offsets.
        Pass ``(shape, dtype)`` tuples instead of arrays to reserve
        zero-initialised writable slots (result buffers workers fill)."""
        t0 = time.perf_counter_ns() if obs.enabled() else 0
        specs = []
        offset = 0
        for item in arrays:
            if isinstance(item, tuple):
                shape, dtype = item
                source = None
            else:
                source = np.ascontiguousarray(item)
                shape, dtype = source.shape, source.dtype
            descr = ShmArray(
                segment="", dtype=np.dtype(dtype).str, shape=tuple(shape), offset=offset
            )
            specs.append((descr, source))
            offset += descr.nbytes
            offset += (-offset) % _ALIGN
        segment = self.create(offset)
        out = []
        for descr, source in specs:
            descr = ShmArray(segment.name, descr.dtype, descr.shape, descr.offset)
            view = _view(segment, descr)
            view[...] = 0 if source is None else source
            out.append(descr)
        if obs.enabled():
            # pack time *includes* the create call above; subtracting the
            # create histogram's contribution is the reader's job — the
            # phases are reported raw so neither is double-fitted
            obs.metrics().histogram("parallel.shm.pack_ns").record(
                time.perf_counter_ns() - t0
            )
        return out

    def read(self, descr: ShmArray) -> np.ndarray:
        """Copy one of this registry's arrays out (e.g. a result slot a
        worker filled).  The copy detaches the caller from the segment's
        lifetime, so the registry can unlink immediately afterwards."""
        for segment in self._segments:
            if segment.name == descr.segment:
                if not obs.enabled():
                    return _view(segment, descr).copy()
                t0 = time.perf_counter_ns()
                out = _view(segment, descr).copy()
                obs.metrics().histogram("parallel.shm.unpack_ns").record(
                    time.perf_counter_ns() - t0
                )
                return out
        raise KeyError(f"segment {descr.segment!r} is not owned by this registry")

    def close(self) -> None:
        """Unlink everything this registry created (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            with _live_lock:
                _live.pop(segment.name, None)
            try:
                segment.close()
            except Exception:
                pass
            try:
                segment.unlink()
            except Exception:
                pass
        self._segments = []

    def __enter__(self) -> "SegmentRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _view(segment, descr: ShmArray) -> np.ndarray:
    return np.ndarray(
        descr.shape,
        dtype=np.dtype(descr.dtype),
        buffer=segment.buf,
        offset=descr.offset,
    )


# ----------------------------------------------------------------------
# worker side: attach, never create, never unlink
# ----------------------------------------------------------------------
def attach(name: str):
    """Attach to a parent-owned segment.

    Workers share the parent's resource tracker, so the registration
    ``SharedMemory`` makes here duplicates the parent's and is left
    alone: the parent's unlink clears it, and this process's exit never
    unlinks the segment.  Removing it would strip the parent's own entry
    and make the tracker report a ``KeyError`` at unlink time."""
    t0 = time.perf_counter_ns() if obs.enabled() else 0
    segment = _shared_memory().SharedMemory(name=name)
    if obs.enabled():
        obs.metrics().histogram("parallel.shm.attach_ns").record(
            time.perf_counter_ns() - t0
        )
    return segment


class attached_job:
    """Worker-side view of one request's descriptors.

    ``with attached_job() as job:`` — :meth:`array` maps a descriptor to
    a live numpy view (segments attached once, cached by name); exiting
    closes every attachment (close only — unlink belongs to the parent)."""

    def __init__(self) -> None:
        self._segments: dict = {}

    def array(self, descr: ShmArray) -> np.ndarray:
        segment = self._segments.get(descr.segment)
        if segment is None:
            segment = attach(descr.segment)
            self._segments[descr.segment] = segment
        return _view(segment, descr)

    def __enter__(self) -> "attached_job":
        return self

    def __exit__(self, *exc) -> None:
        for segment in self._segments.values():
            try:
                segment.close()
            except Exception:
                pass
        self._segments = {}
