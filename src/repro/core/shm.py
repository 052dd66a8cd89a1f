"""Shared-memory packaging of workload graph snapshots.

The multiprocess matching tier (:mod:`repro.core.mpexec`) needs every
worker to see the workload's plan graphs without pickling them per
task.  This module packs the flat per-graph snapshots produced by
:func:`repro.rdf.snapshot.encode_graph` into **one**
:class:`multiprocessing.shared_memory.SharedMemory` segment, and
records where each graph sits — ``(segment name, offset, length)`` —
in that graph's own per-version memo (kind ``"snapshot"``).  Workers
attach the segment once (zero-copy) and open a
:class:`repro.rdf.snapshot.GraphView` per plan at its offset.  The
parent re-uses a segment for a search only when every pending graph's
memo names it (:meth:`WorkloadSnapshot.locate`): a mutated graph has a
new memo and a replacing graph its own, so either makes the parent
rebuild (new segment, old one unlinked).  Nothing is keyed on a plan
id, so two plans sharing an id each read their own image.

Leak safety: every created segment is registered for cleanup three
ways — an explicit :meth:`WorkloadSnapshot.close` (called by
``MatchingEngine.close()``), a :class:`weakref.finalize` on the
snapshot object, and a process-level :mod:`atexit` hook that unlinks
any segment still alive at interpreter shutdown.  ``/dev/shm`` must
hold nothing of ours once the engine is closed (asserted by
``tests/core/test_mp_engine.py``).

Attaching without the resource tracker
--------------------------------------
On Python < 3.13, ``SharedMemory(name=...)`` *registers* the segment
with the per-process resource tracker, and each worker's tracker would
then unlink the segment when that worker exits — yanking it out from
under its siblings (and spamming KeyError warnings).  The parent owns
the lifecycle here, so :func:`attach_untracked` suppresses the
registration for the duration of the attach (the ``track=False``
parameter that solves this properly is 3.13+).
"""

from __future__ import annotations

import atexit
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro.rdf.snapshot import encode_graph

try:  # pragma: no cover - exercised implicitly on every import
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platforms without _posixshmem
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

#: The memo kind, and its one key, holding a graph's
#: ``(segment name, offset, length)``.
MEMO_KIND = "snapshot"

_available: Optional[bool] = None
_lock = threading.Lock()
#: Names of segments created by this process that are not yet unlinked.
_live_segments: Dict[str, "shared_memory.SharedMemory"] = {}


def shm_available() -> bool:
    """Can this host create and attach POSIX shared memory?

    Probed once (create + attach + unlink of a tiny segment); sandboxed
    environments without ``/dev/shm`` make the engine fall back to the
    in-process path instead of failing searches.
    """
    global _available
    if _available is None:
        if shared_memory is None:
            _available = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=8)
                try:
                    probe.buf[:8] = b"optprobe"
                    second = attach_untracked(probe.name)
                    second.close()
                finally:
                    probe.close()
                    probe.unlink()
                _available = True
            except Exception:
                _available = False
    return _available


def attach_untracked(name: str) -> "shared_memory.SharedMemory":
    """Attach an existing segment without resource-tracker registration.

    See the module docstring; safe to call concurrently (the patch
    window is serialized under a lock).
    """
    with _lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _release_segment(shm: "shared_memory.SharedMemory") -> None:
    """Close + unlink one segment; idempotent and exception-safe."""
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass  # already unlinked (close() raced the finalizer / atexit)
    _live_segments.pop(shm.name, None)


@atexit.register
def _cleanup_live_segments() -> None:  # pragma: no cover - shutdown path
    for shm in list(_live_segments.values()):
        _release_segment(shm)


class WorkloadSnapshot:
    """One shared-memory segment holding snapshots of many plan graphs.

    Parameters
    ----------
    plans:
        The transformed plans to pack (anything with a
        dictionary-encoded ``graph``).  Every graph is serialized with
        :func:`repro.rdf.snapshot.encode_graph` at an 8-byte-aligned
        offset; :attr:`locations` lists each one's ``(offset, length)``
        in the order given, and each graph's ``"snapshot"`` memo names
        this segment.  The memo is fetched before the graph is encoded,
        so a graph that mutates meanwhile records the location in its
        superseded memo and is never served this image again.
    """

    def __init__(self, plans: Sequence):
        if shared_memory is None:  # pragma: no cover - guarded by caller
            raise RuntimeError("shared memory is unavailable on this platform")
        memos = []
        locations: List[Tuple[int, int]] = []
        chunks = []
        offset = 0
        for transformed in plans:
            memos.append(transformed.graph.memo(MEMO_KIND))
            buf = encode_graph(transformed.graph)
            locations.append((offset, len(buf)))
            chunks.append(buf)
            padding = (-len(buf)) % 8
            if padding:
                chunks.append(b"\x00" * padding)
            offset += len(buf) + padding
        self.locations = locations
        self.total_bytes = max(offset, 8)
        shm = shared_memory.SharedMemory(create=True, size=self.total_bytes)
        position = 0
        for chunk in chunks:
            shm.buf[position:position + len(chunk)] = chunk
            position += len(chunk)
        self._shm = shm
        self.name = shm.name
        self._closed = False
        _live_segments[shm.name] = shm
        self._finalizer = weakref.finalize(self, _release_segment, shm)
        for memo, location in zip(memos, locations):
            memo[MEMO_KIND] = (shm.name,) + location

    def locate(self, plans: Sequence) -> Optional[List[Tuple[int, int]]]:
        """Each plan's ``(offset, length)`` in this segment, or None
        unless every plan's current ``"snapshot"`` memo names it."""
        if self._closed:
            return None
        located = []
        for transformed in plans:
            entry = transformed.graph.memo(MEMO_KIND).get(MEMO_KIND)
            if entry is None or entry[0] != self.name:
                return None
            located.append(entry[1:])
        return located

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unlink the segment (idempotent).

        Attached workers keep their mappings alive until they drop them
        (POSIX semantics), but the name disappears from ``/dev/shm``
        immediately, so nothing leaks even if workers linger.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release_segment(self._shm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<WorkloadSnapshot {self.name} plans={len(self.locations)} "
            f"bytes={self.total_bytes} {state}>"
        )
