"""Fault-injection hooks for robustness testing.

Production code calls :func:`trip` at a handful of named *sites* (plan
transformation, per-plan matching, knowledge-base entries).  By default
nothing is armed and the hook is a single module-attribute read — no
locks, no dictionary lookups — so the hot paths pay effectively nothing.

Tests arm a site with :func:`inject` (or the :func:`injected` context
manager) to make it raise a chosen exception and/or stall for a fixed
delay, optionally restricted to specific keys (plan ids, entry names)
and a maximum trigger count::

    from repro.testing import chaos

    with chaos.injected("matcher.search_plan", keys={"qep-0003"},
                        exc=RuntimeError("boom")):
        engine.search_isolated(pattern, workload)   # qep-0003 fails,
                                                    # the rest succeed

Site registry
-------------
Every production trip point is declared in :data:`SITES` below — the
single authoritative list the campaign runner
(:mod:`repro.testing.campaign`) enumerates, so the swept surface can
never silently drift from the instrumented surface (a regression test
greps the source tree for ``chaos.trip``/``chaos.short_write`` call
sites and asserts they match the registry).  Each
:class:`ChaosSite` records what the key means and which fault *kinds*
are meaningful there:

``exc`` / ``delay`` / ``kill``
    Generic faults, meaningful at every site.
``enospc`` / ``eio``
    errno-carrying ``OSError`` injections (disk full / device error),
    meaningful at the I/O sites (``wal.append``, ``wal.fsync``,
    ``checkpoint.rename``) where an ``OSError`` takes the real
    journal-device failure path (``WalError`` → read-only latch).
``short_write``
    A partial append: only a prefix of the frame reaches the file
    before the device fails (``wal.append`` only).  Armed with
    ``short_write=<n>`` the writer persists the first *n* bytes of the
    frame, then raises the armed exception (default
    ``OSError(EIO)``) — or dies when ``kill=True`` — leaving a torn
    frame that recovery must truncate at the last valid CRC boundary.

Cross-process injection
-----------------------
Pool workers are separate interpreters, so a site armed in the test
process is invisible to them.  The multiprocess dispatcher ships
:func:`export_spec` (a picklable description of every armed site) with
each task and the worker re-arms itself via :func:`install_spec`.
``times`` counts are therefore per-worker-task, not global.  The
``kill=True`` injection terminates the worker with ``os._exit`` — the
hammer the worker-crash recovery tests swing.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Union

#: Exit status used by ``kill=True`` injections (distinctive in waitpid).
KILL_EXIT_CODE = 86

#: Every fault kind the campaign matrix knows how to arm.
FAULT_KINDS = ("exc", "delay", "kill", "enospc", "eio", "short_write")

#: Kind subsets by site flavor: logic sites take the generic faults,
#: I/O sites additionally take errno-carrying OSErrors, and only the
#: journal append path supports partial writes.
LOGIC_KINDS = ("exc", "delay", "kill")
IO_KINDS = ("exc", "delay", "kill", "enospc", "eio")


@dataclass(frozen=True)
class ChaosSite:
    """One registered trip point: where it fires and what fits there."""

    name: str
    description: str
    keyed_by: str
    kinds: tuple = LOGIC_KINDS


#: The authoritative site list (name → :class:`ChaosSite`).  Extend via
#: :func:`register_site`; the campaign runner sweeps exactly this.
SITES: "Dict[str, ChaosSite]" = {}


def register_site(
    name: str, description: str, keyed_by: str, kinds: tuple = LOGIC_KINDS
) -> ChaosSite:
    """Declare a trip point (idempotent; bad kinds raise ValueError)."""
    unknown = set(kinds) - set(FAULT_KINDS)
    if unknown:
        raise ValueError(f"unknown fault kinds for site {name!r}: {unknown}")
    site = ChaosSite(name, description, keyed_by, tuple(kinds))
    SITES[name] = site
    return site


def registered_sites() -> "List[ChaosSite]":
    """Every registered site, sorted by name (deterministic sweeps)."""
    return [SITES[name] for name in sorted(SITES)]


register_site(
    "transform.transform_plan",
    "before a plan is transformed to RDF",
    keyed_by="plan id",
)
register_site(
    "matcher.search_plan",
    "before a plan graph is evaluated",
    keyed_by="plan id",
)
register_site(
    "kb.entry",
    "before a KB entry's pattern is searched",
    keyed_by="entry name",
)
register_site(
    "mpexec.worker_plan",
    "inside a pool worker process, before a plan is evaluated "
    "against its shared-memory graph view",
    keyed_by="plan id",
)
register_site(
    "wal.append",
    "before a journal record is framed and written; OSError takes the "
    "journal-device failure path (read-only latch)",
    keyed_by="plan id (an add_batch record's first; op name for "
    "plan-less records)",
    kinds=FAULT_KINDS,
)
register_site(
    "wal.fsync",
    "before the journal file is fsynced",
    keyed_by="journal file name (wal-<seq>.log)",
    kinds=IO_KINDS,
)
register_site(
    "checkpoint.rename",
    "between writing ckpt-<seq>.bin.tmp and the atomic rename — the "
    "window a crash must leave recoverable",
    keyed_by="checkpoint sequence number",
    kinds=IO_KINDS,
)

#: Fast-path flag: hooks check this before anything else.  Only the
#: functions below mutate it (under the lock).
active = False

_lock = threading.Lock()


@dataclass
class _Injection:
    exc: Optional[Union[BaseException, Callable[[], BaseException]]] = None
    delay: float = 0.0
    keys: Optional[Set[str]] = None
    remaining: Optional[int] = None  # None = unlimited triggers
    kill: bool = False  # hard-exit the process at the trip point
    short_write: Optional[int] = None  # bytes persisted before failing

    def matches(self, key: Optional[str]) -> bool:
        if self.keys is None:
            return True
        return key is not None and key in self.keys


_sites: Dict[str, _Injection] = {}


def inject(
    site: str,
    *,
    exc: Optional[Union[BaseException, Callable[[], BaseException]]] = None,
    delay: float = 0.0,
    keys: Optional[Set[str]] = None,
    times: Optional[int] = None,
    kill: bool = False,
    short_write: Optional[int] = None,
) -> None:
    """Arm *site* to stall for *delay* seconds, raise *exc*, or die.

    *exc* may be an exception instance (re-raised on every trigger) or a
    zero-argument factory.  *keys* restricts triggering to specific keys
    (plan ids / entry names); *times* caps the number of triggers, after
    which the site disarms itself.  *kill* terminates the whole process
    with ``os._exit(KILL_EXIT_CODE)`` at the trip point — it simulates a
    worker crash (segfault/OOM-kill) that no ``except`` can observe.
    *short_write* (``wal.append`` only) persists that many bytes of the
    frame before failing with *exc* (default ``OSError(EIO)``) or, with
    *kill*, dying — a torn append, exactly what a crash mid-``write``
    or a full disk leaves behind.
    """
    global active
    if exc is None and delay <= 0 and not kill and short_write is None:
        raise ValueError("inject() needs an exception, a delay, a kill, or some")
    if short_write is not None and short_write < 0:
        raise ValueError(f"short_write must be >= 0: {short_write}")
    with _lock:
        _sites[site] = _Injection(
            exc=exc,
            delay=delay,
            keys=set(keys) if keys is not None else None,
            remaining=times,
            kill=kill,
            short_write=short_write,
        )
        active = True


def clear(site: Optional[str] = None) -> None:
    """Disarm one *site*, or everything when called without arguments."""
    global active
    with _lock:
        if site is None:
            _sites.clear()
        else:
            _sites.pop(site, None)
        active = bool(_sites)


@contextmanager
def injected(site: str, **kwargs) -> Iterator[None]:
    """Arm *site* for the duration of the ``with`` block (always disarms)."""
    inject(site, **kwargs)
    try:
        yield
    finally:
        clear(site)


def _consume(site: str, key: Optional[str]) -> Optional[_Injection]:
    """Match *site*/*key* against the armed table, spend one trigger.

    Returns a detached snapshot of the injection (safe to act on
    outside the lock) or ``None`` when nothing fires.
    """
    with _lock:
        injection = _sites.get(site)
        if injection is None or not injection.matches(key):
            return None
        if injection.remaining is not None:
            if injection.remaining <= 0:
                return None
            # Keep the site entry (and ``active``) until clear();
            # remaining==0 simply stops further triggers.
            injection.remaining -= 1
        return _Injection(
            exc=injection.exc,
            delay=injection.delay,
            kill=injection.kill,
            short_write=injection.short_write,
        )


def trip(site: str, key: Optional[str] = None) -> None:
    """Hook point: stall/raise if *site* is armed and *key* matches.

    Call guarded by ``chaos.active`` so the disarmed cost is one
    attribute read at the call site.  Injections armed with
    ``short_write`` are NOT fired here — they only fire through
    :func:`short_write`, so a write-layer site that checks both hooks
    triggers each injection exactly once.
    """
    if not active:  # double-check under races; callers pre-check too
        return
    with _lock:
        injection = _sites.get(site)
        if injection is None or injection.short_write is not None:
            return
    injection = _consume(site, key)
    if injection is None:
        return
    if injection.delay > 0:
        time.sleep(injection.delay)
    if injection.kill:
        # A real crash: bypass finally blocks, atexit and the executor's
        # result plumbing, exactly like a segfault or the OOM killer.
        os._exit(KILL_EXIT_CODE)
    if injection.exc is not None:
        raise injection.exc() if callable(injection.exc) else injection.exc


def short_write(site: str, key: Optional[str] = None) -> Optional[_Injection]:
    """Hook point for write layers that can persist a partial frame.

    Returns the consumed injection when *site* is armed with
    ``short_write`` and *key* matches, else ``None``.  The caller is
    expected to write ``injection.short_write`` bytes of its frame,
    force them to the device, then finish the fault itself: die when
    ``injection.kill``, otherwise raise ``injection.exc`` (or a default
    ``OSError(EIO)``) — see :meth:`repro.store.wal.WalWriter.append`.
    """
    if not active:
        return None
    with _lock:
        injection = _sites.get(site)
        if injection is None or injection.short_write is None:
            return None
    return _consume(site, key)


def remaining(site: str) -> Optional[int]:
    """Triggers left on *site* (None = not armed / unlimited).

    The campaign runner uses this to report whether an armed injection
    actually fired: ``inject(..., times=1)`` followed by a workload that
    hit the site leaves ``remaining == 0``.
    """
    with _lock:
        injection = _sites.get(site)
        return injection.remaining if injection is not None else None


def export_spec() -> Optional[List[dict]]:
    """Picklable description of every armed site, for pool workers.

    Exception *instances* are pickled as-is; unpicklable instances and
    callable factories degrade to a ``RuntimeError`` carrying their
    ``repr`` (the cross-process contract is "this site fails", not
    "with this exact object").  Returns ``None`` when nothing is armed.
    """
    with _lock:
        if not _sites:
            return None
        spec = []
        for site, injection in _sites.items():
            exc_bytes = None
            if injection.exc is not None:
                try:
                    exc_bytes = pickle.dumps(injection.exc)
                    pickle.loads(exc_bytes)  # must survive the round trip
                except Exception:
                    exc_bytes = pickle.dumps(RuntimeError(repr(injection.exc)))
            spec.append(
                {
                    "site": site,
                    "exc": exc_bytes,
                    "delay": injection.delay,
                    "keys": sorted(injection.keys) if injection.keys else None,
                    "remaining": injection.remaining,
                    "kill": injection.kill,
                    "short_write": injection.short_write,
                }
            )
        return spec


def install_spec(spec: Optional[List[dict]]) -> None:
    """Arm this process from an :func:`export_spec` payload.

    Replaces the whole armed-site table (workers call this per task, so
    a site cleared in the parent disarms here on the next task).
    """
    global active
    with _lock:
        _sites.clear()
        for entry in spec or ():
            exc = pickle.loads(entry["exc"]) if entry["exc"] is not None else None
            _sites[entry["site"]] = _Injection(
                exc=exc,
                delay=entry["delay"],
                keys=set(entry["keys"]) if entry["keys"] is not None else None,
                remaining=entry["remaining"],
                kill=entry["kill"],
                short_write=entry.get("short_write"),
            )
        active = bool(_sites)
