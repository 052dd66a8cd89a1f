"""Unit tests for the repro.testing.chaos fault-injection helper."""

import time

import pytest

from repro.testing import chaos


def test_disarmed_by_default():
    assert chaos.active is False
    chaos.trip("matcher.search_plan", "anything")  # no-op


def test_inject_requires_effect():
    with pytest.raises(ValueError):
        chaos.inject("some.site")


def test_exception_injection():
    chaos.inject("some.site", exc=RuntimeError("boom"))
    assert chaos.active is True
    with pytest.raises(RuntimeError, match="boom"):
        chaos.trip("some.site")
    chaos.clear("some.site")
    assert chaos.active is False
    chaos.trip("some.site")  # disarmed again


def test_exception_factory():
    counter = {"n": 0}

    def factory():
        counter["n"] += 1
        return ValueError(f"fault {counter['n']}")

    chaos.inject("some.site", exc=factory)
    with pytest.raises(ValueError, match="fault 1"):
        chaos.trip("some.site")
    with pytest.raises(ValueError, match="fault 2"):
        chaos.trip("some.site")


def test_key_filtering():
    chaos.inject("some.site", exc=RuntimeError("boom"), keys={"bad-plan"})
    chaos.trip("some.site", "good-plan")  # no match → no fault
    chaos.trip("some.site", None)  # keyless trip never matches a key set
    with pytest.raises(RuntimeError):
        chaos.trip("some.site", "bad-plan")


def test_trigger_count_cap():
    chaos.inject("some.site", exc=RuntimeError("boom"), times=2)
    for _ in range(2):
        with pytest.raises(RuntimeError):
            chaos.trip("some.site")
    chaos.trip("some.site")  # third trigger: cap reached, no fault


def test_delay_injection():
    chaos.inject("some.site", delay=0.05)
    start = time.monotonic()
    chaos.trip("some.site")
    assert time.monotonic() - start >= 0.05


def test_injected_context_manager_always_disarms():
    with pytest.raises(RuntimeError):
        with chaos.injected("some.site", exc=RuntimeError("boom")):
            chaos.trip("some.site")
    assert chaos.active is False


def test_clear_all():
    chaos.inject("a", exc=RuntimeError("a"))
    chaos.inject("b", exc=RuntimeError("b"))
    chaos.clear()
    assert chaos.active is False
    chaos.trip("a")
    chaos.trip("b")


# ----------------------------------------------------------------------
# Free when off: with chaos disarmed and the resource guards at their
# defaults, the hooks on the WAL append and ingest-admission paths are
# flag reads that never reach the fault machinery or the probes.
# ----------------------------------------------------------------------
class _CountingChaos:
    """Stands in for the chaos module: counts ``active`` reads (always
    disarmed) and fails the test if a hook is called."""

    def __init__(self):
        self.active_reads = 0

    @property
    def active(self):
        self.active_reads += 1
        return False

    def trip(self, *args, **kwargs):
        raise AssertionError("chaos.trip called while disarmed")

    def short_write(self, *args, **kwargs):
        raise AssertionError("chaos.short_write called while disarmed")


@pytest.mark.parametrize("policy, reads", [("async", 1), ("fsync", 2)])
def test_disarmed_wal_append_reads_the_flag_and_calls_no_hook(
    tmp_path, monkeypatch, policy, reads
):
    from repro.store import wal

    chaos.clear()
    stand_in = _CountingChaos()
    monkeypatch.setattr(wal, "chaos", stand_in)
    writer = wal.WalWriter(str(tmp_path / "journal.log"), fsync=policy)
    try:
        writer.append({"op": "add", "plan": "qep-0001", "source": "x" * 64})
        # one check on append, plus one in the fsync the policy forces
        assert stand_in.active_reads == reads
    finally:
        writer.close()


def test_disabled_admission_guards_call_no_probe(tmp_path):
    from repro.server.common import ServerState

    def probe(*args):
        raise AssertionError("resource probe called while its guard is off")

    state = ServerState(workers=1, min_free_bytes=0, max_rss_bytes=0)
    try:
        # A journal device to probe, so only the zero floor skips it.
        state.data_dir = str(tmp_path)
        state._disk_usage = probe
        state._rss_probe = probe
        state.check_ingest_allowed(state.retry_after_seconds)
    finally:
        state.tool.close()
