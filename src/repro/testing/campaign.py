"""Deterministic fault-injection campaign runner.

``python -m repro.testing.campaign`` sweeps **every registered chaos
site** (:data:`repro.testing.chaos.SITES` — the authoritative registry,
so the swept surface cannot drift from the instrumented surface)
crossed with every fault kind that site supports, runs a seeded
scripted workload against each arm, and checks one shared invariant
suite after every arm:

* every plan the server **acked durably** (``?ack=sync`` + 2xx) is
  present after recovery, exactly once (no lost or duplicated
  ingestion);
* post-recovery per-plan search results are **byte-identical** to a
  fault-free control arm;
* ``/health`` answered 200 at every probe point, fault or not;
* journal-device faults (``enospc`` / ``eio`` / ``short_write`` at the
  WAL sites, ``enospc`` / ``eio`` at the checkpoint rename) latched the
  store read-only with the matching
  ``optimatch_durability_errors_total{kind=...}`` metric;
* recovery leaves no stray ``*.tmp`` files and the arm leaks no
  ``/dev/shm`` segments;
* per-plan ``graph.version`` is monotonic across the whole arm,
  including the restart.

Each arm runs its workload in a **child process** (``--child``): a
``kill=True`` injection calls ``os._exit`` at the trip point, which
must take down the workload, not the campaign.  The child journals
everything it observes (acks, versions, health probes, durability
state, metrics) to an NDJSON event log — each line flushed *and
fsynced*, because ``os._exit`` does not flush Python buffers — and the
parent replays the log against the invariant suite after recovering
the arm's data directory itself (the "restart" leg of the workload).

Determinism: the arm list is the sorted site registry crossed with each
site's declared kinds, the workload is seeded, and the report contains
no wall-clock data — a fixed seed yields an identical arm list and an
identical report, byte for byte.  The report is machine-readable JSON
(``--report``); exit status is 0 only when every arm upholds every
invariant.  CI runs a bounded slice (``--sites``/``--kinds``); see
docs/chaos.md for the full matrix and report format.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.testing import chaos

#: Seed for the scripted workload (overridable via --seed).
DEFAULT_SEED = 7

#: Per-arm child budget, seconds.  Generous: the heaviest arm (a
#: process-pool spawn for the mpexec site) stays well under a minute.
CHILD_TIMEOUT_S = 180

#: The searches every arm (and the control) runs; post-recovery results
#: must be byte-identical per plan.  Kept tiny so the campaign is
#: workload-bound, not search-bound.
SEARCH_QUERIES = {
    "return-ops": (
        'PREFIX predURI: <http://optimatch/predicate#>\n'
        'SELECT ?p WHERE { ?p predURI:hasPopType "RETURN" }'
    ),
    "stream-hop": (
        'PREFIX predURI: <http://optimatch/predicate#>\n'
        'SELECT ?a ?b WHERE { ?a predURI:hasInputStream ?s . '
        '?s predURI:hasInputStream ?b }'
    ),
}

#: Arms whose injection is expected to latch the store read-only, and
#: the durability-error kind the latch must be classified as.
LATCH_KIND = {
    ("wal.append", "enospc"): "enospc",
    ("wal.append", "eio"): "eio",
    # A short write fails with the armed exception, default OSError(EIO).
    ("wal.append", "short_write"): "eio",
    ("wal.fsync", "enospc"): "enospc",
    ("wal.fsync", "eio"): "eio",
    ("checkpoint.rename", "enospc"): "enospc",
    ("checkpoint.rename", "eio"): "eio",
}

#: Sites where a ``kill`` injection terminates the whole child process
#: (everything except the pool-worker site, where only the worker dies).
_CHILD_FATAL_KILL_EXEMPT = {"mpexec.worker_plan"}


def build_arms(
    sites: Optional[List[str]] = None, kinds: Optional[List[str]] = None
) -> List[Tuple[str, str]]:
    """The deterministic arm list: sorted sites × declared kinds."""
    arms = []
    for site in chaos.registered_sites():
        if sites and site.name not in sites:
            continue
        for kind in site.kinds:
            if kinds and kind not in kinds:
                continue
            arms.append((site.name, kind))
    return arms


def _fault_kwargs(kind: str) -> dict:
    """inject() arguments for one fault kind (times=1 everywhere, so an
    arm fires exactly one fault and the workload continues past it)."""
    import errno

    if kind == "exc":
        return {"exc": RuntimeError("chaos: injected failure")}
    if kind == "delay":
        return {"delay": 0.05}
    if kind == "kill":
        return {"kill": True}
    if kind == "enospc":
        return {"exc": OSError(errno.ENOSPC, "chaos: no space left on device")}
    if kind == "eio":
        return {"exc": OSError(errno.EIO, "chaos: input/output error")}
    if kind == "short_write":
        return {"short_write": 5}
    raise ValueError(f"unknown fault kind: {kind}")


# ----------------------------------------------------------------------
# Child: the scripted workload under one armed fault
# ----------------------------------------------------------------------
class _EventLog:
    """NDJSON event sink, flushed+fsynced per line (kill-proof)."""

    def __init__(self, path: str):
        self._fh = open(path, "a", encoding="utf-8")

    def emit(self, event: str, **fields) -> None:
        record = {"event": event}
        record.update(fields)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())


def _plan_texts(seed: int, count: int = 10) -> List[Tuple[str, str]]:
    """Deterministic (plan_id, explain_text) pairs for the workload."""
    from repro.qep.writer import write_plan
    from repro.workload import generate_workload

    plans = generate_workload(count, seed=seed, size_sampler=lambda rng: 8)
    return [(plan.plan_id, write_plan(plan)) for plan in plans]


def _dispatch(state, log, step, method, path, body=b"", content_type="text/plain"):
    """One in-process request through the shared route table, logged.

    Wraps :func:`repro.server.common.dispatch` in the catch-all both
    fronts implement: an unexpected exception (e.g. an injected
    ``RuntimeError`` escaping the WAL) becomes a 500, not a child crash.
    """
    from repro.server.common import dispatch

    if isinstance(body, str):
        body = body.encode("utf-8")
    headers = {
        "content-type": content_type,
        "content-length": str(len(body)),
    }
    try:
        response = dispatch(state, method, path, headers, body)
        payload = json.loads(response.body) if response.body else {}
        log.emit(
            "step",
            name=step,
            status=response.status,
            code=payload.get("code", "") if isinstance(payload, dict) else "",
            payload=payload if response.status < 300 else {},
        )
        return response.status, payload
    except Exception as exc:  # noqa: BLE001 — the front's catch-all 500
        log.emit("step", name=step, status=500, code="internal",
                 error=f"{type(exc).__name__}: {exc}")
        return 500, {}


def _stream_ingest(state, log, step, items) -> None:
    """Drive the streaming-ingest state machine directly (no sockets),
    with crash-durable per-batch acks (``ack=sync``)."""
    from repro.server.common import _RequestError
    from repro.server.stream import StreamError, StreamSession

    body = b"".join(
        json.dumps({"plan": text, "id": plan_id}).encode("utf-8") + b"\n"
        for plan_id, text in items
    )
    try:
        session = StreamSession(state, {"ack": ["sync"], "batch": ["2"]})
        acks = [json.loads(a) for a in session.feed(body)]
        final_acks, response = session.finish()
        acks.extend(json.loads(a) for a in final_acks if a)
        for ack in acks:
            if ack.get("done"):
                continue
            log.emit("step", name=f"{step}:batch{ack['seq']}", status=200,
                     code="", payload=ack)
            if ack.get("synced"):
                log.emit("acked", planIds=ack["planIds"])
        log.emit("step", name=step, status=response.status, code="")
    except StreamError as exc:
        log.emit("step", name=step, status=exc.status, code=exc.code,
                 error=str(exc))
    except _RequestError as exc:
        log.emit("step", name=step, status=exc.status, code=exc.code,
                 error=str(exc))
    except Exception as exc:  # noqa: BLE001
        log.emit("step", name=step, status=500, code="internal",
                 error=f"{type(exc).__name__}: {exc}")


def _log_acked(log, status, payload) -> None:
    """Record durably-acked plan ids from a batch-ingest reply."""
    if status < 300 and payload.get("durability", {}).get("synced"):
        ids = payload.get("planIds") or [payload.get("planId")]
        log.emit("acked", planIds=[p for p in ids if p])


def _log_versions(state, log) -> None:
    versions = {
        t.plan_id: getattr(t.graph, "version", 0)
        for t in state.tool.workload
    }
    log.emit("versions", versions=versions)


def _log_health(state, log) -> None:
    status, payload = _dispatch_quiet(state, "GET", "/health")
    log.emit("health", status=status,
             body=payload.get("status", ""), reason=payload.get("reason"))


def _dispatch_quiet(state, method, path):
    from repro.server.common import dispatch

    response = dispatch(state, method, path, {"content-length": "0"}, b"")
    return response.status, json.loads(response.body or b"{}")


def _log_durability(state, log) -> None:
    status = state.tool.durability_status()
    log.emit("durability", state=status.get("state"),
             failureKind=status.get("failureKind"))
    errors: Dict[str, float] = {}
    for snapshot in state.registry.collect():
        if snapshot.name == "optimatch_durability_errors_total":
            for sample in snapshot.samples:
                errors[dict(sample.labels)["kind"]] = sample.value
    log.emit("durability_errors", errors=errors)


def run_child(spec_path: str) -> int:
    """The per-arm scripted workload (runs in its own process)."""
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    site: Optional[str] = spec["site"]
    kind: Optional[str] = spec["kind"]
    log = _EventLog(spec["events"])
    log.emit("start", site=site, kind=kind, seed=spec["seed"])

    from repro.server.common import ServerState

    # The pool-worker site only exists on the process tier; every other
    # arm runs the in-process engine (1 worker keeps it deterministic).
    state = ServerState(
        workers=2 if site == "mpexec.worker_plan" else 1,
        data_dir=spec["data_dir"],
        # Per-append fsync: the wal.fsync site then trips at a fixed
        # point in the script instead of whenever the batch clock says.
        fsync_mode="fsync",
        checkpoint_every=1000,  # checkpoints happen only where scripted
    )
    state.begin_recovery()
    if state._recovery_thread is not None:
        state._recovery_thread.join()

    plans = _plan_texts(spec["seed"])

    # ---- Phase A: fault-free ingest via both paths + baseline reads.
    status, payload = _dispatch(
        state, log, "ingest-batch-a", "POST", "/plans?ack=sync",
        json.dumps({"plans": [t for _, t in plans[0:3]]}),
        content_type="application/json",
    )
    _log_acked(log, status, payload)
    _stream_ingest(state, log, "ingest-stream-a", plans[3:6])
    _dispatch(state, log, "search-a", "POST", "/search/sparql",
              SEARCH_QUERIES["return-ops"])
    _log_health(state, log)
    _log_versions(state, log)

    # ---- Phase B: arm the fault, run every step a site could trip in.
    if site is not None:
        chaos.inject(site, times=1, **_fault_kwargs(kind))
    status, payload = _dispatch(
        state, log, "ingest-batch-b", "POST", "/plans?ack=sync",
        json.dumps({"plans": [plans[6][1]]}),
        content_type="application/json",
    )
    _log_acked(log, status, payload)
    _stream_ingest(state, log, "ingest-stream-b", plans[7:8])
    try:
        seq = state.tool.checkpoint()
        log.emit("step", name="checkpoint-b", status=200, code="",
                 payload={"seq": seq})
    except Exception as exc:  # noqa: BLE001 — DurabilityError et al.
        log.emit("step", name="checkpoint-b", status=503, code="read_only",
                 error=f"{type(exc).__name__}: {exc}")
    _dispatch(state, log, "search-b", "POST", "/search/sparql",
              SEARCH_QUERIES["stream-hop"])
    _dispatch(state, log, "kb-run-b", "POST", "/kb/run", b"")
    if site is not None:
        if site in _CHILD_FATAL_KILL_EXEMPT:
            # The pool-worker site consumes its injection in the worker
            # process (the spec is exported per task), so the parent
            # registry still shows it armed; firing is unknowable here.
            fired = None
        else:
            fired = chaos.remaining(site) == 0
        chaos.clear()
        log.emit("fired", value=fired)

    # ---- Phase C: post-fault behavior (health, taxonomy, survival).
    _log_health(state, log)
    _log_durability(state, log)
    status, payload = _dispatch(
        state, log, "ingest-batch-c", "POST", "/plans?ack=sync",
        json.dumps({"plans": [plans[8][1]]}),
        content_type="application/json",
    )
    _log_acked(log, status, payload)
    _dispatch(state, log, "search-c", "POST", "/search/sparql",
              SEARCH_QUERIES["return-ops"])
    _log_health(state, log)
    _log_versions(state, log)
    log.emit("done")
    try:
        state.tool.close()
    except Exception:  # noqa: BLE001 — a latched store may refuse
        pass
    return 0


# ----------------------------------------------------------------------
# Parent: per-arm verification
# ----------------------------------------------------------------------
def _read_events(path: str) -> List[dict]:
    events = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    except FileNotFoundError:
        pass
    return events


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _recover_and_search(data_dir: str) -> Tuple[dict, Dict[str, dict], dict]:
    """The restart leg: recover *data_dir* in-process, search everything.

    Returns ``(recovery_info, per_plan_results, versions)`` where
    ``per_plan_results[plan_id][query_name]`` is the canonical JSON of
    that plan's matches — the byte-identity unit of comparison.
    """
    from repro.server.common import ServerState, dispatch

    state = ServerState(workers=1, data_dir=data_dir, fsync_mode="fsync")
    state.begin_recovery()
    if state._recovery_thread is not None:
        state._recovery_thread.join()
    try:
        per_plan: Dict[str, dict] = {}
        for name, sparql in sorted(SEARCH_QUERIES.items()):
            body = sparql.encode("utf-8")
            response = dispatch(
                state, "POST", "/search/sparql",
                {"content-type": "text/plain",
                 "content-length": str(len(body))},
                body,
            )
            payload = json.loads(response.body)
            if response.status != 200:
                raise RuntimeError(
                    f"post-recovery search failed: {payload}"
                )
            for entry in payload["matches"]:
                per_plan.setdefault(entry["planId"], {})[name] = json.dumps(
                    entry, sort_keys=True, separators=(",", ":")
                )
        versions = {
            t.plan_id: getattr(t.graph, "version", 0)
            for t in state.tool.workload
        }
        recovery = state.tool.durability_status().get("recovery", {})
        return recovery, per_plan, versions
    finally:
        try:
            state.tool.close()
        except Exception:  # noqa: BLE001
            pass


def _check_arm(
    site: Optional[str],
    kind: Optional[str],
    exit_code: int,
    events: List[dict],
    data_dir: str,
    control: Optional[Dict[str, dict]],
    shm_before: set,
) -> dict:
    """Run the shared invariant suite for one arm; returns its report."""
    violations: List[str] = []
    killed = bool(kind == "kill" and site not in _CHILD_FATAL_KILL_EXEMPT)
    expected_exit = chaos.KILL_EXIT_CODE if killed else 0

    if exit_code != expected_exit:
        violations.append(
            f"child exited {exit_code}, expected {expected_exit}"
        )
    if not killed and not any(e["event"] == "done" for e in events):
        violations.append("child never reached the end of the workload")

    # /health responded 200 at every probe the child survived to make.
    for event in events:
        if event["event"] == "health" and event["status"] != 200:
            violations.append(f"/health answered {event['status']}")

    # Acked plans: the durable promises the invariants protect.
    acked: List[str] = []
    for event in events:
        if event["event"] == "acked":
            acked.extend(event["planIds"])
    if len(set(acked)) != len(acked):
        violations.append("a plan id was acked twice (duplicate ingestion)")

    # Restart: recover the faulted directory; this must always succeed.
    try:
        recovery, per_plan, versions = _recover_and_search(data_dir)
    except Exception as exc:  # noqa: BLE001
        violations.append(f"recovery failed: {type(exc).__name__}: {exc}")
        recovery, per_plan, versions = {}, {}, {}

    recovered_ids = set(versions)
    for plan_id in acked:
        if plan_id not in recovered_ids:
            violations.append(f"acked plan {plan_id} lost across restart")

    # Byte-identity vs the fault-free control, per recovered plan.
    if control is not None:
        for plan_id, results in sorted(per_plan.items()):
            expected = control.get(plan_id)
            if expected is None:
                # A plan the control never saw can only be one the fault
                # window journaled without acking — never a fabrication.
                if plan_id not in {e for e in _all_plan_ids(events)}:
                    violations.append(
                        f"recovered unknown plan {plan_id}"
                    )
                continue
            if results != expected:
                violations.append(
                    f"plan {plan_id} search results diverge from control"
                )

    # Version monotonicity: child-observed versions never decrease, and
    # the restart reproduces the last observed version exactly.
    last_seen: Dict[str, int] = {}
    for event in events:
        if event["event"] != "versions":
            continue
        for plan_id, version in event["versions"].items():
            if version < last_seen.get(plan_id, 0):
                violations.append(
                    f"plan {plan_id} version moved backwards in-child"
                )
            last_seen[plan_id] = version
    for plan_id in set(acked) & recovered_ids:
        if plan_id in last_seen and versions.get(plan_id) != last_seen[plan_id]:
            violations.append(
                f"plan {plan_id} recovered with version "
                f"{versions.get(plan_id)} != observed {last_seen[plan_id]}"
            )

    # Read-only latch expectations for the disk-fault arms.
    fired = next(
        (e["value"] for e in events if e["event"] == "fired"), None
    )
    latched = next(
        (e["state"] == "read_only"
         for e in events if e["event"] == "durability"),
        None,
    )
    failure_kind = next(
        (e.get("failureKind")
         for e in events if e["event"] == "durability"),
        None,
    )
    errors = next(
        (e["errors"] for e in events if e["event"] == "durability_errors"),
        {},
    )
    expected_kind = LATCH_KIND.get((site, kind)) if site else None
    if expected_kind is not None and fired:
        if latched is not True:
            violations.append(
                f"{site} {kind} fired but the store did not latch read-only"
            )
        if failure_kind != expected_kind:
            violations.append(
                f"latch classified as {failure_kind!r}, "
                f"expected {expected_kind!r}"
            )
        if errors.get(expected_kind) != 1:
            violations.append(
                "optimatch_durability_errors_total"
                f"{{kind={expected_kind}}} is {errors.get(expected_kind)}, "
                "expected 1"
            )

    # Leak checks: recovery swept every temp file; nothing in /dev/shm.
    strays = sorted(
        name for name in os.listdir(data_dir) if name.endswith(".tmp")
    ) if os.path.isdir(data_dir) else []
    if strays:
        violations.append(f"stray temp files after recovery: {strays}")
    leaked = sorted(_shm_segments() - shm_before)
    if leaked:
        violations.append(f"leaked /dev/shm segments: {leaked}")

    return {
        "site": site,
        "kind": kind,
        "exit": "killed" if exit_code == chaos.KILL_EXIT_CODE else exit_code,
        "fired": fired,
        "latched": latched,
        "failureKind": failure_kind,
        "ackedPlans": len(set(acked)),
        "recoveredPlans": len(recovered_ids),
        "replayedRecords": recovery.get("replayedRecords"),
        "truncatedBytes": recovery.get("truncatedBytes"),
        "violations": violations,
    }


def _all_plan_ids(events: List[dict]) -> set:
    ids = set()
    for event in events:
        for version_map in ([event["versions"]]
                            if event["event"] == "versions" else []):
            ids.update(version_map)
    return ids


def _run_arm(
    index: int,
    site: Optional[str],
    kind: Optional[str],
    workdir: str,
    seed: int,
) -> Tuple[int, List[dict], str]:
    """Spawn the child for one arm; returns (exit, events, data_dir)."""
    label = f"{site}-{kind}" if site else "control"
    arm_dir = os.path.join(
        workdir, f"arm-{index:03d}-{label.replace('.', '_')}"
    )
    data_dir = os.path.join(arm_dir, "data")
    events_path = os.path.join(arm_dir, "events.ndjson")
    os.makedirs(data_dir, exist_ok=True)
    spec = {
        "site": site,
        "kind": kind,
        "seed": seed,
        "data_dir": data_dir,
        "events": events_path,
    }
    spec_path = os.path.join(arm_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.testing.campaign", "--child", spec_path],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, _read_events(events_path), data_dir


def run_campaign(
    seed: int = DEFAULT_SEED,
    sites: Optional[List[str]] = None,
    kinds: Optional[List[str]] = None,
    workdir: Optional[str] = None,
    keep: bool = False,
    progress=None,
) -> dict:
    """Run the whole campaign; returns the machine-readable report."""
    arms = build_arms(sites, kinds)
    owns_workdir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="optimatch-campaign-")
    os.makedirs(workdir, exist_ok=True)
    say = progress or (lambda message: None)
    try:
        # Control arm first: its post-recovery per-plan search results
        # are the byte-identity baseline every arm is held to.
        say(f"control arm (seed {seed})")
        shm_before = _shm_segments()
        exit_code, events, control_dir = _run_arm(
            0, None, None, workdir, seed
        )
        control_report = _check_arm(
            None, None, exit_code, events, control_dir, None, shm_before
        )
        _, control_results, _ = _recover_and_search(control_dir)
        if control_report["violations"]:
            raise RuntimeError(
                "control arm failed its own invariants: "
                f"{control_report['violations']}"
            )

        reports = []
        for index, (site, kind) in enumerate(arms, start=1):
            say(f"arm {index}/{len(arms)}: {site} × {kind}")
            shm_before = _shm_segments()
            exit_code, events, data_dir = _run_arm(
                index, site, kind, workdir, seed
            )
            reports.append(
                _check_arm(
                    site, kind, exit_code, events, data_dir,
                    control_results, shm_before,
                )
            )
        violation_count = sum(len(r["violations"]) for r in reports)
        return {
            "seed": seed,
            "sites": sorted({site for site, _ in arms}),
            "control": {
                "ackedPlans": control_report["ackedPlans"],
                "recoveredPlans": control_report["recoveredPlans"],
            },
            "arms": reports,
            "armCount": len(reports),
            "violationCount": violation_count,
            "ok": violation_count == 0,
        }
    finally:
        if owns_workdir and not keep:
            shutil.rmtree(workdir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.campaign",
        description="Deterministic chaos campaign over every registered "
                    "fault-injection site (docs/chaos.md).",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--sites", default=None,
                        help="comma-separated site filter (default: all)")
    parser.add_argument("--kinds", default=None,
                        help="comma-separated kind filter (default: all)")
    parser.add_argument("--report", default=None,
                        help="write the JSON report here (default: stdout)")
    parser.add_argument("--workdir", default=None,
                        help="keep per-arm data dirs/event logs here")
    parser.add_argument("--list", action="store_true",
                        help="print the arm list and exit")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return run_child(args.child)

    sites = args.sites.split(",") if args.sites else None
    kinds = args.kinds.split(",") if args.kinds else None
    if sites:
        unknown = set(sites) - set(chaos.SITES)
        if unknown:
            parser.error(f"unknown sites: {sorted(unknown)}")
    if kinds:
        unknown = set(kinds) - set(chaos.FAULT_KINDS)
        if unknown:
            parser.error(f"unknown kinds: {sorted(unknown)}")

    if args.list:
        for site, kind in build_arms(sites, kinds):
            print(f"{site} {kind}")
        return 0

    progress = None if args.quiet else (
        lambda message: print(f"[campaign] {message}", file=sys.stderr)
    )
    report = run_campaign(
        seed=args.seed, sites=sites, kinds=kinds,
        workdir=args.workdir, keep=args.workdir is not None,
        progress=progress,
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    if not report["ok"]:
        for arm in report["arms"]:
            for violation in arm["violations"]:
                print(
                    f"[campaign] VIOLATION {arm['site']} x {arm['kind']}: "
                    f"{violation}",
                    file=sys.stderr,
                )
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
