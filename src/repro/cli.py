"""Command-line interface: ``optimatch <command>``.

Commands:

* ``generate``   — write a synthetic explain-file workload to a directory
* ``transform``  — transform one explain file to RDF (N-Triples)
* ``compile``    — compile a pattern JSON file to SPARQL
* ``search``     — search a workload directory for a pattern
* ``profile``    — EXPLAIN-style breakdown of matching one pattern
* ``kb``         — run the (builtin or saved) knowledge base over a workload
* ``serve``      — start the HTTP server (with resource-governance flags)
* ``remote``     — drive a running server over HTTP (retry/backoff client)
* ``experiment`` — reproduce a paper figure/table (fig9 fig10 fig11 study)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core import OptImatch, ProblemPattern, pattern_to_sparql, transform_plan
from repro.kb import KnowledgeBase, builtin_knowledge_base
from repro.kb.builtin import make_pattern
from repro.qep.parser import parse_plan_file
from repro.qep.writer import write_plan_file
from repro.rdf.serializer import to_ntriples
from repro.workload import generate_workload


def _cmd_generate(args) -> int:
    os.makedirs(args.output, exist_ok=True)
    plant_rates = {}
    for spec in args.plant or []:
        letter, _, rate = spec.partition("=")
        plant_rates[letter.upper()] = float(rate or "0.15")
    plans = generate_workload(args.count, seed=args.seed, plant_rates=plant_rates)
    for plan in plans:
        write_plan_file(plan, os.path.join(args.output, f"{plan.plan_id}.exfmt"))
    print(f"wrote {len(plans)} explain files to {args.output}")
    return 0


def _cmd_transform(args) -> int:
    plan = parse_plan_file(args.explain_file)
    transformed = transform_plan(plan)
    text = to_ntriples(transformed.graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(transformed.graph)} triples to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _load_pattern(spec: str) -> ProblemPattern:
    if spec.upper() in ("A", "B", "C", "D"):
        return make_pattern(spec.upper())
    with open(spec, "r", encoding="utf-8") as handle:
        return ProblemPattern.from_json(handle.read())


def _cmd_compile(args) -> int:
    pattern = _load_pattern(args.pattern)
    sys.stdout.write(pattern_to_sparql(pattern))
    return 0


def _engine_kwargs(args) -> dict:
    """Map ``--mp-workers`` onto engine arguments.

    ``--mp-workers N`` runs matching on N worker processes (``0`` = one
    per CPU); without it, or with ``1``, matching runs serially
    in-process.
    """
    if args.mp_workers is not None:
        return {"workers": args.mp_workers}
    return {}


def _engine_stats_line(tool: OptImatch) -> str:
    """One-line engine instrumentation summary for CLI output."""
    stats = tool.stats()
    match_cache = stats["matchCache"]
    timings = stats["timings"]
    mode = ""
    if stats["mode"] != "serial":
        mode = f", mode {stats['mode']}"
    return (
        f"engine: {stats['workers']} worker(s), cache "
        f"{'on' if stats['cacheEnabled'] else 'off'} "
        f"(hits {match_cache['hits']}/{match_cache['hits'] + match_cache['misses']}), "
        f"prepare {timings['prepareSeconds']:.3f}s, "
        f"evaluate {timings['evaluateSeconds']:.3f}s{mode}"
    )


def _cmd_search(args) -> int:
    with OptImatch(cache=not args.no_cache, **_engine_kwargs(args)) as tool:
        count = tool.load_workload_dir(args.workload)
        pattern = _load_pattern(args.pattern)
        matches = tool.search(pattern)
        print(f"searched {count} plans; {len(matches)} matched")
        for plan_matches in matches:
            print(f"  {plan_matches.plan_id}: {plan_matches.count} occurrence(s)")
            if args.verbose:
                for occurrence in plan_matches:
                    print(f"    {occurrence.describe()}")
        print(_engine_stats_line(tool))
    return 0


def _cmd_profile(args) -> int:
    """EXPLAIN-style profile: per-triple-pattern cardinalities, index
    choices, planned join order with estimated rows, closure-direction
    decisions, closure frontiers and budget ticks."""
    import json as _json

    with OptImatch(cache=not args.no_cache, **_engine_kwargs(args)) as tool:
        count = tool.load_workload_dir(args.workload)
        if not count:
            print("no explain files found", file=sys.stderr)
            return 2
        pattern = _load_pattern(args.pattern)
        plans = [args.plan] if args.plan else [t.plan_id for t in tool.workload]
        reports = [tool.explain(pattern, plan_id) for plan_id in plans]
    if args.json:
        print(_json.dumps([r.to_json_object() for r in reports], indent=2))
        return 0
    for index, report in enumerate(reports):
        if index:
            print()
        print(report.to_text())
    return 0


def _cmd_kb(args) -> int:
    with OptImatch(cache=not args.no_cache, **_engine_kwargs(args)) as tool:
        count = tool.load_workload_dir(args.workload)
        if args.kb_file:
            kb = KnowledgeBase.load(args.kb_file)
        elif args.extended:
            from repro.kb import extended_knowledge_base

            kb = extended_knowledge_base()
        else:
            kb = builtin_knowledge_base()
        report = tool.run_knowledge_base(kb)
        hits = report.entry_hit_counts()
        print(f"ran {len(kb)} KB entries over {count} plans")
        for name in sorted(hits):
            print(f"  {name}: {hits[name]} plan(s)")
        if args.verbose:
            for plan in report.plans_with_recommendations():
                print(plan.summary())
        else:
            flagged = len(report.plans_with_recommendations())
            print(f"{flagged} plan(s) received recommendations; use -v for details")
        print(_engine_stats_line(tool))
    return 0


def _load_plans(directory: str, suffix: str = ".exfmt"):
    from repro.qep.parser import parse_plan_file

    plans = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(suffix):
            plans.append(parse_plan_file(os.path.join(directory, name)))
    return plans


def _cmd_stats(args) -> int:
    from repro.analysis import workload_statistics

    plans = _load_plans(args.workload)
    if not plans:
        print("no explain files found", file=sys.stderr)
        return 2
    print(workload_statistics(plans).to_text())
    return 0


def _cmd_cluster(args) -> int:
    from repro.analysis import cluster_workload, correlate_patterns
    from repro.kb import extended_knowledge_base

    plans = _load_plans(args.workload)
    if not plans:
        print("no explain files found", file=sys.stderr)
        return 2
    clusters = cluster_workload(plans, k=args.k, seed=args.seed)
    if args.correlate:
        tool = OptImatch()
        tool.add_plans(plans)
        kb = (
            extended_knowledge_base()
            if args.extended
            else builtin_knowledge_base()
        )
        report = tool.run_knowledge_base(kb)
        hits = {}
        for plan_recs in report.plans:
            for result in plan_recs.results:
                hits.setdefault(result.entry_name, []).append(
                    plan_recs.plan_id
                )
        correlate_patterns(clusters, hits)
    print(clusters.to_text())
    return 0


def _cmd_diff(args) -> int:
    from repro.qep.diff import diff_plans

    before = parse_plan_file(args.before)
    after = parse_plan_file(args.after)
    diff = diff_plans(before, after)
    print(diff.to_text())
    return 0 if diff.is_identical else 1


def _cmd_tree(args) -> int:
    from repro.qep.writer import render_tree

    plan = parse_plan_file(args.explain_file)
    print(render_tree(plan))
    return 0


def _cmd_validate(args) -> int:
    from repro.qep import PlanValidationError, QepParseError, validate_plan
    from repro.qep.validate import plan_statistics

    failures = 0
    targets = (
        [os.path.join(args.target, name)
         for name in sorted(os.listdir(args.target))
         if name.endswith(".exfmt")]
        if os.path.isdir(args.target)
        else [args.target]
    )
    for path in targets:
        try:
            plan = parse_plan_file(path)
            validate_plan(plan, strict_costs=not args.relaxed)
        except (QepParseError, PlanValidationError) as exc:
            failures += 1
            print(f"FAIL {path}: {exc}")
            continue
        stats = plan_statistics(plan)
        print(f"ok   {path}: {stats['op_count']} ops, depth "
              f"{stats['depth']}, cost {stats['total_cost']:,.0f}")
    if failures:
        print(f"{failures} of {len(targets)} file(s) failed validation")
    return 1 if failures else 0


def _cmd_query(args) -> int:
    from repro.sparql import query as run_query

    if args.query_file:
        with open(args.query_file, "r", encoding="utf-8") as handle:
            sparql = handle.read()
    elif args.sparql:
        sparql = args.sparql
    else:
        print("provide a SPARQL string or --file", file=sys.stderr)
        return 2
    plans = (
        _load_plans(args.target)
        if os.path.isdir(args.target)
        else [parse_plan_file(args.target)]
    )
    total_rows = 0
    for plan in plans:
        transformed = transform_plan(plan)
        result = run_query(transformed.graph, sparql)
        if isinstance(result, bool):
            print(f"[{plan.plan_id}] ASK -> {result}")
            continue
        if len(result):
            print(f"[{plan.plan_id}]")
            print(result.to_table())
            total_rows += len(result)
    if not isinstance(result, bool):
        print(f"({total_rows} row(s) over {len(plans)} plan(s))")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis import build_workload_report
    from repro.kb import extended_knowledge_base

    plans = _load_plans(args.workload)
    if not plans:
        print("no explain files found", file=sys.stderr)
        return 2
    kb = (
        extended_knowledge_base()
        if args.extended
        else builtin_knowledge_base()
    )
    text = build_workload_report(plans, kb, clusters=args.k)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.server import AsyncOptImatchServer

    kb = None
    if args.extended:
        from repro.kb import extended_knowledge_base

        kb = extended_knowledge_base()
    server = AsyncOptImatchServer(
        host=args.host,
        port=args.port,
        knowledge_base=kb,
        cache=not args.no_cache,
        **_engine_kwargs(args),
        max_body_bytes=args.max_body_bytes,
        default_timeout_ms=args.default_timeout_ms,
        max_timeout_ms=args.max_timeout_ms,
        max_inflight=args.max_inflight,
        data_dir=args.data_dir,
        fsync_mode=args.fsync_mode,
        checkpoint_every=args.checkpoint_every,
        stream_batch=args.stream_batch,
        stream_hwm=args.stream_hwm,
        min_free_bytes=args.min_free_bytes,
        max_rss_bytes=args.max_rss_bytes,
    )
    if args.workload:
        try:
            server.state.preload(args.workload)
        except ValueError as exc:
            server.stop(drain_seconds=0)
            print(f"serve: {exc}", file=sys.stderr)
            return 1
    # The serve loop runs on a daemon thread and signals only set an
    # event: a SIGTERM that lands at any instant — even before the loop
    # is entered — always takes the graceful path (stop() would deadlock
    # if the signal interrupted the main thread mid-serve_forever()
    # startup).  The handler is installed BEFORE announcing the address,
    # so a supervisor that SIGTERMs as soon as it sees "listening on"
    # can never hit the default disposition.
    stop_requested = threading.Event()

    def _sigterm(signum, frame):
        stop_requested.set()

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.start()
        host, port = server.address
        print(f"OptImatch server listening on http://{host}:{port} "
              f"({server.state.tool.plan_count} plans, "
              f"{len(server.state.kb)} KB entries); Ctrl-C to stop")
        while not stop_requested.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        # Full graceful shutdown: drain in-flight requests, flush the
        # journal + final checkpoint, release (with --mp-workers) the
        # worker pool and the shared-memory segment.
        server.stop()
    return 0


def _cmd_remote(args) -> int:
    """Drive a running server over HTTP with retry/backoff."""
    import json as _json

    from repro.client import ClientError, OptImatchClient

    client = OptImatchClient(args.url, retries=args.retries)
    try:
        if args.action == "health":
            payload = client.health()
        elif args.action == "stats":
            payload = client.stats()
        elif args.action == "plans":
            payload = {"plans": client.plans()}
        elif args.action == "upload":
            if not args.target:
                print("upload requires an explain file argument", file=sys.stderr)
                return 2
            with open(args.target, "r", encoding="utf-8") as handle:
                payload = client.upload_plan(handle.read())
        elif args.action == "search":
            if not args.target:
                print("search requires a pattern (JSON file or letter A-D)",
                      file=sys.stderr)
                return 2
            pattern = _load_pattern(args.target)
            payload = client.search(
                pattern.to_json_object(), timeout_ms=args.timeout_ms
            )
        else:  # kb-run
            payload = client.run_kb(timeout_ms=args.timeout_ms)
    except ClientError as exc:
        print(f"remote error: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps(payload, indent=2))
    if isinstance(payload, dict) and payload.get("degraded"):
        print("warning: response is degraded (see errors above)",
              file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import fig9, fig10, fig11, user_study

    name = args.name.lower()
    scale = args.scale
    if name == "fig9":
        print(fig9.run(scale=scale).to_text())
    elif name == "fig10":
        print(fig10.run(scale=scale).to_text())
    elif name == "fig11":
        print(fig11.run(scale=scale).to_text())
    elif name in ("study", "fig12", "table1"):
        print(user_study.run(scale=scale).to_text())
    else:
        print(f"unknown experiment {args.name!r}; "
              "choose from fig9, fig10, fig11, study", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import server as server_defaults
    from repro import store as store_defaults

    parser = argparse.ArgumentParser(
        prog="optimatch",
        description="Query performance problem determination with a "
        "semantic-web knowledge base (OptImatch reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic workload")
    p.add_argument("output", help="output directory for *.exfmt files")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument(
        "--plant",
        action="append",
        metavar="LETTER=RATE",
        help="plant pattern occurrences, e.g. --plant A=0.15 (repeatable)",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("transform", help="explain file -> RDF N-Triples")
    p.add_argument("explain_file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("compile", help="pattern (JSON file or letter A-D) -> SPARQL")
    p.add_argument("pattern", help="pattern JSON path or builtin letter A-D")
    p.set_defaults(func=_cmd_compile)

    def add_engine_flags(sub_parser):
        sub_parser.add_argument(
            "--mp-workers",
            type=int,
            default=None,
            metavar="N",
            help="run matching on N worker processes over shared-memory "
                 "graph snapshots (0 = one per CPU; default: serial)",
        )
        sub_parser.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the prepared-query and per-plan match caches",
        )

    p = sub.add_parser("search", help="search a workload for a pattern")
    p.add_argument("workload", help="directory of *.exfmt files")
    p.add_argument("pattern", help="pattern JSON path or builtin letter A-D")
    p.add_argument("-v", "--verbose", action="store_true")
    add_engine_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "profile",
        help="EXPLAIN-style per-pattern profile of matching one pattern",
    )
    p.add_argument("workload", help="directory of *.exfmt files")
    p.add_argument("pattern", help="pattern JSON path or builtin letter A-D")
    p.add_argument("--plan", help="profile only this plan id "
                   "(default: every plan in the workload)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of the table")
    add_engine_flags(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("kb", help="run the knowledge base over a workload")
    p.add_argument("workload", help="directory of *.exfmt files")
    p.add_argument("--kb-file", help="saved KB JSON (defaults to builtin)")
    p.add_argument(
        "--extended",
        action="store_true",
        help="use the extended expert library (14 entries) instead of A-D",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    add_engine_flags(p)
    p.set_defaults(func=_cmd_kb)

    p = sub.add_parser("stats", help="workload summary statistics")
    p.add_argument("workload", help="directory of *.exfmt files")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "cluster", help="cost-based clustering (+ optional pattern correlation)"
    )
    p.add_argument("workload", help="directory of *.exfmt files")
    p.add_argument("-k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--correlate", action="store_true",
                   help="correlate knowledge-base hits per cluster")
    p.add_argument("--extended", action="store_true",
                   help="correlate against the extended library")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("diff", help="compare two explain files")
    p.add_argument("before")
    p.add_argument("after")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("tree", help="render the ASCII access-plan tree")
    p.add_argument("explain_file")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser(
        "validate", help="parse + structurally validate explain files"
    )
    p.add_argument("target", help="an .exfmt file or a workload directory")
    p.add_argument("--relaxed", action="store_true",
                   help="skip the strict cost-monotonicity checks")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "query", help="run raw SPARQL against an explain file or directory"
    )
    p.add_argument("target", help="an .exfmt file or a workload directory")
    p.add_argument("sparql", nargs="?", help="the SPARQL query text")
    p.add_argument("--file", dest="query_file", help="read the query from a file")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("report", help="write a Markdown workload health report")
    p.add_argument("workload", help="directory of *.exfmt files")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument("-k", type=int, default=3, help="number of cost clusters")
    p.add_argument("--extended", action="store_true",
                   help="use the extended expert library")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("serve", help="start the HTTP server (Figure 4 role)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--async", action="store_true",
                   help="accepted for compatibility; changes nothing (the "
                        "asyncio front is the only front)")
    p.add_argument("--stream-batch", type=int,
                   default=server_defaults.DEFAULT_STREAM_BATCH,
                   help="plans committed per micro-batch on /plans/stream")
    p.add_argument("--stream-hwm", type=int,
                   default=server_defaults.DEFAULT_STREAM_HWM,
                   help="concurrent stream commits before backpressure "
                        "pauses connection reads")
    p.add_argument("--workload", help="preload *.exfmt files from a directory")
    p.add_argument("--extended", action="store_true",
                   help="serve the extended expert library")
    p.add_argument("--max-body-bytes", type=int,
                   default=server_defaults.DEFAULT_MAX_BODY_BYTES,
                   help="reject larger request bodies with 413")
    p.add_argument("--default-timeout-ms", type=float,
                   default=server_defaults.DEFAULT_TIMEOUT_MS,
                   help="deadline applied when the client sends none")
    p.add_argument("--max-timeout-ms", type=float,
                   default=server_defaults.DEFAULT_MAX_TIMEOUT_MS,
                   help="ceiling for client-requested deadlines")
    p.add_argument("--max-inflight", type=int,
                   default=server_defaults.DEFAULT_MAX_INFLIGHT,
                   help="concurrent search/KB requests before 503 shedding")
    p.add_argument("--data-dir", default=None,
                   help="durable data directory: journal ingest, "
                        "checkpoint, and recover on restart "
                        "(docs/durability.md)")
    p.add_argument("--fsync-mode", choices=["fsync", "batch", "async"],
                   default="batch",
                   help="journal fsync policy (default: batch)")
    p.add_argument("--checkpoint-every", type=int,
                   default=store_defaults.DEFAULT_CHECKPOINT_EVERY,
                   help="journal records between automatic checkpoints")
    p.add_argument("--min-free-bytes", type=int, default=0,
                   help="refuse ingest with 503 low_disk while the data "
                        "dir has less free space than this (0 = off)")
    p.add_argument("--max-rss-bytes", type=int, default=0,
                   help="shed ingest with 503 overloaded_memory while "
                        "process RSS exceeds this watermark (0 = off)")
    add_engine_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "remote", help="talk to a running OptImatch server over HTTP"
    )
    p.add_argument("action",
                   choices=["health", "stats", "plans", "upload",
                            "search", "kb-run"])
    p.add_argument("target", nargs="?",
                   help="explain file (upload) or pattern JSON/letter A-D "
                        "(search)")
    p.add_argument("--url", default="http://127.0.0.1:8080",
                   help="server base URL")
    p.add_argument("--timeout-ms", type=float, default=None,
                   help="per-request evaluation deadline")
    p.add_argument("--retries", type=int, default=3,
                   help="retry attempts on 503/connection errors")
    p.set_defaults(func=_cmd_remote)

    p = sub.add_parser("experiment", help="reproduce a paper figure/table")
    p.add_argument("name", help="fig9 | fig10 | fig11 | study")
    p.add_argument("--scale", type=float, default=0.1,
                   help="workload scale (1.0 = paper size; default 0.1)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
