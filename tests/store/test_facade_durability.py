"""OptImatch facade durability: recovery and delta invalidation.

The headline assertion of the PR lives here: after a checkpoint, a
replace of ONE plan, and a restart, the engine is re-armed for exactly
the unchanged plans (``matchCache.seeded``) and only the replaced plan
re-matches — with search results bit-identical to a never-crashed
control.
"""

import ast
import json
import os
import pathlib
import shutil
import struct
import tempfile
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.store
from repro.core.engine import MatchingEngine
from repro.core.matcher import PlanMatches
from repro.core.optimatch import OptImatch
from repro.core.shm import WorkloadSnapshot
from repro.core.transform import transform_plan
from repro.kb.builtin import builtin_knowledge_base
from repro.qep.model import BaseObject, PlanOperator
from repro.qep.parser import parse_plan
from repro.qep.writer import write_plan
from repro.rdf import snapshot
from repro.rdf.graph import Graph
from repro.store import DurabilityError, DurableStore, WalWriter, scan_wal
from repro.testing import chaos
from repro.workload import generate_workload

SPARQL = (
    'PREFIX predURI: <http://optimatch/predicate#> '
    'SELECT ?p WHERE { ?p predURI:hasPopType "RETURN" }'
)


def plan_texts():
    plans = generate_workload(3, seed=21, size_sampler=lambda rng: 9)
    return [write_plan(plan) for plan in plans]


@pytest.fixture()
def texts():
    return plan_texts()


def cache_entries(tool):
    """Every match result memoized on the workload's graphs, as
    ``((plan id, version, query), PlanMatches)`` in checkpoint order."""
    return [
        ((t.plan_id, t.graph.version, query), PlanMatches(t, list(occurrences)))
        for t in tool.workload
        for query, occurrences in t.graph.memo_items("matches")
    ]


def result_shape(matches):
    return [
        (m.plan_id, [occ.signature() for occ in m.occurrences])
        for m in matches
    ]


class TestRecoveryRoundTrip:
    def test_restart_recovers_plans_and_results(self, tmp_path, texts):
        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        tool.load_explain_batch(texts[:2])
        tool.load_explain_text(texts[2])
        expected = result_shape(tool.search(SPARQL))
        tool.close()

        recovered = OptImatch(workers=1, data_dir=str(tmp_path))
        try:
            assert recovered.plan_count == 3
            assert result_shape(recovered.search(SPARQL)) == expected
        finally:
            recovered.close()

    def test_close_writes_final_checkpoint(self, tmp_path, texts):
        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        tool.load_explain_text(texts[0])
        tool.close()
        assert list(tmp_path.glob("ckpt-*.bin"))

        recovered = OptImatch(workers=1, data_dir=str(tmp_path))
        try:
            status = recovered.durability_status()
            assert status["recovery"]["replayedRecords"] == 0  # all in ckpt
        finally:
            recovered.close()

    def test_remove_and_clear_are_durable(self, tmp_path, texts):
        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        tool.load_explain_batch(texts)
        first_id = tool.workload[0].plan_id
        tool.remove_plan(first_id)
        tool.close()
        recovered = OptImatch(workers=1, data_dir=str(tmp_path))
        assert recovered.plan_count == 2
        recovered.clear()
        recovered.close()
        empty = OptImatch(workers=1, data_dir=str(tmp_path))
        try:
            assert empty.plan_count == 0
        finally:
            empty.close()

    def test_kb_entries_recover(self, tmp_path):
        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        tool.record_kb_entry({"name": "expert-rule", "confidence": 0.9})
        tool.close()
        recovered = OptImatch(workers=1, data_dir=str(tmp_path))
        try:
            assert recovered.recovered_kb_entries == [
                {"name": "expert-rule", "confidence": 0.9}
            ]
        finally:
            recovered.close()

    def test_crash_replays_every_journaled_plan(
        self, tmp_path, fig9_workload_plans
    ):
        """A crash after the Figure 9 workload's 100 un-checkpointed
        journal records recovers every plan by replay."""
        tool = OptImatch(
            workers=1,
            data_dir=str(tmp_path),
            fsync="async",
            checkpoint_every=10 ** 9,
        )
        for plan in fig9_workload_plans:
            tool.add_plan(plan)
        # Simulate a crash: tear down without the close() checkpoint.
        tool._store.close()
        tool._engine.close()
        with OptImatch(workers=1, data_dir=str(tmp_path)) as recovered:
            status = recovered.durability_status()["recovery"]
            assert status["replayedRecords"] == 100
            assert recovered.plan_count == 100

    def test_defer_recovery_blocks_mutations(self, tmp_path, texts):
        tool = OptImatch(
            workers=1, data_dir=str(tmp_path), defer_recovery=True
        )
        try:
            assert tool.durability_status()["state"] == "recovering"
            with pytest.raises(DurabilityError):
                tool.load_explain_text(texts[0])
            tool.recover()
            tool.load_explain_text(texts[0])
            assert tool.plan_count == 1
        finally:
            tool.close()

    def test_recover_only_once(self, tmp_path):
        tool = OptImatch(workers=1, data_dir=str(tmp_path))
        try:
            with pytest.raises(DurabilityError):
                tool.recover()
        finally:
            tool.close()


class TestDeltaInvalidation:
    def test_only_changed_plan_rematches(self, tmp_path, texts):
        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        tool.load_explain_batch(texts)
        before = result_shape(tool.search(SPARQL))
        assert len(before) == 3
        tool.checkpoint()  # persists three warm cache entries
        # Replace the middle plan with a same-shaped graph: its version
        # (triple count) equals the old one's, so only the journal tail
        # tells recovery the plan changed.
        plan_id = tool.workload[1].plan_id
        tool.replace_plan(parse_plan(texts[1], plan_id))
        # Simulate a crash: tear down without the close() checkpoint.
        tool._store.close()
        tool._engine.close()

        recovered = OptImatch(workers=1, data_dir=str(tmp_path))
        try:
            stats = recovered.stats()["matchCache"]
            assert stats["seeded"] == 2  # the two untouched plans
            after = result_shape(recovered.search(SPARQL))
            assert after == before
            stats = recovered.stats()["matchCache"]
            assert stats["hits"] == 2  # seeded entries served
            assert stats["misses"] == 1  # replaced plan re-matched
            assert (
                recovered.durability_status()["recovery"]["cacheSeeded"] == 2
            )
        finally:
            recovered.close()


class TestRevisions:
    """Plan batches and their journal records: ids repeated in a batch,
    refused batches, and records older versions wrote."""

    def test_replace_batch_repeating_an_id(self, tmp_path, texts):
        """The last copy wins; journal-only recovery rebuilds the same
        graph and version."""
        data_dir = tmp_path / "data"
        tool = OptImatch(workers=1, data_dir=str(data_dir), fsync="async")
        try:
            tool.load_explain_batch(texts[:2], plan_ids=["a", "b"])
            committed = tool.load_explain_batch(
                [texts[2], texts[0], texts[1]],
                plan_ids=["a", "c", "a"],
                replace=True,
            )
            assert [t.plan_id for t in committed] == ["a", "c", "a"]
            assert [t.plan_id for t in tool.workload] == ["a", "b", "c"]
            assert tool.plan("a") is committed[-1]
            expected = {
                t.plan_id: (list(t.graph.triples()), t.graph.version)
                for t in tool.workload
            }
            shutil.copytree(data_dir, tmp_path / "journal-only")
        finally:
            tool.close()
        with OptImatch(
            workers=1, data_dir=str(tmp_path / "journal-only")
        ) as recovered:
            status = recovered.durability_status()["recovery"]
            assert status["checkpointSeq"] == 0
            assert status["replayedRecords"] == 2
            assert {
                t.plan_id: (list(t.graph.triples()), t.graph.version)
                for t in recovered.workload
            } == expected

    @pytest.mark.parametrize(
        "plan_ids", [["only-one"], ["x", "y", "z", "w"]], ids=["short", "long"]
    )
    def test_plan_ids_of_another_length_change_nothing(
        self, tmp_path, texts, plan_ids
    ):
        def files():
            return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        try:
            added = tool.load_explain_text(texts[0], "a")
            journal = files()
            with pytest.raises(ValueError, match="plan ids"):
                tool.load_explain_batch(texts, plan_ids=plan_ids)
            assert tool.plan_count == 1
            assert tool.workload == [added]
            assert files() == journal
        finally:
            tool.close()

    def test_journal_failure_allocates_nothing(self, tmp_path, texts):
        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        try:
            added = tool.load_explain_text(texts[0])
            with chaos.injected("wal.append", exc=OSError("device gone")):
                with pytest.raises(DurabilityError):
                    tool.replace_explain_text(texts[1], added.plan_id)
            assert tool.workload == [added]
        finally:
            tool.close()

    def test_add_and_replace_records_still_recover(self, tmp_path, texts):
        """Older versions journaled single-plan ``add`` and ``replace``
        records; their data directories must still recover."""
        writer = WalWriter(str(tmp_path / "wal-0.log"), fsync="async")
        for op, plan_id, rev, source in [
            ("add", "a", 1, texts[0]),
            ("add", "b", 1, texts[1]),
            ("replace", "a", 2, texts[2]),
        ]:
            writer.append(
                {"op": op, "plan": plan_id, "rev": rev, "source": source}
            )
        writer.close()
        with OptImatch(workers=1, data_dir=str(tmp_path)) as tool:
            assert [t.plan_id for t in tool.workload] == ["a", "b"]
            fresh = transform_plan(parse_plan(texts[2], "a"))
            assert list(tool.plan("a").graph.triples()) == list(
                fresh.graph.triples()
            )
            tool.replace_explain_text(texts[0], "a")


class TestStampingWithoutDurability:
    """With durability OFF, clear() + re-add of a same-sized plan gives
    a graph at the old version; its results live in the new graph's
    own memo, so none of the old plan's rows is served."""

    def test_clear_and_readd_never_reuses_version(self, texts):
        tool = OptImatch(workers=1)
        try:
            tool.load_explain_text(texts[0])
            tool.search(SPARQL)
            tool.clear()
            tool.load_explain_text(texts[0])
            tool.search(SPARQL)
            stats = tool.stats()["matchCache"]
            assert stats["hits"] == 0 and stats["misses"] == 2
        finally:
            tool.close()

    def test_durability_status_disabled(self):
        tool = OptImatch(workers=1)
        try:
            assert tool.durability_status() == {"state": "disabled"}
            assert "durability" not in tool.stats()
            tool.sync_journal()  # no-op, must not raise
            with pytest.raises(DurabilityError):
                tool.checkpoint()
            with pytest.raises(DurabilityError):
                tool.recover()
        finally:
            tool.close()


class TestDisabledPath:
    """With ``data_dir=None`` the durability layer is off the ingest
    path: no store is built, no journal source is serialized and no
    graph is encoded for a checkpoint."""

    def test_mutations_touch_no_durability_code(self, texts, monkeypatch):
        import repro.core.optimatch as facade
        import repro.qep.writer as writer
        import repro.rdf.snapshot as snapshot

        def forbidden(*args, **kwargs):
            raise AssertionError("durability work with data_dir=None")

        monkeypatch.setattr(facade, "DurableStore", forbidden)
        monkeypatch.setattr(writer, "write_plan", forbidden)
        monkeypatch.setattr(snapshot, "encode_graph", forbidden)
        tool = OptImatch(workers=1, data_dir=None)
        try:
            added = tool.add_plan(parse_plan(texts[0]))
            tool.load_explain_text(texts[1])
            assert len(tool.load_explain_batch([texts[2]])) == 1
            tool.replace_explain_text(texts[1])
            tool.remove_plan(added.plan_id)
            assert tool.plan_count == 2
            tool.clear()
            assert tool.plan_count == 0
        finally:
            tool.close()


class TestEngineSeeding:
    def test_seed_refused_when_cache_disabled(self, texts):
        tool = OptImatch(workers=1, cache=False)
        try:
            transformed = tool.load_explain_text(texts[0])
            from repro.core.matcher import PlanMatches

            refused = tool.engine.seed_match_cache(
                SPARQL, PlanMatches(transformed=transformed)
            )
            assert refused is False
            assert tool.stats()["matchCache"]["seeded"] == 0
        finally:
            tool.close()

    def test_export_then_seed_round_trips(self, texts):
        tool = OptImatch(workers=1)
        try:
            tool.load_explain_text(texts[0])
            tool.search(SPARQL)
            exported = cache_entries(tool)
            assert len(exported) == 1
            (_, _, query), matches = exported[0]
            assert tool.engine.seed_match_cache(query, matches) is True
            assert tool.stats()["matchCache"]["seeded"] == 1
        finally:
            tool.close()


def binding_order(occurrence):
    return [
        (name, node.number)
        if isinstance(node, PlanOperator)
        else (name, node.qualified_name)
        for name, node in occurrence.bindings.items()
    ]


def cached(tool):
    """Every match-cache entry: occurrence signatures and binding order."""
    return {
        key: (
            [occ.signature() for occ in matches.occurrences],
            [binding_order(occ) for occ in matches.occurrences],
        )
        for key, matches in cache_entries(tool)
    }


def kb_texts():
    """Four plans carrying Patterns A-D, so every builtin KB query
    caches an entry for each of them."""
    plans = generate_workload(
        4,
        seed=5,
        plant_rates=dict.fromkeys("ABCD", 1.0),
        size_sampler=lambda rng: 20,
    )
    return [write_plan(plan) for plan in plans]


class TestBaseObjectRowsSurviveRestart:
    """The builtin KB binds base objects (Pattern A's ``BASE``) as well
    as operators; both kinds of cached row must seed back unchanged."""

    def test_builtin_kb_rows_seed_identically(self, tmp_path):
        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        tool.load_explain_batch(kb_texts())
        tool.run_knowledge_base(builtin_knowledge_base())
        before = cached(tool)
        assert any(
            isinstance(node, BaseObject)
            for _, matches in cache_entries(tool)
            for occ in matches.occurrences
            for node in occ.bindings.values()
        )
        tool.checkpoint()
        tool.close()

        with OptImatch(workers=1, data_dir=str(tmp_path)) as recovered:
            stats = recovered.stats()["matchCache"]
            assert stats["seeded"] == len(before)
            assert cached(recovered) == before
            recovered.run_knowledge_base(builtin_knowledge_base())
            stats = recovered.stats()["matchCache"]
            assert stats["misses"] == 0
            assert stats["hits"] == len(before)


class TestNoImageInCheckpoints:
    """A checkpoint holds the journaled state and cache rows keyed by
    plan node: no graph image is encoded, stored or read."""

    def test_checkpoint_and_recovery_use_no_image(
        self, tmp_path, texts, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("graph image used by a checkpoint")

        monkeypatch.setattr(snapshot, "encode_graph", forbidden)
        monkeypatch.setattr(snapshot, "GraphView", forbidden)
        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        tool.load_explain_batch(texts)
        expected = result_shape(tool.search(SPARQL))
        tool.checkpoint()
        tool.close()
        with OptImatch(workers=1, data_dir=str(tmp_path)) as recovered:
            assert recovered.stats()["matchCache"]["seeded"] == 3
            assert result_shape(recovered.search(SPARQL)) == expected
            assert recovered.stats()["matchCache"]["misses"] == 0

    def test_store_imports_no_graph_module(self):
        assert not hasattr(snapshot, "peek_version")
        package = os.path.dirname(repro.store.__file__)
        imported = []
        for name in os.listdir(package):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    imported.append(node.module or "")
                elif isinstance(node, ast.Import):
                    imported.extend(alias.name for alias in node.names)
        assert imported and not [
            module for module in imported if module.startswith("repro.rdf")
        ]


def write_checkpoint(data_dir, seq, manifest, blob=b""):
    """Write ``ckpt-<seq>.bin``: magic, header, *manifest*, *blob*."""
    data = json.dumps(
        manifest, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    with open(os.path.join(data_dir, f"ckpt-{seq}.bin"), "wb") as handle:
        handle.write(b"OPTMCKP1")
        handle.write(struct.pack("<II", len(data), zlib.crc32(data)))
        handle.write(data)
        handle.write(blob)


def write_format_1_checkpoint(data_dir, tool, seq, kb, revisions):
    """Write ``ckpt-<seq>.bin`` as format 1 did: a manifest with each
    plan's revision, blob offset, length and version (the revision in
    its high 32 bits), a ``revisions`` table, a blob of
    ``encode_graph`` images, and cache rows as term ids into them.
    *revisions* maps each plan id to the revision its writer gave it."""
    blob = b""
    plans = []
    views = {}
    for transformed in tool.workload:
        image = snapshot.encode_graph(transformed.graph)
        plans.append(
            {
                "id": transformed.plan_id,
                "rev": revisions[transformed.plan_id],
                "version": (
                    revisions[transformed.plan_id] << 32
                    | transformed.graph.version
                ),
                "source": write_plan(transformed.plan),
                "offset": len(blob),
                "length": len(image),
            }
        )
        views[transformed.plan_id] = snapshot.GraphView(image)
        blob += image
    cache = []
    for (plan_id, version, query), matches in cache_entries(tool):
        transformed = tool.plan(plan_id)
        view = views[plan_id]
        rows = [
            [
                [name, view.term_id(transformed.pop_resources[node.number])]
                for name, node in occ.bindings.items()
            ]
            for occ in matches.occurrences
        ]
        cache.append(
            {
                "plan": plan_id,
                "version": revisions[plan_id] << 32 | version,
                "query": query,
                "rows": rows,
            }
        )
    manifest = {
        "format": 1,
        "seq": seq,
        "wal": f"wal-{seq}.log",
        "revisions": revisions,
        "plans": plans,
        "kb": kb,
        "cache": cache,
        "blobLength": len(blob),
        "blobCrc": zlib.crc32(blob),
    }
    write_checkpoint(data_dir, seq, manifest, blob)


def read_manifest(path):
    data = path.read_bytes()
    length, crc = struct.unpack_from("<II", data, 8)
    manifest = data[16:16 + length]
    assert zlib.crc32(manifest) == crc
    return json.loads(manifest), len(data) - 16 - length


class TestFormatOneCheckpoint:
    """Data directories whose newest checkpoint is format 1 recover:
    its plans and KB entries are used and its tail journal replays, but
    its term-id cache rows are not seeded."""

    def test_recovers_state_without_its_cache_rows(self, tmp_path, texts):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        source = OptImatch(workers=1)
        source.load_explain_batch(texts[:2], plan_ids=["a", "b"])
        source.replace_explain_text(texts[2], "a")
        expected = result_shape(source.search(SPARQL))
        graphs = {
            t.plan_id: (list(t.graph.triples()), t.graph.version)
            for t in source.workload
        }
        write_format_1_checkpoint(
            str(data_dir),
            source,
            seq=1,
            kb=[{"name": "in-checkpoint"}],
            revisions={"a": 2, "b": 1},
        )
        source.close()
        writer = WalWriter(str(data_dir / "wal-1.log"), fsync="async")
        writer.append({"op": "add_batch", "plans": [["c", 1, texts[1]]]})
        writer.append({"op": "kb_add", "entry": {"name": "in-tail"}})
        writer.close()

        with OptImatch(workers=1, data_dir=str(data_dir)) as tool:
            status = tool.durability_status()["recovery"]
            assert status["checkpointSeq"] == 1
            assert status["replayedRecords"] == 2
            assert status["cacheSeeded"] == 0
            assert tool.stats()["matchCache"]["seeded"] == 0
            assert [t.plan_id for t in tool.workload] == ["a", "b", "c"]
            assert tool.recovered_kb_entries == [
                {"name": "in-checkpoint"}, {"name": "in-tail"}
            ]
            assert {
                t.plan_id: (list(t.graph.triples()), t.graph.version)
                for t in tool.workload
                if t.plan_id != "c"
            } == graphs
            assert result_shape(tool.search(SPARQL))[:2] == expected
            assert tool.stats()["matchCache"]["misses"] == 3
            assert (data_dir / "ckpt-1.bin").exists()
            tool.checkpoint()
        manifest, trailing = read_manifest(data_dir / "ckpt-2.bin")
        assert manifest["format"] == 3 and trailing == 0
        assert [plan["id"] for plan in manifest["plans"]] == ["a", "b", "c"]
        assert set(manifest["plans"][0]) == {"id", "source"}


def write_format_2_checkpoint(data_dir, tool, seq, fmt=2):
    """Write ``ckpt-<seq>.bin`` as format 2 did — the manifest alone,
    each cache entry carrying its query's full text — or, with *fmt* 3,
    as format 3 did while graph versions carried a plan revision: each
    query text once in ``queries``, named by index.  Every plan is at
    revision 1: a ``rev`` of 1, a ``revisions`` table, and cache
    versions with 1 in their high 32 bits."""
    cache = [
        {**entry, "version": 1 << 32 | entry["version"]}
        for entry in tool._export_cache_entries()
    ]
    manifest = {
        "format": fmt,
        "seq": seq,
        "wal": f"wal-{seq}.log",
        "revisions": {t.plan_id: 1 for t in tool.workload},
        "plans": [
            {"id": t.plan_id, "rev": 1, "source": write_plan(t.plan)}
            for t in tool.workload
        ],
        "kb": [],
        "cache": cache,
    }
    if fmt == 3:
        queries = {}
        for entry in cache:
            entry["query"] = queries.setdefault(entry["query"], len(queries))
        manifest["queries"] = list(queries)
    write_checkpoint(data_dir, seq, manifest)


class TestQueryTextsStoredOnce:
    """Format 3 lists each distinct cached query text once; entries
    name theirs by index."""

    def test_manifest_holds_each_query_text_once(self, tmp_path):
        with OptImatch(
            workers=1, data_dir=str(tmp_path), fsync="async"
        ) as tool:
            tool.load_explain_batch(kb_texts())
            tool.run_knowledge_base(builtin_knowledge_base())
            texts = [query for (_, _, query), _ in cache_entries(tool)]
            seq = tool.checkpoint()
        assert len(set(texts)) < len(texts)  # each query cached per plan
        path = tmp_path / f"ckpt-{seq}.bin"
        manifest, _ = read_manifest(path)
        assert manifest["format"] == 3
        assert sorted(manifest["queries"]) == sorted(set(texts))
        assert [
            manifest["queries"][entry["query"]] for entry in manifest["cache"]
        ] == texts
        data = path.read_bytes()
        for text in set(texts):
            assert data.count(json.dumps(text)[1:-1].encode("utf-8")) == 1


class TestFormatTwoCheckpoint:
    """A data directory whose newest checkpoint is format 2, or format 3
    written while graph versions carried a plan revision, restores and
    seeds every cache entry."""

    @pytest.mark.parametrize("fmt", [2, 3])
    def test_restores_and_seeds_every_entry(self, tmp_path, fmt):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        source = OptImatch(workers=1)
        source.load_explain_batch(kb_texts())
        source.run_knowledge_base(builtin_knowledge_base())
        before = cached(source)
        write_format_2_checkpoint(str(data_dir), source, seq=1, fmt=fmt)
        source.close()

        with OptImatch(workers=1, data_dir=str(data_dir)) as tool:
            status = tool.durability_status()["recovery"]
            assert status["checkpointSeq"] == 1
            assert status["cacheSeeded"] == len(before)
            assert cached(tool) == before
            tool.run_knowledge_base(builtin_knowledge_base())
            stats = tool.stats()["matchCache"]
            assert (stats["hits"], stats["misses"]) == (len(before), 0)
            tool.checkpoint()
        manifest, _ = read_manifest(data_dir / "ckpt-2.bin")
        assert manifest["format"] == 3
        assert len(manifest["cache"]) == len(before)


class TestNoRevisions:
    """A graph's version is its own mutation counter: nothing
    allocates, stamps, journals or checkpoints a plan revision."""

    def test_no_revision_api(self):
        assert not hasattr(repro.store, "compose_version")
        assert not hasattr(repro.store, "split_version")
        assert not hasattr(Graph, "stamp_version")
        assert not hasattr(DurableStore, "revisions")
        assert not hasattr(WorkloadSnapshot, "covers")
        with OptImatch(workers=1) as tool:
            assert not hasattr(tool, "_revisions")

    def test_journal_and_manifest_hold_no_revision(self, tmp_path, texts):
        with OptImatch(
            workers=1, data_dir=str(tmp_path), fsync="async"
        ) as tool:
            tool.load_explain_batch(texts[:2], plan_ids=["a", "b"])
            tool.replace_explain_text(texts[2], "a")
            records = scan_wal(str(tmp_path / "wal-0.log")).records
            seq = tool.checkpoint()
        assert [record["plans"] for record in records] == [
            [["a", texts[0]], ["b", texts[1]]],
            [["a", texts[2]]],
        ]
        manifest, _ = read_manifest(tmp_path / f"ckpt-{seq}.bin")
        assert manifest["format"] == 3
        assert "revisions" not in manifest
        assert manifest["plans"] == [
            {"id": "a", "source": texts[2]},
            {"id": "b", "source": texts[1]},
        ]


#: Matches only an operator whose estimated cardinality is 424242.
CARDINALITY_QUERY = (
    "PREFIX predURI: <http://optimatch/predicate#> "
    "SELECT ?p WHERE { ?p predURI:hasEstimateCardinality ?c "
    "FILTER (?c = 424242) }"
)


def same_size_variant(text):
    """*text* with its first operator's cardinality changed: the same
    plan id and triple count, so the same graph version."""
    plan = parse_plan(text)
    plan.operators[min(plan.operators)].cardinality = 424242
    return write_plan(plan)


PLAN_TEXTS = plan_texts()
SOURCES = PLAN_TEXTS + [same_size_variant(text) for text in PLAN_TEXTS]
QUERIES = [SPARQL, CARDINALITY_QUERY]

PUT = st.tuples(
    st.just("put"), st.sampled_from("abc"), st.integers(0, len(SOURCES) - 1)
)
SEARCH = st.tuples(st.just("search"), st.integers(0, len(QUERIES) - 1))
#: Puts, searches and checkpoints are drawn more often than removes and
#: clears, so most checkpoints hold results.
OPS = st.lists(
    st.one_of(
        SEARCH,
        PUT,
        st.tuples(st.just("checkpoint")),
        SEARCH,
        PUT,
        st.tuples(st.just("remove"), st.sampled_from("abc")),
        st.tuples(st.just("clear")),
    ),
    max_size=14,
)


#: Every example starts from a checkpoint holding results of all three
#: plans, so the random ops decide which of them recovery may seed.
WARM_START = [("put", plan_id, index) for index, plan_id in enumerate("abc")]
WARM_START += [("search", index) for index in range(len(QUERIES))]
WARM_START += [("checkpoint",)]


class TestSeedingRule:
    """After any mix of adds, replaces (same-size variants included),
    removes, clears, searches and checkpoints, a crash and recovery
    seed exactly the last checkpoint's results of the plans that are
    live and were not added or replaced after it, and every search
    answers as an uncached engine does."""

    @given(ops=OPS)
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_recovery_seeds_only_unrewritten_plans(self, ops):
        with tempfile.TemporaryDirectory() as data_dir:
            self.check(pathlib.Path(data_dir), ops)

    @staticmethod
    def check(data_dir, ops):
        tool = OptImatch(
            workers=1,
            data_dir=str(data_dir),
            fsync="async",
            checkpoint_every=10 ** 9,
        )
        checkpointed = []  # plan id of each entry in the last checkpoint
        rewritten = set()  # ids added or replaced since it
        for op, *args in WARM_START + ops:
            if op == "put":
                plan_id, source = args[0], SOURCES[args[1]]
                if plan_id in {t.plan_id for t in tool.workload}:
                    tool.replace_explain_text(source, plan_id)
                else:
                    tool.load_explain_text(source, plan_id)
                rewritten.add(plan_id)
            elif op == "remove":
                if args[0] in {t.plan_id for t in tool.workload}:
                    tool.remove_plan(args[0])
            elif op == "clear":
                tool.clear()
            elif op == "search":
                tool.search(QUERIES[args[0]])
            else:
                seq = tool.checkpoint()
                manifest, _ = read_manifest(data_dir / f"ckpt-{seq}.bin")
                checkpointed = [entry["plan"] for entry in manifest["cache"]]
                rewritten = set()
        live = {t.plan_id: list(t.graph.triples()) for t in tool.workload}
        # Crash: tear down without the close() checkpoint.
        tool._store.close()
        tool._engine.close()

        with OptImatch(workers=1, data_dir=str(data_dir)) as recovered:
            assert {
                t.plan_id: list(t.graph.triples()) for t in recovered.workload
            } == live
            assert list(live) == [t.plan_id for t in recovered.workload]
            expected = sum(
                plan_id in live and plan_id not in rewritten
                for plan_id in checkpointed
            )
            status = recovered.durability_status()["recovery"]
            assert status["cacheSeeded"] == expected
            with MatchingEngine(cache=False) as uncached:
                for query in QUERIES:
                    assert result_shape(recovered.search(query)) == (
                        result_shape(
                            uncached.search(query, recovered.workload)
                        )
                    )
