"""OptImatch facade durability: recovery, delta invalidation, stamping.

The headline assertion of the PR lives here: after a checkpoint, a
replace of ONE plan, and a restart, the engine is re-armed for exactly
the unchanged plans (``matchCache.seeded``) and only the replaced plan
re-matches — with search results bit-identical to a never-crashed
control.
"""

import ast
import json
import os
import shutil
import struct
import zlib

import pytest

import repro.store
from repro.core.matcher import PlanMatches
from repro.core.optimatch import OptImatch
from repro.core.transform import transform_plan
from repro.kb.builtin import builtin_knowledge_base
from repro.qep.model import BaseObject, PlanOperator
from repro.qep.parser import parse_plan
from repro.qep.writer import write_plan
from repro.rdf import snapshot
from repro.store import DurabilityError, WalWriter, split_version
from repro.testing import chaos
from repro.workload import generate_workload

SPARQL = (
    'PREFIX predURI: <http://optimatch/predicate#> '
    'SELECT ?p WHERE { ?p predURI:hasPopType "RETURN" }'
)


@pytest.fixture()
def texts():
    plans = generate_workload(3, seed=21, size_sampler=lambda rng: 9)
    return [write_plan(plan) for plan in plans]


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
        # Replace the middle plan with a same-shaped graph: without the
        # revision stamp its version (triple count) would collide.
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

    def test_replace_bumps_composed_version(self, tmp_path, texts):
        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        try:
            first = tool.load_explain_text(texts[0])
            version_1 = first.graph.version
            second = tool.replace_plan(
                parse_plan(texts[0], first.plan_id)
            )
            version_2 = second.graph.version
            assert version_1 != version_2
            assert split_version(version_1)[0] == 1
            assert split_version(version_2)[0] == 2
            # Same graph shape: only the revision half differs.
            assert split_version(version_1)[1] == split_version(version_2)[1]
        finally:
            tool.close()


def revisions_of(plans):
    return [split_version(t.graph.version)[0] for t in plans]


class TestRevisions:
    """The facade allocates every revision; the journal records them."""

    def test_revisions_survive_remove_clear_and_restart(
        self, tmp_path, texts
    ):
        tool = OptImatch(workers=1, data_dir=str(tmp_path), fsync="async")
        first = tool.load_explain_text(texts[0])
        tool.remove_plan(first.plan_id)
        second = tool.load_explain_text(texts[0])
        tool.clear()
        tool.close()
        with OptImatch(workers=1, data_dir=str(tmp_path)) as recovered:
            third = recovered.load_explain_text(texts[0])
        assert revisions_of([first, second, third]) == [1, 2, 3]

    def test_replace_batch_repeating_an_id(self, tmp_path, texts):
        """Each copy takes the next revision and the last one wins;
        journal-only recovery rebuilds the same graph and version."""
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
            assert revisions_of(committed) == [2, 1, 3]
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
            assert tool._revisions == {"a": 1}
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
            assert tool._revisions == {added.plan_id: 1}
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
            assert revisions_of(tool.workload) == [2, 1]
            fresh = transform_plan(parse_plan(texts[2], "a"))
            assert list(tool.plan("a").graph.triples()) == list(
                fresh.graph.triples()
            )
            replaced = tool.replace_explain_text(texts[0], "a")
            assert revisions_of([replaced]) == [3]


class TestStampingWithoutDurability:
    """The revision stamp also fixes a pre-existing stale-cache hazard
    with durability OFF: clear() + re-add of a same-sized plan used to
    reuse the old graph version and could serve the old plan's rows."""

    def test_clear_and_readd_never_reuses_version(self, texts):
        tool = OptImatch(workers=1)
        try:
            first = tool.load_explain_text(texts[0])
            version_1 = first.graph.version
            tool.search(SPARQL)
            tool.clear()
            second = tool.load_explain_text(texts[0])
            assert second.graph.version != version_1
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


def write_format_1_checkpoint(data_dir, tool, seq, kb):
    """Write ``ckpt-<seq>.bin`` as format 1 did: a manifest with each
    plan's blob offset, length and stamped version, a blob of
    ``encode_graph`` images, and cache rows as term ids into them."""
    blob = b""
    plans = []
    views = {}
    for transformed in tool.workload:
        image = snapshot.encode_graph(transformed.graph)
        plans.append(
            {
                "id": transformed.plan_id,
                "rev": split_version(transformed.graph.version)[0],
                "version": transformed.graph.version,
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
            {"plan": plan_id, "version": version, "query": query, "rows": rows}
        )
    manifest = json.dumps(
        {
            "format": 1,
            "seq": seq,
            "wal": f"wal-{seq}.log",
            "revisions": dict(tool._revisions),
            "plans": plans,
            "kb": kb,
            "cache": cache,
            "blobLength": len(blob),
            "blobCrc": zlib.crc32(blob),
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    with open(os.path.join(data_dir, f"ckpt-{seq}.bin"), "wb") as handle:
        handle.write(b"OPTMCKP1")
        handle.write(struct.pack("<II", len(manifest), zlib.crc32(manifest)))
        handle.write(manifest)
        handle.write(blob)


def read_manifest(path):
    data = path.read_bytes()
    length, crc = struct.unpack_from("<II", data, 8)
    manifest = data[16:16 + length]
    assert zlib.crc32(manifest) == crc
    return json.loads(manifest), len(data) - 16 - length


class TestFormatOneCheckpoint:
    """Data directories whose newest checkpoint is format 1 recover:
    its plans, revisions and KB entries are used and its tail journal
    replays, but its term-id cache rows are not seeded."""

    def test_recovers_state_without_its_cache_rows(self, tmp_path, texts):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        source = OptImatch(workers=1)
        source.load_explain_batch(texts[:2], plan_ids=["a", "b"])
        source.replace_explain_text(texts[2], "a")  # revision 2
        expected = result_shape(source.search(SPARQL))
        graphs = {
            t.plan_id: (list(t.graph.triples()), t.graph.version)
            for t in source.workload
        }
        write_format_1_checkpoint(
            str(data_dir), source, seq=1, kb=[{"name": "in-checkpoint"}]
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
            assert revisions_of(tool.workload) == [2, 1, 1]
            assert tool._revisions == {"a": 2, "b": 1, "c": 1}
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
        assert set(manifest["plans"][0]) == {"id", "rev", "source"}


def write_format_2_checkpoint(data_dir, tool, seq):
    """Write ``ckpt-<seq>.bin`` as format 2 did: the manifest alone,
    each cache entry carrying its query's full text."""
    manifest = json.dumps(
        {
            "format": 2,
            "seq": seq,
            "wal": f"wal-{seq}.log",
            "revisions": dict(tool._revisions),
            "plans": [
                {
                    "id": transformed.plan_id,
                    "rev": split_version(transformed.graph.version)[0],
                    "source": write_plan(transformed.plan),
                }
                for transformed in tool.workload
            ],
            "kb": [],
            "cache": tool._export_cache_entries(),
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    with open(os.path.join(data_dir, f"ckpt-{seq}.bin"), "wb") as handle:
        handle.write(b"OPTMCKP1")
        handle.write(struct.pack("<II", len(manifest), zlib.crc32(manifest)))
        handle.write(manifest)


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
    """A data directory whose newest checkpoint is format 2 restores
    and seeds every cache entry."""

    def test_restores_and_seeds_every_entry(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        source = OptImatch(workers=1)
        source.load_explain_batch(kb_texts())
        source.run_knowledge_base(builtin_knowledge_base())
        before = cached(source)
        write_format_2_checkpoint(str(data_dir), source, seq=1)
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
