"""OptImatch facade durability: recovery, delta invalidation, stamping.

The headline assertion of the PR lives here: after a checkpoint, a
replace of ONE plan, and a restart, the engine is re-armed for exactly
the unchanged plans (``matchCache.seeded``) and only the replaced plan
re-matches — with search results bit-identical to a never-crashed
control.
"""

import shutil

import pytest

from repro.core.optimatch import OptImatch
from repro.core.transform import transform_plan
from repro.qep.parser import parse_plan
from repro.qep.writer import write_plan
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
                (transformed.plan_id, transformed.graph.version, SPARQL),
                PlanMatches(transformed=transformed),
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
            exported = tool.engine.export_match_cache()
            assert len(exported) == 1
            key, matches = exported[0]
            assert tool.engine.seed_match_cache(key, matches) is True
            assert tool.stats()["matchCache"]["seeded"] == 1
        finally:
            tool.close()
