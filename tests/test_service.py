"""Tests for the multi-table query service: registration, routing, ingestion."""

import asyncio

import numpy as np
import pytest

from conftest import make_simple_table, with_cell

from repro import (
    AsyncQueryService,
    Database,
    PairwiseHistParams,
    QueryService,
    parse_query,
)
from repro.bench import ServedSystem
from repro.exactdb.executor import ExactQueryEngine
from repro.workload import run


@pytest.fixture(scope="module")
def service():
    svc = QueryService(partition_size=2000)
    svc.register_table(
        make_simple_table(rows=5000, seed=21),
        params=PairwiseHistParams.with_defaults(sample_size=None, seed=1),
    )
    svc.register_table(
        make_simple_table(rows=3000, seed=22, name="other"),
        params=PairwiseHistParams.with_defaults(sample_size=None, seed=1),
    )
    return svc


class TestCatalog:
    def test_tables_registered(self, service):
        assert set(service.table_names) == {"simple", "other"}
        assert "simple" in service and "missing" not in service
        assert service.table("simple").num_partitions == 3

    def test_duplicate_registration_rejected(self, service):
        with pytest.raises(ValueError):
            service.register_table(make_simple_table(rows=100, seed=0))

    def test_unknown_table_query_raises(self, service):
        with pytest.raises(KeyError):
            service.execute("SELECT COUNT(x) FROM missing WHERE x > 0")

    def test_drop_table(self):
        svc = QueryService(partition_size=1000)
        svc.register_table(make_simple_table(rows=1000, seed=0))
        svc.database.drop("simple")
        assert "simple" not in svc
        with pytest.raises(KeyError):
            svc.database.drop("simple")

    def test_query_service_rejects_database_plus_kwargs(self):
        with pytest.raises(ValueError):
            QueryService(Database(), partition_size=10)


class TestRouting:
    def test_queries_route_by_table_name(self, service):
        # The two tables are different sizes, so COUNT(*) separates them.
        total_simple = service.execute_scalar("SELECT COUNT(*) FROM simple").value
        total_other = service.execute_scalar("SELECT COUNT(*) FROM other").value
        assert total_simple == pytest.approx(5000, rel=0.02)
        assert total_other == pytest.approx(3000, rel=0.02)

    def test_group_by_routes_through_service(self, service):
        results = service.execute("SELECT COUNT(x) FROM simple GROUP BY category")
        assert isinstance(results, dict)
        total = sum(r[0].value for r in results.values())
        assert total == pytest.approx(5000, rel=0.05)


class TestAccuracy:
    @pytest.mark.parametrize(
        "sql,rel",
        [
            ("SELECT COUNT(x) FROM simple WHERE x > 30", 0.05),
            ("SELECT AVG(y) FROM simple WHERE x > 20 AND x < 80", 0.05),
            ("SELECT SUM(z) FROM simple WHERE x < 70", 0.10),
            ("SELECT AVG(x) FROM simple WHERE category = 'alpha'", 0.05),
        ],
    )
    def test_partitioned_estimates_close_to_exact(self, service, sql, rel):
        exact = ExactQueryEngine(service.table("simple").store.reconstruct_rows())
        estimate = service.execute_scalar(sql)
        truth = exact.execute_scalar(parse_query(sql))
        assert estimate.value == pytest.approx(truth, rel=rel)
        assert estimate.lower <= estimate.value <= estimate.upper


class TestIngest:
    def make_service(self, rows=5000):
        svc = QueryService(partition_size=2000)
        svc.register_table(
            make_simple_table(rows=rows, seed=31),
            params=PairwiseHistParams.with_defaults(sample_size=None, seed=1),
        )
        return svc

    def test_ingest_refreshes_only_the_tail(self):
        svc = self.make_service()
        managed = svc.table("simple")
        sealed_synopses = managed.partition_synopses[:2]
        sealed_partitions = managed.store.partitions[:2]
        builds_before = managed.synopsis_builds
        outcome = svc.ingest("simple", make_simple_table(rows=1500, seed=32))
        # Only the tail partition (and any spill) was recompressed and
        # re-summarised; sealed partitions kept their exact objects.
        assert outcome.rebuilt_partitions == [2, 3]
        assert outcome.untouched_partitions == 2
        # The ingest committed a new value; the one read before it is
        # unchanged, so the table is read again.
        assert managed.synopsis_builds == builds_before
        assert managed.num_rows == 5000
        managed = svc.table("simple")
        assert managed.partition_synopses[0] is sealed_synopses[0]
        assert managed.partition_synopses[1] is sealed_synopses[1]
        assert managed.store.partitions[0] is sealed_partitions[0]
        assert managed.store.partitions[1] is sealed_partitions[1]
        assert managed.synopsis_builds == builds_before + 2

    def test_ingest_swaps_the_engine_synopsis(self):
        svc = self.make_service()
        synopsis_before = svc.table("simple").engine.synopsis
        svc.ingest("simple", make_simple_table(rows=500, seed=33))
        synopsis = svc.table("simple").engine.synopsis
        assert synopsis is not synopsis_before
        assert synopsis.population_rows == 5500

    def test_ingest_preserves_lossless_reconstruction(self):
        svc = self.make_service(rows=3000)
        table = make_simple_table(rows=3000, seed=31)
        extra = make_simple_table(rows=2500, seed=34)
        svc.ingest("simple", extra)
        reconstructed = svc.table("simple").store.reconstruct_rows()
        full = table.concat(extra)
        for name in full.column_names:
            a, b = reconstructed.column(name), full.column(name)
            if full.schema[name].is_categorical:
                assert all(x == y or (x is None and y is None) for x, y in zip(a, b))
            else:
                np.testing.assert_allclose(
                    np.nan_to_num(a, nan=-1.0), np.nan_to_num(b, nan=-1.0)
                )

    def test_estimates_stay_within_bounds_after_ingest(self):
        svc = self.make_service()
        svc.ingest("simple", make_simple_table(rows=2500, seed=35))
        exact = ExactQueryEngine(svc.table("simple").store.reconstruct_rows())
        queries = [
            "SELECT COUNT(x) FROM simple WHERE x > 30",
            "SELECT AVG(y) FROM simple WHERE x > 20 AND x < 80",
            "SELECT COUNT(*) FROM simple",
        ]
        for sql in queries:
            estimate = svc.execute_scalar(sql)
            truth = exact.execute_scalar(parse_query(sql))
            assert estimate.value == pytest.approx(truth, rel=0.08)
            assert estimate.lower <= estimate.value <= estimate.upper

    @pytest.mark.parametrize("durable", [False, True], ids=["Database", "DurableDatabase"])
    def test_staged_ingest_publishes_only_into_the_table_it_was_staged_against(
        self, tmp_path, durable
    ):
        if durable:
            db = Database.open(tmp_path / "db", partition_size=2000)
        else:
            db = Database(partition_size=2000)
        params = PairwiseHistParams.with_defaults(sample_size=None, seed=1)
        db.register(make_simple_table(rows=1000, seed=37, name="t"), params=params)
        staged = db.stage_ingest("t", make_simple_table(rows=300, seed=38, name="t"))
        db.drop("t")
        db.register(make_simple_table(rows=200, seed=39, name="t"), params=params)
        service = QueryService(database=db, result_cache_size=0)
        count = service.execute_scalar("SELECT COUNT(*) FROM t").value
        lsn = db.wal.last_lsn if durable else None
        with pytest.raises(KeyError):
            db.commit_ingest(staged)
        assert db.table("t").num_rows == 200
        assert service.execute_scalar("SELECT COUNT(*) FROM t").value == count
        if durable:
            assert db.wal.last_lsn == lsn == 3  # register, drop, register
            db.close()

    def test_ingest_into_unknown_table_raises(self, service):
        with pytest.raises(KeyError):
            service.ingest("missing", make_simple_table(rows=10, seed=0))

    def test_ingest_rebuild_scales_bin_budget_to_whole_table(self):
        # The tail rebuild must get a partition-sized share of the table's
        # bin budget, not the full budget (which would regrow the merged
        # union grids toward num_partitions x monolithic granularity).
        svc = self.make_service()
        svc.ingest("simple", make_simple_table(rows=2500, seed=36))
        managed = svc.table("simple")
        whole_table_budget = managed.params.effective_initial_bins
        for synopsis in managed.partition_synopses:
            assert synopsis.params.effective_initial_bins < whole_table_budget


class TestUnencodableValues:
    """A numeric cell without an int64 code is refused at the door, not
    acked and then stored as NULL or a garbage code."""

    BAD = [float("inf"), -float("inf"), 9.51851994e19]

    def make_service(self):
        svc = QueryService(partition_size=2000)
        svc.register_table(make_simple_table(rows=1000, seed=41))
        return svc

    @pytest.mark.parametrize("value", BAD)
    def test_ingest_names_the_column_and_first_bad_row(self, value):
        svc = self.make_service()
        batch = with_cell(make_simple_table(rows=5, seed=42), "z", 3, value)
        batch = with_cell(batch, "y", 4, value)
        with pytest.raises(ValueError, match=r"column 'z' .* row 3"):
            svc.ingest("simple", batch)
        assert svc.table("simple").num_rows == 1000
        assert svc.execute_scalar("SELECT COUNT(*) FROM simple").value == pytest.approx(1000)

    @pytest.mark.parametrize("value", BAD)
    def test_register_refuses_before_building(self, value):
        svc = QueryService(partition_size=2000)
        with pytest.raises(ValueError, match=r"column 'x' .* row 7"):
            svc.register_table(with_cell(make_simple_table(rows=50, seed=43), "x", 7, value))
        assert "simple" not in svc

    def test_nan_and_large_finite_values_still_round_trip(self):
        svc = self.make_service()
        batch = with_cell(make_simple_table(rows=5, seed=44), "z", 0, np.nan)
        batch = with_cell(batch, "w", 1, 1e15)
        svc.ingest("simple", batch)
        rows = svc.table("simple").store.reconstruct_rows()
        assert np.isnan(rows.column("z")[1000])
        assert rows.column("w")[1001] == 1e15

    def test_the_async_queue_refuses_before_enqueueing(self):
        async def scenario():
            async with AsyncQueryService(partition_size=2000) as svc:
                await svc.register_table(make_simple_table(rows=1000, seed=41))
                batch = with_cell(make_simple_table(rows=5, seed=42), "z", 2, float("inf"))
                with pytest.raises(ValueError, match="column 'z'"):
                    await svc.ingest("simple", batch)
                assert svc._ingest_queues == {}
                return svc.service.table("simple").num_rows

        assert asyncio.run(scenario()) == 1000


class TestWorkloadIntegration:
    def test_runner_for_service_uses_reconstructed_truth(self, service):
        # The rows a service holds are its partitioned store's lossless
        # reconstruction; the runner scores against exactly those.
        managed = service.table("simple")
        rows = managed.store.reconstruct_rows()
        assert rows.num_rows == managed.num_rows
        system = ServedSystem(backend=service, engine=managed.engine)
        query = parse_query("SELECT COUNT(x) FROM simple WHERE x > 50")
        (record,) = run(system, rows, [query]).records
        assert record.supported
        assert record.truth == float((rows.column("x") > 50).sum())
        assert record.estimate == pytest.approx(record.truth, rel=0.05)

    def test_system_fit_builds_single_table_service(self):
        table = make_simple_table(rows=2000, seed=41)
        system = ServedSystem.serve(table, "deployed", partitions=2)
        assert system.backend.table_names == ["simple"]
        assert system.backend.table("simple").num_partitions == 2
        assert system.construction_seconds > 0
        assert system.synopsis_bytes() > 0
        result = system.estimate(parse_query("SELECT COUNT(x) FROM simple WHERE x > 50"))
        assert result.value > 0

    def test_system_rejects_group_by(self, service):
        from repro.baselines.base import UnsupportedQueryError

        system = ServedSystem(backend=service, engine=service.table("simple").engine)
        with pytest.raises(UnsupportedQueryError):
            system.estimate(parse_query("SELECT COUNT(x) FROM simple GROUP BY category"))
