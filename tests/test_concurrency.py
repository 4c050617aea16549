"""Concurrency tests: immutable published engines, writer mutexes, async front end.

The contract under test (see ``repro.service.database``):

* a query reads its table's engine once and runs on it, and a commit
  publishes a new engine instead of mutating the held one, so every
  answer reflects exactly one published synopsis — pre- or post-ingest,
  never a torn mix;
* queries take no lock: an ingest never waits for a reader, and reads
  keep answering while an ingest rebuilds;
* writers serialise per table (ingest, drop) and on the catalog
  (register); unknown names raise instead of leaving state behind;
* ``ReadWriteLock`` (kept for the benchmark probe) prefers writers;
* the asyncio front end coalesces small concurrent appends into one tail
  recompression.

The service-level tests synchronise on events, never on sleeps.
"""

from __future__ import annotations

import asyncio
import math
import sys
import threading
import time

import pytest

from conftest import make_simple_table, tunnel

from repro import (
    AsyncQueryService,
    PairwiseHistEngine,
    PairwiseHistParams,
    QueryServer,
    QueryService,
    ReadWriteLock,
    load_dataset,
)
from repro.service import framing
from repro.service.wire import PipelinedClient, WireError

JOIN_TIMEOUT = 60.0


def exact_params() -> PairwiseHistParams:
    return PairwiseHistParams.with_defaults(sample_size=None, seed=1)


def make_service(
    rows: int = 1200, partition_size: int = 600, name: str = "stream", **service_kwargs
):
    service = QueryService(partition_size=partition_size, **service_kwargs)
    service.register_table(
        make_simple_table(rows=rows, seed=50, name=name), params=exact_params()
    )
    return service


def join_all(threads: list[threading.Thread]) -> None:
    """Join with a timeout and fail loudly instead of hanging: a thread
    still alive afterwards means a deadlock in the locking discipline."""
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"threads deadlocked: {stuck}"


# --------------------------------------------------------------------------- #
# ReadWriteLock unit behaviour


class TestReadWriteLock:
    def test_readers_share_the_lock(self):
        lock = ReadWriteLock()
        entered = threading.Barrier(2, timeout=JOIN_TIMEOUT)

        def reader():
            with lock.read_locked():
                entered.wait()  # both threads inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        join_all(threads)

    def test_writer_is_exclusive(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        with pytest.raises(TimeoutError):
            lock.acquire_read(timeout=0.05)
        with pytest.raises(TimeoutError):
            lock.acquire_write(timeout=0.05)
        lock.release_write()
        with lock.read_locked(timeout=1.0):
            pass

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_started = threading.Event()
        writer_done = threading.Event()

        def writer():
            writer_started.set()
            with lock.write_locked(timeout=JOIN_TIMEOUT):
                pass
            writer_done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        writer_started.wait(timeout=JOIN_TIMEOUT)
        time.sleep(0.05)  # let the writer reach its wait
        # Writer preference: a *new* reader must now queue behind the writer.
        with pytest.raises(TimeoutError):
            lock.acquire_read(timeout=0.05)
        lock.release_read()
        join_all([thread])
        assert writer_done.is_set()
        with lock.read_locked(timeout=1.0):
            pass

    def test_writer_not_starved_by_reader_stream(self):
        lock = ReadWriteLock()
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                with lock.read_locked(timeout=JOIN_TIMEOUT):
                    time.sleep(0.001)

        readers = [threading.Thread(target=reader, daemon=True) for _ in range(6)]
        for t in readers:
            t.start()
        time.sleep(0.05)  # reader stream fully going
        start = time.perf_counter()
        with lock.write_locked(timeout=10.0):
            waited = time.perf_counter() - start
        stop.set()
        join_all(readers)
        assert waited < 5.0, f"writer starved for {waited:.1f}s"

    def test_writer_timeout_releases_queued_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()  # long-running reader holds the lock throughout
        reader_acquired = threading.Event()

        def queued_reader():
            with lock.read_locked(timeout=JOIN_TIMEOUT):
                reader_acquired.set()

        writer_waiting = threading.Event()

        def writer():
            writer_waiting.set()
            with pytest.raises(TimeoutError):
                lock.acquire_write(timeout=0.2)

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        writer_waiting.wait(timeout=JOIN_TIMEOUT)
        time.sleep(0.05)  # writer is parked; a new reader now queues behind it
        reader_thread = threading.Thread(target=queued_reader)
        reader_thread.start()
        join_all([writer_thread])
        # After the writer's timeout the queued reader must proceed even
        # though the first reader never released.
        assert reader_acquired.wait(timeout=5.0), (
            "reader stayed parked after the waiting writer timed out"
        )
        join_all([reader_thread])
        lock.release_read()

    def test_unbalanced_release_raises(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


@pytest.fixture
def tiny_switch_interval():
    """Switch threads every microsecond: a reader that re-read its table
    mid-query would interleave with a commit and be caught."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


# --------------------------------------------------------------------------- #
# Service-level stress


class TestConcurrentService:
    BATCHES = 4
    BATCH_ROWS = 300

    def batches(self, name: str = "stream"):
        return [
            make_simple_table(rows=self.BATCH_ROWS, seed=60 + i, name=name)
            for i in range(self.BATCHES)
        ]

    def reference_values(self, sql_list):
        """Run the same ingest sequence serially and record every synopsis
        state's answers — the only values a correctly-locked service may
        ever return."""
        service = make_service()
        valid = {sql: [service.execute_scalar(sql).value] for sql in sql_list}
        for batch in self.batches():
            service.ingest("stream", batch)
            for sql in sql_list:
                valid[sql].append(service.execute_scalar(sql).value)
        return valid

    @staticmethod
    def matches_some(value: float, candidates: list[float]) -> bool:
        return any(
            math.isclose(value, v, rel_tol=1e-9, abs_tol=1e-9) for v in candidates
        )

    @pytest.mark.slow
    def test_no_torn_reads_while_ingest_streams(self, tiny_switch_interval):
        sql_list = [
            "SELECT COUNT(*) FROM stream",
            # Predicates keep the engine between its synopsis reads long
            # enough for a commit to land there, were the engine mutable.
            "SELECT AVG(x) FROM stream WHERE y > 30",
            "SELECT SUM(w) FROM stream WHERE x < 60 AND z > 10",
        ]
        valid = self.reference_values(sql_list)
        # Uncached, so every read runs the engine while commits land.
        service = make_service(result_cache_size=0)
        stop = threading.Event()
        observed: dict[str, list[float]] = {sql: [] for sql in sql_list}
        failures: list[BaseException] = []

        def reader(sql: str) -> None:
            try:
                while not stop.is_set():
                    observed[sql].append(service.execute_scalar(sql).value)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        readers = [
            threading.Thread(target=reader, args=(sql,), daemon=True)
            for sql in sql_list
        ]
        for t in readers:
            t.start()
        for batch in self.batches():
            service.ingest("stream", batch)
        stop.set()
        join_all(readers)
        assert not failures, failures
        for sql in sql_list:
            assert observed[sql], f"reader for {sql!r} never ran"
            bad = [
                v for v in observed[sql] if not self.matches_some(v, valid[sql])
            ]
            assert not bad, (
                f"torn reads for {sql!r}: {bad[:5]} not in any published "
                f"synopsis state {valid[sql]}"
            )
        # The final published state is the fully-ingested one.
        final = service.execute_scalar("SELECT COUNT(*) FROM stream").value
        assert math.isclose(final, valid["SELECT COUNT(*) FROM stream"][-1], rel_tol=1e-9)

    @pytest.mark.slow
    def test_reads_flow_while_ingest_is_staging(self, monkeypatch):
        """Copy-on-write: a query runs to completion while an ingest is
        parked mid-rebuild, and answers from the pre-ingest engine."""
        service = make_service(rows=2400, partition_size=600)
        staging, release = threading.Event(), threading.Event()
        real_build = service.database._build_synopses

        def parked_build(*args, **kwargs):
            staging.set()
            assert release.wait(JOIN_TIMEOUT)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(service.database, "_build_synopses", parked_build)
        ingested = []
        writer = threading.Thread(
            target=lambda: ingested.append(
                service.ingest("stream", make_simple_table(rows=2400, seed=70, name="stream"))
            ),
            daemon=True,
        )
        writer.start()
        assert staging.wait(JOIN_TIMEOUT)
        answers = []
        reader = threading.Thread(
            target=lambda: answers.append(
                service.execute_scalar("SELECT COUNT(*) FROM stream").value
            ),
            daemon=True,
        )
        reader.start()
        reader.join(JOIN_TIMEOUT)
        finished_while_staging = not reader.is_alive()
        release.set()
        join_all([reader, writer])
        assert finished_while_staging, "the query waited for the ingest's rebuild"
        assert answers == [pytest.approx(2400, rel=1e-9)]
        assert ingested[0].appended_rows == 2400
        total = service.execute_scalar("SELECT COUNT(*) FROM stream").value
        assert total == pytest.approx(4800, rel=1e-9)

    @pytest.mark.slow
    def test_ingest_not_starved_by_query_hammering(self):
        service = make_service()
        stop = threading.Event()
        failures: list[BaseException] = []
        answered = [threading.Event() for _ in range(4)]

        def reader(first_answer: threading.Event) -> None:
            try:
                while not stop.is_set():
                    service.execute_scalar("SELECT COUNT(*) FROM stream")
                    first_answer.set()
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        readers = [
            threading.Thread(target=reader, args=(event,), daemon=True)
            for event in answered
        ]
        for t in readers:
            t.start()
        for event in answered:
            assert event.wait(JOIN_TIMEOUT), "a reader never answered"
        result = service.ingest(
            "stream", make_simple_table(rows=400, seed=80, name="stream")
        )
        stop.set()
        join_all(readers)
        assert not failures, failures
        assert result.appended_rows == 400
        assert (
            service.table("stream").engine.synopsis.population_rows == 1600
        )

    def test_commit_leaves_the_engine_a_reader_holds_untouched(self):
        service = make_service()
        table = service.table("stream")
        old = table.engine
        before = old.synopsis
        service.ingest("stream", make_simple_table(rows=300, seed=55, name="stream"))
        assert old.synopsis is before
        # The value a reader holds is untouched; the commit made a new one.
        assert table.engine is old and table.num_rows == 1200
        current = service.table("stream")
        assert current.engine is not old
        assert current.engine.synopsis.population_rows == 1500

    def test_writer_never_waits_on_a_reader(self, monkeypatch):
        service = make_service()
        sql = "SELECT AVG(x) FROM stream WHERE y > 20"
        expected = service.table("stream").engine.execute_scalar(sql).value
        entered, release = threading.Event(), threading.Event()
        real_execute = PairwiseHistEngine.execute
        parked: list[PairwiseHistEngine] = []

        def parked_execute(engine, query):
            if not parked:  # park the first query only
                parked.append(engine)
                entered.set()
                assert release.wait(JOIN_TIMEOUT)
            return real_execute(engine, query)

        monkeypatch.setattr(PairwiseHistEngine, "execute", parked_execute)
        answers = []
        reader = threading.Thread(
            target=lambda: answers.append(service.execute_scalar(sql).value), daemon=True
        )
        reader.start()
        assert entered.wait(JOIN_TIMEOUT)
        writer = threading.Thread(
            target=service.ingest,
            args=("stream", make_simple_table(rows=300, seed=56, name="stream")),
            daemon=True,
        )
        writer.start()
        writer.join(JOIN_TIMEOUT)
        ingest_finished = not writer.is_alive()
        release.set()
        join_all([reader, writer])
        assert ingest_finished, "ingest waited for a reader"
        # The parked reader finished on the engine it held: the pre-ingest one.
        assert answers == [expected]
        assert service.table("stream").num_rows == 1500

    def test_parallel_ingest_on_independent_tables(self):
        service = QueryService(partition_size=500)
        for name in ("alpha_t", "beta_t"):
            service.register_table(
                make_simple_table(rows=1000, seed=90, name=name),
                params=exact_params(),
            )
        failures: list[BaseException] = []

        def worker(name: str) -> None:
            try:
                service.ingest(
                    name, make_simple_table(rows=250, seed=91, name=name)
                )
                service.execute_scalar(f"SELECT COUNT(*) FROM {name}")
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(name,), daemon=True)
            for name in ("alpha_t", "beta_t")
        ]
        for t in threads:
            t.start()
        join_all(threads)
        assert not failures, failures
        for name in ("alpha_t", "beta_t"):
            total = service.execute_scalar(f"SELECT COUNT(*) FROM {name}").value
            assert total == pytest.approx(1250, rel=1e-9)

    def test_unknown_names_do_not_grow_the_lock_registry(self):
        service = make_service()
        for i in range(20):
            with pytest.raises(KeyError):
                service.execute_scalar(f"SELECT COUNT(*) FROM junk{i}")
            with pytest.raises(KeyError):
                service.ingest(f"junk{i}", make_simple_table(rows=5, seed=0))
            with pytest.raises(KeyError):
                service.drop_table(f"junk{i}")
        assert service.table_names == ["stream"]

    def test_failed_registration_does_not_leak_locks(self):
        service = make_service()
        with pytest.raises(ValueError):
            service.register_table(
                make_simple_table(rows=100, seed=0, name="broken"),
                partition_size=-1,
            )
        assert "broken" not in service
        # A duplicate-name failure keeps the live table.
        with pytest.raises(ValueError):
            service.register_table(make_simple_table(rows=100, seed=0, name="stream"))
        assert service.table("stream").num_rows == 1200

    def test_drop_table_retires_its_locks(self):
        service = make_service()
        service.drop_table("stream")
        assert "stream" not in service
        # Queries, ingests and drops after the drop raise.
        with pytest.raises(KeyError):
            service.execute_scalar("SELECT COUNT(*) FROM stream")
        with pytest.raises(KeyError):
            service.ingest("stream", make_simple_table(rows=5, seed=0, name="stream"))
        with pytest.raises(KeyError):
            service.drop_table("stream")
        assert "stream" not in service

    def test_drop_then_reregister_same_name(self):
        service = make_service()
        service.drop_table("stream")
        service.register_table(
            make_simple_table(rows=800, seed=51, name="stream"),
            params=exact_params(),
        )
        total = service.execute_scalar("SELECT COUNT(*) FROM stream").value
        assert total == pytest.approx(800, rel=1e-9)
        service.ingest("stream", make_simple_table(rows=200, seed=52, name="stream"))
        total = service.execute_scalar("SELECT COUNT(*) FROM stream").value
        assert total == pytest.approx(1000, rel=1e-9)

    def test_failed_synopsis_build_rolls_the_append_back(self, monkeypatch):
        service = make_service()
        rows_before = service.table("stream").num_rows
        partitions_before = service.table("stream").store.partitions

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic build failure")

        monkeypatch.setattr(service.database, "_build_synopses", explode)
        with pytest.raises(RuntimeError, match="synthetic"):
            service.ingest(
                "stream", make_simple_table(rows=900, seed=53, name="stream")
            )
        monkeypatch.undo()
        # The append went to a copy of the store, so the published store
        # never outran its synopses.
        assert service.table("stream").num_rows == rows_before
        assert service.table("stream").store.partitions is partitions_before
        # The table is still fully ingestable and queryable.
        service.ingest("stream", make_simple_table(rows=300, seed=54, name="stream"))
        total = service.execute_scalar("SELECT COUNT(*) FROM stream").value
        assert total == pytest.approx(rows_before + 300, rel=1e-9)

    def test_staged_rows_are_invisible_until_committed(self, monkeypatch):
        """Rows an ingest has appended but not committed are not the
        table's: ``stat``, ``table(name).num_rows`` and EXPLAIN's route
        report the committed count while the stage is in flight and after
        it fails."""
        from repro.service.ops import OPS

        service = QueryService(partition_size=5_000)
        service.register_table(load_dataset("power", rows=5_000))
        inside, release = threading.Event(), threading.Event()

        def held(*args, **kwargs):
            inside.set()
            release.wait(JOIN_TIMEOUT)
            raise RuntimeError("synthetic build failure")

        monkeypatch.setattr(service.database, "_build_synopses", held)
        failures: list[BaseException] = []

        def ingest() -> None:
            try:
                service.ingest("power", load_dataset("power", rows=1_000, seed=1))
            except RuntimeError as exc:
                failures.append(exc)

        def reported() -> dict:
            stat = OPS["stat"]
            explain = service.explain("SELECT COUNT(*) FROM power")
            return {
                "stat": stat.encode(stat.handler(service, "power"))["rows"],
                "table": service.table("power").num_rows,
                "explain": explain["route"]["rows"],
                "count": service.execute_scalar("SELECT COUNT(*) FROM power").value,
            }

        committed = dict.fromkeys(("stat", "table", "explain", "count"), 5_000)
        writer = threading.Thread(target=ingest)
        writer.start()
        try:
            assert inside.wait(JOIN_TIMEOUT)
            assert reported() == pytest.approx(committed)
        finally:
            release.set()
            join_all([writer])
        assert len(failures) == 1
        assert reported() == pytest.approx(committed)


# --------------------------------------------------------------------------- #
# Async front end + TCP server


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestAsyncQueryService:
    def test_query_register_and_coalesced_ingest(self):
        async def scenario():
            async with AsyncQueryService(partition_size=600, max_workers=2) as svc:
                await svc.register_table(
                    make_simple_table(rows=1200, seed=50, name="stream"),
                    params=exact_params(),
                )
                before = await svc.query_scalar("SELECT COUNT(*) FROM stream")
                assert before.value == pytest.approx(1200, rel=1e-9)
                batches = [
                    make_simple_table(rows=40, seed=100 + i, name="stream")
                    for i in range(6)
                ]
                results = await asyncio.gather(
                    *[svc.ingest("stream", batch) for batch in batches]
                )
                # All six appends were coalesced into a handful of rebuilds
                # (usually one); every caller sees a shared batched result.
                assert {r.appended_rows for r in results} != {40}
                assert sum({id(r): r.appended_rows for r in results}.values()) == 240
                after = await svc.query_scalar("SELECT COUNT(*) FROM stream")
                assert after.value == pytest.approx(1440, rel=1e-9)

        run_async(scenario())

    def test_validation_errors_raise_in_caller(self):
        async def scenario():
            async with AsyncQueryService(partition_size=600) as svc:
                await svc.register_table(
                    make_simple_table(rows=600, seed=50, name="stream"),
                    params=exact_params(),
                )
                with pytest.raises(KeyError):
                    await svc.ingest(
                        "missing", make_simple_table(rows=10, seed=0)
                    )
                with pytest.raises(TypeError):
                    await svc.ingest("stream", {"x": [1.0]})

        run_async(scenario())

    def test_close_cancels_queued_ingests_instead_of_hanging(self, monkeypatch):
        async def scenario():
            svc = AsyncQueryService(partition_size=600, max_workers=1)
            await svc.register_table(
                make_simple_table(rows=600, seed=50, name="stream"),
                params=exact_params(),
            )
            inside, release = threading.Event(), threading.Event()
            stage_ingest = svc.service.database.stage_ingest

            def parked(table_name, rows):
                inside.set()
                release.wait(JOIN_TIMEOUT)
                return stage_ingest(table_name, rows)

            monkeypatch.setattr(svc.service.database, "stage_ingest", parked)

            async def until(condition) -> None:
                while not condition():
                    await asyncio.sleep(0)  # one loop iteration, not a delay

            # First ingest is parked in the single worker; the second sits
            # in the coalescing queue when close() runs.
            first = asyncio.ensure_future(
                svc.ingest("stream", make_simple_table(rows=400, seed=1, name="stream"))
            )
            assert await asyncio.to_thread(inside.wait, JOIN_TIMEOUT)
            second = asyncio.ensure_future(
                svc.ingest("stream", make_simple_table(rows=400, seed=2, name="stream"))
            )
            queue = svc._ingest_queues["stream"]
            await asyncio.wait_for(until(lambda: not queue.empty()), JOIN_TIMEOUT)
            closing = asyncio.ensure_future(svc.close())
            # close() pops the drain task and cancels it in one step.
            await asyncio.wait_for(until(lambda: not svc._drain_tasks), JOIN_TIMEOUT)
            release.set()
            await closing
            # Neither awaiter may hang forever; cancelled or completed both count.
            done, pending = await asyncio.wait({first, second}, timeout=5.0)
            assert not pending, "a queued ingest future was abandoned by close()"
            for task in done:
                if not task.cancelled():
                    task.exception()  # retrieve, so no unretrieved-exception warning
            with pytest.raises(RuntimeError, match="closed"):
                await svc.ingest(
                    "stream", make_simple_table(rows=10, seed=3, name="stream")
                )
            assert not svc._drain_tasks, "close() left orphan drain tasks"

        run_async(scenario())

    def test_uncoalesced_ingest(self):
        async def scenario():
            async with AsyncQueryService(partition_size=600) as svc:
                await svc.register_table(
                    make_simple_table(rows=600, seed=50, name="stream"),
                    params=exact_params(),
                )
                result = await svc.ingest(
                    "stream",
                    make_simple_table(rows=100, seed=1, name="stream"),
                    coalesce=False,
                )
                assert result.appended_rows == 100

        run_async(scenario())

    def test_coalescing_respects_the_batch_row_cap(self):
        async def scenario():
            async with AsyncQueryService(
                partition_size=600, max_batch_rows=100
            ) as svc:
                await svc.register_table(
                    make_simple_table(rows=600, seed=50, name="stream"),
                    params=exact_params(),
                )
                batches = [
                    make_simple_table(rows=80, seed=110 + i, name="stream")
                    for i in range(3)
                ]
                results = await asyncio.gather(
                    *[svc.ingest("stream", batch) for batch in batches]
                )
                # 80 + 80 would blow the 100-row cap, so no drained batch
                # may merge two of them.
                assert all(r.appended_rows <= 100 for r in results)
                total = await svc.query_scalar("SELECT COUNT(*) FROM stream")
                assert total.value == pytest.approx(840, rel=1e-9)

        run_async(scenario())


async def serve_blocking(svc, scenario):
    """Serve ``svc`` over TCP and run the blocking ``scenario(address)`` in
    a worker thread, so the wire client never stalls the event loop."""
    async with QueryServer(svc) as server:
        return await asyncio.to_thread(scenario, server.address)


class TestQueryServer:
    def test_wire_roundtrip_and_clean_errors(self):
        def scenario(address):
            with PipelinedClient(*address) as client:
                assert client.ping() == "pong"
                assert tunnel(client, {"op": "tables"}) == {"tables": ["stream"]}

                payload = client.query("SELECT AVG(x) FROM stream WHERE y > 50")
                (result,) = payload["results"]
                assert result["aggregation"] == "AVG(x)"
                assert result["lower"] <= result["value"] <= result["upper"]

                grouped = client.query("SELECT COUNT(x) FROM stream GROUP BY category")
                assert set(grouped["groups"]) <= {"alpha", "beta", "gamma", "delta"}

                ingest = client.ingest(
                    "stream",
                    {
                        "x": [1.0],
                        "y": [2.0],
                        "z": [3.0],
                        "w": [4.0],
                        "with_nulls": [None],
                        "category": ["alpha"],
                    },
                )
                assert ingest["appended_rows"] == 1

                # Errors come back as clean frames, never closed sockets.
                for bad in (
                    {"op": "query", "sql": "SELECT FROM"},
                    {"op": "query", "sql": "SELECT COUNT(*) FROM nope"},
                    {"op": "query"},
                    {"op": "ingest", "table": "stream"},
                    {"op": "ingest", "table": "nope", "rows": {"x": [1]}},
                    {"op": "explode"},
                ):
                    with pytest.raises(WireError) as excinfo:
                        tunnel(client, bad)
                    assert excinfo.value.error_type in {
                        "ParseError", "KeyError", "ValueError", "TypeError",
                    }

                # Raw garbage in an OP_JSON frame gets an error frame too,
                # and the connection carries on.
                with pytest.raises(WireError) as excinfo:
                    tunnel(client, b"this is not json")
                assert excinfo.value.error_type == "JSONDecodeError"
                assert client.ping() == "pong"

        async def scenario_on_server():
            async with AsyncQueryService(partition_size=600, max_workers=2) as svc:
                await svc.register_table(
                    make_simple_table(rows=1200, seed=50, name="stream"),
                    params=exact_params(),
                )
                await serve_blocking(svc, scenario)

        run_async(scenario_on_server())

    def test_large_ingest_frame_over_the_wire(self):
        """Frames past asyncio's 64 KiB default stream limit must still work."""
        rows = 7500  # ~300 KiB of JSON in one OP_JSON frame
        batch = make_simple_table(rows=rows, seed=7, name="stream")
        payload = {}
        for name in batch.column_names:
            column = batch.column(name)
            if batch.schema[name].is_categorical:
                payload[name] = list(column)
            else:  # NaN is not valid JSON; nulls travel as null
                payload[name] = [None if v != v else v for v in column.tolist()]
        assert len(framing.encode_json({"op": "ingest", "rows": payload})) > 256 * 1024

        def scenario(address):
            with PipelinedClient(*address) as client:
                result = client.ingest("stream", payload)
                assert result["appended_rows"] == rows
                out = client.query("SELECT COUNT(*) FROM stream")
                assert out["results"][0]["value"] == pytest.approx(2000 + rows, rel=1e-9)

        async def scenario_on_server():
            async with AsyncQueryService(partition_size=2000, max_workers=2) as svc:
                await svc.register_table(
                    make_simple_table(rows=2000, seed=50, name="stream"),
                    params=exact_params(),
                )
                await serve_blocking(svc, scenario)

        run_async(scenario_on_server())

    def test_async_drop_retires_queue_and_drain_task(self):
        def over_the_wire(address):
            with PipelinedClient(*address) as client:
                assert tunnel(client, {"op": "drop", "table": "stream"})["dropped"]
                with pytest.raises(WireError) as excinfo:
                    tunnel(client, {"op": "drop", "table": "stream"})
                assert excinfo.value.error_type == "KeyError"

        async def scenario():
            async with AsyncQueryService(partition_size=600) as svc:
                await svc.register_table(
                    make_simple_table(rows=600, seed=50, name="stream"),
                    params=exact_params(),
                )
                await svc.ingest(
                    "stream", make_simple_table(rows=50, seed=1, name="stream")
                )
                assert "stream" in svc._drain_tasks
                await svc.drop_table("stream")
                assert "stream" not in svc._drain_tasks
                assert "stream" not in svc._ingest_queues
                assert "stream" not in svc.table_names
                # Re-registering under the same name works end to end.
                await svc.register_table(
                    make_simple_table(rows=400, seed=2, name="stream"),
                    params=exact_params(),
                )
                result = await svc.ingest(
                    "stream", make_simple_table(rows=100, seed=3, name="stream")
                )
                assert result.appended_rows == 100
                await serve_blocking(svc, over_the_wire)
                assert "stream" not in svc._drain_tasks

        run_async(scenario())

    def test_server_close_does_not_hang_on_idle_clients(self):
        async def scenario():
            async with AsyncQueryService(partition_size=600) as svc:
                await svc.register_table(
                    make_simple_table(rows=600, seed=50, name="stream"),
                    params=exact_params(),
                )
                server = await QueryServer(svc).start()
                # One client idles after the magic (waiting on a frame),
                # the other before it (waiting on the magic).
                idle = PipelinedClient(*server.address)
                await asyncio.to_thread(idle.connect)
                _, silent = await asyncio.open_connection(*server.address)
                try:
                    # Neither client sends a request; close() must still
                    # complete instead of waiting for them to hang up.
                    await asyncio.wait_for(server.close(), timeout=10.0)
                finally:
                    await asyncio.to_thread(idle.close)
                    silent.close()

        run_async(scenario())

    def test_internal_errors_become_frames_not_dropped_connections(self):
        async def scenario():
            svc = AsyncQueryService(partition_size=600)
            await svc.register_table(
                make_simple_table(rows=600, seed=50, name="stream"),
                params=exact_params(),
            )
            server = await QueryServer(svc).start()
            client = PipelinedClient(*server.address)
            await asyncio.to_thread(client.connect)

            def query_fails() -> WireError:
                with pytest.raises(WireError) as excinfo:
                    client.query("SELECT COUNT(*) FROM stream")
                return excinfo.value

            try:
                # Close the service under the server: queries now raise
                # RuntimeError internally, which must come back as a frame.
                await svc.close()
                error = await asyncio.to_thread(query_fails)
                assert error.error_type == "RuntimeError"
                assert "closed" in error.message
                # ... on a connection that is still up.
                assert await asyncio.to_thread(client.ping) == "pong"
            finally:
                await asyncio.to_thread(client.close)
                await server.close()

        run_async(scenario())
