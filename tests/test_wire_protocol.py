"""Fast-wire-path tests: negotiation, pipelining, admission, caches.

The contract under test (see ``repro.service.framing`` / ``wire`` /
``server``):

* a connection opens with the binary magic and then speaks frames; one
  that opens with anything else is closed without a reply, and no other
  connection notices (that a fast-path frame and an ``OP_JSON`` frame
  answer identically is pinned per op in ``test_ops_conformance.py``);
* :class:`PipelinedClient` keeps many requests in flight on one
  connection and matches responses by request id;
* admission control sheds requests over the in-flight limit with an
  explicit ``Overloaded`` response instead of queueing without bound;
* the SQL parse cache and the synopsis-version-keyed result cache are
  invisible to callers: identical answers, invalidated by ingest;
* a result-cache hit is answered on the event loop, never waiting on the
  executor, and is accounted exactly like a hit through ``execute``; one
  connection pipelining hits holds neither the loop nor unbounded reply
  memory.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from conftest import make_simple_table, tunnel

from repro import (
    AccuracyAuditor,
    AsyncQueryService,
    PairwiseHistEngine,
    PairwiseHistParams,
    QueryServer,
    QueryService,
    WorkloadLog,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.service import framing
from repro.service.ops import encode_result
from repro.service.server import AsyncFacade
from repro.service.wire import OverloadedError, PipelinedClient, WireError
from repro.sql import parser as sql_parser
from repro.sql.parser import (
    ParseError,
    clear_parse_cache,
    parse_query,
    parse_query_cached,
)


def exact_params() -> PairwiseHistParams:
    return PairwiseHistParams.with_defaults(sample_size=None, seed=1)


def run_async(coroutine):
    return asyncio.run(coroutine)


async def serve(scenario, **server_kwargs):
    """Boot a one-table server and hand ``scenario`` its address.

    ``scenario(address, server)`` may be a plain function — it runs in a
    worker thread so the blocking wire clients never stall the server's
    event loop.
    """
    async with AsyncQueryService(partition_size=600, max_workers=2) as svc:
        await svc.register_table(
            make_simple_table(rows=1200, seed=50, name="stream"),
            params=exact_params(),
        )
        async with QueryServer(svc, **server_kwargs) as server:
            return await asyncio.to_thread(scenario, server.address, server)


EXTRA_ROW = {
    "x": [1.0],
    "y": [2.0],
    "z": [3.0],
    "w": [4.0],
    "with_nulls": [None],
    "category": ["alpha"],
}


# --------------------------------------------------------------------------- #
# The preamble


def _reply_to(address, opening: bytes) -> bytes:
    """What the server sends back on a raw connection that opens with
    ``opening`` and then half-closes: ``b""`` when it closes silently."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(opening)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        try:
            while chunk := sock.recv(4096):
                received += chunk
        except ConnectionResetError:  # closed with our bytes unread
            pass
        return received


class TestPreamble:
    def test_a_non_aqp1_connection_is_closed_silently(self):
        """A JSON line, a wrong magic, a cut magic and a bare frame header
        each get the connection closed with no reply, while a binary
        client with a request in flight on the same server carries on."""
        sql = "SELECT COUNT(*) FROM stream"

        def scenario(address, server):
            with PipelinedClient(*address) as client:
                answer = client.query(sql)
                in_flight = client.submit("query", "SELECT AVG(x) FROM stream")
                for opening in (
                    b'{"op": "ping"}\n',
                    b"AQP2",
                    framing.MAGIC[:2],
                    framing.encode_frame(framing.OP_PING, 1, b""),
                ):
                    assert _reply_to(address, opening) == b"", opening
                assert in_flight.result(timeout=10.0)["results"]
                assert client.ping() == "pong"
                assert client.query(sql) == answer
                assert client.ingest("stream", EXTRA_ROW)["appended_rows"] == 1
                # Errors are still frames on the binary connection.
                with pytest.raises(WireError, match="ParseError"):
                    client.query("SELECT FROM")
            # The same opening after the magic is a ping frame like any other.
            framed = framing.MAGIC + framing.encode_frame(framing.OP_PING, 1, b"")
            status, request_id, length = framing.decode_header(_reply_to(address, framed))
            assert (status, request_id, length) == (framing.STATUS_OK, 1, 0)

        run_async(serve(scenario))


# --------------------------------------------------------------------------- #
# Binary pipelined client


class TestPipelinedClient:
    def test_roundtrip_all_ops(self):
        def scenario(address, server):
            with PipelinedClient(*address) as client:
                assert client.ping()
                assert client.tables() == ["stream"]
                assert client.stat("stream")["rows"] == 1200

                payload = client.query("SELECT AVG(x) FROM stream WHERE y > 50")
                (result,) = payload["results"]
                assert result["aggregation"] == "AVG(x)"
                assert result["lower"] <= result["value"] <= result["upper"]

                grouped = client.query(
                    "SELECT COUNT(x) FROM stream GROUP BY category"
                )
                assert set(grouped["groups"]) <= {"alpha", "beta", "gamma", "delta"}

                # Binary ingest: rows travel as the codec table format.
                batch = make_simple_table(rows=80, seed=7, name="stream")
                ingest = client.ingest("stream", batch)
                assert ingest["appended_rows"] == 80
                after = client.query("SELECT COUNT(*) FROM stream")
                assert after["results"][0]["value"] == pytest.approx(
                    1280, rel=1e-9
                )

                # Cold-path JSON ops ride OP_JSON frames: register + drop.
                side = make_simple_table(rows=400, seed=8, name="side")
                assert client.register(side, params=exact_params())["rows"] == 400
                assert sorted(client.tables()) == ["side", "stream"]
                assert client.drop("side")["dropped"]

        run_async(serve(scenario))

    def test_error_frames_raise_wire_error_not_dead_connections(self):
        def scenario(address, server):
            with PipelinedClient(*address) as client:
                with pytest.raises(WireError) as excinfo:
                    client.query("SELECT FROM")
                assert excinfo.value.error_type == "ParseError"
                assert not isinstance(excinfo.value, OverloadedError)
                with pytest.raises(WireError) as excinfo:
                    client.query("SELECT COUNT(*) FROM nope")
                assert excinfo.value.error_type == "KeyError"
                # The connection survives error frames.
                assert client.ping()

        run_async(serve(scenario))

    def test_many_requests_in_flight_resolve_to_their_own_answers(self):
        """Responses are matched by request id, not arrival order."""

        def scenario(address, server):
            sqls = [
                f"SELECT COUNT(*) FROM stream WHERE y > {threshold}"
                for threshold in range(0, 100, 5)
            ]
            with PipelinedClient(*address) as client:
                serial = {sql: client.query(sql) for sql in sqls}
                # Issue everything before reading anything; interleave an
                # error and a ping so non-query frames are in the mix too.
                futures = [(sql, client.submit_query(sql)) for sql in sqls]
                bad = client.submit_query("SELECT FROM")
                pinged = client.submit("ping")
                for sql, future in futures:
                    assert future.result(timeout=30.0) == serial[sql]
                assert pinged.result(timeout=30.0) == "pong"
                with pytest.raises(WireError, match="ParseError"):
                    bad.result(timeout=30.0)

        run_async(serve(scenario))

    def test_query_batch_carries_per_item_outcomes(self):
        def scenario(address, server):
            good = "SELECT AVG(x) FROM stream"
            grouped = "SELECT COUNT(x) FROM stream GROUP BY category"
            with PipelinedClient(*address) as client:
                items = client.query_batch([good, "SELECT FROM", grouped])
                assert [item["ok"] for item in items] == [True, False, True]
                assert items[0]["result"] == client.query(good)
                assert items[1]["error_type"] == "ParseError"
                assert items[2]["result"] == client.query(grouped)
                assert client.query_batch([]) == []

        run_async(serve(scenario))

    def test_submit_after_close_is_a_safe_unsent_error(self):
        from repro.service.wire import UnsentRequestError

        def scenario(address, server):
            client = PipelinedClient(*address).connect()
            client.close()
            with pytest.raises(UnsentRequestError):
                client.submit("ping")

        run_async(serve(scenario))


# --------------------------------------------------------------------------- #
# Admission control


class TestAdmissionControl:
    def test_query_shed_is_an_explicit_overloaded_response(self):
        """``max_inflight_queries=0`` sheds every query in both frame forms."""

        def scenario(address, server):
            with PipelinedClient(*address) as binary:
                with pytest.raises(OverloadedError):
                    binary.query("SELECT COUNT(*) FROM stream")
                with pytest.raises(OverloadedError, match="in-flight query limit"):
                    tunnel(binary, {"op": "query", "sql": "SELECT COUNT(*) FROM stream"})
                assert server.shed_counts["query"] >= 2
                # Ingest has its own limit: it is not collateral damage
                # (a dict of rows travels in an OP_JSON frame).
                assert binary.ingest("stream", EXTRA_ROW)["appended_rows"] == 1

        run_async(serve(scenario, max_inflight_queries=0))

    def test_ingest_shed_leaves_queries_unaffected(self):
        def scenario(address, server):
            with PipelinedClient(*address) as client:
                batch = make_simple_table(rows=10, seed=3, name="stream")
                with pytest.raises(OverloadedError):
                    client.ingest("stream", batch)
                # JSON-op ingests classify as ingest too (parsed inline).
                with pytest.raises(OverloadedError):
                    client.ingest("stream", EXTRA_ROW)
                payload = client.query("SELECT COUNT(*) FROM stream")
                assert payload["results"][0]["value"] == pytest.approx(
                    1200, rel=1e-9
                )
            assert server.shed_counts["ingest"] >= 2
            assert server.shed_counts["query"] == 0

        run_async(serve(scenario, max_inflight_ingests=0))

    def test_overloaded_is_a_retryable_refusal(self):
        """A shed happens before any work: retrying with capacity succeeds."""

        def scenario(address, server):
            with PipelinedClient(*address) as client:
                batch = make_simple_table(rows=10, seed=4, name="stream")
                with pytest.raises(OverloadedError):
                    client.ingest("stream", batch)
                server.max_inflight_ingests = 64  # capacity returns
                assert client.ingest("stream", batch)["appended_rows"] == 10

        run_async(serve(scenario, max_inflight_ingests=0))


# --------------------------------------------------------------------------- #
# SQL parse cache


class TestParseCache:
    def setup_method(self):
        clear_parse_cache()

    def test_cached_parse_is_identical_to_a_fresh_parse(self):
        sqls = [
            "SELECT COUNT(*) FROM stream",
            "SELECT AVG(x), SUM(y) FROM stream WHERE y > 50 AND x < 3",
            "SELECT VAR(z) FROM stream WHERE (a = 1 OR b = 2) AND c >= 0.5",
            "SELECT MIN(w) FROM stream GROUP BY category",
        ]
        for sql in sqls:
            assert parse_query_cached(sql) == parse_query(sql)
            # A repeat returns the very same AST object (a cache hit).
            assert parse_query_cached(sql) is parse_query_cached(sql)

    def test_cached_and_fresh_plans_execute_identically(self):
        service = QueryService(partition_size=600)
        service.register_table(
            make_simple_table(rows=1200, seed=50, name="stream"),
            params=exact_params(),
        )
        for sql in (
            "SELECT AVG(x) FROM stream WHERE y > 50",
            "SELECT COUNT(x) FROM stream GROUP BY category",
        ):
            fresh = service.execute(parse_query(sql))  # bypasses the cache
            cached = service.execute(sql)  # parse-cache + result-cache path
            assert cached == fresh

    def test_eviction_keeps_the_cache_bounded(self):
        limit = sql_parser.PARSE_CACHE_SIZE
        for i in range(limit + 50):
            parse_query_cached(f"SELECT COUNT(*) FROM stream WHERE y > {i}")
        assert len(sql_parser._parse_cache) == limit
        # The oldest entries were evicted, the newest survive.
        assert (
            f"SELECT COUNT(*) FROM stream WHERE y > {limit + 49}"
            in sql_parser._parse_cache
        )
        assert "SELECT COUNT(*) FROM stream WHERE y > 0" not in sql_parser._parse_cache

    def test_one_statement_is_one_parse_cache_lookup(self):
        """Regression: a statement was once looked up to find its table
        and the *string* handed on to be looked up again, so a stream that
        never repeats read as a 50% hit ratio."""
        service = make_cached_service()

        def lookups() -> dict[str, float]:
            series = obs_metrics.REGISTRY.snapshot()["aqp_parse_cache_lookups_total"]["series"]
            return {s["labels"]["outcome"]: s["value"] for s in series}

        before = lookups()
        for i in range(25):
            execute = service.execute if i % 2 else service.execute_scalar
            execute(f"SELECT COUNT(*) FROM stream WHERE y > {i}")
        after = lookups()
        assert after["miss"] - before["miss"] == 25
        assert after["hit"] - before["hit"] == 0

    def test_parse_span_of_an_uncached_traced_query_encloses_the_parse(
        self, monkeypatch
    ):
        service = make_cached_service()
        active_spans = []
        real_parse = sql_parser.parse_query

        def spying_parse(sql):
            span = tracing.current_span()
            active_spans.append(None if span is None else span.name)
            return real_parse(sql)

        monkeypatch.setattr(sql_parser, "parse_query", spying_parse)
        with tracing.root_span("query"):
            service.execute("SELECT AVG(x) FROM stream WHERE y > 12.5")
        assert active_spans == ["parse"]

    def test_parse_errors_are_never_cached(self):
        for _ in range(2):
            with pytest.raises(ParseError):
                parse_query_cached("SELECT FROM nowhere")
        assert len(sql_parser._parse_cache) == 0


# --------------------------------------------------------------------------- #
# Synopsis-version result cache


def make_cached_service(**kwargs):
    service = QueryService(partition_size=600, **kwargs)
    service.register_table(
        make_simple_table(rows=1200, seed=50, name="stream"),
        params=exact_params(),
    )
    return service


class TestResultCache:
    def test_hit_returns_the_identical_result(self):
        service = make_cached_service()
        sql = "SELECT AVG(x) FROM stream WHERE y > 50"
        first = service.execute_scalar(sql)
        second = service.execute_scalar(sql)
        assert second is first  # the exact object, hence bit-identical
        assert service.cache_stats["stream"] == {"hits": 1, "misses": 1}
        # GROUP BY results cache too, and scalar/list paths do not collide.
        grouped = "SELECT COUNT(x) FROM stream GROUP BY category"
        assert service.execute(grouped) is service.execute(grouped)

    def test_ingest_invalidates_through_the_version_key(self):
        service = make_cached_service()
        sql = "SELECT COUNT(*) FROM stream"
        before = service.execute_scalar(sql)
        assert before.value == pytest.approx(1200, rel=1e-9)
        version = service.table("stream").synopsis_version
        service.ingest("stream", make_simple_table(rows=100, seed=9, name="stream"))
        assert service.table("stream").synopsis_version > version
        after = service.execute_scalar(sql)
        assert after.value == pytest.approx(1300, rel=1e-9)
        assert service.cache_stats["stream"]["misses"] == 2

    def test_lru_bound_is_enforced(self):
        service = make_cached_service(result_cache_size=4)
        for i in range(10):
            service.execute_scalar(f"SELECT COUNT(*) FROM stream WHERE y > {i}")
        assert len(service._result_cache) == 4

    def test_drop_purges_entries_and_stats(self):
        service = make_cached_service()
        service.execute_scalar("SELECT COUNT(*) FROM stream")
        assert service._result_cache
        service.drop_table("stream")
        assert not service._result_cache
        assert "stream" not in service.cache_stats

    def test_zero_size_disables_the_cache(self):
        service = make_cached_service(result_cache_size=0)
        sql = "SELECT COUNT(*) FROM stream"
        assert service.execute_scalar(sql).value == pytest.approx(1200, rel=1e-9)
        assert service.execute_scalar(sql).value == pytest.approx(1200, rel=1e-9)
        assert not service._result_cache
        assert not service.cache_stats

    def test_concurrent_service_reuses_the_cache_under_its_read_lock(self):
        """One service shared by threads: the result one thread cached is
        the object another thread's lookup returns (queries take no lock)."""
        service = make_cached_service()
        sql = "SELECT AVG(y) FROM stream"
        first = []
        thread = threading.Thread(target=lambda: first.append(service.execute_scalar(sql)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert service.execute_scalar(sql) is first[0]
        assert service.cache_stats["stream"] == {"hits": 1, "misses": 1}


# --------------------------------------------------------------------------- #
# The hit path: result-cache hits answered on the event loop

DEADLINE = 60.0
HOT = "SELECT AVG(x) FROM stream WHERE y > 50"


async def serve_service(service, scenario, face=AsyncQueryService, max_workers=2):
    """Serve an already-registered ``service`` through ``face`` and run the
    blocking ``scenario(address, server, loop)`` in a worker thread."""
    async with face(service, max_workers=max_workers) as front:
        async with QueryServer(front) as server:
            loop = asyncio.get_running_loop()
            return await asyncio.to_thread(scenario, server.address, server, loop)


def on_loop(loop, fn):
    """``fn()`` evaluated on the server's event loop from a scenario
    thread, once the loop has finished the step it is in."""

    async def call():
        return fn()

    return asyncio.run_coroutine_threadsafe(call(), loop).result(DEADLINE)


def query_frame(request_id: int, sql: str = HOT) -> bytes:
    return framing.encode_frame(framing.OP_QUERY, request_id, framing.encode_query(sql))


class RawConnection:
    """A binary-protocol socket driven frame by frame: it can send without
    reading and read on its own schedule."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=DEADLINE)
        self.sock.sendall(framing.MAGIC)
        self.rfile = self.sock.makefile("rb")

    def send(self, *frames: bytes) -> None:
        self.sock.sendall(b"".join(frames))

    def read(self) -> tuple[int, int, bytes]:
        header = self.rfile.read(framing.HEADER_SIZE)
        status, request_id, length = framing.decode_header(header)
        return status, request_id, self.rfile.read(length)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class TestHitPath:
    def test_hits_answer_while_the_only_worker_is_parked(self, monkeypatch):
        """One executor thread, parked inside the engine: a cached statement
        still answers over binary QUERY, OP_JSON and QUERY_BATCH, because
        no hit waits for the executor."""
        cold = "SELECT SUM(z) FROM stream WHERE x < 40"
        cold_answer = encode_result(make_cached_service(result_cache_size=0).execute(cold))
        inside, release = threading.Event(), threading.Event()
        execute = PairwiseHistEngine.execute

        def parked(engine, query):
            inside.set()
            release.wait(DEADLINE)
            return execute(engine, query)

        def scenario(address, server, loop):
            with PipelinedClient(*address, timeout=10.0) as client:
                hot = client.query(HOT)  # a miss: executed, then cached
                monkeypatch.setattr(PairwiseHistEngine, "execute", parked)
                parked_query = client.submit("query", cold)
                assert inside.wait(DEADLINE)
                try:
                    assert client.query(HOT) == hot
                    tunnelled = client._submit(
                        framing.OP_JSON,
                        framing.encode_json({"op": "query", "sql": HOT}),
                        framing.decode_json,
                    )
                    assert tunnelled.result(timeout=10.0) == hot
                    items = client.query_batch([HOT, HOT])
                    assert [(item["ok"], item["result"]) for item in items] == [(True, hot)] * 2
                    assert not parked_query.done()
                finally:
                    release.set()
                assert parked_query.result(timeout=DEADLINE) == cold_answer

        run_async(serve_service(make_cached_service(), scenario, max_workers=1))

    def test_an_inline_hit_is_accounted_like_one_through_execute(self):
        """The same miss, hit, hit sequence served by ``AsyncFacade`` (every
        query hops to ``execute``) and by ``AsyncQueryService`` (hits
        answered in the read loop) moves every counter by the same amount,
        and answers bit-identically to a service with no result cache."""

        def counters(service) -> dict:
            snapshot = obs_metrics.REGISTRY.snapshot()

            def total(name, field="value", **labels):
                return sum(
                    series[field]
                    for series in snapshot[name]["series"]
                    if labels.items() <= series["labels"].items()
                )

            stats = service.cache_stats.get("stream", {})
            return {
                "cache_hits": stats.get("hits", 0),
                "cache_misses": stats.get("misses", 0),
                "parse_hits": total("aqp_parse_cache_lookups_total", outcome="hit"),
                "parse_misses": total("aqp_parse_cache_lookups_total", outcome="miss"),
                "result_hits": total(
                    "aqp_result_cache_lookups_total", table="stream", outcome="hit"
                ),
                "result_misses": total(
                    "aqp_result_cache_lookups_total", table="stream", outcome="miss"
                ),
                "templates": sum(
                    t["count"] for t in service.workload_log.snapshot()["templates"]
                ),
                "audit_seen": service.auditor._seen,
                "requests": total("aqp_request_latency_seconds", "count", kind="query"),
            }

        def serve_sequence(face) -> list:
            clear_parse_cache()
            service = make_cached_service()
            service.workload_log = WorkloadLog()
            service.auditor = AccuracyAuditor(
                service, sample_rate=1.0, interval_seconds=3600.0, workload=service.workload_log
            )

            def scenario(address, server, loop):
                steps = []
                with PipelinedClient(*address) as client:
                    for _ in range(3):
                        before = on_loop(loop, lambda: counters(service))
                        answer = client.query(HOT)
                        # Read on the loop: the reply's admission release is done.
                        after = on_loop(loop, lambda: counters(service))
                        steps.append((answer, {k: after[k] - before[k] for k in after}))
                return steps

            return run_async(serve_service(service, scenario, face=face))

        inline = serve_sequence(AsyncQueryService)
        assert inline == serve_sequence(AsyncFacade)
        # A miss's one parse-cache hit is the workload log templating the
        # statement the first time it sees it (memoized after that).
        miss = dict.fromkeys(inline[0][1], 1) | {"cache_hits": 0, "result_hits": 0}
        hit = dict.fromkeys(inline[0][1], 1) | {
            "cache_misses": 0, "parse_misses": 0, "result_misses": 0
        }
        assert [delta for _, delta in inline] == [miss, hit, hit]
        reference = encode_result(make_cached_service(result_cache_size=0).execute(HOT))
        assert [answer for answer, _ in inline] == [reference] * 3

    def test_an_ingest_between_two_sends_is_answered_after_it(self):
        sql = "SELECT COUNT(*) FROM stream"
        service = make_cached_service()

        def scenario(address, server, loop):
            with PipelinedClient(*address) as client:
                counts = [client.query(sql)["results"][0]["value"] for _ in range(2)]
                client.ingest("stream", make_simple_table(rows=80, seed=7, name="stream"))
                counts += [client.query(sql)["results"][0]["value"] for _ in range(2)]
            return counts

        counts = run_async(serve_service(service, scenario))
        assert counts == pytest.approx([1200, 1200, 1280, 1280], rel=1e-9)
        assert service.cache_stats["stream"] == {"hits": 2, "misses": 2}

    def test_one_pipelining_connection_cannot_hold_the_loop(self, monkeypatch):
        """Connection A's burst of hits sits whole in the server's buffer; a
        ping on connection B is answered before A's last reply.  Ordered
        by events: the loop is held inside A's first hit until the rest of
        A's burst and B's ping have been sent."""
        burst, ping_id = 1_000, 10**6
        held, go = threading.Event(), threading.Event()
        order: list[int] = []
        encode_frame = framing.encode_frame

        def recording(tag, request_id, payload=b"", trace=None):
            order.append(request_id)
            return encode_frame(tag, request_id, payload, trace)

        def scenario(address, server, loop):
            service = server.service.service
            a, b = RawConnection(address), RawConnection(address)
            try:
                b.send(query_frame(1))
                assert b.read()[0] == framing.STATUS_OK  # HOT is cached now
                cached = service.cached

                def holding(sql, scalar=False):
                    if not held.is_set():
                        held.set()
                        go.wait(DEADLINE)
                    return cached(sql, scalar)

                frames = [query_frame(i) for i in range(1, burst + 1)]
                ping = framing.encode_frame(framing.OP_PING, ping_id)
                monkeypatch.setattr(service, "cached", holding)
                monkeypatch.setattr(framing, "encode_frame", recording)
                a.send(frames[0])
                assert held.wait(DEADLINE)  # the loop is inside A's first hit
                a.send(*frames[1:])
                b.send(ping)
                go.set()
                assert b.read()[:2] == (framing.STATUS_OK, ping_id)
                return [a.read() for _ in range(burst)]
            finally:
                go.set()
                a.close()
                b.close()

        replies = run_async(serve_service(make_cached_service(), scenario))
        assert sorted(request_id for _, request_id, _ in replies) == list(range(1, burst + 1))
        assert {status for status, _, _ in replies} == {framing.STATUS_OK}
        assert order.index(ping_id) < order.index(burst)

    def test_unread_replies_leave_the_transport_paused_not_growing(self, monkeypatch):
        """A client that pipelines hits and never reads: the server stops
        reading its frames once the transport passes its high-water mark,
        instead of buffering every reply."""
        grouped = "SELECT COUNT(x) FROM stream GROUP BY category"
        burst = 2_000
        paused = threading.Event()
        pause_writing = asyncio.streams.FlowControlMixin.pause_writing

        def noting_pause(protocol):
            pause_writing(protocol)
            paused.set()

        def scenario(address, server, loop):
            service = server.service.service
            a = RawConnection(address)
            try:
                a.send(query_frame(0, grouped))
                status, _, payload = a.read()  # a miss: executed, then cached
                assert status == framing.STATUS_OK
                reply_size = framing.HEADER_SIZE + len(payload)
                (writer,) = [
                    w
                    for w in server._connections
                    if w.get_extra_info("peername") == a.sock.getsockname()
                ]

                def kernel_buffers(size: int) -> None:
                    a.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, size)
                    on_loop(
                        loop,
                        lambda: writer.get_extra_info("socket").setsockopt(
                            socket.SOL_SOCKET, socket.SO_SNDBUF, size
                        ),
                    )

                # Small kernel buffers on both ends, so the transport's own
                # buffer is what fills.
                kernel_buffers(4096)
                monkeypatch.setattr(
                    asyncio.streams.FlowControlMixin, "pause_writing", noting_pause
                )
                a.send(*(query_frame(i, grouped) for i in range(1, burst + 1)))
                assert paused.wait(DEADLINE)
                high = writer.transport.get_write_buffer_limits()[1]
                buffered, answered, inflight = on_loop(
                    loop,
                    lambda: (
                        writer.transport.get_write_buffer_size(),
                        service.cache_stats["stream"]["hits"],
                        server._inflight["query"],
                    ),
                )
                assert high < buffered <= high + reply_size
                assert answered < burst  # the rest wait, unread, in the stream
                assert inflight == 0  # and nothing was queued as tasks
                assert on_loop(loop, writer.transport.get_write_buffer_size) == buffered
                kernel_buffers(1 << 20)  # tiny windows would make the read-back crawl
                replies = [a.read() for _ in range(burst)]
            finally:
                a.close()
            assert [request_id for _, request_id, _ in replies] == list(range(1, burst + 1))
            assert {(status, body) for status, _, body in replies} == {
                (framing.STATUS_OK, payload)
            }

        run_async(serve_service(make_cached_service(), scenario))
