"""Conformance of every row of the op table (``repro.service.ops``).

Parametrised over the table itself, so a new op is covered with no edit
here (as long as its request fields have a sample value below):

* an ``OP_JSON`` frame and — where the row has one — the fast-path frame
  answer the identical body, traced requests carrying their ids in the
  frame trailer either way;
* a 1-shard ``mode="local"`` cluster answers what a single node answers;
* every ``mutating`` row is refused on a replica and passes the commit
  gate exactly once; no other row touches the gate;
* a request missing its first field fails with an error naming the field.

The per-op ``CHECKS`` are what the former per-feature "both dialects"
tests asserted (explain, workload + audit, metrics, query equality); they
run against both frame forms' answers.  The last tests register a throw-away
op as one row and call it through every layer, and pin the README's op
list to the table.
"""

from __future__ import annotations

import asyncio
import inspect
import re
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import make_simple_table, tunnel
from test_wire_golden import _scrub

from repro import (
    AccuracyAuditor,
    AsyncQueryService,
    ClusterQueryService,
    PairwiseHistParams,
    QueryServer,
    WorkloadLog,
)
from repro.cluster.gather import plan_query
from repro.obs import tracing
from repro.replication import ReplicationState
from repro.service import ops
from repro.service.server import AsyncFacade
from repro.service.wire import PipelinedClient, WireError
from repro.sql.parser import parse_query

PARAMS = PairwiseHistParams.with_defaults(sample_size=None, seed=1)
SQL = "SELECT AVG(x) FROM stream WHERE x > 10"
GROUPED = "SELECT COUNT(x) FROM stream GROUP BY category"

#: One sample value per request field.
FIELD_SAMPLES = {
    "sql": SQL,
    "sqls": [SQL, "SELECT FROM", GROUPED],
    "analyze": False,
    "table": "stream",
    "epoch": 2,
    "host": "127.0.0.1",
    "port": 1,
}
#: Stub arguments of the rows whose request is built from objects.
OBJECT_ARGS = {
    "ingest": lambda: ("stream", make_simple_table(rows=80, seed=7, name="stream")),
    "register": lambda: (make_simple_table(rows=400, seed=8, name="side"), PARAMS),
}
OP_NAMES = list(ops.OPS)


def sample_args(op: ops.Op, trace_id: str = "00" * 16) -> tuple:
    if op.name in OBJECT_ARGS:
        return OBJECT_ARGS[op.name]()
    samples = {**FIELD_SAMPLES, "trace_id": trace_id}
    return tuple(samples[field] for field in op.params)


def first_field(op: ops.Op) -> str | None:
    if op.params:
        return op.params[0]
    if op.request is not None:
        return next(iter(inspect.signature(op.request).parameters))
    return None


# --------------------------------------------------------------------------- #
# Servers


def _attach_answer_quality(service) -> None:
    service.workload_log = WorkloadLog()
    service.auditor = AccuracyAuditor(
        service, sample_rate=1.0, interval_seconds=3600.0, workload=service.workload_log
    )


def _replica_state() -> ReplicationState:
    follower = SimpleNamespace(
        status={"upstream": "primary:1"}, shutdown=lambda: None, retarget=lambda h, p: None
    )
    return ReplicationState(role="replica", follower=follower)


async def _serve(scenario, shards: int = 0, replica: bool = False):
    """Boot a one-table server (``shards`` > 0: a local cluster front end)
    and run the blocking ``scenario(address, server, services)`` in a
    worker thread; ``services`` are the engines that own rows."""
    table = make_simple_table(rows=1200, seed=50, name="stream")
    if shards:
        cluster = ClusterQueryService(num_shards=shards, mode="local", partition_size=600)
        cluster.register_table(table, params=PARAMS)
        front = AsyncFacade(cluster, max_workers=2)
        services = [shard.service for shard in cluster.shards]
    else:
        front = AsyncQueryService(partition_size=600, max_workers=2)
        await front.register_table(table, params=PARAMS)
        services = [front.service]
    for service in services:
        _attach_answer_quality(service)
    try:
        async with front:
            async with QueryServer(
                front, replication=_replica_state() if replica else None
            ) as server:
                return await asyncio.to_thread(scenario, server.address, server, services)
    finally:
        if shards:
            cluster.close()


def serve(scenario, **kwargs):
    return asyncio.run(_serve(scenario, **kwargs))


# --------------------------------------------------------------------------- #
# Dialects, the two frame forms: each sends a request object (or fast-path
# arguments) and returns the body


def _trailer(trace):
    """Hex ``(trace_id, span_id)`` as the frame trailer's raw bytes."""
    return None if trace is None else (bytes.fromhex(trace[0]), bytes.fromhex(trace[1]))


class _Tunnel:
    """JSON request objects in ``OP_JSON`` frames: the reference form."""

    name = "OP_JSON"

    def __init__(self, address):
        self.client = PipelinedClient(*address)

    def __enter__(self):
        self.client.connect()
        return self

    def __exit__(self, *exc_info):
        self.client.close()

    def raw(self, request, trace=None):
        return tunnel(self.client, request, _trailer(trace))

    def body(self, op, args, trace=None):
        return self.raw(op.build_request(*args), trace)


class _FastPath(_Tunnel):
    """The row's own opcode where it has one (else the tunnel)."""

    name = "fast path"

    def body(self, op, args, trace=None):
        payload = op.binary.encode_request(*args) if op.binary is not None else None
        if payload is None:
            return super().body(op, args, trace)
        future = self.client._submit(
            op.binary.opcode, payload, op.binary.decode_reply, _trailer(trace)
        )
        return future.result(30.0)


DIALECTS = (_Tunnel, _FastPath)


def scrub(body):
    """``_scrub``, minus what is process-wide and so moves between two
    servers in one test process: a registry snapshot's label sets (other
    tests' series show up in it) and synopsis version numbers."""
    if isinstance(body, dict) and "metrics" in body:
        return {name: kind for name, (kind, _) in _scrub(body)["metrics"].items()}
    if isinstance(body, dict):
        return {k: scrub(v) for k, v in _scrub(body).items() if k != "synopsis_version"}
    if isinstance(body, list):
        return [scrub(item) for item in body]
    return body


def outcome(fn):
    """A call's scrubbed body, or the error it came back with."""
    try:
        return "ok", scrub(fn())
    except WireError as error:
        return "error", error.error_type, error.message


def warm_up(dialect, services) -> str:
    """Traffic the observability ops report on: a traced query (whose
    fresh trace id is returned — the span ring buffer is process-wide),
    two statements of one template (workload) and an audit pass (audit)."""
    trace = (tracing.new_trace_id(), tracing.new_span_id())
    dialect.body(ops.QUERY, (SQL,), trace=trace)
    dialect.body(ops.QUERY, ("SELECT SUM(y) FROM stream WHERE y > 40",))
    dialect.body(ops.QUERY, ("SELECT SUM(y) FROM stream WHERE y > 90",))
    for service in services:
        service.auditor.audit_now()
    return trace[0]


# --------------------------------------------------------------------------- #
# What the former per-feature "both dialects" tests asserted, per op


def check_query(body, dialect):
    (result,) = body["results"]
    assert result["aggregation"] == "AVG(x)"
    assert result["lower"] <= result["value"] <= result["upper"]
    grouped = dialect.body(ops.QUERY, (GROUPED,))
    assert set(grouped["groups"]) <= {"alpha", "beta", "gamma", "delta"}


def check_tables(body, dialect):
    assert body == {"tables": ["stream"]}


def check_explain(body, dialect):
    plan = body["explain"]
    assert plan["node"] == "single"
    assert plan["route"]["table"] == "stream"
    assert plan["route"]["rows"] == 1200
    assert plan["route"]["partitions"] == 2
    assert plan["query"]["template"] == "SELECT AVG(x) FROM stream WHERE x > ?;"
    assert plan["result_cache"]["cached"] is True
    assert plan["gather"]["scattered_sql"] == str(plan_query(parse_query(SQL)).scattered)
    # SQL-prefix form through the ordinary query op answers the identical plan.
    assert dialect.body(ops.QUERY, (f"EXPLAIN {SQL}",))["explain"] == plan


def check_workload(body, dialect):
    by_template = {t["template"]: t for t in body["workload"]["templates"]}
    entry = by_template["SELECT SUM(y) FROM stream WHERE y > ?;"]
    assert entry["count"] == 2
    assert entry["last_sql"] == "SELECT SUM(y) FROM stream WHERE y > 90"
    assert entry["audit"]["audited"] >= 1


def check_audit(body, dialect):
    audit = body["audit"]
    assert audit["enabled"] is True
    assert audit["audited"] >= 1
    assert audit["sample_rate"] == 1.0


def check_metrics(body, dialect):
    snapshot = body["metrics"]
    latency = snapshot["aqp_request_latency_seconds"]
    assert latency["type"] == "histogram"
    kinds = {s["labels"]["kind"] for s in latency["series"] if s["count"] > 0}
    assert "query" in kinds
    assert "aqp_requests_shed_total" in snapshot
    assert "aqp_result_cache_lookups_total" in snapshot


def check_trace(body, dialect):
    assert {s["name"] for s in body["spans"]} >= {"query", "parse", "execute"}
    assert len({s["trace_id"] for s in body["spans"]}) == 1


CHECKS = {
    "query": check_query,
    "tables": check_tables,
    "explain": check_explain,
    "workload": check_workload,
    "audit": check_audit,
    "metrics": check_metrics,
    "trace": check_trace,
}


# --------------------------------------------------------------------------- #
# The conformance axes


@pytest.mark.parametrize("name", OP_NAMES)
def test_every_dialect_answers_the_identical_body(name):
    op = ops.OPS[name]
    outcomes = {}
    for dialect_cls in DIALECTS:
        # A fresh server per dialect, so state-changing ops compare equal.
        def scenario(address, server, services, dialect_cls=dialect_cls):
            with dialect_cls(address) as dialect:
                trace_id = warm_up(dialect, services)
                body = None

                def run():
                    nonlocal body
                    body = dialect.body(op, sample_args(op, trace_id))
                    return body

                result = outcome(run)
                if name in CHECKS:
                    CHECKS[name](body, dialect)
                return result

        outcomes[dialect_cls.name] = serve(scenario)
    reference = outcomes[_Tunnel.name]
    assert all(result == reference for result in outcomes.values()), outcomes


#: Where a cluster's body is deployment-shaped by design, the part of it
#: that must still equal the single node's.
CLUSTER_VIEW = {
    # Same recombination plan and parse both ways; the route differs.
    "explain": lambda b: {k: b["explain"][k] for k in ("sql", "query", "gather")},
    # The cluster reports which shards took rows, not which partitions.
    "ingest": lambda b: {k: v for k, v in b.items() if k != "rebuilt_partitions"},
    # Scatter/gather spans are extra; the worker's own spans must all be there.
    "trace": lambda b: sorted({s["name"] for s in b["spans"]} & {"query", "parse", "execute", "cache_lookup"}),
    # Shards log the scattered SQL (AVG carries its companions).
    "workload": lambda b: (b["workload"]["capacity"], b["workload"]["evicted"]),
    # Merged counters; per-worker settings (sample_rate) do not merge.
    "audit": lambda b: {k: b["audit"][k] for k in ("enabled", "audited", "violations")},
}


@pytest.mark.parametrize("name", OP_NAMES)
def test_one_shard_local_cluster_answers_like_a_single_node(name):
    op = ops.OPS[name]

    def scenario(address, server, services):
        with _FastPath(address) as dialect:
            trace_id = warm_up(dialect, services)
            view = CLUSTER_VIEW.get(name, lambda body: body)
            return outcome(lambda: view(dialect.body(op, sample_args(op, trace_id))))

    assert serve(scenario, shards=1) == serve(scenario)


@pytest.mark.parametrize("dialect_cls", DIALECTS, ids=lambda d: d.name)
def test_mutating_rows_are_gated_and_only_they_are(dialect_cls):
    """Refused on a replica; through the commit gate exactly once otherwise."""
    mutating = [op for op in ops.OPS.values() if op.mutating]
    assert {op.name for op in mutating} >= {"ingest", "register", "drop"}

    def on_replica(address, server, services):
        with dialect_cls(address) as dialect:
            for op in mutating:
                with pytest.raises(WireError, match="read-only replica"):
                    dialect.body(op, sample_args(op))
            # Reads are still served.
            assert dialect.body(ops.QUERY, (SQL,))["results"]

    serve(on_replica, replica=True)

    def on_primary(address, server, services):
        passes = []
        gate = server._commit_gate

        async def counting_gate():
            passes.append(1)
            await gate()

        server._commit_gate = counting_gate
        with dialect_cls(address) as dialect:
            # "drop" last, so the other ops still have their table.
            for op in sorted(ops.OPS.values(), key=lambda op: op.name == "drop"):
                before = len(passes)
                outcome(lambda: dialect.body(op, sample_args(op)))
                assert len(passes) - before == (1 if op.mutating else 0), op.name

    serve(on_primary)


@pytest.mark.parametrize("dialect_cls", (_Tunnel,), ids=lambda d: d.name)
def test_malformed_requests_fail_naming_what_is_wrong(dialect_cls):
    def scenario(address, server, services):
        with dialect_cls(address) as dialect:
            with pytest.raises(WireError, match="unknown op 'nope'"):
                dialect.raw({"op": "nope"})
            errors = {}
            for op in ops.OPS.values():
                if first_field(op) is not None:
                    with pytest.raises(WireError) as excinfo:
                        dialect.raw({"op": op.name})
                    errors[op.name] = excinfo.value.message
            return errors

    # promote/follow refuse a non-replica before looking at fields, and a
    # replica refuses mutations before looking at theirs: every op names
    # its missing field on the role that accepts the op at all.
    standalone, replica = serve(scenario), serve(scenario, replica=True)
    for name in standalone:
        field = f"'{first_field(ops.OPS[name])}'"
        assert field in standalone[name] or field in replica[name], (name, standalone[name])


def test_a_retired_params_field_is_accepted_only_as_null():
    """Older clients send every params field, the retired merged-cell
    budget included, as ``null``: the only behaviour left."""
    sent = dict(ops.params_payload(PairwiseHistParams()), max_merged_cells=None)
    assert ops.params_from_payload(sent) == PairwiseHistParams()
    with pytest.raises(ValueError, match="unknown params fields"):
        ops.params_from_payload(dict(sent, max_merged_cells=4096))


# --------------------------------------------------------------------------- #
# ROADMAP item 3: a new read-only op is one table row


def test_a_new_read_only_op_is_one_row_through_every_layer():
    ops.register(
        ops.Op(
            "row_count",
            params=("table",),
            extract=lambda service, request: (request["table"],),
            handler=lambda service, table: service.table(table).num_rows,
            key="rows",
        )
    )
    try:

        def scenario(address, server, services):
            with _Tunnel(address) as tunnelled, PipelinedClient(*address) as client:
                assert tunnelled.raw({"op": "row_count", "table": "stream"}) == {"rows": 1200}
                # (Rows in the table at import also get a ``client.<name>`` method.)
                assert client.call("row_count", "stream") == 1200
                with pytest.raises(WireError, match="KeyError"):
                    client.call("row_count", "absent")

        serve(scenario)
        # A 2-shard local cluster: the front end answers for the fleet,
        # and each shard proxy answers for its slice.
        serve(scenario, shards=2)
        cluster = ClusterQueryService(num_shards=2, mode="local", partition_size=600)
        try:
            cluster.register_table(
                make_simple_table(rows=1200, seed=50, name="stream"), params=PARAMS
            )
            per_shard = [shard.call("row_count", "stream") for shard in cluster.shards]
            assert sum(per_shard) == 1200 and all(per_shard)
        finally:
            cluster.close()
    finally:
        del ops.OPS["row_count"]


def test_readme_op_table_lists_exactly_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("<!-- op-table:begin -->")[1].split("<!-- op-table:end -->")[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert listed == list(ops.OPS)
