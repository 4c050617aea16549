"""One lifecycle workload against a real server deployment, over the wire:

spawn -> register -> warm-up -> timed loop -> write phase -> accuracy check
-> checkpoint -> ``kill -9`` -> restart -> verify.

All loops are closed: a client sends its next request when the previous
reply arrives.  One generator process, at most two threads and two
connections, held on one CPU; the servers are held on another.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stats
from servers import Deployment, directory_bytes, split_cpus
from spec import TABLE, Scale, Workload

from repro import ExactQueryEngine, PairwiseHistParams, Table, load_dataset
from repro.service.wire import PipelinedClient, WireError
from repro.storage.codec import encode_table
from repro.workload import QueryGenerator, WorkloadSpec

#: What a wire op can raise; anything else is a bug in the benchmark.
WIRE_ERRORS = (WireError, ConnectionError, TimeoutError)
CLIENT_TIMEOUT_S = 120.0
CHECKPOINT_WAIT_S = 60.0
now = time.perf_counter_ns


# --------------------------------------------------------------------------- #
# Inputs: everything the server sees is generated here from the seed


@dataclass
class Inputs:
    base: Table
    #: Fresh rows of the same dataset, ``batch_rows`` each; a workload
    #: ingests a prefix of them.
    batches: list[Table]
    queries: list
    sqls: list[str]
    #: The sequence of statements one timed round sends.
    round_sqls: list[str]


def mixed_batches(seconds: int, scale: Scale) -> int:
    return scale.mixed_batches_per_second * seconds


def make_inputs(seed: int, seconds: int, scale: Scale, templated: bool = False) -> Inputs:
    # Every workload and the layer probe draw the same number of rows, so
    # at one seed they all see the identical table, statements and batches.
    spare = max(
        scale.quiesced_batches,
        mixed_batches(seconds, scale) + scale.replay_batches,
        scale.probe_batches,
    )
    full = load_dataset(TABLE, rows=scale.base_rows + spare * scale.batch_rows, seed=seed)
    base = full.select_rows(np.arange(scale.base_rows))
    batches = [
        full.select_rows(
            np.arange(
                scale.base_rows + i * scale.batch_rows,
                scale.base_rows + (i + 1) * scale.batch_rows,
            )
        )
        for i in range(spare)
    ]
    # Literals come from the quantiles of a strided sample: generation over
    # all rows costs seconds and buys the statements nothing.
    stride = max(1, scale.base_rows // 10_000)
    sample = base.select_rows(np.arange(0, scale.base_rows, stride))
    queries = QueryGenerator(
        sample, WorkloadSpec.scaled_experiments(num_queries=scale.statements, seed=seed)
    ).generate()
    if len(queries) < scale.statements:
        raise RuntimeError("statement generator came up short")
    sqls = [str(q) for q in queries]
    if templated:
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.arange(1, scale.templates + 1)  # Zipf(1)
        draw = rng.choice(scale.templates, size=scale.stream_length, p=weights / weights.sum())
        round_sqls = [sqls[i] for i in draw]
    else:
        round_sqls = sqls
    return Inputs(base, batches, queries, sqls, round_sqls)


# --------------------------------------------------------------------------- #
# Bookkeeping


@dataclass
class Ops:
    """Every wire op of the run, counted; a failed one keeps its reason."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def merge(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons)

    def call(self, what: str, fn, *args, **kwargs):
        """One synchronous wire op; a wire error is counted and re-raised as
        ``RuntimeError`` because the lifecycle cannot go on without it."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except WIRE_ERRORS as exc:
            self.fail(f"{what}: {exc!r}")
            raise RuntimeError(f"{what} failed: {exc!r}") from exc


class SpanLog:
    """Spans around the generator's calls into the system, kept in memory
    and written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: Seconds per lifecycle phase (the spans opened with :meth:`span`).
        self.phase_s: dict[str, float] = {}
        self._ids = itertools.count(1)
        #: perf_counter_ns -> epoch ns, so client and server spans share a
        #: timeline in the written file.
        self._epoch = time.time_ns() - now()

    def new_ids(self) -> tuple[bytes, bytes]:
        """(trace id, span id) in the wire's trace-trailer shape."""
        serial = next(self._ids)
        return serial.to_bytes(16, "big"), serial.to_bytes(8, "big")

    def record(self, name: str, start_ns: int, end_ns: int, ids=None) -> None:
        """One span of the generator's own; ``ids`` when it went over the wire.

        Appends only, so the writer thread may share the log.
        """
        trace_id, span_id = ids or self.new_ids()
        self.spans.append(
            {
                "name": name,
                "trace_id": trace_id.hex(),
                "span_id": span_id.hex(),
                "parent": None,
                "start_ns": start_ns + self._epoch,
                "end_ns": end_ns + self._epoch,
            }
        )

    @contextmanager
    def span(self, name: str):
        start = now()
        try:
            yield
        finally:
            end = now()
            self.record(name, start, end)
            self.phase_s[name] = self.phase_s.get(name, 0.0) + (end - start) / 1e9

    def add_server_spans(self, spans: list[dict]) -> None:
        for span in spans:
            start_ns = int(span["start"] * 1e9)
            self.spans.append(
                {
                    "name": span["name"],
                    "trace_id": span["trace_id"],
                    "span_id": span["span_id"],
                    "parent": span["parent_id"],
                    "start_ns": start_ns,
                    "end_ns": start_ns + int((span["duration"] or 0.0) * 1e9),
                }
            )

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# --------------------------------------------------------------------------- #
# Rounds


@dataclass
class Round:
    sqls: list[str]
    starts: list[int]
    ends: list[int]
    replies: list
    traces: list
    wall_s: float
    cpu_s: float

    def latencies_ms(self) -> list[float]:
        return [(e - s) / 1e6 for s, e in zip(self.starts, self.ends)]


def run_round(client: PipelinedClient, sqls, window: int, traces=None) -> Round:
    """Send ``sqls`` in order with ``window`` requests in flight; ``traces``
    holds the trace ids of the statements that carry one.

    Nothing but submit, wait and two clock reads happens per request; the
    replies are checked after the round.  With one request in flight the
    reply is stamped when the caller has it; with several, when the reader
    thread resolves its future (the caller may still be waiting on an
    older one).
    """
    n = len(sqls)
    traces = traces or [None] * n
    starts, ends, replies = [0] * n, [0] * n, [None] * n
    submit, timeout = client.submit_query, client.timeout
    pending: deque = deque()

    def collect() -> None:
        i, future = pending.popleft()
        try:
            replies[i] = future.result(timeout)
        except WIRE_ERRORS as exc:
            replies[i] = exc
        if window == 1:
            ends[i] = now()

    def stamp(i):
        return lambda _future: ends.__setitem__(i, now())

    cpu_start = time.process_time()
    wall_start = now()
    for i in range(n):
        if len(pending) == window:
            collect()
        starts[i] = now()
        future = submit(sqls[i], traces[i])
        if window > 1:
            future.add_done_callback(stamp(i))
        pending.append((i, future))
    while pending:
        collect()
    wall_s = (now() - wall_start) / 1e9
    return Round(sqls, starts, ends, replies, traces, wall_s, time.process_time() - cpu_start)


def best_of_rounds(rounds: list[Round], segments: int) -> tuple[float, float, float]:
    """(p50 ms, p90 ms, queries/s) of a loop whose rounds all send the same
    statements in the same order, each position taken at its fastest.

    A shared host slows the CPUs by a third to a half for milliseconds at
    a time, and in a bad stretch, which lasts seconds to minutes, most
    requests meet such a slice: a round's percentiles move with it, and so
    does their median over rounds once it covers half the loop.  The
    fastest of a position's replies over the rounds does not, unless every
    send met a slice, while a change that slows a statement slows all of
    its sends.  The rate is taken the same way: the
    round is cut into ``segments`` runs of positions, each lasts from the
    previous run's last reply to its own, and the fastest of each over the
    rounds are added up.  What this cannot see is a stall that hits a
    statement now and then; the pooled percentiles and the p99 of the
    per-layer metrics keep every sample.
    """
    fastest = np.min([done.latencies_ms() for done in rounds], axis=0)
    n = fastest.size
    marks = np.arange(1, segments + 1) * n // segments - 1
    took_ns = [
        np.diff(np.maximum.accumulate(done.ends)[marks], prepend=done.starts[0])
        for done in rounds
    ]
    seconds = np.min(took_ns, axis=0).sum() / 1e9
    return stats.percentile(fastest, 50), stats.percentile(fastest, 90), n / seconds


def reply_key(reply: dict) -> str:
    """Bit-identity of an answer (``repr`` round-trips doubles; NaN == NaN)."""
    return repr(reply["results"])


def within_bounds(reply: dict) -> bool:
    """Whether every answer lies inside the interval reported with it."""
    for result in reply["results"]:
        value, lower, upper = result["value"], result["lower"], result["upper"]
        if value is None or value != value:  # empty selection: no answer to bound
            continue
        if not lower <= value <= upper:
            return False
    return True


def check_round(done: Round, ops: Ops, reference: dict[str, str] | None) -> None:
    """Count the round's ops; ``reference`` maps a statement to the answer it
    must repeat bit for bit while the table version stands still."""
    ops.attempted += len(done.sqls)
    for sql, reply in zip(done.sqls, done.replies):
        if isinstance(reply, Exception):
            ops.fail(f"query: {reply!r}")
        elif reference is not None:
            key = reply_key(reply)
            if reference.setdefault(sql, key) != key:
                ops.fail(f"answer changed at one table version: {sql}")


def write_batches(client, batches, ops: Ops, spans: SpanLog) -> list[float]:
    """Serial ingest of ``batches``; returns the acked batches' latencies (s)."""
    latencies = []
    for batch in batches:
        ops.attempted += 1
        start = now()
        try:
            ack = client.ingest(TABLE, batch)
        except WIRE_ERRORS as exc:
            ops.fail(f"ingest: {exc!r}")
            continue
        end = now()
        spans.record("client.ingest", start, end)
        if ack.get("appended_rows") != batch.num_rows:
            ops.fail(f"ingest acked {ack.get('appended_rows')} of {batch.num_rows} rows")
            continue
        latencies.append((end - start) / 1e9)
    return latencies


# --------------------------------------------------------------------------- #
# The traced run's server side


def counter_total(snapshot: dict, name: str, **labels: str) -> float:
    series = snapshot.get(name, {}).get("series", [])
    return sum(
        s.get("value", 0.0)
        for s in series
        if all(s["labels"].get(k) == v for k, v in labels.items())
    )


def hit_ratio(before: dict, after: dict, name: str) -> float:
    hits = counter_total(after, name, outcome="hit") - counter_total(before, name, outcome="hit")
    misses = counter_total(after, name, outcome="miss") - counter_total(before, name, outcome="miss")
    return hits / (hits + misses) if hits + misses else 0.0


def histogram_mean_ms(before: dict, after: dict, name: str) -> float:
    def totals(snapshot):
        series = snapshot.get(name, {}).get("series", [])
        return sum(s["sum"] for s in series), sum(s["count"] for s in series)

    (sum_a, count_a), (sum_b, count_b) = totals(before), totals(after)
    return (sum_b - sum_a) / (count_b - count_a) * 1e3 if count_b > count_a else 0.0


class TraceCollector:
    """Joins each traced query's client span with the server spans pulled
    through the ``trace`` op, and keeps what the per-layer metrics need."""

    def __init__(self, spans: SpanLog) -> None:
        self.spans = spans
        self.overhead_ms: list[float] = []
        self.dispatch_self_ms: list[float] = []
        self.by_name_ms: dict[str, list[float]] = {}
        #: statement -> latencies of its untraced sends, and (statement,
        #: latency) of traced sends: the tracing overhead is taken per
        #: statement, because the traced ones are not a random sample.
        self.untraced_ms: dict[str, list[float]] = {}
        self.traced_ms: list[tuple[str, float]] = []

    def absorb(self, client: PipelinedClient, done: Round, ops: Ops) -> None:
        latencies = done.latencies_ms()
        evicted = False
        # Newest first: the server keeps a ring of its last 512 spans, so
        # once a trace comes back empty all older ones are gone too.
        for i in reversed(range(len(done.sqls))):
            ids = done.traces[i]
            sql, latency = done.sqls[i], latencies[i]
            self.spans.record("client.query", done.starts[i], done.ends[i], ids)
            if ids is None:
                self.untraced_ms.setdefault(sql, []).append(latency)
                continue
            self.traced_ms.append((sql, latency))
            if evicted or isinstance(done.replies[i], Exception):
                continue
            server_spans = ops.call("trace", client.trace, ids[0].hex())
            if not server_spans:
                evicted = True
                continue
            self.spans.add_server_spans(server_spans)
            for span in server_spans:
                duration_ms = (span["duration"] or 0.0) * 1e3
                self.by_name_ms.setdefault(span["name"], []).append(duration_ms)
                if span["name"] == "query" and span["parent_id"] == ids[1].hex():
                    # Self times: the client span minus the server's root
                    # span, and the root span minus its own children.
                    children_ms = sum(
                        (child["duration"] or 0.0) * 1e3
                        for child in server_spans
                        if child["parent_id"] == span["span_id"]
                    )
                    self.overhead_ms.append(latency - duration_ms)
                    self.dispatch_self_ms.append(duration_ms - children_ms)

    def p50(self, name: str) -> float:
        values = self.by_name_ms.get(name)
        return stats.median(values) if values else 0.0

    def overhead_ratio(self) -> float:
        ratios = [
            latency / stats.median(self.untraced_ms[sql])
            for sql, latency in self.traced_ms
            if sql in self.untraced_ms
        ]
        return stats.median(ratios) if ratios else 0.0


# --------------------------------------------------------------------------- #
# The lifecycle


@contextmanager
def quiet_gc():
    """No collector pauses inside timed rounds."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def run_lifecycle(
    workload: Workload,
    seed: int,
    seconds: int,
    trace: bool,
    scale: Scale,
    out_dir: Path,
) -> dict:
    """Run one workload end to end; returns its metrics and op counts.

    Every server process is killed and the data directory removed on every
    way out, including ``KeyboardInterrupt`` and a failed check.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    label = f"{workload.name}-seed{seed}{'-trace' if trace else ''}"
    data_dir = out_dir / f"data-{label}"
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir()
    log_path = out_dir / f"server-{label}.log"
    log_path.write_bytes(b"")
    generator_cpu, server_cpu = split_cpus()
    deployment = Deployment(
        data_dir,
        log_path,
        shards=workload.shards,
        partition_size=scale.partition_size,
        checkpoint_interval=workload.checkpoint_interval,
        cpu=server_cpu,
    )
    clients: list[PipelinedClient] = []
    # This thread, and with it the client threads it starts from here on.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {generator_cpu})
    try:
        return _lifecycle(workload, seed, seconds, trace, scale, out_dir / f"trace-{label}.jsonl", deployment, clients)
    finally:
        for client in clients:
            client.close()
        deployment.kill()
        shutil.rmtree(data_dir, ignore_errors=True)
        os.sched_setaffinity(0, allowed)


def _connect(deployment: Deployment, clients: list) -> PipelinedClient:
    client = PipelinedClient("127.0.0.1", deployment.port, timeout=CLIENT_TIMEOUT_S).connect()
    clients.append(client)
    return client


def _lifecycle(workload, seed, seconds, trace, scale, trace_path, deployment, clients) -> dict:
    ops, spans = Ops(), SpanLog()
    with spans.span("make_inputs"):
        inputs = make_inputs(seed, seconds, scale, workload.templated)
    batches = inputs.batches[: mixed_batches(seconds, scale) if workload.mixed else scale.quiesced_batches]
    collector = TraceCollector(spans) if trace else None

    # ---- set-up: process start, register (GD compress + synopsis build), warm-up
    setup_start = now()
    with spans.span("spawn"):
        deployment.spawn()
    client = _connect(deployment, clients)
    params = PairwiseHistParams.with_defaults(sample_size=None, seed=1)
    with spans.span("client.register"):
        ops.call("register", client.register, inputs.base, params, scale.partition_size)
    # Read-only workloads must repeat every answer bit for bit; under
    # concurrent ingest the table version moves, so only bounds are checked.
    reference: dict[str, str] | None = None if workload.mixed else {}
    with spans.span("warmup"):
        check_round(run_round(client, inputs.round_sqls, workload.window), ops, reference)
    setup_s = (now() - setup_start) / 1e9

    # ---- timed loop
    metrics_before = ops.call("metrics", client.metrics) if trace else None
    cpu_before = deployment.cpu_seconds()
    rounds: list[Round] = []
    ingest_latencies: list[float] = []

    def traces_for(round_index: int, length: int) -> list | None:
        if not trace:
            return None
        # Rotate which statements carry a trace id, so rounds do not keep
        # tracing the same ones.
        return [
            spans.new_ids() if (i + round_index) % scale.trace_every == 0 else None
            for i in range(length)
        ]

    def finish(done: Round) -> None:
        rounds.append(done)
        check_round(done, ops, reference)
        if collector is not None:
            collector.absorb(client, done, ops)

    with quiet_gc(), spans.span("timed_loop"):
        if workload.mixed:
            writer_client = _connect(deployment, clients)
            writer_ops = Ops()  # merged after the join: counters are not atomic
            writer = threading.Thread(
                target=lambda: ingest_latencies.extend(
                    write_batches(writer_client, batches, writer_ops, spans)
                ),
                name="e2e-writer",
            )
            writer.start()
            cursor = itertools.cycle(inputs.sqls)
            while writer.is_alive():
                chunk = list(itertools.islice(cursor, scale.mixed_round))
                finish(run_round(client, chunk, 1, traces_for(len(rounds), len(chunk))))
            writer.join()
            ops.merge(writer_ops)
        else:
            wanted_rounds = scale.traced_rounds if trace else scale.min_rounds
            while len(rounds) < wanted_rounds or (
                not trace and sum(r.wall_s for r in rounds) < seconds
            ):
                finish(
                    run_round(
                        client,
                        inputs.round_sqls,
                        workload.window,
                        traces_for(len(rounds), len(inputs.round_sqls)),
                    )
                )
    loop_cpu_s = deployment.cpu_seconds() - cpu_before
    metrics_after_loop = ops.call("metrics", client.metrics) if trace else None

    # ---- write phase (quiesced, unless it was the timed loop)
    write_cpu_s = loop_cpu_s
    if not workload.mixed:
        cpu_before = deployment.cpu_seconds()
        with spans.span("write_phase"):
            ingest_latencies = write_batches(client, batches, ops, spans)
        write_cpu_s = deployment.cpu_seconds() - cpu_before
    metrics_after_write = ops.call("metrics", client.metrics) if trace else None
    written_rows = acked_rows = len(ingest_latencies) * scale.batch_rows
    stat = ops.call("stat", client.stat, TABLE)
    if stat["rows"] != scale.base_rows + acked_rows:
        ops.fail(f"stat reports {stat['rows']} rows, acked {scale.base_rows + acked_rows}")

    # ---- accuracy check against the exact engine over base + ingested rows
    all_rows = Table.concat_all([inputs.base, *batches])
    with spans.span("accuracy_check"):
        accuracy = _accuracy(client, inputs, all_rows, ops)

    # ---- checkpoint, kill -9, restart, verify
    restart_sqls = inputs.sqls[: scale.restart_statements]
    if workload.mixed:
        # No explicit checkpoint: the restart replays the WAL.  Which records
        # is not left to where the checkpointer's timer happens to stand:
        # wait until a background checkpoint has caught up, then ack a fixed
        # number of batches, well inside the interval to the next one.
        with spans.span("await_checkpoint"):
            _await_background_checkpoint(client, ops)
        replayed = inputs.batches[len(batches) : len(batches) + scale.replay_batches]
        acked_rows += len(write_batches(client, replayed, ops, spans)) * scale.batch_rows
        all_rows = Table.concat_all([all_rows, *replayed])
    else:
        with spans.span("client.checkpoint"):
            ops.call("checkpoint", client.checkpoint)
    before_kill = run_round(client, restart_sqls, 1)
    check_round(before_kill, ops, None)
    ping_rtt_us = _ping_rtt_us(client, scale.pings, ops) if trace else 0.0
    disk_bytes = directory_bytes(deployment.data_dir)
    rss_mib = deployment.rss_high_water_mib()
    restart_start = now()
    with spans.span("restart"):
        for open_client in clients:
            open_client.close()
        clients.clear()
        deployment.kill()
        deployment.spawn()
        client = _connect(deployment, clients)
        after_restart = run_round(client, restart_sqls, 1)
    restart_s = (now() - restart_start) / 1e9
    check_round(after_restart, ops, None)
    for sql, old, new in zip(restart_sqls, before_kill.replies, after_restart.replies):
        if isinstance(old, Exception) or isinstance(new, Exception) or reply_key(old) != reply_key(new):
            ops.fail(f"answer changed across kill -9 and restart: {sql}")
    stat = ops.call("stat", client.stat, TABLE)
    if stat["rows"] != scale.base_rows + acked_rows:
        ops.fail(f"after restart stat reports {stat['rows']} rows, acked {scale.base_rows + acked_rows}")
    if workload.mixed:
        ops.call("checkpoint", client.checkpoint)
        disk_bytes = directory_bytes(deployment.data_dir)

    # ---- metrics
    latencies = [ms for done in rounds for ms in done.latencies_ms()]
    queries = len(latencies)
    round_p50 = [stats.percentile(r.latencies_ms(), 50) for r in rounds]
    round_p90 = [stats.percentile(r.latencies_ms(), 90) for r in rounds]
    round_qps = [len(r.sqls) / r.wall_s for r in rounds]
    if workload.mixed:
        # What a read costs depends on what the writer is doing at that
        # moment, so no two sends of a statement are the same measurement:
        # medians over the 100-query rounds, which ignore a slow minority.
        p50_ms, p90_ms, qps = stats.median(round_p50), stats.median(round_p90), stats.median(round_qps)
    else:
        p50_ms, p90_ms, qps = best_of_rounds(rounds, scale.rate_segments)
    end_to_end = {
        "setup_s": setup_s,
        "query_p50_ms": p50_ms,
        "query_p90_ms": p90_ms,
        "query_qps": qps,
        # Acked rows per second of writer time.  Batch latencies climb as
        # the tail partition fills (every append re-encodes it), so their
        # median sits on a slope and moves with any one of them.
        "ingest_rows_per_s": written_rows / sum(ingest_latencies),
        "rel_error_within_5pct": accuracy["within_5pct"],
        "bound_hit_rate": accuracy["bound_hit_rate"],
        "disk_bytes_per_raw_byte": disk_bytes / len(encode_table(all_rows)),
        "server_rss_mib": rss_mib,
    }
    layer = {
        "accuracy.median_rel_error_pct": accuracy["median_rel_error_pct"],
        "accuracy.value_outside_bounds": accuracy["value_outside_bounds"],
        "client.failed_ops_share": ops.failed / ops.attempted,
        "client.query_p50_ms_pooled": stats.percentile(latencies, 50),
        "client.query_p90_ms_pooled": stats.percentile(latencies, 90),
        "client.query_p99_ms": stats.percentile(latencies, 99),
        "client.cpu_ms_per_query": sum(r.cpu_s for r in rounds) / queries * 1e3,
        "client.ingest_batch_ms_p90": stats.percentile(ingest_latencies, 90) * 1e3,
        # On ingest_mixed reads and writes run together, so both of these
        # divide the same CPU total.
        "server.cpu_ms_per_query": loop_cpu_s / queries * 1e3,
        "server.cpu_s_per_1k_rows": write_cpu_s / (written_rows / 1000),
        "server.restart_s": restart_s,
    }
    if collector is not None:
        a, b, c = metrics_before, metrics_after_loop, metrics_after_write

        def delta(name: str) -> float:
            return counter_total(c, name) - counter_total(a, name)

        layer.update(
            {
                "wire.ping_rtt_us_p50": ping_rtt_us,
                "wire.query_overhead_ms_p50": stats.median(collector.overhead_ms),
                "server.dispatch_self_ms_p50": stats.median(collector.dispatch_self_ms),
                "server.parse_us_p50": collector.p50("parse") * 1e3,
                "server.execute_ms_p50": collector.p50("execute"),
                "cluster.shard_execute_ms_p50": collector.p50("shard_execute"),
                "cluster.gather_ms_p50": collector.p50("gather"),
                "cluster.shard_roundtrip_ms_mean": histogram_mean_ms(a, b, "aqp_shard_roundtrip_seconds"),
                "server.result_cache_hit_ratio": hit_ratio(a, b, "aqp_result_cache_lookups_total"),
                "server.parse_cache_hit_ratio": hit_ratio(a, b, "aqp_parse_cache_lookups_total"),
                "server.requests_shed": delta("aqp_requests_shed_total"),
                "server.wal_appended_bytes": delta("aqp_wal_appended_bytes_total"),
                "server.wal_appends": delta("aqp_wal_appends_total"),
                "server.synopsis_builds": delta("aqp_synopsis_builds_total"),
                "server.checkpoints": delta("aqp_checkpoints_total"),
                "trace.overhead_ratio": collector.overhead_ratio(),
            }
        )
        spans.write(trace_path)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "end_to_end": end_to_end,
        "layer": layer,
        "samples": {
            "queries": queries,
            "rounds": len(rounds),
            "ingest_batches": len(ingest_latencies),
            "accuracy_statements": accuracy["statements"],
            "restart_statements": len(restart_sqls),
            "traced_queries": len(collector.overhead_ms) if collector else 0,
        },
        "phases_s": spans.phase_s,
        "rounds": {
            "p50_ms": round_p50,
            "p90_ms": round_p90,
            "qps": round_qps,
            "ingest_batch_ms": [s * 1e3 for s in ingest_latencies],
        },
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.reasons,
        "correct": ops.failed == 0,
    }


def _accuracy(client, inputs: Inputs, all_rows: Table, ops: Ops) -> dict:
    """Server answers against :class:`ExactQueryEngine` over every row the
    table now holds, on statements whose exact answer is non-empty and
    non-zero."""
    exact = ExactQueryEngine(all_rows)
    answered = run_round(client, inputs.sqls, 8)
    check_round(answered, ops, None)
    errors, hits, outside = [], [], 0
    for query, reply in zip(inputs.queries, answered.replies):
        if isinstance(reply, Exception):
            continue
        outside += not within_bounds(reply)
        truth = exact.execute(query)[0]
        if truth.is_empty or truth.value == 0 or not np.isfinite(truth.value):
            continue
        result = reply["results"][0]
        error, hit = stats.score(result["value"], result["lower"], result["upper"], truth.value)
        errors.append(error)
        hits.append(hit)
    if not errors:
        raise RuntimeError("no statement has a usable exact answer")
    errors_arr = np.asarray(errors)
    return {
        "statements": len(errors),
        "median_rel_error_pct": float(np.median(errors_arr)),
        "within_5pct": float(np.mean(errors_arr <= 5.0)),
        "bound_hit_rate": float(np.mean(hits)),
        "value_outside_bounds": outside,
    }


def _await_background_checkpoint(client, ops: Ops) -> None:
    """Return once a checkpoint covers every acked write (the table is
    quiesced, so the next tick of the background checkpointer does it)."""
    deadline = time.monotonic() + CHECKPOINT_WAIT_S
    while True:
        status = ops.call("status", client.status)
        if status["last_checkpoint_lsn"] == status["durable_lsn"]:
            return
        if time.monotonic() > deadline:
            raise RuntimeError("no background checkpoint caught up with the WAL")
        time.sleep(0.02)


def _ping_rtt_us(client, count: int, ops: Ops) -> float:
    samples = []
    for _ in range(count):
        start = now()
        ops.call("ping", client.ping)
        samples.append((now() - start) / 1e3)
    return stats.median(samples)
