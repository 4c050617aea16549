"""Byte-level wire compatibility against traffic recorded at a parent commit.

``tests/fixtures/wire-golden.json`` holds one request frame per binary
opcode and one ``OP_JSON`` frame per op (plus the malformed-request
errors), together with what the server answered, recorded by running
this file as a script against a checkout of an earlier commit::

    REPRO_GOLDEN_SRC=<parent>/src python tests/test_wire_golden.py --record

The fast-path frames were recorded before the op table existed.  The
``OP_JSON`` frames carry the request objects that were recorded then as
newline-delimited JSON lines, and were re-recorded as frames at the
commit before that dialect was deleted.

The test replays the recorded request bytes through raw sockets into a
fresh ``python -m repro.service`` process and compares the answers,
ignoring only wall-time fields and trace/span ids (``_scrub``).
"""

from __future__ import annotations

import json
import os
import re
import socket
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "fixtures" / "wire-golden.json"
SRC = Path(__file__).resolve().parents[1] / "src"

MAGIC = b"AQP1"
HEADER = struct.Struct("<BQI")

#: Keys whose values are wall time or freshly drawn ids.
_VOLATILE = {"seconds", "wall_seconds", "start", "duration", "trace_id", "span_id", "parent_id", "latency"}


def _scrub(body):
    """Drop wall-time fields and ids; reduce a registry snapshot to its
    series catalog (values move with timing and, for the parse cache, with
    the one-lookup-per-statement fix that rides along in the same PR)."""
    if isinstance(body, dict):
        if "metrics" in body and isinstance(body["metrics"], dict):
            return {
                "metrics": {
                    name: [data["type"], sorted(sorted(map(list, s["labels"].items())) for s in data["series"])]
                    for name, data in body["metrics"].items()
                }
            }
        return {k: _scrub(v) for k, v in body.items() if k not in _VOLATILE}
    if isinstance(body, list):
        return [_scrub(item) for item in body]
    return body


# --------------------------------------------------------------------------- #
# Raw-socket transport (no repro client code on the replay path)


class _Server:
    def __init__(self, data_dir: str) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.environ.get("REPRO_GOLDEN_SRC", str(SRC)), env.get("PYTHONPATH")) if p
        )
        env.pop("REPRO_CRASH_POINT", None)
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--data-dir", data_dir,
                "--partition-size", "250",
                "--checkpoint-interval", "3600",
                "--workload-capacity", "16",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        banner = []
        for line in self.process.stdout:
            banner.append(line)
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return
        self.process.kill()
        raise RuntimeError("server never listened:\n" + "".join(banner))

    def stop(self) -> None:
        self.process.kill()
        self.process.wait(timeout=30)
        self.process.stdout.close()


def _read_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise ConnectionError("server closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _exchange(sock: socket.socket, request: bytes) -> dict:
    """Send one recorded request frame, return the decoded reply."""
    sock.sendall(request)
    status, request_id, length = HEADER.unpack(_read_exactly(sock, HEADER.size))
    return {"status": status, "request_id": request_id, "payload": _read_exactly(sock, length).hex()}


def _comparable(step: dict, reply: dict) -> dict:
    """The part of a reply that must not move between commits."""
    payload = bytes.fromhex(reply["payload"])
    if step["reply"] == "json" and reply["status"] == 0:  # an OK JSON body
        return {**reply, "payload": _scrub(json.loads(payload))}
    return reply  # result / batch / error blocks compare byte for byte


def _replay(steps: list[dict]) -> list:
    with tempfile.TemporaryDirectory() as data_dir:
        server = _Server(data_dir)
        try:
            with socket.create_connection(server.address, timeout=60) as sock:
                sock.sendall(MAGIC)
                return [
                    _comparable(step, _exchange(sock, bytes.fromhex(step["request"])))
                    for step in steps
                ]
        finally:
            server.stop()


def test_recorded_parent_traffic_gets_the_recorded_answers():
    golden = json.loads(GOLDEN.read_text())
    answers = _replay(golden)
    for step, answer in zip(golden, answers):
        assert answer == step["answer"], step["label"]
    assert len(answers) == len(golden)


# --------------------------------------------------------------------------- #
# Recording (run as a script against the parent commit's src/)


def _script() -> list[dict]:
    """The request sequence, encoded by the code under REPRO_GOLDEN_SRC."""
    import numpy as np

    from repro.core.params import PairwiseHistParams
    from repro.data.table import Table
    from repro.service import framing

    try:  # where the payload encodings lived before the op table
        from repro.service.wire import params_payload, schema_payload, table_payload
    except ImportError:
        from repro.service.ops import params_payload, schema_payload, table_payload

    def table(rows: int, seed: int) -> Table:
        rng = np.random.default_rng(seed)
        x = np.round(rng.uniform(0, 100, rows), 2)
        return Table.from_dict(
            {
                "x": x.tolist(),
                "y": np.round(2 * x + rng.normal(0, 5, rows), 2).tolist(),
                "kind": [["a", "b", "c"][i % 3] for i in range(rows)],
            },
            name="golden",
        )

    base, more, binary_rows = table(600, 0), table(100, 1), table(100, 2)
    trace_id, span_id = "ab" * 16, "cd" * 8
    avg = "SELECT AVG(x) FROM golden WHERE y > 60"
    steps: list[dict] = []

    def frame(label: str, op: int, payload: bytes, reply: str, trace=None) -> None:
        raw = framing.encode_frame(op, len(steps) + 1, payload, trace)
        steps.append({"label": label, "dialect": "binary", "request": raw.hex(), "reply": reply})

    def line(label: str, request, trace=None) -> None:
        """A request object (or raw bytes) once sent as a JSON line, now in
        an ``OP_JSON`` frame; its reply is a JSON body or an error block."""
        payload = request if isinstance(request, bytes) else json.dumps(request).encode()
        frame(label, framing.OP_JSON, payload, "json", trace)

    ids = (bytes.fromhex(trace_id), bytes.fromhex(span_id))

    line("ping", {"op": "ping"})
    line(
        "register",
        {
            "op": "register",
            "table": "golden",
            "rows": table_payload(base),
            "schema": schema_payload(base.schema),
            "params": params_payload(PairwiseHistParams.with_defaults(sample_size=None, seed=1)),
            "partition_size": 250,
        },
    )
    line("tables", {"op": "tables"})
    line("stat", {"op": "stat", "table": "golden"})
    line("query scalar", {"op": "query", "sql": avg})
    line("query group by", {"op": "query", "sql": "SELECT COUNT(*), SUM(y) FROM golden GROUP BY kind"})
    # The object keeps its "trace" key (all a JSON-lines request could
    # carry) and the frame its trailer, so either server records the trace.
    line(
        "query traced",
        {"op": "query", "sql": "SELECT MAX(y) FROM golden", "trace": {"trace_id": trace_id, "span_id": span_id}},
        trace=ids,
    )
    line("query explain prefix", {"op": "query", "sql": "EXPLAIN " + avg})
    line("ingest", {"op": "ingest", "table": "golden", "rows": table_payload(more), "coalesce": False})
    line("status", {"op": "status"})
    line("metrics", {"op": "metrics"})
    line("trace", {"op": "trace", "trace_id": trace_id})
    line("explain", {"op": "explain", "sql": avg})
    line("explain analyze", {"op": "explain", "sql": "EXPLAIN ANALYZE SELECT MIN(x) FROM golden"})
    line("workload", {"op": "workload"})
    line("audit", {"op": "audit"})
    line("checkpoint", {"op": "checkpoint"})
    line("persist", {"op": "persist"})
    line("promote refused", {"op": "promote", "epoch": 2})
    line("follow refused", {"op": "follow", "host": "127.0.0.1", "port": 1})
    line("unknown op", {"op": "nope"})
    line("no op", {})
    line("not an object", [1, 2])
    line("not json", b"{nope")
    line("stat without table", {"op": "stat"})
    line("drop without table", {"op": "drop", "table": 7})
    line("query without sql", {"op": "query"})
    line("trace without id", {"op": "trace"})
    line("explain without sql", {"op": "explain", "analyze": True})
    line("promote without epoch", {"op": "promote", "epoch": "2"})
    line("follow without port", {"op": "follow", "host": "h"})
    line("ingest without table", {"op": "ingest", "rows": {"x": [1]}})
    line("ingest without rows", {"op": "ingest", "table": "golden"})
    line("ingest unknown table", {"op": "ingest", "table": "absent", "rows": {"x": [1]}})
    line("register bad params", {"op": "register", "table": "t", "rows": {"x": [1.0]}, "params": {"bogus": 1}})
    line("query unknown table", {"op": "query", "sql": "SELECT COUNT(*) FROM absent"})
    line("query parse error", {"op": "query", "sql": "SELECT FROM"})

    frame("OP_PING", framing.OP_PING, b"", "raw")
    frame("OP_QUERY", framing.OP_QUERY, framing.encode_query(avg), "raw")
    frame(
        "OP_QUERY traced",
        framing.OP_QUERY,
        framing.encode_query("SELECT MIN(y) FROM golden"),
        "raw",
        trace=ids,
    )
    frame("OP_QUERY group by", framing.OP_QUERY, framing.encode_query("SELECT AVG(y) FROM golden GROUP BY kind"), "raw")
    frame("OP_QUERY parse error", framing.OP_QUERY, framing.encode_query("SELECT FROM"), "raw")
    frame(
        "OP_QUERY_BATCH",
        framing.OP_QUERY_BATCH,
        framing.encode_query_batch([avg, "SELECT FROM", "SELECT COUNT(*) FROM golden"]),
        "raw",
    )
    frame("OP_INGEST", framing.OP_INGEST, framing.encode_ingest("golden", binary_rows, False), "json")
    frame("OP_INGEST unknown table", framing.OP_INGEST, framing.encode_ingest("absent", binary_rows, False), "raw")
    frame("OP_JSON stat", framing.OP_JSON, framing.encode_json({"op": "stat", "table": "golden"}), "json")
    frame("OP_JSON explain prefix", framing.OP_JSON, framing.encode_json({"op": "query", "sql": "EXPLAIN " + avg}), "json")
    frame("OP_JSON unknown op", framing.OP_JSON, framing.encode_json({"op": "nope"}), "raw")
    frame("OP_JSON not an object", framing.OP_JSON, framing.encode_json([1]), "raw")
    frame("OP_JSON not json", framing.OP_JSON, b"{nope", "raw")
    frame("unknown opcode", 99, b"", "raw")

    line("stat after binary ingest", {"op": "stat", "table": "golden"})
    line("drop", {"op": "drop", "table": "golden"})
    line("tables after drop", {"op": "tables"})
    return steps


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"] or "REPRO_GOLDEN_SRC" not in os.environ:
        raise SystemExit("usage: REPRO_GOLDEN_SRC=<parent>/src python tests/test_wire_golden.py --record")
    sys.path.insert(0, os.environ["REPRO_GOLDEN_SRC"])
    recorded = _script()
    for recorded_step, answer in zip(recorded, _replay(recorded)):
        recorded_step["answer"] = answer
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} exchanges into {GOLDEN}")
