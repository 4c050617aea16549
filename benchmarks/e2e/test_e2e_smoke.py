"""Fast self-test of the benchmark itself: the maths, the agreement between
``BENCHMARK.json`` and what ``run.py`` emits, and one small lifecycle.  No
timing asserts."""

from __future__ import annotations

import json
import multiprocessing
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

import run
import stats
from layers import probe_layers
from lifecycle import Round, best_of_rounds, run_lifecycle
from spec import END_TO_END, FULL, PER_LAYER, WORKLOADS

MANIFEST = json.loads((stats.REPO_ROOT / "BENCHMARK.json").read_text())

SMOKE = replace(
    FULL,
    base_rows=2_000,
    partition_size=500,
    statements=70,
    templates=10,
    stream_length=200,
    batch_rows=100,
    quiesced_batches=3,
    replay_batches=1,
    restart_statements=20,
    min_rounds=2,
    mixed_round=20,
    traced_rounds=2,
    trace_every=5,
    pings=50,
)


def test_percentiles_and_median_of_rounds():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile(range(101), 90) == 90
    assert stats.median([4.0, 1.0]) == 2.5
    # One slow round out of five does not move the median over rounds.
    assert stats.median([100 / seconds for seconds in (1, 1, 1, 1, 10)]) == 100
    assert stats.score(110.0, 90.0, 105.0, 100.0) == (pytest.approx(10.0), True)
    assert stats.score(float("nan"), 90.0, 105.0, 100.0) == (float("inf"), False)
    assert stats.quartile_spread([10.0] * 8) == 0
    assert stats.quartile_spread([5.0]) == 0
    assert stats.worsening(100, 110, "lower") == pytest.approx(0.10)
    assert stats.worsening(100, 110, "higher") == pytest.approx(-0.10)


def _serial_round(latencies_ns: list[int]) -> Round:
    starts, ends, clock = [], [], 0
    for latency in latencies_ns:
        starts.append(clock)
        clock += latency
        ends.append(clock)
    return Round([], starts, ends, [], [], clock / 1e9, 0.0)


def test_best_of_rounds_drops_slow_stretches():
    base = [1_000_000 + 25_000 * i for i in range(40)]  # 1.000 .. 1.975 ms
    slow_start = [3 * ns if i < 20 else ns for i, ns in enumerate(base)]
    slow_end = [ns if i < 20 else 3 * ns for i, ns in enumerate(base)]
    expected = (
        stats.percentile([ns / 1e6 for ns in base], 50),
        stats.percentile([ns / 1e6 for ns in base], 90),
        40 / (sum(base) / 1e9),
    )
    # Each position, and each of the 4 runs of positions, has one clean send.
    rounds = [_serial_round(slow_start), _serial_round(slow_end)]
    assert best_of_rounds(rounds, 4) == pytest.approx(expected)
    # A round that was slow throughout changes nothing ...
    assert best_of_rounds(rounds + [_serial_round([3 * ns for ns in base])], 4) == pytest.approx(expected)
    # ... and a statement that is slow on every send is seen.
    slower = [_serial_round([2 * ns for ns in latencies]) for latencies in (slow_start, slow_end)]
    assert best_of_rounds(slower, 4) == pytest.approx((2 * expected[0], 2 * expected[1], expected[2] / 2))


def _jitter(centre: float, share: float, n: int = 10) -> list[float]:
    return [centre * (1 + share * (i / (n - 1) - 0.5)) for i in range(n)]


def test_verdicts():
    base = _jitter(2.0, 0.03)
    assert stats.verdict(base, _jitter(2.2, 0.03), "lower", 0.10)["verdict"] == "worse"
    assert stats.verdict(base, _jitter(1.8, 0.03), "lower", 0.10)["verdict"] == "better"
    assert stats.verdict(base, base[::-1], "lower", 0.10)["verdict"] == "same"
    assert stats.verdict(base, _jitter(2.01, 0.03), "lower", 0.10)["verdict"] == "same"
    assert stats.verdict(_jitter(2.0, 0.4), _jitter(2.2, 0.4), "lower", 0.10)["verdict"] == "unresolved"
    gated = stats.verdict(base, _jitter(2.3, 0.03), "lower", 0.10)
    assert gated["gate"] == "FAIL" and gated["worsening"] == pytest.approx(0.15)
    assert stats.verdict(base, _jitter(2.1, 0.03), "lower", 0.10)["gate"] == "ok"
    single = stats.verdict([100.0], [80.0], "higher", 0.10)
    assert single["gate"] == "FAIL" and single["verdict"] == "unresolved"


def _result_set(scale_p50: float) -> dict:
    runs = [
        {
            "workload": "dash_uncached",
            "end_to_end": {"query_p50_ms": p50 * scale_p50, "query_qps": 600.0},
        }
        for p50 in _jitter(1.6, 0.03)
    ]
    return {"fingerprint": stats.fingerprint(1), "runs": runs}


def test_compare_flags_a_ten_percent_slowdown():
    rows = {row["metric"].name: row for row in run.compare(_result_set(1.0), _result_set(1.1))}
    assert rows["query_p50_ms"]["verdict"] == "worse"
    assert rows["query_qps"]["verdict"] == "same"
    rows = {row["metric"].name: row for row in run.compare(_result_set(1.0), _result_set(1.0))}
    assert rows["query_p50_ms"]["verdict"] == "same"


def test_manifest_agrees_with_run_py():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert MANIFEST["run_seconds"] == run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit) for m in END_TO_END + PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)


def _small_traced_run(out_dir) -> dict:
    result = run_lifecycle(WORKLOADS["dash_uncached"], 1, 1, True, SMOKE, out_dir)
    result["layer"].update(probe_layers(1, 1, SMOKE, out_dir))
    return result


def test_small_lifecycle_emits_every_metric(tmp_path):
    """A 2,000-row single-process lifecycle, traced so that it reports the
    per-layer metrics too; it must lose no op and survive ``kill -9``.

    It runs in a process of its own: the tier-1 command runs every test and
    benchmark in one interpreter, and ``benchmarks/test_concurrency_throughput``
    (whose serialized baseline relies on lock hand-off timing) starves for
    minutes when the layer probe has run in the same process before it.
    """
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        result = pool.submit(_small_traced_run, tmp_path).result(timeout=120)
    assert result["failures"] == []
    assert result["failed"] == 0 and result["correct"]
    assert result["layer"]["client.failed_ops_share"] == 0
    assert result["samples"]["restart_statements"] == SMOKE.restart_statements
    assert result["samples"]["traced_queries"] > 0
    assert (tmp_path / "trace-dash_uncached-seed1-trace.jsonl").stat().st_size > 0
    assert not list(tmp_path.glob("data-*")), "data directory left behind"
    for traced in (False, True):
        line = json.loads(run.driver_line({**result, "trace": traced}))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = PER_LAYER if traced else END_TO_END
        assert list(line["metrics"]) == [m.name for m in declared]
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert all(result["end_to_end"][m.name] != 0 for m in END_TO_END)
