"""Process-wide, thread-safe metrics registry.

Three metric kinds — :class:`Counter`, :class:`Gauge`, and fixed-bucket
:class:`Histogram` — each keyed by a metric name plus a tuple of named
labels.  A single module-level :data:`REGISTRY` is shared by every layer
in the process; per-worker processes therefore export per-worker
registries, which the cluster front end merges with ``shard``/``role``
labels (see ``ClusterQueryService.metrics``).

Snapshots are plain JSON-able dicts so they travel in ``OP_JSON`` frames
unchanged; :func:`merge_snapshot` folds one snapshot into
another while applying extra labels, and :mod:`repro.obs.exposition`
renders the merged result as Prometheus text.

``REPRO_OBS=off`` (or :func:`set_enabled` ``(False)``) turns every
record call into an early return; the registry structure itself stays
queryable so the ``metrics`` op keeps answering.
"""

from __future__ import annotations

import os
import platform as _platform
import threading
import time as _time
import weakref
from bisect import bisect_left
from typing import Callable, Iterable

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "merge_snapshot",
    "obs_enabled",
    "set_enabled",
]

#: Default latency buckets (seconds): sub-millisecond through 10 s.
DEFAULT_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "").strip().lower() not in {"off", "0", "false"}


def _label_key(
    declared: tuple[str, ...], labels: dict[str, str]
) -> tuple[str, ...]:
    if set(labels) != set(declared):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared {sorted(declared)}"
        )
    return tuple(str(labels[name]) for name in declared)


class _Metric:
    """Base: one named metric with zero or more declared label names."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], object] = {}

    def _series_state(self, labels: dict[str, str]):
        key = _label_key(self.labelnames, labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = self._new_state()
                self._series[key] = state
            return state

    def _new_state(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def snapshot_series(self) -> list[dict]:
        with self._lock:
            items = list(self._series.items())
        out = []
        for key, state in items:
            entry = {"labels": dict(zip(self.labelnames, key))}
            entry.update(self._state_dict(state))
            out.append(entry)
        return out

    def _state_dict(self, state) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError


class _ValueState:
    __slots__ = ("lock", "value")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.value = 0.0


class _BoundCounter:
    """A counter cell pre-resolved to one label set (hot-path fast path)."""

    __slots__ = ("_registry", "_state")

    def __init__(self, registry: "MetricsRegistry", state: _ValueState) -> None:
        self._registry = registry
        self._state = state

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        state = self._state
        with state.lock:
            state.value += amount


class _BoundGauge:
    """A gauge cell pre-resolved to one label set."""

    __slots__ = ("_registry", "_state")

    def __init__(self, registry: "MetricsRegistry", state: _ValueState) -> None:
        self._registry = registry
        self._state = state

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        state = self._state
        with state.lock:
            state.value = float(value)

    def add(self, amount: float) -> None:
        if not self._registry.enabled:
            return
        state = self._state
        with state.lock:
            state.value += amount


class _BoundHistogram:
    """A histogram cell pre-resolved to one label set."""

    __slots__ = ("_registry", "_state", "_buckets")

    def __init__(
        self,
        registry: "MetricsRegistry",
        state: "_HistogramState",
        buckets: tuple[float, ...],
    ) -> None:
        self._registry = registry
        self._state = state
        self._buckets = buckets

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        index = bisect_left(self._buckets, value)
        state = self._state
        with state.lock:
            state.counts[index] += 1
            state.sum += value
            state.count += 1


class Counter(_Metric):
    """Monotonically increasing value per label set."""

    kind = "counter"

    def _new_state(self) -> _ValueState:
        return _ValueState()

    def labels(self, **labels: str) -> _BoundCounter:
        """Pre-resolve one label set; the bound cell skips label handling.

        Materialises the series immediately, so pre-binding at startup
        also guarantees the series appears in every scrape from zero.
        """
        return _BoundCounter(self.registry, self._series_state(labels))

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        # Checked before binding, so a disabled registry creates no series.
        if self.registry.enabled:
            self.labels(**labels).inc(amount)

    def value(self, **labels: str) -> float:
        state = self._series_state(labels)
        with state.lock:
            return state.value

    def _state_dict(self, state: _ValueState) -> dict:
        with state.lock:
            return {"value": state.value}


class Gauge(_Metric):
    """Last-written value per label set (set/add semantics)."""

    kind = "gauge"

    def _new_state(self) -> _ValueState:
        return _ValueState()

    def labels(self, **labels: str) -> _BoundGauge:
        """Pre-resolve one label set; see :meth:`Counter.labels`."""
        return _BoundGauge(self.registry, self._series_state(labels))

    def set(self, value: float, **labels: str) -> None:
        if self.registry.enabled:
            self.labels(**labels).set(value)

    def add(self, amount: float, **labels: str) -> None:
        if self.registry.enabled:
            self.labels(**labels).add(amount)

    def value(self, **labels: str) -> float:
        state = self._series_state(labels)
        with state.lock:
            return state.value

    def _state_dict(self, state: _ValueState) -> dict:
        with state.lock:
            return {"value": state.value}


class _HistogramState:
    __slots__ = ("lock", "counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.lock = threading.Lock()
        self.counts = [0] * (n_buckets + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket histogram; buckets are upper bounds (seconds, widths…)."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(registry, name, help, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def _new_state(self) -> _HistogramState:
        return _HistogramState(len(self.buckets))

    def labels(self, **labels: str) -> _BoundHistogram:
        """Pre-resolve one label set; see :meth:`Counter.labels`."""
        return _BoundHistogram(
            self.registry, self._series_state(labels), self.buckets
        )

    def observe(self, value: float, **labels: str) -> None:
        if self.registry.enabled:
            self.labels(**labels).observe(value)

    def _state_dict(self, state: _HistogramState) -> dict:
        with state.lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(state.counts),
                "sum": state.sum,
                "count": state.count,
            }


class MetricsRegistry:
    """Thread-safe collection of named metrics with a JSON-able snapshot."""

    def __init__(self, enabled: bool | None = None) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[weakref.ref] = []
        self.enabled = _env_enabled() if enabled is None else enabled

    def _register(self, name: str, factory: Callable[[], _Metric]) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        metric = self._register(
            name, lambda: Counter(self, name, help, tuple(labelnames))
        )
        if not isinstance(metric, Counter):
            raise TypeError(f"{name} already registered as {metric.kind}")
        return metric

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        metric = self._register(
            name, lambda: Gauge(self, name, help, tuple(labelnames))
        )
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name} already registered as {metric.kind}")
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        metric = self._register(
            name, lambda: Histogram(self, name, help, tuple(labelnames), buckets)
        )
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name} already registered as {metric.kind}")
        return metric

    def add_collector(self, method) -> None:
        """Register a bound method called (via weakref) before each snapshot.

        Collectors refresh read-time gauges — e.g. replication ack lag,
        which must be recomputed from current WAL state rather than only
        updated when an ack happens to arrive.
        """
        with self._lock:
            self._collectors.append(weakref.WeakMethod(method))

    def _run_collectors(self) -> None:
        with self._lock:
            refs = list(self._collectors)
        live = []
        for ref in refs:
            fn = ref()
            if fn is None:
                continue
            live.append(ref)
            try:
                fn()
            except Exception:
                pass  # a dying component must not poison the snapshot
        with self._lock:
            self._collectors = live

    def snapshot(self) -> dict:
        """JSON-able view: {name: {type, help, series: [...]}}."""
        self._run_collectors()
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict[str, dict] = {}
        for metric in sorted(metrics, key=lambda m: m.name):
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "series": metric.snapshot_series(),
            }
        return out


def merge_snapshot(
    target: dict, snapshot: dict, extra_labels: dict[str, str] | None = None
) -> dict:
    """Fold ``snapshot`` into ``target``, adding ``extra_labels`` to each series.

    Series whose final label sets collide are summed (counters/histogram
    cells) or last-write-wins (gauges), which makes merging a no-op-safe
    union across worker registries.
    """
    extra = {k: str(v) for k, v in (extra_labels or {}).items()}
    for name, data in snapshot.items():
        entry = target.setdefault(
            name, {"type": data["type"], "help": data.get("help", ""), "series": []}
        )
        for series in data.get("series", []):
            labels = {**series.get("labels", {}), **extra}
            match = next(
                (s for s in entry["series"] if s["labels"] == labels), None
            )
            if match is None:
                merged = {k: v for k, v in series.items() if k != "labels"}
                entry["series"].append({"labels": labels, **merged})
                continue
            if data["type"] == "gauge":
                match["value"] = series["value"]
            elif data["type"] == "counter":
                match["value"] = match.get("value", 0.0) + series["value"]
            else:  # histogram
                if match.get("buckets") == series.get("buckets"):
                    match["counts"] = [
                        a + b for a, b in zip(match["counts"], series["counts"])
                    ]
                    match["sum"] = match.get("sum", 0.0) + series["sum"]
                    match["count"] = match.get("count", 0) + series["count"]
    return target


#: The process-wide default registry every layer records into.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
    return REGISTRY.gauge(name, help, labelnames)


def histogram(
    name: str,
    help: str = "",
    labelnames: Iterable[str] = (),
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
) -> Histogram:
    return REGISTRY.histogram(name, help, labelnames, buckets)


def obs_enabled() -> bool:
    return REGISTRY.enabled


def set_enabled(enabled: bool) -> None:
    """Toggle metric recording and span creation process-wide (tests, bench)."""
    REGISTRY.enabled = bool(enabled)


# --------------------------------------------------------------------------- #
# Build / process identity

_BUILD_INFO = REGISTRY.gauge(
    "repro_build_info",
    "Constant 1; the labels carry the build identity.",
    labelnames=("version", "python"),
)
_PROCESS_START = REGISTRY.gauge(
    "repro_process_start_time_seconds",
    "Unix time this process started recording metrics.",
)
_START_TIME = _time.time()


def _package_version() -> str:
    import sys

    module = sys.modules.get("repro")
    version = getattr(module, "__version__", None) if module is not None else None
    return version or "unknown"


class _BuildInfoCollector:
    """Stamps the identity gauges at snapshot time.

    Lazy on purpose: the package version lives in ``repro.__init__``,
    which is still importing when this module loads.
    """

    def collect(self) -> None:
        _BUILD_INFO.set(
            1.0, version=_package_version(), python=_platform.python_version()
        )
        _PROCESS_START.set(_START_TIME)


_BUILD_COLLECTOR = _BuildInfoCollector()
REGISTRY.add_collector(_BUILD_COLLECTOR.collect)
