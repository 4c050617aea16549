"""PairwiseHist reproduction: approximate query processing with data compression.

The engine stack is partitioned end to end: a :class:`PartitionedStore`
holds a table's schema and fitted pre-processor once and shards its rows
into fixed-size partitions, each an independent GreedyGD
:class:`CompressedStore` (its GD split and null bitmaps, nothing else);
each partition gets its own PairwiseHist synopsis (built in parallel) and
the per-partition synopses merge into one queryable synopsis.  Streaming
appends only recompress and re-summarise the tail partition, so update
cost stays bounded as tables grow.  :class:`QueryService` is the
multi-table entry point: register tables, stream rows in with
``ingest(table_name, rows)`` and route SQL by table name.

The public API is re-exported at the top level for convenience:

>>> from repro import QueryService, load_dataset
>>> service = QueryService()
>>> _ = service.register_table(load_dataset("power", rows=10_000))
>>> result = service.execute_scalar(
...     "SELECT AVG(global_active_power) FROM power WHERE voltage > 240"
... )
>>> result.lower <= result.value <= result.upper
True

The single-table :class:`PairwiseHistEngine` builds one synopsis over a
whole table (``from_table``: a one-partition store, or the pre-processed
codes alone with ``use_compression=False``) for the paper's experiments
and ablations.
"""

from .core.engine import AqpResult, PairwiseHistEngine
from .core.aggregation import AqpEstimate
from .core.params import PairwiseHistParams
from .core.synopsis import PairwiseHist
from .core.builder import (
    PartitionInput,
    build_pairwise_hist,
    build_partition_synopses,
    build_partitioned_hist,
)
from .core.serialization import (
    deserialize,
    deserialize_partitioned,
    serialize,
    serialize_partitioned,
    synopsis_size_bytes,
)
from .data.table import Table
from .data.schema import ColumnSchema, ColumnType, TableSchema
from .data.datasets import available_datasets, load_dataset
from .data.idebench import IdeBenchScaler, scale_dataset
from .gd.store import CompressedStore
from .gd.partitioned import PartitionedStore
from .gd.preprocessor import Preprocessor
from .exactdb.executor import ExactQueryEngine
from .service import (
    AsyncQueryService,
    Database,
    IngestResult,
    ManagedTable,
    OverloadedError,
    PipelinedClient,
    QueryServer,
    QueryService,
)
# Re-exported only for benchmarks/e2e/layers.py, which imports and times both.
from .service import ConcurrentQueryService, ReadWriteLock
from .cluster import ClusterQueryService, ShardRouter, ShardSupervisor
from .audit import AccuracyAuditor, WorkloadLog
from .sql.parser import parse_query
from .sql.ast import AggregateFunction, Query
from .storage import BackgroundCheckpointer, DurableDatabase, WriteAheadLog

__version__ = "1.4.0"

__all__ = [
    "AqpResult",
    "AqpEstimate",
    "PairwiseHistEngine",
    "PairwiseHistParams",
    "PairwiseHist",
    "PartitionInput",
    "build_pairwise_hist",
    "build_partition_synopses",
    "build_partitioned_hist",
    "serialize",
    "deserialize",
    "serialize_partitioned",
    "deserialize_partitioned",
    "synopsis_size_bytes",
    "Table",
    "ColumnSchema",
    "ColumnType",
    "TableSchema",
    "available_datasets",
    "load_dataset",
    "IdeBenchScaler",
    "scale_dataset",
    "CompressedStore",
    "PartitionedStore",
    "Preprocessor",
    "ExactQueryEngine",
    "AsyncQueryService",
    "ConcurrentQueryService",
    "Database",
    "IngestResult",
    "ManagedTable",
    "OverloadedError",
    "PipelinedClient",
    "QueryServer",
    "QueryService",
    "ReadWriteLock",
    "ClusterQueryService",
    "ShardRouter",
    "ShardSupervisor",
    "AccuracyAuditor",
    "WorkloadLog",
    "BackgroundCheckpointer",
    "DurableDatabase",
    "WriteAheadLog",
    "parse_query",
    "AggregateFunction",
    "Query",
    "__version__",
]
