"""Compact binary storage encoding of a PairwiseHist synopsis (§4.3, Fig. 6).

Only the information that cannot be re-derived is persisted: construction
parameters, bin edges, per-bin extrema and unique counts, and the bin
counts.  Bin midpoints, weighted-centre bounds, parent maps and marginal
counts are recomputed at load time.  2-d bin-count matrices are stored
either densely (fixed ``l_h`` bits per count) or sparsely (Golomb-coded
index gaps + counts), whichever is smaller — exactly the choice shown in
Fig. 6.
"""

from __future__ import annotations

import struct

import numpy as np

from ..storage.codec import (
    frame_blobs,
    pack_short_string,
    unframe_blobs,
    unpack_short_string,
)
from ..util.bitstream import BitReader, BitWriter
from .centre_bounds import weighted_centre_bounds
from .golomb import encode_value, rice_parameter
from .histogram1d import Histogram1D, bin_indices
from .histogram2d import AxisMetadata, Histogram2D
from .params import PairwiseHistParams
from .synopsis import PairwiseHist

_MAGIC = b"PWH1"

#: Exact-variant magic: counts and unique arrays kept as float64 so a
#: *merged* synopsis — whose projected counts are fractional — round-trips
#: bit-exactly.  Used by snapshot checkpoints to persist the queryable
#: merged accelerator; the per-partition payloads stay in the compact
#: Fig. 6 integer format.
_EXACT_MAGIC = b"PWHX"

#: Counts-block flag for raw float64 storage (exact variant only; the
#: Fig. 6 flags are 0 = dense, 1 = sparse Golomb).
_COUNTS_RAW = 2


# --------------------------------------------------------------------------- #
# Low-level helpers


def _pack_array(values: np.ndarray, fmt: str) -> bytes:
    values = np.asarray(values)
    return struct.pack(f"<I{len(values)}{fmt}", len(values), *values.tolist())


def _unpack_array(buffer: memoryview, offset: int, fmt: str, dtype) -> tuple[np.ndarray, int]:
    (count,) = struct.unpack_from("<I", buffer, offset)
    offset += 4
    size = struct.calcsize(f"<{count}{fmt}")
    values = np.array(struct.unpack_from(f"<{count}{fmt}", buffer, offset), dtype=dtype)
    return values, offset + size


# 2-byte-length string framing, shared with every other binary format
# (storage.codec is the single framing source of truth).
_pack_string = pack_short_string
_unpack_string = unpack_short_string


def _count_bit_width(counts: np.ndarray) -> int:
    """``l_h`` — bits per bin count (Eq. 13)."""
    maximum = int(counts.max()) if counts.size else 0
    return max(1, int(np.ceil(np.log2(1 + maximum))) if maximum > 0 else 1)


def _pack_counts_dense(counts: np.ndarray, width: int) -> bytes:
    writer = BitWriter()
    writer.write_bits_array(counts.ravel().astype(np.int64), width)
    return writer.getvalue()


def _pack_counts_sparse(counts: np.ndarray, width: int) -> bytes:
    flat = counts.ravel()
    indices = np.flatnonzero(flat)
    gaps = np.diff(np.concatenate([[0], indices + 1])) - 1 if indices.size else np.array([], dtype=int)
    k = rice_parameter(gaps)
    writer = BitWriter()
    writer.write_bits(k, 6)
    for gap, index in zip(gaps, indices):
        encode_value(writer, int(gap), k)
        writer.write_bits(int(flat[index]), width)
    return writer.getvalue()


def _unpack_counts_dense(payload: bytes, shape: tuple[int, ...], width: int) -> np.ndarray:
    reader = BitReader(payload)
    total = int(np.prod(shape))
    values = reader.read_bits_array(total, width).astype(float)
    return values.reshape(shape)


def _unpack_counts_sparse(
    payload: bytes, shape: tuple[int, ...], width: int, non_zero: int
) -> np.ndarray:
    """Decode a sparse (Golomb-gap) count block, mostly vectorized.

    The stream interleaves variable-length Rice codes with fixed-width
    count fields, so full vectorization is impossible — but the expensive
    parts are: unary terminators come from one precomputed zero-position
    index (binary search per record instead of window scans), and every
    remainder / count field is gathered and bit-shifted in two batched
    numpy operations at the end.  This is the warm-restart hot path: a
    snapshot load decodes one such block per pairwise histogram per
    partition.
    """
    reader = BitReader(payload)
    k = reader.read_bits(6)
    flat = np.zeros(int(np.prod(shape)))
    if non_zero == 0:
        return flat.reshape(shape)
    bits = reader._bits
    zeros = np.flatnonzero(bits == 0)
    fixed = k + width
    end = len(bits)
    bounded = np.append(zeros, end)
    # next_zero[p] = position of the first zero bit at or after p (sentinel
    # ``end`` past the last zero), so the record walk below is plain
    # integer arithmetic on a Python list.  The per-bit table is only
    # worth (and bounded in) memory when the payload is small relative to
    # the record count; for sparse-record/large-payload blocks fall back
    # to one binary search per record.
    use_table = end <= max(4096, 64 * non_zero)
    if use_table:
        next_zero = bounded[
            np.searchsorted(zeros, np.arange(end), side="left")
        ].tolist()
    terminators = np.empty(non_zero, dtype=np.int64)
    quotients = np.empty(non_zero, dtype=np.int64)
    position = reader.position
    for i in range(non_zero):
        if position >= end:
            raise EOFError("bit stream exhausted")
        if use_table:
            terminator = next_zero[position]
        else:
            terminator = int(bounded[np.searchsorted(zeros, position, side="left")])
        if terminator >= end:
            raise EOFError("bit stream exhausted")
        terminators[i] = terminator
        quotients[i] = terminator - position
        position = terminator + 1 + fixed
    if position > end:
        raise EOFError("bit stream exhausted")
    remainders = np.zeros(non_zero, dtype=np.int64)
    if fixed:
        field_index = terminators[:, None] + 1 + np.arange(fixed)
        fields = bits[field_index].astype(np.int64)
        if k:
            shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
            remainders = (fields[:, :k] << shifts).sum(axis=1)
        shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
        counts = (fields[:, k:] << shifts).sum(axis=1)
    else:
        counts = np.zeros(non_zero, dtype=np.int64)
    gaps = (quotients << k) | remainders
    flat[np.cumsum(gaps + 1) - 1] = counts
    return flat.reshape(shape)


def _encode_counts(
    counts: np.ndarray, force_dense: bool = False, exact: bool = False
) -> bytes:
    """Dense-or-sparse bin-count block, whichever is smaller (Fig. 6, right).

    Counts are stored as integers; merged (partitioned) synopses carry
    fractional counts from the projection step, so they are rounded — not
    truncated — here, keeping the encoding unbiased.  With ``exact=True``
    fractional counts are stored as raw float64 instead (flag 2), so the
    block round-trips bit-exactly; integral counts still take the compact
    integer path, which is already lossless for them.

    ``force_dense=True`` disables the sparse (Golomb) path; it exists for the
    storage-encoding ablation benchmark.
    """
    rounded = np.rint(counts)
    if exact and not np.array_equal(rounded, counts):
        payload = np.ascontiguousarray(counts, dtype="<f8").tobytes()
        header = struct.pack("<BBI", 0, _COUNTS_RAW, int(np.count_nonzero(counts)))
        return header + struct.pack("<I", len(payload)) + payload
    counts = rounded
    width = _count_bit_width(counts)
    dense = _pack_counts_dense(counts, width)
    sparse = _pack_counts_sparse(counts, width)
    non_zero = int(np.count_nonzero(counts))
    if len(sparse) < len(dense) and not force_dense:
        header = struct.pack("<BBI", width, 1, non_zero)
        payload = sparse
    else:
        header = struct.pack("<BBI", width, 0, non_zero)
        payload = dense
    return header + struct.pack("<I", len(payload)) + payload


def _decode_counts(buffer: memoryview, offset: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    width, sparse_flag, non_zero = struct.unpack_from("<BBI", buffer, offset)
    offset += 6
    (length,) = struct.unpack_from("<I", buffer, offset)
    offset += 4
    payload = bytes(buffer[offset : offset + length])
    offset += length
    if sparse_flag == _COUNTS_RAW:
        counts = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    elif sparse_flag:
        counts = _unpack_counts_sparse(payload, shape, width, non_zero)
    else:
        counts = _unpack_counts_dense(payload, shape, width)
    return counts, offset


# --------------------------------------------------------------------------- #
# Histogram blocks


def _encode_hist1d(
    hist: Histogram1D, force_dense: bool = False, exact: bool = False
) -> bytes:
    parts = [
        _pack_string(hist.column),
        _pack_array(hist.edges, "d"),
        _pack_array(hist.v_minus, "d"),
        _pack_array(hist.v_plus, "d"),
        # Merged histograms carry fractional unique counts (projection);
        # the exact variant must not truncate them to integers.
        _pack_array(hist.unique, "d")
        if exact
        else _pack_array(hist.unique.astype(np.uint32), "I"),
        _encode_counts(hist.counts, force_dense, exact),
    ]
    return b"".join(parts)


def _decode_hist1d(
    buffer: memoryview, offset: int, params: PairwiseHistParams, exact: bool = False
) -> tuple[Histogram1D, int]:
    column, offset = _unpack_string(buffer, offset)
    edges, offset = _unpack_array(buffer, offset, "d", float)
    v_minus, offset = _unpack_array(buffer, offset, "d", float)
    v_plus, offset = _unpack_array(buffer, offset, "d", float)
    unique, offset = _unpack_array(buffer, offset, "d" if exact else "I", float)
    counts, offset = _decode_counts(buffer, offset, (len(edges) - 1,))
    hist = Histogram1D(
        column=column,
        edges=edges,
        counts=counts,
        v_minus=v_minus,
        v_plus=v_plus,
        unique=unique,
    )
    hist.centre_lower, hist.centre_upper = weighted_centre_bounds(
        hist.counts, hist.v_minus, hist.v_plus, hist.unique,
        params.min_points, params.alpha, params.min_spacing,
    )
    return hist, offset


def _encode_axis(axis: AxisMetadata, exact: bool = False) -> bytes:
    parts = [
        _pack_string(axis.column),
        _pack_array(axis.edges, "d"),
        _pack_array(axis.v_minus, "d"),
        _pack_array(axis.v_plus, "d"),
        _pack_array(axis.unique, "d")
        if exact
        else _pack_array(axis.unique.astype(np.uint32), "I"),
    ]
    return b"".join(parts)


def _decode_axis(
    buffer: memoryview, offset: int, parent_hist: Histogram1D, exact: bool = False
) -> tuple[AxisMetadata, int]:
    column, offset = _unpack_string(buffer, offset)
    edges, offset = _unpack_array(buffer, offset, "d", float)
    v_minus, offset = _unpack_array(buffer, offset, "d", float)
    v_plus, offset = _unpack_array(buffer, offset, "d", float)
    unique, offset = _unpack_array(buffer, offset, "d" if exact else "I", float)
    midpoints = (edges[:-1] + edges[1:]) / 2.0
    parent = bin_indices(parent_hist.edges, midpoints)
    axis = AxisMetadata(
        column=column,
        edges=edges,
        v_minus=v_minus,
        v_plus=v_plus,
        unique=unique,
        marginal_counts=np.zeros(len(edges) - 1),
        parent=parent,
    )
    return axis, offset


# --------------------------------------------------------------------------- #
# Public API


def serialize(
    synopsis: PairwiseHist, force_dense: bool = False, exact: bool = False
) -> bytes:
    """Encode a synopsis to bytes (the "Overall Storage Configuration" of Fig. 6).

    ``force_dense=True`` stores every bin-count matrix densely instead of
    letting the encoder pick dense vs sparse per histogram (ablation only).

    ``exact=True`` selects the float-preserving variant (magic ``PWHX``):
    fractional counts and unique arrays — which only *merged* synopses
    carry — survive the round trip bit-exactly instead of being rounded.
    Snapshot checkpoints use it to persist the merged query accelerator so
    a warm restart skips re-merging every partition.
    """
    params = synopsis.params
    parts: list[bytes] = [_EXACT_MAGIC if exact else _MAGIC]
    parts.append(
        struct.pack(
            "<QQIdIH",
            synopsis.population_rows,
            synopsis.sample_rows,
            params.min_points,
            params.alpha,
            params.seed,
            synopsis.num_columns,
        )
    )
    for column in synopsis.columns:
        parts.append(_pack_string(column))
    for column in synopsis.columns:
        parts.append(_encode_hist1d(synopsis.hist1d[column], force_dense, exact))
    parts.append(struct.pack("<I", len(synopsis.hist2d)))
    for (col_a, col_b), hist in synopsis.hist2d.items():
        parts.append(_pack_string(col_a))
        parts.append(_pack_string(col_b))
        parts.append(_encode_axis(hist.row, exact))
        parts.append(_encode_axis(hist.col, exact))
        parts.append(_encode_counts(hist.counts, force_dense, exact))
    return b"".join(parts)


def deserialize(payload: bytes) -> PairwiseHist:
    """Decode bytes produced by :func:`serialize` back into a synopsis."""
    buffer = memoryview(payload)
    magic = bytes(buffer[:4])
    if magic not in (_MAGIC, _EXACT_MAGIC):
        raise ValueError("not a PairwiseHist payload (bad magic)")
    exact = magic == _EXACT_MAGIC
    offset = 4
    population, sample, min_points, alpha, seed, num_columns = struct.unpack_from(
        "<QQIdIH", buffer, offset
    )
    offset += struct.calcsize("<QQIdIH")
    params = PairwiseHistParams(
        sample_size=int(sample), min_points=int(min_points), alpha=float(alpha), seed=int(seed)
    )
    columns: list[str] = []
    for _ in range(num_columns):
        column, offset = _unpack_string(buffer, offset)
        columns.append(column)
    synopsis = PairwiseHist(
        params=params,
        columns=columns,
        population_rows=int(population),
        sample_rows=int(sample),
    )
    for _ in range(num_columns):
        hist, offset = _decode_hist1d(buffer, offset, params, exact)
        synopsis.hist1d[hist.column] = hist
    (num_pairs,) = struct.unpack_from("<I", buffer, offset)
    offset += 4
    for _ in range(num_pairs):
        col_a, offset = _unpack_string(buffer, offset)
        col_b, offset = _unpack_string(buffer, offset)
        row_axis, offset = _decode_axis(buffer, offset, synopsis.hist1d[col_a], exact)
        col_axis, offset = _decode_axis(buffer, offset, synopsis.hist1d[col_b], exact)
        counts, offset = _decode_counts(buffer, offset, (row_axis.num_bins, col_axis.num_bins))
        row_axis.marginal_counts = counts.sum(axis=1)
        col_axis.marginal_counts = counts.sum(axis=0)
        synopsis.hist2d[(col_a, col_b)] = Histogram2D(row=row_axis, col=col_axis, counts=counts)
    return synopsis


def synopsis_size_bytes(synopsis: PairwiseHist, force_dense: bool = False) -> int:
    """Size of the serialized synopsis in bytes (the Fig. 8 / Fig. 11 metric)."""
    return len(serialize(synopsis, force_dense))


# --------------------------------------------------------------------------- #
# Construction parameters (full fidelity — the catalog needs every knob)

_PARAMS_SENTINEL = -1


def serialize_params(params: PairwiseHistParams) -> bytes:
    """Encode construction parameters losslessly (unlike the synopsis header,
    which persists only the fields needed to recompute centre bounds).

    The eighth slot once held a merged-grid cell budget; it is always
    written as the sentinel and ignored on read."""
    return struct.pack(
        "<qqddqqqq",
        _PARAMS_SENTINEL if params.sample_size is None else params.sample_size,
        params.min_points,
        params.alpha,
        params.min_spacing,
        _PARAMS_SENTINEL if params.max_initial_bins is None else params.max_initial_bins,
        params.max_refine_depth,
        params.seed,
        _PARAMS_SENTINEL,
    )


def deserialize_params(buffer, offset: int = 0) -> tuple[PairwiseHistParams, int]:
    """Decode bytes produced by :func:`serialize_params`; returns the params
    and the offset just past them."""
    fmt = "<qqddqqqq"
    sample, min_points, alpha, min_spacing, max_bins, depth, seed, _ = (
        struct.unpack_from(fmt, buffer, offset)
    )
    params = PairwiseHistParams(
        sample_size=None if sample == _PARAMS_SENTINEL else int(sample),
        min_points=int(min_points),
        alpha=float(alpha),
        min_spacing=float(min_spacing),
        max_initial_bins=None if max_bins == _PARAMS_SENTINEL else int(max_bins),
        max_refine_depth=int(depth),
        seed=int(seed),
    )
    return params, offset + struct.calcsize(fmt)


# --------------------------------------------------------------------------- #
# Catalog / manifest framing (snapshot checkpoints)

_CATALOG_MAGIC = b"PWHC"
_MANIFEST_MAGIC = b"PWHM"


def serialize_catalog(entries: list[bytes]) -> bytes:
    """Frame per-table catalog blobs into one snapshot CATALOG payload."""
    return _CATALOG_MAGIC + frame_blobs(entries)


def deserialize_catalog(payload: bytes) -> list[bytes]:
    """Decode bytes produced by :func:`serialize_catalog`."""
    buffer = memoryview(payload)
    if bytes(buffer[:4]) != _CATALOG_MAGIC:
        raise ValueError("not a catalog payload (bad magic)")
    entries, _ = unframe_blobs(buffer, 4)
    return entries


def serialize_manifest(checkpoint_lsn: int, files: list[tuple[str, int, int]]) -> bytes:
    """Frame a snapshot manifest: checkpoint LSN + (name, size, crc32) per file.

    The manifest is written last inside the snapshot's temp directory, so
    its presence (plus every listed file matching its recorded size and
    checksum) is what makes a snapshot *valid* to the recovery path.
    """
    parts = [_MANIFEST_MAGIC, struct.pack("<QI", checkpoint_lsn, len(files))]
    for name, size, crc in files:
        parts.append(_pack_string(name))
        parts.append(struct.pack("<QI", size, crc))
    return b"".join(parts)


def deserialize_manifest(payload: bytes) -> tuple[int, list[tuple[str, int, int]]]:
    """Decode bytes produced by :func:`serialize_manifest`."""
    buffer = memoryview(payload)
    if bytes(buffer[:4]) != _MANIFEST_MAGIC:
        raise ValueError("not a manifest payload (bad magic)")
    checkpoint_lsn, count = struct.unpack_from("<QI", buffer, 4)
    offset = 4 + struct.calcsize("<QI")
    files: list[tuple[str, int, int]] = []
    for _ in range(count):
        name, offset = _unpack_string(buffer, offset)
        size, crc = struct.unpack_from("<QI", buffer, offset)
        offset += struct.calcsize("<QI")
        files.append((name, int(size), int(crc)))
    return int(checkpoint_lsn), files


# --------------------------------------------------------------------------- #
# Partitioned synopses

_PARTITIONED_MAGIC = b"PWHP"


def serialize_partitioned(
    synopses: list[PairwiseHist], force_dense: bool = False, cache: bool = False
) -> bytes:
    """Encode a sequence of per-partition synopses as one framed payload.

    Each partition keeps its own independent :func:`serialize` blob so a
    single partition can be replaced after an incremental append without
    re-encoding the others.  The merged, queryable synopsis is stored
    beside it (a snapshot's ``.merged`` file) and loaded as is, not
    re-merged from the parts.

    ``cache=True`` memoizes each synopsis's serialized blob on the object
    (published synopses are immutable — an ingest replaces the object).
    Incremental checkpoints pass it so the per-table synopsis payload
    costs one encode per *changed* partition, not per partition.
    """
    if isinstance(synopses, LazyPartitionSynopses) and not synopses.hydrated:
        # Never-decoded synopses round-trip as their original payload —
        # the encode is skipped entirely, byte-identity is trivial.
        return synopses.payload
    if not cache:
        parts = [serialize(synopsis, force_dense) for synopsis in synopses]
    else:
        parts = []
        for synopsis in synopses:
            cached = getattr(synopsis, "_pwhp_blob", None)
            if cached is None or cached[0] != force_dense:
                cached = (force_dense, serialize(synopsis, force_dense))
                synopsis._pwhp_blob = cached
            parts.append(cached[1])
    return _PARTITIONED_MAGIC + frame_blobs(parts)


def deserialize_partitioned(payload: bytes) -> list[PairwiseHist]:
    """Decode bytes produced by :func:`serialize_partitioned`."""
    buffer = memoryview(payload)
    if bytes(buffer[:4]) != _PARTITIONED_MAGIC:
        raise ValueError("not a partitioned PairwiseHist payload (bad magic)")
    blobs, _ = unframe_blobs(buffer, 4)
    return [deserialize(blob) for blob in blobs]


class LazyPartitionSynopses:
    """A partitioned (``PWHP``) payload that decodes on first real use.

    Snapshot loading hands these to the recovered tables instead of eagerly
    deserializing every per-partition synopsis: queries only need the
    *merged* synopsis (persisted separately in the exact ``PWHX`` form), so
    a query-only restart never pays the per-partition decode.  The first
    ingest touch — or anything else that iterates / indexes the sequence —
    hydrates it once, under a lock so concurrent readers see one decode.

    :func:`serialize_partitioned` short-circuits an unhydrated instance to
    its original payload, so checkpointing a recovered-but-untouched table
    re-writes the identical bytes without a decode/encode round trip.
    """

    def __init__(self, payload: bytes) -> None:
        buffer = memoryview(payload)
        if bytes(buffer[:4]) != _PARTITIONED_MAGIC:
            raise ValueError("not a partitioned PairwiseHist payload (bad magic)")
        self.payload = bytes(payload)
        (self._count,) = struct.unpack_from("<I", buffer, 4)
        self._items: list[PairwiseHist] | None = None
        import threading

        self._lock = threading.Lock()

    @property
    def hydrated(self) -> bool:
        return self._items is not None

    def _hydrate(self) -> list[PairwiseHist]:
        with self._lock:
            if self._items is None:
                self._items = deserialize_partitioned(self.payload)
            return self._items

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self._hydrate())

    def __getitem__(self, index):
        return self._hydrate()[index]
