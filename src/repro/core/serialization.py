"""Compact binary storage encoding of a PairwiseHist synopsis (§4.3, Fig. 6).

Only the information that cannot be re-derived is persisted: construction
parameters, bin edges, per-bin extrema and unique counts, and the bin
counts.  Bin midpoints, weighted-centre bounds, parent maps and marginal
counts are recomputed at load time.  2-d bin-count matrices are stored
either densely (fixed ``l_h`` bits per count) or sparsely (Golomb-coded
index gaps + counts), whichever is smaller — exactly the choice shown in
Fig. 6.

Count block layout (every 1-d and 2-d count matrix, row-major):

* header ``<BBII``: ``width`` (``l_h``), flag (0 dense, 1 sparse, 2 raw
  float64 — ``PWHX`` only, ``width`` 0), number of non-zero cells, payload
  byte length;
* dense payload: each cell's count as a ``width``-bit big-endian field;
* sparse payload: a 6-bit big-endian Rice parameter ``k``, then one record
  per non-zero cell in order — its gap ``g`` (cells skipped since the
  previous non-zero, or since the start) as ``g >> k`` one bits, a zero
  bit, the low ``k`` bits of ``g``, then the count in ``width`` bits;
* raw payload: every cell as ``<f8``.

Bit payloads are zero-padded to a whole byte, most significant bit first.
The sparse form is chosen only when its byte length is strictly smaller.
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
from .centre_bounds import weighted_centre_bounds
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


def _pack_array(values: np.ndarray, dtype: str) -> bytes:
    values = np.asarray(values, dtype=dtype)
    return struct.pack("<I", len(values)) + values.tobytes()


def _unpack_array(buffer: memoryview, offset: int, dtype: str) -> tuple[np.ndarray, int]:
    (count,) = struct.unpack_from("<I", buffer, offset)
    offset += 4
    values = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
    return values.astype(float), offset + values.nbytes


# 2-byte-length string framing, shared with every other binary format
# (storage.codec is the single framing source of truth).
_pack_string = pack_short_string
_unpack_string = unpack_short_string


def _count_bit_width(counts: np.ndarray) -> int:
    """``l_h`` — bits per bin count (Eq. 13)."""
    maximum = int(counts.max()) if counts.size else 0
    return max(1, int(np.ceil(np.log2(1 + maximum))) if maximum > 0 else 1)


def _rice_parameter(gaps: np.ndarray) -> int:
    """Rice parameter ``k`` (divisor ``2^k``) of the sparse form's gaps:
    ``log2(mean + 1)`` rounded and clamped to ``[0, 30]``; ``0`` for none."""
    if len(gaps) == 0:
        return 0
    mean = max(np.mean(gaps, dtype=float), 0.01)
    return int(np.clip(np.round(np.log2(mean + 1.0)), 0, 30))


def _field_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Big-endian bits of each value in a ``width``-bit field, one row per value."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((np.asarray(values, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.uint8)


def _field_values(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_field_bits`: one value per row of big-endian bits."""
    shifts = np.arange(bits.shape[1] - 1, -1, -1, dtype=np.int64)
    return (bits.astype(np.int64) << shifts).sum(axis=1, dtype=np.int64)


def _pack_counts_sparse(
    values: np.ndarray, gaps: np.ndarray, k: int, width: int
) -> bytes:
    """Sparse block bits: ``k``, then one Rice-coded gap + count per non-zero."""
    quotients = gaps >> k
    lengths = quotients + (1 + k + width)
    starts = 6 + np.cumsum(lengths) - lengths
    bits = np.zeros(6 + int(lengths.sum()), dtype=np.uint8)
    bits[:6] = _field_bits([k], 6)[0]
    # The unary run of record i fills starts[i] .. starts[i] + q[i] - 1.
    run_offsets = np.repeat(starts - (np.cumsum(quotients) - quotients), quotients)
    bits[np.arange(int(quotients.sum())) + run_offsets] = 1
    fields = np.hstack([_field_bits(gaps & ((1 << k) - 1), k), _field_bits(values, width)])
    bits[(starts + quotients + 1)[:, None] + np.arange(k + width)] = fields
    return np.packbits(bits).tobytes()


def _unpack_counts_dense(payload: memoryview, shape: tuple[int, ...], width: int) -> np.ndarray:
    total = int(np.prod(shape))
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    if len(bits) < total * width:
        raise ValueError("dense count block is shorter than its cells")
    fields = bits[: total * width].reshape(total, width)
    return _field_values(fields).astype(float).reshape(shape)


def _unpack_counts_sparse(
    payload: memoryview, shape: tuple[int, ...], width: int, non_zero: int
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
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    k = int(_field_values(bits[None, :6])[0])
    flat = np.zeros(int(np.prod(shape)))
    if non_zero == 0:
        return flat.reshape(shape)
    fixed = k + width
    end = len(bits)
    if non_zero * (1 + fixed) > end - 6:
        raise ValueError("sparse count block is shorter than its records")
    zeros = np.flatnonzero(bits == 0)
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
    position = 6
    for i in range(non_zero):
        if position >= end:
            raise ValueError("sparse count block ends mid-record")
        if use_table:
            terminator = next_zero[position]
        else:
            terminator = int(bounded[np.searchsorted(zeros, position, side="left")])
        if terminator >= end:
            raise ValueError("sparse count block ends mid-record")
        terminators[i] = terminator
        quotients[i] = terminator - position
        position = terminator + 1 + fixed
    if position > end:
        raise ValueError("sparse count block ends mid-record")
    fields = bits[terminators[:, None] + 1 + np.arange(fixed)]
    gaps = (quotients << k) | _field_values(fields[:, :k])
    cells = np.cumsum(gaps + 1) - 1
    if cells[-1] >= flat.size:
        raise ValueError("sparse count block indexes past its cells")
    flat[cells] = _field_values(fields[:, k:])
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

    Both sizes follow from the gaps alone, so only the smaller form is
    packed.  ``force_dense=True`` disables the sparse (Golomb) path; it
    exists for the storage-encoding ablation benchmark.
    """
    rounded = np.rint(counts)
    if exact and not np.array_equal(rounded, counts):
        payload = np.ascontiguousarray(counts, dtype="<f8").tobytes()
        non_zero = int(np.count_nonzero(counts))
        return struct.pack("<BBII", 0, _COUNTS_RAW, non_zero, len(payload)) + payload
    if rounded.size and rounded.min() < 0:
        raise ValueError("bin counts must be non-negative")
    flat = rounded.ravel().astype(np.int64)
    width = _count_bit_width(flat)
    indices = np.flatnonzero(flat)
    gaps = np.diff(indices, prepend=-1) - 1
    k = _rice_parameter(gaps)
    sparse_bits = 6 + int((gaps >> k).sum()) + len(indices) * (1 + k + width)
    if force_dense or (sparse_bits + 7) // 8 >= (flat.size * width + 7) // 8:
        flag, payload = 0, np.packbits(_field_bits(flat, width)).tobytes()
    else:
        flag, payload = 1, _pack_counts_sparse(flat[indices], gaps, k, width)
    return struct.pack("<BBII", width, flag, len(indices), len(payload)) + payload


def _decode_counts(buffer: memoryview, offset: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    width, flag, non_zero, length = struct.unpack_from("<BBII", buffer, offset)
    offset += 10
    payload = buffer[offset : offset + length]
    if len(payload) != length:
        raise ValueError("count block is truncated")
    if flag == _COUNTS_RAW:
        counts = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    elif flag == 1:
        counts = _unpack_counts_sparse(payload, shape, width, non_zero)
    elif flag == 0:
        counts = _unpack_counts_dense(payload, shape, width)
    else:
        raise ValueError(f"unknown count block flag {flag}")
    return counts, offset + length


# --------------------------------------------------------------------------- #
# Histogram blocks


def _encode_hist1d(
    hist: Histogram1D, force_dense: bool = False, exact: bool = False
) -> bytes:
    parts = [
        _pack_string(hist.column),
        _pack_array(hist.edges, "<f8"),
        _pack_array(hist.v_minus, "<f8"),
        _pack_array(hist.v_plus, "<f8"),
        # Merged histograms carry fractional unique counts (projection);
        # the exact variant must not truncate them to integers.
        _pack_array(hist.unique, "<f8")
        if exact
        else _pack_array(hist.unique, "<u4"),
        _encode_counts(hist.counts, force_dense, exact),
    ]
    return b"".join(parts)


def _decode_hist1d(
    buffer: memoryview, offset: int, params: PairwiseHistParams, exact: bool = False
) -> tuple[Histogram1D, int]:
    column, offset = _unpack_string(buffer, offset)
    edges, offset = _unpack_array(buffer, offset, "<f8")
    v_minus, offset = _unpack_array(buffer, offset, "<f8")
    v_plus, offset = _unpack_array(buffer, offset, "<f8")
    unique, offset = _unpack_array(buffer, offset, "<f8" if exact else "<u4")
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
        _pack_array(axis.edges, "<f8"),
        _pack_array(axis.v_minus, "<f8"),
        _pack_array(axis.v_plus, "<f8"),
        _pack_array(axis.unique, "<f8")
        if exact
        else _pack_array(axis.unique, "<u4"),
    ]
    return b"".join(parts)


def _decode_axis(
    buffer: memoryview, offset: int, parent_hist: Histogram1D, exact: bool = False
) -> tuple[AxisMetadata, int]:
    column, offset = _unpack_string(buffer, offset)
    edges, offset = _unpack_array(buffer, offset, "<f8")
    v_minus, offset = _unpack_array(buffer, offset, "<f8")
    v_plus, offset = _unpack_array(buffer, offset, "<f8")
    unique, offset = _unpack_array(buffer, offset, "<f8" if exact else "<u4")
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
