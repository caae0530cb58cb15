"""GEMM tile address generation and warp-level coalescing, per workload.

For each CTA main-loop iteration the GEMM kernel loads one ``blkM x blkK``
A-operand tile and one ``blkN x blkK`` B-operand tile from global memory.
:class:`GemmTraceGenerator` produces, for a given CTA coordinate and K offset
of any training-pass workload (forward, dgrad or wgrad), the byte addresses of
those tiles (implicitly, without ever materializing the replicated im2col
matrix), the number of L1 requests the warps issue after coalescing, and the
set of memory sectors the tile touches.  The three passes differ only in how
GEMM coordinates map to tensor addresses:

* **forward** — A is the im2col IFmap matrix (M rows are output positions, K
  columns are filter offsets), B is the KCRS filter matrix.
* **dgrad** — A is the output-gradient matrix ``dO`` (M rows are output
  positions, K columns are output channels), B is the transposed filter.
* **wgrad** — A is ``dO^T`` (M rows are output channels, K columns are output
  positions), B is the im2col IFmap matrix entered on the N side (N columns
  are filter offsets, K rows are output positions).

Every mapping decomposes into a sum of a pure own-axis part and a pure K-axis
part, so tile addresses are built with one outer add over small per-axis
coordinate vectors — the property the batched fast path exploits.

Thread-to-data mapping follows Section IV-A of the paper:

* A tiles are loaded column by column; each warp of 32 threads loads 32
  consecutive rows of one column, and the loads coalesce into L1 requests of
  ``gpu.l1_request_bytes``.
* B tiles are loaded with ``32 / blkK`` columns per warp (each thread loads
  one element), so each warp gathers several distant ``blkK``-element
  segments.

:class:`Im2colTraceGenerator` is the forward-pass view with the paper's
IFmap/filter vocabulary; it accepts a :class:`ConvLayerConfig` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.layer import ConvLayerConfig, LayerConfig
from ..core.tiling import CtaTile
from ..core.workload import GemmWorkload, as_workload
from ..gpu.spec import GpuSpec, WARP_SIZE
from .address import INVALID_ADDRESS, WorkloadLayout


@dataclass(frozen=True)
class TileAccess:
    """Memory accesses of one input tile during one main-loop iteration."""

    #: number of coalesced L1 requests issued by the warps (one per distinct
    #: ``gpu.l1_request_bytes`` block touched by a warp).
    l1_requests: int
    #: number of distinct 32-byte sectors touched per warp request, summed
    #: over all warps (what a sectored memory system actually fetches).
    l1_sectors: int
    #: unique sector addresses (sector index, not bytes) touched by the tile.
    sectors: np.ndarray
    #: number of elements actually loaded (excludes predicated-off padding).
    elements: int

    @property
    def unique_sector_count(self) -> int:
        return int(self.sectors.size)

    def fetch_bytes(self, accounting: str, request_bytes: int,
                    sector_bytes: int) -> float:
        """L1 traffic of this tile under the chosen accounting granularity."""
        if accounting == "request":
            return float(self.l1_requests * request_bytes)
        if accounting == "sector":
            return float(self.l1_sectors * sector_bytes)
        raise ValueError(f"unknown L1 accounting mode {accounting!r}")


def _sorted_unique(values: np.ndarray, kind: Optional[str] = None
                   ) -> np.ndarray:
    """Sorted unique values via an explicit sort (faster than np.unique's
    hash-based integer path for these small, heavily repeated key arrays).
    ``kind="stable"`` suits nearly sorted input."""
    if values.size == 0:
        return values.astype(np.int64, copy=True)
    ordered = np.sort(values, kind=kind)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _in_range(values: np.ndarray, bound: int) -> np.ndarray:
    """``0 <= values < bound`` in one comparison (negatives wrap to huge
    unsigned values)."""
    return values.view(values.dtype.str.replace("i", "u")) < bound


def _count_grouped_blocks(addresses: np.ndarray, group_ids: np.ndarray,
                          block_bytes: int) -> int:
    """Count unique (warp group, aligned block) pairs among valid accesses."""
    valid = addresses != INVALID_ADDRESS
    if not np.any(valid):
        return 0
    block_addr = addresses[valid] // block_bytes
    groups = group_ids[valid].astype(np.int64)
    # Pack (group, block) into one key; block addresses fit well below 2**40.
    keys = groups * (1 << 40) + block_addr
    return int(np.unique(keys).size)


def _unique_sectors(addresses: np.ndarray, sector_bytes: int) -> np.ndarray:
    valid = addresses != INVALID_ADDRESS
    if not np.any(valid):
        return np.empty(0, dtype=np.int64)
    return np.unique(addresses[valid] // sector_bytes)


#: per-axis address decomposition of one operand: byte offsets relative to
#: the operand's base, optional feature-map (row, col) parts for the
#: padding-predication bounds check, and the in-range mask.
AxisParts = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray],
                  np.ndarray]


@dataclass(frozen=True)
class GemmTraceGenerator:
    """Generates the memory accesses of one blocked GEMM workload."""

    workload: GemmWorkload
    tile: CtaTile
    gpu: GpuSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "_layout",
                           WorkloadLayout(self.workload, self.gpu.line_bytes))

    @property
    def layout(self) -> WorkloadLayout:
        return self._layout

    @property
    def layer(self) -> LayerConfig:
        return self.workload.layer

    # ------------------------------------------------------------------
    # GEMM coordinate helpers
    # ------------------------------------------------------------------
    def _position_to_image_coords(self, values: np.ndarray
                                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map output-position indices to (batch, output row, output col)."""
        layer = self.layer
        per_image = layer.out_height * layer.out_width
        batch = values // per_image
        rem = values % per_image
        out_row = rem // layer.out_width
        out_col = rem % layer.out_width
        return batch, out_row, out_col

    def _offset_to_filter_coords(self, values: np.ndarray
                                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map filter-offset indices to (input channel, filter row, col)."""
        layer = self.layer
        per_channel = layer.filter_height * layer.filter_width
        channel = values // per_channel
        rem = values % per_channel
        f_row = rem // layer.filter_width
        f_col = rem % layer.filter_width
        return channel, f_row, f_col

    # ------------------------------------------------------------------
    # Per-axis address parts (byte offsets relative to the operand base)
    # ------------------------------------------------------------------
    def _coord_dtype(self):
        # int32 only when the own-part + K-part sum cannot overflow; int32
        # sorts are ~2x faster than int64 ones downstream.
        return (np.int32 if self.layout.total_bytes
                < np.iinfo(np.int32).max // 2 else np.int64)

    def _im2col_position_parts(self, values: np.ndarray, extent: int,
                               channels: int) -> AxisParts:
        """Output-position axis of an im2col operand (forward A rows)."""
        layer = self.layer
        dtype = self._coord_dtype()
        ok = values < extent
        clamped = np.minimum(values, extent - 1)
        batch, out_row, out_col = self._position_to_image_coords(clamped)
        row = (out_row * layer.stride - layer.padding).astype(dtype)
        col = (out_col * layer.stride - layer.padding).astype(dtype)
        plane = layer.in_height * layer.in_width
        base = ((batch * channels * plane + row * layer.in_width + col)
                * layer.dtype_bytes).astype(dtype)
        ok = ok & (batch >= 0) & (batch < layer.batch)
        return base, row, col, ok

    def _im2col_offset_parts(self, values: np.ndarray, extent: int) -> AxisParts:
        """Filter-offset axis of an im2col operand (forward A columns)."""
        layer = self.layer
        dtype = self._coord_dtype()
        ok = values < extent
        channel, f_row, f_col = self._offset_to_filter_coords(
            np.minimum(values, extent - 1))
        plane = layer.in_height * layer.in_width
        base = ((channel * plane + f_row * layer.in_width + f_col)
                * layer.dtype_bytes).astype(dtype)
        return base, f_row.astype(dtype), f_col.astype(dtype), ok

    def _ofmap_position_parts(self, values: np.ndarray, extent: int) -> AxisParts:
        """Output-position axis of the dO matrix (dgrad A rows, wgrad A cols)."""
        layer = self.layer
        dtype = self._coord_dtype()
        ok = values < extent
        batch, out_row, out_col = self._position_to_image_coords(
            np.minimum(values, extent - 1))
        plane = layer.out_height * layer.out_width
        base = ((batch * layer.out_channels * plane
                 + out_row * layer.out_width + out_col)
                * layer.dtype_bytes).astype(dtype)
        return base, None, None, ok

    def _ofmap_channel_parts(self, values: np.ndarray, extent: int) -> AxisParts:
        """Output-channel axis of the dO matrix (dgrad A cols, wgrad A rows)."""
        layer = self.layer
        dtype = self._coord_dtype()
        ok = values < extent
        plane = layer.out_height * layer.out_width
        base = (np.minimum(values, extent - 1) * plane
                * layer.dtype_bytes).astype(dtype)
        return base, None, None, ok

    def _matrix_parts(self, values: np.ndarray, extent: int,
                      pitch: int) -> AxisParts:
        """Dense row-major matrix axis: offset = value * pitch elements."""
        dtype = self._coord_dtype()
        ok = values < extent
        base = (np.minimum(values, extent - 1) * pitch
                * self.layer.dtype_bytes).astype(dtype)
        return base, None, None, ok

    # ------------------------------------------------------------------
    # Dense (linear / batched-GEMM) decomposition
    # ------------------------------------------------------------------
    def _grouped_matrix_parts(self, values: np.ndarray, rows: int, pitch: int,
                              padded_rows: int,
                              group_elements: int) -> AxisParts:
        """Row axis of a [groups, rows, pitch-major] dense operand tensor.

        Own-axis coordinates of a batched workload run over a per-instance
        padded extent of ``padded_rows`` (= CTAs per instance x block size),
        so instance ``g`` owns values ``[g * padded_rows, (g+1) *
        padded_rows)``; rows past the instance's real extent are
        predicated off.
        """
        dtype = self._coord_dtype()
        if self.workload.groups > 1 and group_elements:
            group = values // padded_rows
            row = values % padded_rows
            ok = row < rows
            base = ((group * group_elements + np.minimum(row, rows - 1) * pitch)
                    * self.workload.dtype_bytes).astype(dtype)
            return base, None, None, ok
        ok = values < rows
        base = (np.minimum(values, rows - 1) * pitch
                * self.workload.dtype_bytes).astype(dtype)
        return base, None, None, ok

    def _dense_parts(self, operand: str, axis: str,
                     values: np.ndarray) -> AxisParts:
        """Address parts of a dense workload's operand along one axis.

        Every pass's A operand backs a row-major ``[groups, m, k]`` tensor and
        every B operand a ``[groups, n, k]`` tensor (see the dense lowering in
        :mod:`repro.core.workload`); only the (pitch, contiguity) binding of
        the GEMM axes differs per pass:

        * **forward** — a: addr = m*K + k; b: addr = n*K + k.
        * **dgrad** — a = dY: addr = m*K + k (K is the forward N); b = W
          entered transposed: addr = k*N + n.
        * **wgrad** — a = dY^T: addr = k*M + m; b = X on the N side:
          addr = k*N + n.
        """
        gemm = self.workload.gemm
        pass_kind = self.workload.pass_kind
        if axis == "k":
            # Per-instance reduction axis: never carries the instance index.
            pitch = {"forward": {"a": 1, "b": 1},
                     "dgrad": {"a": 1, "b": gemm.n},
                     "wgrad": {"a": gemm.m, "b": gemm.n}}[pass_kind][operand]
            return self._grouped_matrix_parts(values, gemm.k, pitch,
                                              padded_rows=gemm.k,
                                              group_elements=0)
        tile = self.tile
        if operand == "a":
            own_pitch = {"forward": gemm.k, "dgrad": gemm.k,
                         "wgrad": 1}[pass_kind]
            rows, blk = gemm.m, tile.blk_m
            group_elements = gemm.m * gemm.k
        else:
            own_pitch = gemm.k if pass_kind == "forward" else 1
            rows, blk = gemm.n, tile.blk_n
            group_elements = gemm.n * gemm.k
        padded = -(-rows // blk) * blk
        return self._grouped_matrix_parts(values, rows, own_pitch,
                                          padded_rows=padded,
                                          group_elements=group_elements)

    def _operand_parts(self, operand: str, axis: str,
                       values: np.ndarray) -> AxisParts:
        """Address parts of one operand along ``axis`` ("own" or "k")."""
        if self.workload.layout == "dense":
            return self._dense_parts(operand, axis, values)
        layer = self.layer
        gemm = self.workload.gemm
        pass_kind = self.workload.pass_kind
        if pass_kind == "forward":
            if operand == "a":
                if axis == "own":
                    return self._im2col_position_parts(values, gemm.m,
                                                       layer.in_channels)
                return self._im2col_offset_parts(values, gemm.k)
            if axis == "own":  # filter matrix: address = n * K + k
                return self._matrix_parts(values, gemm.n, gemm.k)
            return self._matrix_parts(values, gemm.k, 1)
        if pass_kind == "dgrad":
            if operand == "a":
                if axis == "own":
                    return self._ofmap_position_parts(values, gemm.m)
                return self._ofmap_channel_parts(values, gemm.k)
            if axis == "own":  # transposed filter: address = k * N + n
                return self._matrix_parts(values, gemm.n, 1)
            return self._matrix_parts(values, gemm.k, gemm.n)
        if pass_kind == "wgrad":
            if operand == "a":
                if axis == "own":
                    return self._ofmap_channel_parts(values, gemm.m)
                return self._ofmap_position_parts(values, gemm.k)
            if axis == "own":
                return self._im2col_offset_parts(values, gemm.n)
            return self._im2col_position_parts(values, gemm.k,
                                               layer.in_channels)
        raise ValueError(f"unknown pass kind {pass_kind!r}")

    def _operand_bounds(self, operand: str) -> Optional[Tuple[int, int]]:
        """Feature-map bounds predicating an operand's loads, if any."""
        spec = self.workload.a if operand == "a" else self.workload.b
        if spec.l1_pattern == "im2col" or spec.l2_reuse == "sliding":
            return (self.layer.in_height, self.layer.in_width)
        return None

    def _operand_base(self, operand: str) -> int:
        return self.layout.a_base if operand == "a" else self.layout.b_base

    # ------------------------------------------------------------------
    # Tile address generation
    # ------------------------------------------------------------------
    def _tile_addresses(self, operand: str, own_values: np.ndarray,
                        k_values: np.ndarray) -> np.ndarray:
        """Byte addresses of one (own x K) tile; predicated-off -> INVALID."""
        base_o, row_o, col_o, ok_o = self._operand_parts(operand, "own",
                                                         own_values)
        base_k, row_k, col_k, ok_k = self._operand_parts(operand, "k", k_values)
        valid = ok_o[:, np.newaxis] & ok_k[np.newaxis, :]
        bounds = self._operand_bounds(operand)
        if bounds is not None:
            height, width = bounds
            row = row_o[:, np.newaxis] + row_k[np.newaxis, :]
            col = col_o[:, np.newaxis] + col_k[np.newaxis, :]
            valid &= (row >= 0) & (row < height) & (col >= 0) & (col < width)
        addresses = (base_o[:, np.newaxis].astype(np.int64)
                     + base_k[np.newaxis, :] + self._operand_base(operand))
        return np.where(valid, addresses, INVALID_ADDRESS)

    def a_tile_addresses(self, cta_m: int, k_offset: int) -> np.ndarray:
        """Byte addresses of the (blkM x blkK) A tile of one main loop.

        Rows beyond M and columns beyond K, as well as zero-padded input
        positions, are marked :data:`INVALID_ADDRESS`.
        """
        own = cta_m * self.tile.blk_m + np.arange(self.tile.blk_m)
        k = k_offset + np.arange(self.tile.blk_k)
        return self._tile_addresses("a", own, k)

    def b_tile_addresses(self, cta_n: int, k_offset: int) -> np.ndarray:
        """Byte addresses of the (blkN x blkK) B tile of one main loop."""
        own = cta_n * self.tile.blk_n + np.arange(self.tile.blk_n)
        k = k_offset + np.arange(self.tile.blk_k)
        return self._tile_addresses("b", own, k)

    # ------------------------------------------------------------------
    # Coalescing
    # ------------------------------------------------------------------
    def _build_access(self, addresses: np.ndarray,
                      group_ids: np.ndarray) -> TileAccess:
        requests = _count_grouped_blocks(addresses, group_ids,
                                         self.gpu.l1_request_bytes)
        warp_sectors = _count_grouped_blocks(addresses, group_ids,
                                             self.gpu.sector_bytes)
        sectors = _unique_sectors(addresses, self.gpu.sector_bytes)
        elements = int(np.count_nonzero(addresses != INVALID_ADDRESS))
        return TileAccess(l1_requests=requests, l1_sectors=warp_sectors,
                          sectors=sectors, elements=elements)

    def _a_group_ids(self) -> np.ndarray:
        """Warp map of the A tile, following the operand's contiguity axis.

        Conv forward and dgrad A operands are contiguous along M, so each warp
        covers 32 rows of one column (the paper's column-major mapping).  The
        conv wgrad A operand (dO^T) is contiguous along K: the kernel streams
        32/blkK row segments per warp and transposes through shared memory —
        the same lane mapping the B-tile loads use — which is the load
        stream the lowering's ``contiguous`` L1 pattern models.

        Dense workloads follow the same rule by contiguity: the forward/dgrad
        A matrices are row-major along K (blkK-segment loads, matching the
        lowering's ``gather`` pattern) while the wgrad A matrix (dY^T) is
        contiguous along its own axis (fully coalesced column loads,
        ``contiguous``).
        """
        rows, cols = self.tile.blk_m, self.tile.blk_k
        if self.workload.layout == "dense":
            segment_major = self.workload.pass_kind != "wgrad"
        else:
            segment_major = (self.workload.a.l1_pattern == "contiguous"
                             and self.workload.pass_kind == "wgrad")
        if segment_major:
            return (np.arange(rows * cols) // WARP_SIZE).reshape(rows, cols)
        row_group = np.arange(rows) // WARP_SIZE
        col_ids = np.arange(cols)
        return (col_ids[np.newaxis, :] * (rows // WARP_SIZE + 1)
                + row_group[:, np.newaxis])

    def a_tile_access(self, cta_m: int, k_offset: int) -> TileAccess:
        """Coalesced accesses of one A tile (column-major warp mapping)."""
        addresses = self.a_tile_addresses(cta_m, k_offset)
        group_ids = self._a_group_ids()
        return self._build_access(addresses, np.broadcast_to(group_ids,
                                                             addresses.shape))

    def b_tile_access(self, cta_n: int, k_offset: int) -> TileAccess:
        """Coalesced accesses of one B tile (blkK-major warp mapping)."""
        addresses = self.b_tile_addresses(cta_n, k_offset)
        flat = addresses.reshape(-1)  # n-major, k-minor: matches thread order
        lane = np.arange(flat.size)
        group_ids = lane // WARP_SIZE
        return self._build_access(flat, group_ids)

    # ------------------------------------------------------------------
    # Batched generation (vectorized engine fast path)
    # ------------------------------------------------------------------
    def _tile_batch(self, operand: str, blk_own: int,
                    coords: Sequence[int],
                    k_offsets: Sequence[int]) -> "TileAccessBatch":
        """All (coord, k_offset) tiles of the cross product, batched.

        Tile index ``ci * len(k_offsets) + ki`` corresponds to
        ``(coords[ci], k_offsets[ki])``.  Results are identical to the scalar
        per-tile methods, but one address computation and one sort serve the
        whole batch, which is what makes exact trace generation tractable.
        The per-axis decomposition keeps every division/modulo on the small
        per-axis coordinate vectors; only cheap adds/compares touch the full
        lattice.
        """
        coords = np.asarray(coords, dtype=np.int64)
        k_offsets = np.asarray(k_offsets, dtype=np.int64)
        num_tiles = coords.size * k_offsets.size
        if num_tiles == 0:
            return TileAccessBatch.empty()
        tile = self.tile
        blk_k = tile.blk_k

        own_values = (coords[:, np.newaxis] * blk_own
                      + np.arange(blk_own)).ravel()
        k_values = (k_offsets[:, np.newaxis] + np.arange(blk_k)).ravel()
        base_o, row_o, col_o, ok_o = self._operand_parts(operand, "own",
                                                         own_values)
        base_k, row_k, col_k, ok_k = self._operand_parts(operand, "k",
                                                         k_values)

        # Outer combination over the (own axis, K axis) lattice, viewed as
        # (coord, own, k_offset x blkK): every division/modulo stays on the
        # per-axis vectors and the inner axis stays long.  Addresses stay in
        # the narrow dtype.
        valid = ok_o[:, np.newaxis] & ok_k[np.newaxis, :]
        bounds = self._operand_bounds(operand)
        if bounds is not None:
            height, width = bounds
            valid &= _in_range(row_o[:, np.newaxis] + row_k[np.newaxis, :],
                               height)
            valid &= _in_range(col_o[:, np.newaxis] + col_k[np.newaxis, :],
                               width)
        k_base = base_k + base_k.dtype.type(self._operand_base(operand))
        addresses = base_o[:, np.newaxis] + k_base
        if operand == "a":
            group_ids = self._a_group_ids()
        else:
            group_ids = (np.arange(blk_own * blk_k)
                         // WARP_SIZE).reshape(blk_own, blk_k)
        shape = (coords.size, blk_own, k_offsets.size * blk_k)
        return self._build_access_batch(addresses.reshape(shape),
                                        valid.reshape(shape), group_ids,
                                        bound=int(base_o.max())
                                        + int(k_base.max()))

    def a_tile_batch(self, cta_ms: Sequence[int],
                     k_offsets: Sequence[int]) -> "TileAccessBatch":
        """All (cta_m, k_offset) A tiles of the cross product, batched."""
        return self._tile_batch("a", self.tile.blk_m, cta_ms, k_offsets)

    def b_tile_batch(self, cta_ns: Sequence[int],
                     k_offsets: Sequence[int]) -> "TileAccessBatch":
        """All (cta_n, k_offset) B tiles of the cross product, batched."""
        return self._tile_batch("b", self.tile.blk_n, cta_ns, k_offsets)

    def a_tile_access_batch(self, cta_ms: Sequence[int],
                            k_offset: int) -> List[TileAccess]:
        """Batched :meth:`a_tile_access` over many CTA rows at once."""
        return self.a_tile_batch(cta_ms, [k_offset]).tiles()

    def b_tile_access_batch(self, cta_ns: Sequence[int],
                            k_offset: int) -> List[TileAccess]:
        """Batched :meth:`b_tile_access` over many CTA columns at once."""
        return self.b_tile_batch(cta_ns, [k_offset]).tiles()

    def _build_access_batch(self, addresses: np.ndarray, valid: np.ndarray,
                            group_ids: np.ndarray,
                            bound: int) -> "TileAccessBatch":
        """Coalescing counts and unique sectors for a batch of tiles.

        ``addresses`` and ``valid`` are (coords, own, k_offsets x blkK)
        lattices: tile ``c * k_offsets + k`` is the ``blkK`` column block
        ``k`` of coordinate ``c``, and ``valid`` masks the accesses that are
        not predicated off (the array is consumed; other addresses are
        ignored).  ``group_ids`` is the (own, blkK) warp-group map shared by
        every tile, and ``bound`` is at least every valid address.  Tiles
        are folded into the dedup keys so one sort covers the whole batch;
        per-tile counts fall out of a ``bincount`` and per-tile sector
        arrays out of run boundaries in the sorted unique keys.
        """
        gpu = self.gpu
        num_coords, blk_own, width = addresses.shape
        blk_k = group_ids.shape[1]
        num_k = width // blk_k
        num_tiles = num_coords * num_k
        elements = valid.view(np.uint8).sum(axis=1, dtype=np.int64) \
            .reshape(num_tiles, blk_k).sum(axis=1)
        group_span = int(group_ids.max()) + 1

        # Sectors: one sorted pass over the lattice yields the per-warp
        # sector count (tile, group, sector triples), the unique tile sector
        # lists, and — because L1 request blocks are whole multiples of
        # sectors (GpuSpec checks it) — the coalesced L1 request count as
        # well.  Keys are built in place, in int32 whenever the combined
        # span fits (int32 sorts are ~2x faster than int64 ones).  The
        # sector span is a whole number of request blocks that bounds every
        # address (the per-axis maxima bound their sums).
        ratio = gpu.l1_request_bytes // gpu.sector_bytes
        sector_span = (max(bound, 0) // gpu.l1_request_bytes + 1) * ratio
        key_dtype = (np.int32 if num_tiles * sector_span * group_span
                     < np.iinfo(np.int32).max else np.int64)
        keys = (addresses // gpu.sector_bytes).astype(key_dtype, copy=False)
        keys *= group_span
        keys += np.tile(group_ids, num_k).astype(key_dtype)
        tile_ids = (np.arange(num_coords)[:, np.newaxis] * num_k
                    + np.arange(width) // blk_k)
        keys += (tile_ids * (sector_span * group_span)).astype(
            key_dtype)[:, np.newaxis, :]
        # A valid entry whose own-axis neighbour (the previous row of the
        # same tile) is valid with the same key repeats a triple that is
        # kept, so it is dropped before the sort.
        repeats = (keys[:, 1:, :] == keys[:, :-1, :]) & valid[:, :-1, :]
        np.greater(valid[:, 1:, :], repeats, out=valid[:, 1:, :])
        del repeats
        triple_keys = _sorted_unique(keys[valid])
        del keys, valid
        pair_keys = triple_keys // group_span
        warp_sectors = np.bincount(pair_keys // sector_span,
                                   minlength=num_tiles)
        keep = np.empty(pair_keys.size, dtype=bool)
        if pair_keys.size:
            keep[0] = True
            keep[1:] = pair_keys[1:] != pair_keys[:-1]
        unique_pairs = pair_keys[keep]
        unique_tile = unique_pairs // sector_span
        offsets = np.searchsorted(unique_tile, np.arange(num_tiles + 1))

        # L1 requests: unique (tile, request block, warp group) triples.
        # Rounding each sector triple down to its block's first sector
        # leaves the keys sorted but for runs within one block, which a
        # stable sort mends in near-linear time.
        if ratio == 1:
            requests = warp_sectors
        else:
            request_keys = _sorted_unique(
                triple_keys - (pair_keys % ratio) * group_span, "stable")
            requests = np.bincount(
                request_keys // (sector_span * group_span),
                minlength=num_tiles)

        return TileAccessBatch(
            l1_requests=requests,
            l1_sectors=warp_sectors,
            elements=elements,
            sectors=unique_pairs % sector_span,
            offsets=offsets,
        )


class Im2colTraceGenerator(GemmTraceGenerator):
    """Forward-pass trace generator with the paper's IFmap/filter vocabulary.

    Accepts a :class:`ConvLayerConfig` (lowered to its forward workload) for
    backward compatibility with the seed API; the ``ifmap_*``/``filter_*``
    methods alias the generic A/B-operand ones.
    """

    def __init__(self, layer: Union[ConvLayerConfig, GemmWorkload],
                 tile: CtaTile, gpu: GpuSpec) -> None:
        super().__init__(workload=as_workload(layer), tile=tile, gpu=gpu)

    ifmap_tile_addresses = GemmTraceGenerator.a_tile_addresses
    filter_tile_addresses = GemmTraceGenerator.b_tile_addresses
    ifmap_tile_access = GemmTraceGenerator.a_tile_access
    filter_tile_access = GemmTraceGenerator.b_tile_access
    ifmap_tile_batch = GemmTraceGenerator.a_tile_batch
    filter_tile_batch = GemmTraceGenerator.b_tile_batch
    ifmap_tile_access_batch = GemmTraceGenerator.a_tile_access_batch
    filter_tile_access_batch = GemmTraceGenerator.b_tile_access_batch


@dataclass(frozen=True)
class TileAccessBatch:
    """Struct-of-arrays form of many :class:`TileAccess` records.

    ``sectors[offsets[i]:offsets[i + 1]]`` are tile ``i``'s unique sectors;
    the scalar fields line up by tile index.  The vectorized engine consumes
    these arrays directly instead of materializing per-tile objects.
    """

    l1_requests: np.ndarray
    l1_sectors: np.ndarray
    elements: np.ndarray
    sectors: np.ndarray
    offsets: np.ndarray

    @staticmethod
    def empty() -> "TileAccessBatch":
        zero = np.zeros(0, dtype=np.int64)
        return TileAccessBatch(zero, zero, zero, zero,
                               np.zeros(1, dtype=np.int64))

    @property
    def num_tiles(self) -> int:
        return int(self.l1_requests.size)

    def tile_sectors(self, index: int) -> np.ndarray:
        return self.sectors[self.offsets[index]:self.offsets[index + 1]]

    def tile(self, index: int) -> TileAccess:
        return TileAccess(
            l1_requests=int(self.l1_requests[index]),
            l1_sectors=int(self.l1_sectors[index]),
            sectors=self.tile_sectors(index),
            elements=int(self.elements[index]),
        )

    def tiles(self) -> List[TileAccess]:
        return [self.tile(index) for index in range(self.num_tiles)]
