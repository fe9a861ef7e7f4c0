"""Per-interval feature vectors (Table III).

Each interval is summarized as a sparse ``{event key: weighted count}``
vector.  Keys are program events at two granularities -- kernels (KN
family) or basic blocks (BB family) -- optionally specialized by data
interaction (argument values, global work size, memory bytes).

Following Section V-B, every computational entry is **weighted by
instruction count**: an interval that executes block A 10 times (3
instructions each) and block B 5 times (20 instructions each) scores
A=30, B=100, reflecting their actual importance.  Memory dimensions
(the ``-R``/``-W``/``-(R+W)`` suffixes) contribute the interval's byte
counts for the event as additional vector entries.

:func:`feature_vector` builds one interval's dict and is the scalar
oracle; :func:`build_feature_vectors` builds every interval at once as a
:class:`FeatureMatrix` with array operations, bit-identical to it.

The paper does not spell out the exact encoding of the compound vectors;
we use the natural one -- extra keys appended to the base vector -- and
treat it as a modelled design decision (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import operator
from typing import Hashable, Sequence

import numpy as np

from repro.gtpin.tools.invocations import InvocationLog, InvocationProfile
from repro.sampling.intervals import Interval

#: A sparse feature vector: event key -> weighted dynamic count.
FeatureVector = dict[Hashable, float]


class FeatureKind(enum.Enum):
    """Table III's ten feature-vector constructions."""

    KN = "KN"
    KN_ARGS = "KN-ARGS"
    KN_GWS = "KN-GWS"
    KN_ARGS_GWS = "KN-ARGS-GWS"
    KN_RW = "KN-RW"
    BB = "BB"
    BB_R = "BB-R"
    BB_W = "BB-W"
    BB_R_W = "BB-R-W"
    BB_R_PLUS_W = "BB-(R+W)"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_kernel_based(self) -> bool:
        return self.value.startswith("KN")

    @property
    def is_block_based(self) -> bool:
        return self.value.startswith("BB")

    @property
    def uses_memory(self) -> bool:
        return self in (
            FeatureKind.KN_RW,
            FeatureKind.BB_R,
            FeatureKind.BB_W,
            FeatureKind.BB_R_W,
            FeatureKind.BB_R_PLUS_W,
        )


#: All ten kinds, in Table III order.
ALL_FEATURE_KINDS: tuple[FeatureKind, ...] = (
    FeatureKind.KN,
    FeatureKind.KN_ARGS,
    FeatureKind.KN_GWS,
    FeatureKind.KN_ARGS_GWS,
    FeatureKind.KN_RW,
    FeatureKind.BB,
    FeatureKind.BB_R,
    FeatureKind.BB_W,
    FeatureKind.BB_R_W,
    FeatureKind.BB_R_PLUS_W,
)


def _kernel_key(kind: FeatureKind, profile: InvocationProfile) -> Hashable:
    """The KN-family event key for one invocation."""
    if kind is FeatureKind.KN_ARGS:
        return ("kn", profile.kernel_name, profile.arg_items)
    if kind is FeatureKind.KN_GWS:
        return ("kn", profile.kernel_name, profile.global_work_size)
    if kind is FeatureKind.KN_ARGS_GWS:
        return (
            "kn",
            profile.kernel_name,
            profile.arg_items,
            profile.global_work_size,
        )
    return ("kn", profile.kernel_name)


def _accumulate_kernel(
    vector: FeatureVector,
    kind: FeatureKind,
    profile: InvocationProfile,
    weighted: bool,
) -> None:
    key = _kernel_key(kind, profile)
    value = float(profile.instruction_count) if weighted else 1.0
    vector[key] = vector.get(key, 0.0) + value
    if kind is FeatureKind.KN_RW:
        read_key = ("kn_r", profile.kernel_name)
        write_key = ("kn_w", profile.kernel_name)
        vector[read_key] = vector.get(read_key, 0.0) + float(profile.bytes_read)
        vector[write_key] = vector.get(write_key, 0.0) + float(
            profile.bytes_written
        )


def _accumulate_blocks(
    vector: FeatureVector,
    kind: FeatureKind,
    profile: InvocationProfile,
    log: InvocationLog,
    weighted: bool,
) -> None:
    arrays = log.binary(profile.kernel_name).arrays
    counts = profile.block_counts
    if weighted:
        base_values = counts * arrays.instruction_counts
    else:
        base_values = counts
    reads = counts * arrays.bytes_read
    writes = counts * arrays.bytes_written
    kernel = profile.kernel_name
    for block_id in counts.nonzero()[0].tolist():
        key = ("bb", kernel, block_id)
        vector[key] = vector.get(key, 0.0) + float(base_values[block_id])
        if kind in (FeatureKind.BB_R, FeatureKind.BB_R_W):
            rkey = ("bb_r", kernel, block_id)
            vector[rkey] = vector.get(rkey, 0.0) + float(reads[block_id])
        if kind in (FeatureKind.BB_W, FeatureKind.BB_R_W):
            wkey = ("bb_w", kernel, block_id)
            vector[wkey] = vector.get(wkey, 0.0) + float(writes[block_id])
        if kind is FeatureKind.BB_R_PLUS_W:
            ckey = ("bb_rw", kernel, block_id)
            vector[ckey] = vector.get(ckey, 0.0) + float(
                reads[block_id] + writes[block_id]
            )


def feature_vector(
    log: InvocationLog,
    interval: Interval,
    kind: FeatureKind,
    weighted: bool = True,
) -> FeatureVector:
    """Build one interval's sparse feature vector."""
    vector: FeatureVector = {}
    for i in interval.invocation_indices():
        profile = log.invocations[i]
        if kind.is_kernel_based:
            _accumulate_kernel(vector, kind, profile, weighted)
        else:
            _accumulate_blocks(vector, kind, profile, log, weighted)
    return vector


@dataclasses.dataclass(frozen=True, eq=False)
class FeatureMatrix(Sequence[FeatureVector]):
    """Every interval's feature vector as one sparse COO matrix.

    Entry ``j`` says interval ``rows[j]`` scores ``vals[j]`` on event
    ``keys[cols[j]]``.  Entries are listed interval by interval, and
    within an interval in the order :func:`feature_vector` first inserts
    each key; columns are numbered by first occurrence over the whole
    matrix, which is also the 1-based dimension order of SimPoint's BBV
    files.  Both orders feed the random projection, so they are
    behaviour, not cosmetics.

    As a ``Sequence`` the matrix reads as the per-interval dicts
    :func:`feature_vector` builds -- same keys, same order, same floats.
    """

    n_rows: int
    keys: tuple[Hashable, ...]
    rows: np.ndarray  # (n_entries,) int64, non-decreasing
    cols: np.ndarray  # (n_entries,) int64
    vals: np.ndarray  # (n_entries,) float64

    @property
    def n_keys(self) -> int:
        return len(self.keys)

    @functools.cached_property
    def bounds(self) -> list[int]:
        """Interval ``i``'s entries are ``[bounds[i], bounds[i + 1])``."""
        return np.searchsorted(self.rows, np.arange(self.n_rows + 1)).tolist()

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.n_rows))]
        i = operator.index(index)
        if i < 0:
            i += self.n_rows
        if not 0 <= i < self.n_rows:
            raise IndexError(f"interval {index} out of range")
        lo, hi = self.bounds[i], self.bounds[i + 1]
        keys = self.keys
        return dict(
            zip(
                [keys[c] for c in self.cols[lo:hi].tolist()],
                self.vals[lo:hi].tolist(),
            )
        )

    @staticmethod
    def from_vectors(vectors: Sequence[FeatureVector]) -> "FeatureMatrix":
        """The matrix of a list of dicts (a matrix is returned as is)."""
        if isinstance(vectors, FeatureMatrix):
            return vectors
        keys: dict[Hashable, int] = {}
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for i, vector in enumerate(vectors):
            for key, value in vector.items():
                idx = keys.get(key)
                if idx is None:
                    idx = len(keys)
                    keys[key] = idx
                rows.append(i)
                cols.append(idx)
                vals.append(value)
        return FeatureMatrix(
            n_rows=len(vectors),
            keys=tuple(keys),
            rows=np.asarray(rows, dtype=np.int64),
            cols=np.asarray(cols, dtype=np.int64),
            vals=np.asarray(vals, dtype=np.float64),
        )


#: A stream of feature occurrences in the order :func:`feature_vector`
#: visits them: invocation ``i`` adds ``vals[ptr[i]:ptr[i + 1]]`` to the
#: keys ``keys[c]`` for ``c`` in ``codes[ptr[i]:ptr[i + 1]]``.
_Stream = tuple[np.ndarray, np.ndarray, np.ndarray, list[Hashable]]


def _kernel_stream(
    log: InvocationLog, kind: FeatureKind, weighted: bool
) -> _Stream:
    """KN family: one interned key per invocation, three for KN-RW."""
    interned: dict[Hashable, int] = {}
    codes: list[int] = []
    vals: list[float] = []
    for p in log.invocations:
        codes.append(interned.setdefault(_kernel_key(kind, p), len(interned)))
        vals.append(float(p.instruction_count) if weighted else 1.0)
        if kind is FeatureKind.KN_RW:
            for key, value in (
                (("kn_r", p.kernel_name), p.bytes_read),
                (("kn_w", p.kernel_name), p.bytes_written),
            ):
                codes.append(interned.setdefault(key, len(interned)))
                vals.append(float(value))
    per_invocation = 3 if kind is FeatureKind.KN_RW else 1
    return (
        np.arange(len(log.invocations) + 1, dtype=np.int64) * per_invocation,
        np.asarray(codes, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
        list(interned),
    )


#: The per-block entries of each BB-family kind, in the order
#: :func:`_accumulate_blocks` inserts them.
_BLOCK_SLOTS: dict[FeatureKind, tuple[str, ...]] = {
    FeatureKind.BB: ("bb",),
    FeatureKind.BB_R: ("bb", "bb_r"),
    FeatureKind.BB_W: ("bb", "bb_w"),
    FeatureKind.BB_R_W: ("bb", "bb_r", "bb_w"),
    FeatureKind.BB_R_PLUS_W: ("bb", "bb_rw"),
}


def _block_stream(
    log: InvocationLog, kind: FeatureKind, weighted: bool
) -> _Stream:
    """BB family: every executed block of every invocation, ascending
    block id, its extra memory entries right after it.

    Blocks get global ids -- each kernel's ids start at its offset -- and
    key code ``global block id * len(slots) + slot``.
    """
    slots = _BLOCK_SLOTS[kind]
    n_slots = len(slots)
    invocations = log.invocations
    kernel_ids: dict[str, int] = {}
    kernel_of = np.asarray(
        [
            kernel_ids.setdefault(p.kernel_name, len(kernel_ids))
            for p in invocations
        ],
        dtype=np.int64,
    )
    kernels = list(kernel_ids)
    arrays = [log.binary(kernel).arrays for kernel in kernels]
    sizes = np.asarray([a.instruction_counts.size for a in arrays])
    offsets = np.zeros(len(kernels) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])

    counts = np.concatenate([p.block_counts for p in invocations])
    per_invocation = sizes[kernel_of]
    invocation = np.repeat(np.arange(len(invocations)), per_invocation)
    block = np.arange(counts.size) + np.repeat(
        offsets[kernel_of] - (np.cumsum(per_invocation) - per_invocation),
        per_invocation,
    )
    executed = np.nonzero(counts)[0]
    counts, block = counts[executed], block[executed]

    def static(field: str) -> np.ndarray:
        return np.concatenate([getattr(a, field) for a in arrays])[block]

    # The scalar path adds float(count * static integer) per invocation.
    reads = counts * static("bytes_read")
    writes = counts * static("bytes_written")
    values = {
        "bb": counts * static("instruction_counts") if weighted else counts,
        "bb_r": reads,
        "bb_w": writes,
        "bb_rw": reads + writes,
    }
    ptr = n_slots * np.searchsorted(
        invocation[executed], np.arange(len(invocations) + 1)
    )
    return (
        ptr,
        (block[:, None] * n_slots + np.arange(n_slots)).ravel(),
        np.column_stack([values[slot] for slot in slots])
        .astype(np.float64)
        .ravel(),
        [
            (slot, kernel, block_id)
            for kernel, a in zip(kernels, arrays)
            for block_id in range(a.instruction_counts.size)
            for slot in slots
        ],
    )


def build_feature_vectors(
    log: InvocationLog,
    intervals: Sequence[Interval],
    kind: FeatureKind,
    weighted: bool = True,
) -> FeatureMatrix:
    """The feature matrix of every interval, in interval order.

    ``weighted=False`` disables the instruction-count weighting -- kept
    for the ablation study of that design choice.

    Bit-identical to calling :func:`feature_vector` per interval,
    including key order, by construction: the occurrence stream lists
    every addition the scalar path makes, in its order; ``bincount``
    sums each (interval, key) pair in stream order from 0.0, as the
    scalar ``dict.get(key, 0.0) + value`` does; and a pair's first
    occurrence is where the scalar path inserts its key.
    """
    ptr, codes, vals, stream_keys = (
        _block_stream(log, kind, weighted)
        if kind.is_block_based
        else _kernel_stream(log, kind, weighted)
    )
    n_rows = len(intervals)
    lo = ptr[np.fromiter((iv.start for iv in intervals), np.int64, n_rows)]
    hi = ptr[np.fromiter((iv.stop for iv in intervals), np.int64, n_rows)]
    # Every interval's stretch of the stream, back to back.
    lengths = hi - lo
    row = np.repeat(np.arange(n_rows), lengths)
    taken = np.arange(lengths.sum()) + np.repeat(
        lo - (np.cumsum(lengths) - lengths), lengths
    )
    n_codes = max(1, len(stream_keys))
    pairs, first, inverse = np.unique(
        row * n_codes + codes[taken], return_index=True, return_inverse=True
    )
    sums = np.bincount(inverse, weights=vals[taken], minlength=pairs.size)
    order = np.argsort(first)
    rows, entry_codes = np.divmod(pairs[order], n_codes)
    # Columns are numbered by first occurrence too.
    key_codes, key_first, cols = np.unique(
        entry_codes, return_index=True, return_inverse=True
    )
    ranked = np.argsort(key_first)
    rank = np.empty(key_codes.size, dtype=np.int64)
    rank[ranked] = np.arange(key_codes.size)
    return FeatureMatrix(
        n_rows=n_rows,
        keys=tuple(stream_keys[c] for c in key_codes[ranked].tolist()),
        rows=rows,
        cols=rank[cols],
        vals=sums[order],
    )
