"""Common interfaces for line compressors.

The paper compresses every 64-byte write-back with two hardware
compressors (BDI and FPC) running in parallel and keeps the smaller
output (Section III, Figure 3).  All compressors in this package share
the :class:`Compressor` interface so the memory controller, the traces
package, and the analysis harnesses can treat them uniformly.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence  # noqa: TC003 -- used in signatures
from dataclasses import dataclass, field

import numpy as np

#: Size of a memory line (and therefore of every compressor input), in bytes.
LINE_SIZE_BYTES = 64
#: Size of a memory line in bits.
LINE_SIZE_BITS = LINE_SIZE_BYTES * 8


class CompressionError(ValueError):
    """Raised for malformed compressor inputs or undecodable payloads."""


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one memory line.

    Attributes:
        algorithm: Name of the compressor that produced the payload.
        encoding: Compressor-specific encoding identifier.  Together with
            ``algorithm`` this is what the paper stores in the 5-bit
            per-line "encoding information" metadata field.
        size_bits: Exact size of the compressed representation in bits.
        payload: The compressed representation, packed into bytes
            (the final byte is zero-padded when ``size_bits`` is not a
            multiple of eight).
        bits: ``bytes_to_bits(payload)`` as a read-only array, when a
            batch kernel packed a payload shorter than a line (else
            None).  The write engine lays it into the cell row without
            converting the payload again.  It takes no part in
            equality and is not pickled.
    """

    algorithm: str
    encoding: int
    size_bits: int
    payload: bytes = field(repr=False)
    bits: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # Checkpoints pickle the compression cache; the bit rows are a
        # derived copy of the payload, so they stay out of the pickle.
        state = dict(self.__dict__)
        state.pop("bits", None)
        return state

    @property
    def size_bytes(self) -> int:
        """Compressed size rounded up to whole bytes.

        The compression window is byte-granular in our design (it slides
        in 1-byte steps, Section III-A.2), so byte-rounded sizes are what
        the window manager consumes.
        """
        return (self.size_bits + 7) // 8

    @property
    def is_compressed(self) -> bool:
        """Whether the payload is smaller than an uncompressed line."""
        return self.size_bytes < LINE_SIZE_BYTES


def check_lines(name: str, lines: "Sequence[bytes]") -> None:
    """Raise :class:`CompressionError` unless every line is one line long."""
    if lines and set(map(len, lines)) != {LINE_SIZE_BYTES}:
        bad = next(len(data) for data in lines if len(data) != LINE_SIZE_BYTES)
        raise CompressionError(
            f"{name}: expected a {LINE_SIZE_BYTES}-byte line, got {bad} bytes"
        )


class Compressor(abc.ABC):
    """A block compressor operating on whole 64-byte memory lines."""

    #: Human-readable, unique compressor name.
    name: str = "abstract"
    #: Decompression latency in CPU cycles (Table I).
    decompression_latency_cycles: int = 0
    #: Number of distinct ``encoding`` values the compressor emits.
    #: Best-of packs (member, encoding) into the 5-bit metadata field
    #: by summing the members' encoding spaces, so keep this tight.
    encoding_space: int = 1

    @abc.abstractmethod
    def compress(self, data: bytes) -> CompressionResult:
        """Compress one line; always succeeds.

        Implementations must fall back to an "uncompressed" encoding when
        no pattern applies, so ``compress`` never raises for well-sized
        input.

        Raises:
            CompressionError: If ``data`` is not exactly one line.
        """

    @abc.abstractmethod
    def decompress(self, result: CompressionResult) -> bytes:
        """Reconstruct the original 64-byte line from ``result``.

        Raises:
            CompressionError: If the payload is inconsistent with the
                encoding, or the result belongs to another compressor.
        """

    def compress_batch(self, lines: "Sequence[bytes]") -> list[CompressionResult]:
        """Compress a batch of lines; element ``i`` equals ``compress(lines[i])``.

        The base implementation is the per-line loop.  BDI and FPC
        override it with 2-D size and pack kernels over the batch axis
        (see :meth:`plan_batch`), and best-of sizes every row with each
        member's plan first, then packs only the winning payloads.
        Results from those kernels carry each sub-line payload's bit
        row (``bits``) for the write engine.  Overrides must stay
        *value-identical* to the loop (pinned by
        ``tests/compression/test_batch_equivalence.py`` and, against
        the frozen references, ``test_vectorized_equivalence.py``) --
        the batched write engine relies on it for bit-exact
        batched/serial parity.
        """
        return [self.compress(data) for data in lines]

    def plan_batch(self, lines: "Sequence[bytes]") -> "BatchPlan":
        """Size a batch now and pack its payloads later, on demand.

        Best-of selection needs every member's sizes but only the
        winners' payloads.  The default derives the plan from
        :meth:`compress_batch`, so any compressor can join a best-of
        set; the vectorized compressors override it with a size pass
        that defers all packing to :meth:`BatchPlan.pack`.
        """
        return _ResultsPlan(self.compress_batch(lines))

    def compressed_size_bytes(self, data: bytes) -> int:
        """Convenience wrapper returning only the byte-rounded size."""
        return self.compress(data).size_bytes

    def _check_input(self, data: bytes) -> None:
        if len(data) != LINE_SIZE_BYTES:
            check_lines(self.name, (data,))

    def _check_batch(self, lines: "Sequence[bytes]") -> bytes:
        """Validate every line of a batch; returns them joined."""
        check_lines(self.name, lines)
        return b"".join(lines)

    def _check_result(self, result: CompressionResult) -> None:
        if result.algorithm != self.name:
            raise CompressionError(
                f"{self.name}: cannot decompress a payload produced by "
                f"{result.algorithm!r}"
            )


class BatchPlan(abc.ABC):
    """A sized batch whose payloads are packed on demand.

    ``size_bits[i]`` equals ``compress(lines[i]).size_bits``, and
    ``pack(rows)`` returns the results of the given row indices in
    order, each equal to ``compress`` of that line.
    """

    size_bits: np.ndarray

    @abc.abstractmethod
    def pack(self, rows: "Sequence[int]") -> list[CompressionResult]:
        """The full results of ``rows``, in the order given."""


class _ResultsPlan(BatchPlan):
    """A plan over already computed results (the default)."""

    def __init__(self, results: list[CompressionResult]) -> None:
        self._results = results
        self.size_bits = np.array(
            [result.size_bits for result in results], dtype=np.int64
        )

    def pack(self, rows):
        results = self._results
        return [results[row] for row in rows]


def pack_results(
    name: str, encodings, size_bits, byte_rows: np.ndarray, byte_lengths
) -> list[CompressionResult]:
    """One result per row of a ``(n, width)`` matrix of payload bytes.

    Row ``j``'s payload is its first ``byte_lengths[j]`` bytes.  The bit
    rows are unpacked for the whole matrix at once; each result's
    ``bits`` is a read-only array over its own ``bytes`` slice of them,
    so a cached result never pins the batch buffer.  A payload of a
    full line or more is never stored compressed, so it gets none.
    """
    width = byte_rows.shape[1]
    blob = byte_rows.tobytes()
    bit_blob = np.unpackbits(byte_rows, axis=1, bitorder="little").tobytes()
    frombuffer = np.frombuffer
    new = object.__new__
    results = []
    start = 0
    for encoding, size, length in zip(encodings, size_bits, byte_lengths):
        bits = None
        if length < LINE_SIZE_BYTES:
            bit_start = start * 8
            bits = frombuffer(
                bit_blob[bit_start : bit_start + length * 8], np.uint8
            )
        # The frozen dataclass __init__ sets each field through
        # object.__setattr__; filling the instance dict directly builds
        # the same object in half the time on this per-line path.
        result = new(CompressionResult)
        result.__dict__.update(
            algorithm=name, encoding=encoding, size_bits=size,
            payload=blob[start : start + length], bits=bits,
        )
        results.append(result)
        start += width
    return results
