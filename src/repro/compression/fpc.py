"""Frequent Pattern Compression (FPC).

FPC (Alameldeen and Wood, ISCA 2004 -- the paper's reference [15])
compresses a line word-by-word: each 4-byte word is matched against a
small set of frequently occurring patterns and replaced by a 3-bit
prefix plus the minimal payload needed to reconstruct it.

========= ======================================== =============
prefix    pattern                                   payload bits
========= ======================================== =============
``000``   run of 1..8 zero words                    3 (run length)
``001``   4-bit sign-extended word                  4
``010``   one-byte sign-extended word               8
``011``   halfword sign-extended word               16
``100``   halfword padded with a zero halfword      16
``101``   two halfwords, each a sign-extended byte  16
``110``   word of four repeated bytes               8
``111``   uncompressed word                         32
========= ======================================== =============

This matches Table I of the PCM paper: a 4-byte chunk compresses to as
few as 3 bits (a zero word absorbed into a run) and decompression takes
5 cycles.
"""

from __future__ import annotations

import numpy as np

from .base import (
    LINE_SIZE_BYTES,
    BatchPlan,
    CompressionError,
    CompressionResult,
    Compressor,
    pack_results,
)

_WORD_BYTES = 4
_WORDS_PER_LINE = LINE_SIZE_BYTES // _WORD_BYTES
_BYTE_ORDER = "little"

_PREFIX_BITS = 3
_PREFIX_ZERO_RUN = 0b000
_PREFIX_SE4 = 0b001
_PREFIX_SE8 = 0b010
_PREFIX_SE16 = 0b011
_PREFIX_HI_HALF = 0b100
_PREFIX_TWO_BYTES = 0b101
_PREFIX_REPEATED = 0b110
_PREFIX_UNCOMPRESSED = 0b111

_MAX_ZERO_RUN = 8

#: Payload width in bits for every non-zero-run prefix, indexed by prefix.
_PAYLOAD_WIDTH = (0, 4, 8, 16, 16, 16, 8, 32)

#: The single encoding id FPC reports (the bitstream is self-describing).
ENC_FPC = 0


def _prefixes(word_arr: np.ndarray) -> np.ndarray:
    """FPC prefix (``_PREFIX_SE4`` .. ``_PREFIX_UNCOMPRESSED``) of each word.

    Works on a ``(16,)`` line or a ``(K, 16)`` batch alike.  The classes
    are tried in prefix order and the first match wins, so the chain of
    ``where`` below runs from the last class to the first.  The range
    tests use uint32/uint16 wraparound: ``(w + 8) < 16`` is
    ``-8 <= int32(w) < 8``.
    """
    halves = word_arr.view("<u2")
    byte_halves = (halves + 128) < 256  # each half a sign-extended byte
    prefixes = np.where(
        word_arr == (word_arr & 0xFF) * 0x01010101,
        _PREFIX_REPEATED, _PREFIX_UNCOMPRESSED,
    )
    prefixes = np.where(
        byte_halves[..., 0::2] & byte_halves[..., 1::2],
        _PREFIX_TWO_BYTES, prefixes,
    )
    prefixes = np.where(halves[..., 0::2] == 0, _PREFIX_HI_HALF, prefixes)
    prefixes = np.where((word_arr + 32768) < 65536, _PREFIX_SE16, prefixes)
    prefixes = np.where((word_arr + 128) < 256, _PREFIX_SE8, prefixes)
    return np.where((word_arr + 8) < 16, _PREFIX_SE4, prefixes)


# Token codes of the batch kernel: a word's prefix (1..7) when it is
# non-zero, ``_CODE_RUN`` when it opens a zero run, ``_CODE_ABSORBED``
# when an open run absorbs it.
_CODE_RUN = _PREFIX_ZERO_RUN
_CODE_ABSORBED = 8
#: Each token is two pieces, the prefix and then the payload (a zero
#: run's payload is its length minus one).  Their widths per code:
_HEAD_BITS = np.array([_PREFIX_BITS] * 8 + [0], dtype=np.uint64)
_TAIL_BITS = np.array(
    [_PREFIX_BITS] + list(_PAYLOAD_WIDTH[1:]) + [0], dtype=np.uint64
)
_TOKEN_BITS = _HEAD_BITS + _TAIL_BITS
#: A code's payload is ``(w & _LOW_MASK) | ((w >> _HIGH_SHIFT) & _HIGH_MASK)``.
_LOW_MASK = np.array(
    [0, 0xF, 0xFF, 0xFFFF, 0, 0xFF, 0xFF, 0xFFFFFFFF, 0], dtype=np.uint32
)
_HIGH_SHIFT = np.array([0, 0, 0, 0, 16, 8, 0, 0, 0], dtype=np.uint32)
_HIGH_MASK = np.array([0, 0, 0, 0, 0xFFFF, 0xFF00, 0, 0, 0], dtype=np.uint32)
_WORD_INDEX = np.arange(_WORDS_PER_LINE)
#: 32-bit words per packed row: 16 uncompressed tokens (560 bits) fit
#: in 18, plus one spill word for a piece that crosses the last one.
_PACK_WORDS = 19


class _FPCPlan(BatchPlan):
    """FPC sizes of a batch (see :class:`~.base.BatchPlan`).

    Every word is one token slot: a non-zero word is a prefix plus its
    payload; a zero word opens a run token when it starts a run of
    zeros or follows eight zeros of one, and is otherwise absorbed
    (zero bits).  A slot's bit count therefore comes from its own
    prefix and its position in the zero run, with no serial walk.
    """

    def __init__(self, name: str, word_matrix: np.ndarray) -> None:
        self._name = name
        self._words = word_matrix
        nonzero = word_matrix != 0
        # Position of each word in its zero run (-1 for a non-zero word).
        run_position = _WORD_INDEX - np.maximum.accumulate(
            np.where(nonzero, _WORD_INDEX + 1, 0), axis=1
        )
        self._codes = np.where(
            nonzero,
            _prefixes(word_matrix),
            np.where(run_position % _MAX_ZERO_RUN, _CODE_ABSORBED, _CODE_RUN),
        )
        self._token_bits = _TOKEN_BITS[self._codes]
        self.size_bits = self._token_bits.sum(axis=1).astype(np.int64)

    def pack(self, rows) -> list[CompressionResult]:
        """Pack the given rows: per-token widths, ``cumsum`` offsets,
        then one scatter into 32-bit big-endian words."""
        rows = np.asarray(rows, dtype=np.intp)
        if not rows.size:
            return []
        words = self._words[rows]
        codes = self._codes[rows]
        token_bits = self._token_bits[rows]
        n_rows = len(rows)
        ends = np.cumsum(token_bits, axis=1)
        offsets = ends - token_bits
        payload = (words & _LOW_MASK[codes]) | (
            (words >> _HIGH_SHIFT[codes]) & _HIGH_MASK[codes]
        )
        # A run's length: up to the next non-zero word, at most eight.
        next_nonzero = np.minimum.accumulate(
            np.where(words != 0, _WORD_INDEX, _WORDS_PER_LINE)[:, ::-1], axis=1
        )[:, ::-1]
        run_length = np.minimum(next_nonzero - _WORD_INDEX, _MAX_ZERO_RUN)
        payload = np.where(codes == _CODE_RUN, run_length - 1, payload)
        # Splitting prefix from payload keeps every piece within 32 bits;
        # an absorbed word's pieces have width 0 and value 0.
        values = np.stack((codes & 7, payload), axis=2)
        widths = np.stack((_HEAD_BITS[codes], _TAIL_BITS[codes]), axis=2)
        starts = np.stack((offsets, offsets + _PREFIX_BITS), axis=2)
        # Left-align each piece in the 64-bit window of its first word
        # (start % 32 + width <= 63); the halves land in two words.
        # Pieces are disjoint, so a float sum of them is exact.
        windows = values.astype(np.uint64) << (64 - (starts & 31) - widths)
        first_word = (
            (starts >> 5).astype(np.intp).reshape(n_rows, -1)
            + (np.arange(n_rows) * _PACK_WORDS)[:, None]
        ).ravel()
        packed = np.bincount(
            np.concatenate((first_word, first_word + 1)),
            weights=np.concatenate(
                ((windows >> 32).ravel(), (windows & 0xFFFFFFFF).ravel())
            ),
            minlength=n_rows * _PACK_WORDS,
        )
        byte_rows = (
            packed.astype(">u4").view(np.uint8).reshape(n_rows, 4 * _PACK_WORDS)
        )
        size_bits = ends[:, -1].tolist()
        return pack_results(
            self._name, [ENC_FPC] * n_rows, size_bits, byte_rows,
            [(size + 7) // 8 for size in size_bits],
        )


class _BitReader:
    """MSB-first bit reader over a packed payload."""

    def __init__(self, payload: bytes, bit_count: int) -> None:
        self._value = int.from_bytes(payload, "big")
        self._total = len(payload) * 8
        # A payload shorter than the advertised bit count is corrupt;
        # clamping makes every subsequent read fail loudly.
        self._limit = min(bit_count, self._total)
        self._position = 0

    def read(self, width: int) -> int:
        if self._position + width > self._limit:
            raise CompressionError("fpc: truncated bitstream")
        shift = self._total - self._position - width
        self._position += width
        return (self._value >> shift) & ((1 << width) - 1)


class FPCCompressor(Compressor):
    """Frequent Pattern Compression line compressor."""

    name = "fpc"
    decompression_latency_cycles = 5
    encoding_space = 1  # the bitstream is self-describing

    def compress(self, data: bytes) -> CompressionResult:
        """Compress one 64-byte line (see :class:`Compressor`).

        All 16 words are classified at once with numpy array
        predicates (:func:`_prefixes`).  Only the final variable-width
        bit packing walks the 16 precomputed prefixes sequentially.
        """
        self._check_input(data)
        word_arr = np.frombuffer(data, dtype="<u4")
        prefixes = _prefixes(word_arr).tolist()
        return self._pack_line(
            word_arr.tolist(), word_arr.view("<i4").tolist(), prefixes
        )

    def compress_batch(self, lines) -> list[CompressionResult]:
        """Batched :meth:`compress`: the size and pack kernels of
        :meth:`plan_batch` over every line."""
        if not lines:
            return []
        return self.plan_batch(lines).pack(range(len(lines)))

    def plan_batch(self, lines) -> "_FPCPlan":
        """Every line's FPC bit count from one ``(K, 16)`` classification.

        No bits are packed here; :meth:`_FPCPlan.pack` packs the rows a
        caller asks for.
        """
        blob = self._check_batch(lines)
        word_matrix = np.frombuffer(blob, dtype="<u4").reshape(
            len(lines), _WORDS_PER_LINE
        )
        return _FPCPlan(self.name, word_matrix)

    def _pack_line(
        self, words: list, signed: list, prefixes: list
    ) -> CompressionResult:
        """Variable-width bit packing of one classified line."""
        value = 0
        bit_count = 0
        index = 0
        while index < _WORDS_PER_LINE:
            word = words[index]
            if word == 0:
                run = 1
                while (
                    index + run < _WORDS_PER_LINE
                    and words[index + run] == 0
                    and run < _MAX_ZERO_RUN
                ):
                    run += 1
                # Prefix 000 followed by the 3-bit run length.
                value = (value << 6) | (run - 1)
                bit_count += 6
                index += run
                continue
            prefix = prefixes[index]
            if prefix == _PREFIX_SE4:
                payload = signed[index] & 0xF
            elif prefix == _PREFIX_SE8:
                payload = signed[index] & 0xFF
            elif prefix == _PREFIX_SE16:
                payload = signed[index] & 0xFFFF
            elif prefix == _PREFIX_HI_HALF:
                payload = word >> 16
            elif prefix == _PREFIX_TWO_BYTES:
                payload = ((word >> 16) & 0xFF) << 8 | (word & 0xFF)
            elif prefix == _PREFIX_REPEATED:
                payload = word & 0xFF
            else:
                payload = word
            width = _PAYLOAD_WIDTH[prefix]
            value = (value << (_PREFIX_BITS + width)) | (prefix << width) | payload
            bit_count += _PREFIX_BITS + width
            index += 1

        pad = (-bit_count) % 8
        payload = (value << pad).to_bytes((bit_count + pad) // 8, "big")
        return CompressionResult(self.name, ENC_FPC, bit_count, payload)

    def decompress(self, result: CompressionResult) -> bytes:
        """Reconstruct the 64-byte line (see :class:`Compressor`)."""
        self._check_result(result)
        reader = _BitReader(result.payload, result.size_bits)
        words: list[int] = []
        while len(words) < _WORDS_PER_LINE:
            prefix = reader.read(_PREFIX_BITS)
            words.extend(self._decode_word(reader, prefix))
        if len(words) != _WORDS_PER_LINE:
            raise CompressionError("fpc: bitstream decodes to a wrong word count")
        return b"".join(word.to_bytes(_WORD_BYTES, _BYTE_ORDER) for word in words)

    def _decode_word(self, reader: _BitReader, prefix: int) -> list[int]:
        if prefix == _PREFIX_ZERO_RUN:
            run = reader.read(3) + 1
            return [0] * run
        if prefix == _PREFIX_SE4:
            return [self._sign_extend(reader.read(4), 4)]
        if prefix == _PREFIX_SE8:
            return [self._sign_extend(reader.read(8), 8)]
        if prefix == _PREFIX_SE16:
            return [self._sign_extend(reader.read(16), 16)]
        if prefix == _PREFIX_HI_HALF:
            return [reader.read(16) << 16]
        if prefix == _PREFIX_TWO_BYTES:
            high = self._sign_extend_16(reader.read(8))
            low = self._sign_extend_16(reader.read(8))
            return [((high & 0xFFFF) << 16) | (low & 0xFFFF)]
        if prefix == _PREFIX_REPEATED:
            byte = reader.read(8)
            return [byte * 0x01010101]
        if prefix == _PREFIX_UNCOMPRESSED:
            return [reader.read(32)]
        raise CompressionError(f"fpc: invalid prefix {prefix:03b}")

    @staticmethod
    def _sign_extend(value: int, bits: int) -> int:
        if value >= (1 << (bits - 1)):
            value -= 1 << bits
        return value & 0xFFFFFFFF

    @staticmethod
    def _sign_extend_16(value: int) -> int:
        if value >= 0x80:
            value -= 0x100
        return value & 0xFFFF
