"""Vectorized kernels vs the frozen pre-rewrite references.

The FPC and BDI ``compress`` paths were rewritten with numpy array
predicates for the hot-path overhaul, and ``compress_batch`` runs
batch-wide size and pack kernels.  These tests pin both paths to the
original word-at-a-time encoders (``reference_impls.py``, frozen
copies): for adversarial boundary lines and a broad randomized corpus,
the production kernels must produce *byte-identical*
``CompressionResult``s, and every result must still round-trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    BDICompressor,
    BestOfCompressor,
    CachingCompressor,
    FPCCompressor,
)
from repro.compression.base import LINE_SIZE_BYTES
from repro.pcm import bytes_to_bits
from repro.validate.refcompress import reference_best_compress

from .reference_impls import reference_bdi_compress, reference_fpc_compress

FPC = FPCCompressor()
BDI = BDICompressor()


def _words(*values) -> bytes:
    padded = list(values) + [0] * (16 - len(values))
    return b"".join((v & 0xFFFFFFFF).to_bytes(4, "little") for v in padded)


# Every FPC pattern-class boundary, both sides: SE4/SE8/SE16 edges,
# half-zero words, byte-extending halfword pairs, repeated bytes, and
# values one off each class.
FPC_ADVERSARIAL = [
    bytes(LINE_SIZE_BYTES),
    bytes([0xFF]) * LINE_SIZE_BYTES,
    _words(7, 8, -8 & 0xFFFFFFFF, -9 & 0xFFFFFFFF),
    _words(127, 128, -128 & 0xFFFFFFFF, -129 & 0xFFFFFFFF),
    _words(32767, 32768, -32768 & 0xFFFFFFFF, -32769 & 0xFFFFFFFF),
    _words(0x12340000, 0x00015678, 0xFFFF0000, 0x0000FFFF),
    _words(0x007F007F, 0x0080FF80, 0xFF80007F, 0x00800080),
    _words(0xABABABAB, 0xAB00ABAB, 0x01010101, 0x80808080),
    # Zero runs: max-length (8), split runs, run at line end.
    _words(*([0] * 9 + [1] + [0] * 6)),
    _words(*([1] + [0] * 15)),
    _words(*([0] * 15 + [1])),
    _words(*(0xDEADBEEF if i % 2 else 0 for i in range(16))),
]

# BDI boundaries: zeros, repeated 8-byte pattern (and a near-miss),
# exact delta-limit fits/misses for each (base, delta) variant.
BDI_ADVERSARIAL = [
    bytes(LINE_SIZE_BYTES),
    bytes(range(8)) * 8,
    bytes(range(8)) * 7 + bytes(range(1, 9)),
    # base8-delta1: deltas exactly at +127 / -128, and one past.
    b"".join((1000 + d).to_bytes(8, "little") for d in [0, 127, -128 + 256, 0, 0, 0, 0, 0]),
    b"".join(((1 << 40) + d).to_bytes(8, "little", signed=False) for d in [0, 127, 128, 1, 2, 3, 4, 5]),
    # base4-delta1 / base4-delta2 / base2-delta1 shapes.
    b"".join((0x10000 + d).to_bytes(4, "little") for d in range(16)),
    b"".join((0x70000000 + d * 300).to_bytes(4, "little") for d in range(16)),
    b"".join((0x4000 + (d % 100)).to_bytes(2, "little") for d in range(32)),
    np.arange(16, dtype="<u4").tobytes(),
    bytes([0x80]) * LINE_SIZE_BYTES,
]


def _random_corpus() -> list[bytes]:
    rng = np.random.default_rng(2024)
    corpus: list[bytes] = []
    for _ in range(150):
        corpus.append(rng.bytes(LINE_SIZE_BYTES))
    for _ in range(150):
        # Low-entropy words drawn from a tiny pool: exercises zero runs,
        # repeats, and small sign-extended values.
        pool = np.array([0, 1, 0xFF, 0xFFFFFFFF, 0x01010101, 0x00010000,
                         0x7FFF, 0x8000, 0xDEADBEEF], dtype="<u4")
        corpus.append(rng.choice(pool, 16).astype("<u4").tobytes())
    for width in (2, 4, 8):
        for _ in range(100):
            # Clustered values around a random base: BDI's home turf,
            # with delta magnitudes straddling every variant's limit.
            base = int(rng.integers(0, min(1 << (8 * width - 1), 1 << 62)))
            spread = int(rng.choice([4, 100, 40_000, 1 << 20]))
            values = base + rng.integers(
                -spread, spread, LINE_SIZE_BYTES // width
            )
            # Unsafe downcast wraps modulo 2**(8*width), the wire format.
            corpus.append(values.astype(f"<i{width}", casting="unsafe").tobytes())
    return corpus


CORPUS = _random_corpus()


@pytest.mark.parametrize("line", FPC_ADVERSARIAL, ids=range(len(FPC_ADVERSARIAL)))
def test_fpc_matches_reference_adversarial(line):
    assert FPC.compress(line) == reference_fpc_compress(line)


@pytest.mark.parametrize("line", BDI_ADVERSARIAL, ids=range(len(BDI_ADVERSARIAL)))
def test_bdi_matches_reference_adversarial(line):
    assert BDI.compress(line) == reference_bdi_compress(line)


def test_fpc_matches_reference_randomized():
    for line in CORPUS:
        result = FPC.compress(line)
        assert result == reference_fpc_compress(line)
        assert FPC.decompress(result) == line


def test_bdi_matches_reference_randomized():
    for line in CORPUS:
        result = BDI.compress(line)
        assert result == reference_bdi_compress(line)
        assert BDI.decompress(result) == line


# -- the batch path ---------------------------------------------------------
#
# ``compress_batch`` runs separate size and pack kernels (and best-of
# packs only each row's winner), so it is pinned to the same frozen
# references as ``compress``, not only to ``compress`` itself.

# Zero runs of 8, 9 and 16 words, and runs ending at word 15.
ZERO_RUN_LINES = [
    _words(*([0] * 8 + [5] * 8)),
    _words(*([5] * 8)),
    _words(*([3] + [0] * 9 + [1] * 6)),
    _words(*([0] * 9 + [0xDEADBEEF] * 7)),
    bytes(LINE_SIZE_BYTES),
    _words(*([0x12345678] * 10)),
    _words(*([0] * 7 + [9] + [0] * 8)),
]

_RANDOM_WORDS = [(0x9E3779B9 * (i + 1)) & 0xFFFFFFFF for i in range(14)]
# BDI and FPC sizes tie on these rows (BDI must win): b4d1 vs 14 SE8
# words plus a run (160 bits), b2d1 vs 14 hi-half words plus a run
# (272), and uncompressed vs 14 raw words plus two SE8 words (512).
TIE_LINES = [
    _words(*([100] * 14)),
    _words(*([0x10000] * 14)),
    _words(*(_RANDOM_WORDS + [100, 50])),
]


def _reference_batch(compressor, lines):
    reference = {
        "fpc": reference_fpc_compress,
        "bdi": reference_bdi_compress,
    }.get(compressor.name, reference_best_compress)
    return [reference(bytes(line)) for line in lines]


def _batch_lines(count: int) -> list[bytes]:
    pool = (
        FPC_ADVERSARIAL + BDI_ADVERSARIAL + ZERO_RUN_LINES + TIE_LINES + CORPUS
    )
    rng = np.random.default_rng(count)
    return [pool[int(i)] for i in rng.integers(0, len(pool), count)]


def _assert_identical(got, want):
    assert len(got) == len(want)
    for result, expected in zip(got, want):
        assert result == expected
        assert result.payload == expected.payload
        if len(result.payload) < LINE_SIZE_BYTES:
            # The carried bit row: read-only, equal to the unpacked
            # payload, and over a buffer of its own (not a batch view).
            bits = result.bits
            assert not bits.flags.writeable
            np.testing.assert_array_equal(bits, bytes_to_bits(result.payload))
            assert len(bits.base) == bits.size
        else:
            assert result.bits is None


BATCH_COMPRESSORS = {
    "fpc": FPCCompressor,
    "bdi": BDICompressor,
    "best": BestOfCompressor,
    "cached": lambda: CachingCompressor(BestOfCompressor(), capacity=64),
}


@pytest.mark.parametrize("name", list(BATCH_COMPRESSORS))
@pytest.mark.parametrize("count", [1, 7, 128, 1000])
def test_compress_batch_matches_reference(name, count):
    compressor = BATCH_COMPRESSORS[name]()
    lines = _batch_lines(count)
    _assert_identical(
        compressor.compress_batch(lines), _reference_batch(compressor, lines)
    )


@pytest.mark.parametrize("name", list(BATCH_COMPRESSORS))
def test_compress_batch_matches_reference_on_zero_runs_and_ties(name):
    compressor = BATCH_COMPRESSORS[name]()
    lines = ZERO_RUN_LINES + TIE_LINES
    _assert_identical(
        compressor.compress_batch(lines), _reference_batch(compressor, lines)
    )


def test_tie_lines_tie_and_bdi_wins():
    for line in TIE_LINES:
        bdi = reference_bdi_compress(line)
        assert bdi.size_bits == reference_fpc_compress(line).size_bits
        (result,) = BestOfCompressor().compress_batch([line])
        assert result.algorithm == "bdi"
        assert result == bdi


@pytest.mark.parametrize("name", list(BATCH_COMPRESSORS))
@pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=["bytearray", "memoryview"])
def test_compress_batch_accepts_buffers(name, wrap):
    compressor = BATCH_COMPRESSORS[name]()
    lines = _batch_lines(40)
    _assert_identical(
        compressor.compress_batch([wrap(line) for line in lines]),
        _reference_batch(compressor, lines),
    )
