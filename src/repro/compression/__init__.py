"""Line compressors: BDI, FPC and the best-of-both controller policy."""

from .base import (
    LINE_SIZE_BITS,
    LINE_SIZE_BYTES,
    BatchPlan,
    CompressionError,
    CompressionResult,
    Compressor,
)
from .bdi import BDICompressor
from .best import ENCODING_METADATA_BITS, BestOfCompressor
from .cache import CachingCompressor
from .fpc import FPCCompressor
from .fvc import DEFAULT_DICTIONARY, FVCCompressor
from .stats import (
    CompressionSummary,
    compressed_sizes,
    size_cdf,
    size_change_probability,
    summarize,
    summarize_members,
)

__all__ = [
    "LINE_SIZE_BITS",
    "LINE_SIZE_BYTES",
    "BatchPlan",
    "CompressionError",
    "CompressionResult",
    "Compressor",
    "BDICompressor",
    "DEFAULT_DICTIONARY",
    "FPCCompressor",
    "FVCCompressor",
    "BestOfCompressor",
    "CachingCompressor",
    "ENCODING_METADATA_BITS",
    "CompressionSummary",
    "compressed_sizes",
    "size_cdf",
    "size_change_probability",
    "summarize",
    "summarize_members",
]

from .cpack import CPackCompressor  # noqa: E402

__all__ += ["CPackCompressor"]
