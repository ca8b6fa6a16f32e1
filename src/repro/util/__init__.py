"""Shared low-level utilities.

This package groups small, dependency-free helpers used across the whole
system: power-of-two arithmetic for page geometry, canonical interval algebra
for the segment tree, human readable size formatting, and deterministic
per-stream random number generators for reproducible workloads.
"""

from repro.util.bits import (
    align_down,
    align_up,
    ceil_div,
    ceil_pow2,
    floor_pow2,
    is_pow2,
    log2_exact,
)
from repro.util.intervals import Interval, canonical_cover, page_span
from repro.util.sizes import MB, GB, KB, TB, human_size, parse_size
from repro.util.rng import substream

__all__ = [
    "align_down",
    "align_up",
    "ceil_div",
    "ceil_pow2",
    "floor_pow2",
    "is_pow2",
    "log2_exact",
    "Interval",
    "canonical_cover",
    "page_span",
    "KB",
    "MB",
    "GB",
    "TB",
    "human_size",
    "parse_size",
    "substream",
]
