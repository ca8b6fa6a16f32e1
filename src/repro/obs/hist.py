"""Mergeable log-bucketed latency histogram.

The recording primitive of the telemetry subsystem: a fixed array of
integer buckets covering the full ``uint64`` nanosecond range with
bounded relative error, designed for the actor-confinement threading
model — **one writer per histogram at a time** (the actor's service
thread, whichever node-agent connection holds the actor's lock, or the
owning caller thread), readers tolerate torn snapshots because buckets
only ever grow.

Bucket scheme (HdrHistogram-style log-linear):

- values ``0..15`` get one bucket each (exact);
- every power-of-two octave above is split into 16 linear sub-buckets,
  so a bucket spanning ``[lo, hi]`` has ``(hi - lo + 1) / lo <= 1/16`` —
  quantiles read from bucket upper bounds overshoot a sorted-sample
  oracle by at most 6.25 %.

That is ``16 + 16*60 = 976`` buckets: a histogram is one ~8 KB int list,
``record`` is two shifts and an index, and ``merge`` is element-wise
addition — associative and commutative, so per-actor histograms can be
folded across actors, nodes and scrape rounds in any order.

The wire form (:meth:`LatencyHistogram.to_wire`) is a tuple of the
non-zero ``(index, count)`` pairs plus the summary counters; it pickles
compactly (an idle method costs a handful of bytes, not 8 KB) and
:meth:`from_wire` reconstructs an equal histogram. ``pickle`` of the
histogram object itself round-trips through the wire form.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

#: linear sub-buckets per power-of-two octave (1/16 relative error)
SUBBUCKETS = 16
#: one bucket per value below SUBBUCKETS, then 16 per octave up to 2**64
NUM_BUCKETS = SUBBUCKETS + SUBBUCKETS * 60

_WIRE_TAG = "hist1"


def bucket_index(value: int) -> int:
    """Bucket index of a non-negative integer value (clamped to range)."""
    if value < SUBBUCKETS:
        return value if value > 0 else 0
    # value in [16 << octave, 32 << octave); (value >> octave) is in [16, 32)
    octave = value.bit_length() - 5
    index = SUBBUCKETS * octave + (value >> octave)
    return index if index < NUM_BUCKETS else NUM_BUCKETS - 1


def bucket_bounds(index: int) -> tuple[int, int]:
    """Inclusive ``(lo, hi)`` value range of one bucket."""
    if index < SUBBUCKETS:
        return index, index
    octave = index // SUBBUCKETS - 1
    sub = index % SUBBUCKETS
    lo = (SUBBUCKETS + sub) << octave
    return lo, lo + (1 << octave) - 1


class LatencyHistogram:
    """Fixed-bucket latency histogram; values are integer nanoseconds.

    Single-writer by convention (the recording thread owns it); any
    thread may snapshot, quantile or merge a copy — counts are ints under
    the GIL, so a concurrent read is at worst slightly stale, never
    corrupt.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets = [0] * NUM_BUCKETS
        self.count = 0
        self.total = 0
        self.min = 0
        self.max = 0

    def record(self, value: int) -> None:
        """Record one sample (negative values clamp to 0)."""
        if value < 0:
            value = 0
        self.buckets[bucket_index(value)] += 1
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.total += value

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram (in place); returns self."""
        mine = self.buckets
        for i, c in enumerate(other.buckets):
            if c:
                mine[i] += c
        if other.count:
            if self.count == 0 or other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        self.count += other.count
        self.total += other.total
        return self

    def quantile(self, p: float) -> int:
        """Upper bound of the bucket holding the p-quantile sample.

        Nearest-rank on the bucket cumulative counts: the returned value
        is ``>=`` the sorted-sample oracle and overshoots it by at most
        1/16 relative (exact below 16 ns). Returns 0 on an empty
        histogram.
        """
        if self.count == 0:
            return 0
        if p <= 0.0:
            return self.min
        # nearest-rank: the ceil of p*count, clamped into [1, count]
        rank = min(self.count, max(1, math.ceil(p * self.count - 1e-9)))
        seen = 0
        for index, c in enumerate(self.buckets):
            if not c:
                continue
            seen += c
            if seen >= rank:
                hi = bucket_bounds(index)[1]
                return min(hi, self.max)
        return self.max  # pragma: no cover - rank <= count always lands

    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    # -- wire form --------------------------------------------------------

    def to_wire(self) -> tuple:
        """Compact picklable form: summary counters + non-zero buckets."""
        pairs = tuple(
            (i, c) for i, c in enumerate(self.buckets) if c
        )
        return (_WIRE_TAG, self.count, self.total, self.min, self.max, pairs)

    @classmethod
    def from_wire(cls, wire: tuple) -> "LatencyHistogram":
        """Reconstruct a histogram from :meth:`to_wire` output."""
        if not isinstance(wire, tuple) or not wire or wire[0] != _WIRE_TAG:
            raise ValueError(f"not a histogram wire form: {wire!r}")
        _tag, count, total, vmin, vmax, pairs = wire
        hist = cls()
        hist.count = count
        hist.total = total
        hist.min = vmin
        hist.max = vmax
        for index, c in pairs:
            hist.buckets[index] += c
        return hist

    def __reduce__(self) -> tuple:
        """Pickle through the compact wire form."""
        return (LatencyHistogram.from_wire, (self.to_wire(),))

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (
            self.buckets == other.buckets
            and self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, mean={self.mean:.0f}ns, "
            f"max={self.max}ns)"
        )


def merge_all(hists: Iterable[LatencyHistogram]) -> LatencyHistogram:
    """Fold any number of histograms into a fresh one."""
    out = LatencyHistogram()
    for h in hists:
        out.merge(h)
    return out
