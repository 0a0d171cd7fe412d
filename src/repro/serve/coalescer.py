"""Batch coalescer: turn a request trickle into fabric-sized batches.

One pass of the bit-sliced fabric sorts every lane presented with it
and costs far less than one pass per lane, so same-width lanes that are
queued together should run together.  The coalescer keeps one bucket
per padded width; a bucket flushes

* from :meth:`BatchCoalescer.add` as soon as it reaches ``max_lanes``
  (reason ``"full"``), and
* from :meth:`BatchCoalescer.poll`, which the service calls whenever the
  fabric is free: every non-empty bucket flushes (reason ``"idle"``).
  Dispatch is work-conserving — a lane never waits while the fabric
  idles, and lanes that arrive while a batch runs share the next one.

The class is deliberately synchronous and clock-parameterized (every
method takes ``now``): the asyncio service drives it with the loop's
clock, while property tests drive it with a virtual clock.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, List, Tuple

import numpy as np

from ..errors import BuildError

__all__ = ["Batch", "BatchCoalescer", "Lane"]


@dataclass(frozen=True)
class Lane:
    """One fabric lane: a width-padded 0/1 row plus an opaque ticket the
    service uses to find the waiting request again."""

    width: int  #: padded power-of-two width
    bits: np.ndarray  #: uint8 row of exactly ``width`` entries
    ticket: Any = None  #: opaque completion handle (e.g. an asyncio Future)


@dataclass(frozen=True)
class Batch:
    """A flushed group of same-width lanes, ready for one engine pass."""

    width: int
    lanes: Tuple[Lane, ...]
    reason: str  #: ``"full"`` | ``"idle"`` | ``"drain"``
    oldest_age_s: float  #: wait of the longest-queued lane at flush time
    fill: float  #: ``len(lanes) / max_lanes`` — the batch-fill metric

    def __len__(self) -> int:
        return len(self.lanes)

    def rows(self) -> np.ndarray:
        """Stack the lanes into the ``(lanes, width)`` engine batch."""
        return np.stack([lane.bits for lane in self.lanes]).astype(np.uint8)


class BatchCoalescer:
    """Per-width lane buckets, flushed when full or when the fabric is free."""

    def __init__(self, max_lanes: int = 256) -> None:
        if max_lanes < 1:
            raise BuildError("max_lanes must be >= 1")
        self.max_lanes = int(max_lanes)
        # width -> deque of (enqueue_time, Lane); OrderedDict so flush
        # order across widths is deterministic (insertion order).
        self._buckets: "OrderedDict[int, Deque[Tuple[float, Lane]]]" = OrderedDict()
        self._depth = 0

    # -- state ---------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Total queued lanes across all width buckets."""
        return self._depth

    # -- mutation ------------------------------------------------------------

    def add(self, lane: Lane, now: float) -> List[Batch]:
        """Enqueue one lane; returns any batches that became full."""
        if lane.width < 1 or lane.bits.size != lane.width:
            raise BuildError(
                f"lane bits must match its width ({lane.bits.size} != {lane.width})"
            )
        bucket = self._buckets.get(lane.width)
        if bucket is None:
            bucket = deque()
            self._buckets[lane.width] = bucket
        bucket.append((now, lane))
        self._depth += 1
        if len(bucket) >= self.max_lanes:
            return [self._flush_bucket(lane.width, now, "full")]
        return []

    def poll(self, now: float) -> List[Batch]:
        """The fabric is free: flush every non-empty bucket."""
        return self._flush_all(now, "idle")

    def drain(self, now: float) -> List[Batch]:
        """Flush everything (service shutdown)."""
        return self._flush_all(now, "drain")

    def _flush_all(self, now: float, reason: str) -> List[Batch]:
        return [self._flush_bucket(width, now, reason)
                for width in list(self._buckets)]

    def _flush_bucket(self, width: int, now: float, reason: str) -> Batch:
        # ``add`` flushes a bucket the moment it holds ``max_lanes``, so
        # a flush always takes the whole bucket.
        taken = self._buckets.pop(width)
        self._depth -= len(taken)
        return Batch(
            width=width,
            lanes=tuple(lane for _, lane in taken),
            reason=reason,
            oldest_age_s=max(0.0, now - taken[0][0]),
            fill=len(taken) / self.max_lanes,
        )
