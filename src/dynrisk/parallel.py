"""Chunked maps, serial and in range order.

The worker count is accepted and ignored: a chunk of the worst-portfolio
scan is a few hundred microseconds of short numpy calls that hold the
interpreter lock, so threads made it slower.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

R = TypeVar("R")


def map_chunks(
    fn: Callable[[int, int], R], ranges: Sequence[tuple[int, int]], workers: int | None
) -> list[R]:
    """Apply fn(lo, hi) to every range in order; ``workers`` is ignored."""
    return [fn(lo, hi) for lo, hi in ranges]
