"""Disjoint integer interval set.

Used by the TCP receiver to track out-of-order data and by the sender's
scoreboard to track SACKed sequence ranges. Ranges are half-open
``[start, end)`` over packet numbers.

The implementation keeps a sorted list of disjoint, non-adjacent ranges
and merges on insert, giving O(log n) lookups and O(n) worst-case insert
— in practice the number of fragments is tiny (bounded by the reordering
degree of the path).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Optional, Tuple

Range = Tuple[int, int]


class RangeSet:
    """A set of integers stored as sorted, disjoint half-open ranges."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, ranges: Iterable[Range] = ()) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        for start, end in ranges:
            self.add(start, end)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __len__(self) -> int:
        """Total number of integers covered."""
        return sum(end - start for start, end in zip(self._starts, self._ends))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __iter__(self) -> Iterator[Range]:
        return iter(self.ranges())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangeSet({self.ranges()!r})"

    def ranges(self) -> List[Range]:
        """All ranges as a list of ``(start, end)`` tuples, ascending."""
        return list(zip(self._starts, self._ends))

    def lowest_ranges(self, n: int, first: Optional[int] = None) -> List[Range]:
        """The range holding ``first`` (when ``first`` is covered), then
        the lowest other ranges in ascending order while fewer than ``n``
        are listed.

        This is the order a TCP receiver reports SACK blocks in: the
        block with the segment that triggered the ACK goes first. It
        reads at most ``n + 1`` leading ranges, whatever the set's size.
        """
        starts, ends = self._starts, self._ends
        blocks: List[Range] = []
        held = -1
        if first is not None:
            idx = bisect_right(starts, first) - 1
            if idx >= 0 and first < ends[idx]:
                held = idx
                blocks.append((starts[idx], ends[idx]))
        i = 0
        count = len(starts)
        while len(blocks) < n and i < count:
            if i != held:
                blocks.append((starts[i], ends[i]))
            i += 1
        return blocks

    def consistency_error(self) -> Optional[str]:
        """Describe the first structural-invariant violation, or ``None``.

        The representation invariant — parallel start/end lists holding
        sorted, disjoint, non-adjacent, non-empty half-open ranges — is
        what every bisect-based query relies on. The runtime sanitizer
        calls this on the sender's scoreboards after each ACK.
        """
        if len(self._starts) != len(self._ends):
            return (
                f"parallel lists out of sync: {len(self._starts)} starts, "
                f"{len(self._ends)} ends"
            )
        prev_end: Optional[int] = None
        for start, end in zip(self._starts, self._ends):
            if start >= end:
                return f"empty or inverted range [{start}, {end})"
            if prev_end is not None and start <= prev_end:
                kind = "overlapping" if start < prev_end else "unmerged adjacent"
                return f"{kind} ranges at [{start}, {end}) after end {prev_end}"
            prev_end = end
        return None

    def range_count(self) -> int:
        """Number of disjoint fragments."""
        return len(self._starts)

    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, merging with overlapping/adjacent ranges."""
        if start >= end:
            if start == end:
                return
            raise ValueError(f"invalid range [{start}, {end})")
        # Find all existing ranges that overlap or touch [start, end).
        lo = bisect_left(self._ends, start)  # first range with end >= start
        hi = bisect_right(self._starts, end)  # first range with start > end
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
        del self._starts[lo:hi]
        del self._ends[lo:hi]
        self._starts.insert(lo, start)
        self._ends.insert(lo, end)

    def add_point(self, value: int) -> None:
        """Insert a single integer."""
        self.add(value, value + 1)

    def __contains__(self, value: int) -> bool:
        idx = bisect_right(self._starts, value) - 1
        return idx >= 0 and value < self._ends[idx]

    def covers(self, start: int, end: int) -> bool:
        """True if every integer in ``[start, end)`` is present."""
        if start >= end:
            return True
        idx = bisect_right(self._starts, start) - 1
        return idx >= 0 and end <= self._ends[idx]

    def max_value(self) -> int:
        """Largest covered integer. Raises ``ValueError`` when empty."""
        if not self._ends:
            raise ValueError("max_value() of empty RangeSet")
        return self._ends[-1] - 1

    def min_value(self) -> int:
        """Smallest covered integer. Raises ``ValueError`` when empty."""
        if not self._starts:
            raise ValueError("min_value() of empty RangeSet")
        return self._starts[0]

    def contiguous_end_from(self, start: int) -> int:
        """Largest ``e`` such that ``[start, e)`` is fully covered.

        Returns ``start`` itself when ``start`` is not covered. Used by
        the receiver to advance ``rcv_nxt`` across filled holes.
        """
        idx = bisect_right(self._starts, start) - 1
        if idx >= 0 and start < self._ends[idx]:
            return self._ends[idx]
        return start

    def remove_below(self, cutoff: int) -> None:
        """Discard all integers ``< cutoff`` (scoreboard garbage collection)."""
        idx = bisect_right(self._ends, cutoff)
        del self._starts[:idx]
        del self._ends[:idx]
        if self._starts and self._starts[0] < cutoff:
            self._starts[0] = cutoff

    def count_above(self, value: int) -> int:
        """Number of covered integers strictly greater than ``value``."""
        total = 0
        idx = bisect_right(self._ends, value + 1)
        if idx > 0:
            idx -= 1  # the range ending at/after value+1 may straddle it
        for start, end in zip(self._starts[idx:], self._ends[idx:]):
            lo = max(start, value + 1)
            if end > lo:
                total += end - lo
        return total

    def count_below(self, value: int) -> int:
        """Number of covered integers strictly less than ``value``."""
        total = 0
        for start, end in zip(self._starts, self._ends):
            if start >= value:
                break
            total += min(end, value) - start
        return total

    def holes_between(self, start: int, end: int) -> List[Range]:
        """Uncovered sub-ranges of ``[start, end)``, ascending."""
        if start >= end:
            return []
        holes: List[Range] = []
        cursor = start
        starts, ends = self._starts, self._ends
        idx = max(0, bisect_right(ends, start) - 1)
        for i in range(idx, len(starts)):
            r_start = starts[i]
            if r_start >= end:
                break
            r_end = ends[i]
            if r_end <= cursor:
                continue
            if r_start > cursor:
                holes.append((cursor, min(r_start, end)))
            cursor = max(cursor, r_end)
            if cursor >= end:
                break
        if cursor < end:
            holes.append((cursor, end))
        return holes

    def nth_from_top(self, n: int) -> Optional[int]:
        """The ``n``-th largest covered integer (1-indexed), or ``None``
        if fewer than ``n`` integers are covered.

        Used by RFC 6675 loss marking: with DupThresh = 3, every hole
        below the 3rd-highest SACKed sequence is deemed lost.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        remaining = n
        for i in range(len(self._starts) - 1, -1, -1):
            size = self._ends[i] - self._starts[i]
            if size >= remaining:
                return self._ends[i] - remaining
            remaining -= size
        return None
