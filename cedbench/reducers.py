"""Pure reducers behind the benchmark's metrics.

Nothing here imports the program under test, so the quick tests in
``test_reducers.py`` pin these rules without building anything.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

#: A p99 is reported only when at least this many samples lie beyond it;
#: with fewer it would rest on a handful of requests.
P99_MIN_BEYOND = 10


def nearest_rank(values: Iterable[float], q: float) -> float:
    """The ceil(q*n)-th smallest value (nearest-rank quantile)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank strictly above the q-quantile."""
    return count - max(1, math.ceil(q * count))


def latency_summary(latencies_ms: Sequence[float]) -> dict:
    """p50/p99 by nearest rank, with the sample counts they rest on.

    Failed requests enter as ``math.inf`` so they count as over any
    latency limit.  ``p99_ms`` is ``None`` unless at least
    :data:`P99_MIN_BEYOND` samples lie beyond it.
    """
    count = len(latencies_ms)
    beyond = samples_beyond(count, 0.99)
    return {
        "samples": count,
        "p50_ms": nearest_rank(latencies_ms, 0.50),
        "p99_ms": (
            nearest_rank(latencies_ms, 0.99)
            if beyond >= P99_MIN_BEYOND
            else None
        ),
        "beyond_p99": beyond,
    }


def fastest_of(repeats: Sequence[Sequence[float]]) -> list[float]:
    """Element-wise minimum of equally long timing sequences.

    ``repeats[k][i]`` times the i-th operation in its k-th repeat.  A
    failed repeat (``math.inf``) keeps the operation failed: the minimum
    may hide host stalls, never errors.
    """
    return [
        math.inf if math.inf in times else min(times)
        for times in zip(*repeats, strict=True)
    ]


def request_latency_ms(due: float, done: float, ok: bool) -> float:
    """Latency from the due time; a failed request is over every limit."""
    return (done - due) * 1000.0 if ok else math.inf


class Tally:
    """Operations attempted and operations that succeeded and passed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.passed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if ok:
            self.passed += 1
        else:
            self.problems.append(what)
        return ok

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    @property
    def ok_share(self) -> float:
        return self.passed / self.attempted if self.attempted else 0.0


def _covered_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end_so_far = -math.inf
    for start, end in sorted(intervals):
        start = max(start, end_so_far)
        if end > start:
            total += end - start
            end_so_far = end
    return total


def self_times(spans: Sequence[dict]) -> dict:
    """Span id -> duration minus the part its child spans cover.

    Each span is a dict with ``id``, ``parent`` (id or None), ``start``
    and ``end``; children are clipped to their parent's interval.
    """
    by_id = {span["id"]: span for span in spans}
    children: dict = defaultdict(list)
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            children[parent["id"]].append(
                (max(span["start"], parent["start"]),
                 min(span["end"], parent["end"]))
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered_length(children[span["id"]])
        for span in spans
    }


def _parity(word: int) -> int:
    return bin(word).count("1") & 1


def uncovered_rows(rows: Iterable[Iterable[int]], betas: Sequence[int]) -> list[int]:
    """Indices of table rows no parity vector detects.

    A row lists the difference words of one erroneous case, one per cycle
    (zero = no difference that cycle).  A β set covers the row when some
    β overlaps some word in an odd number of bits.  Written independently
    of the program's own coverage code, so it can check it.
    """
    return [
        index
        for index, row in enumerate(rows)
        if not any(
            _parity(int(word) & beta) for word in row for beta in betas
        )
    ]

