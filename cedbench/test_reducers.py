"""Quick tests for the benchmark's own reducers.

Run from the repository root::

    python3 -m pytest cedbench -q
"""

from __future__ import annotations

import math
from collections import OrderedDict

import pytest

from reducers import (
    Tally,
    fastest_of,
    latency_summary,
    nearest_rank,
    request_latency_ms,
    samples_beyond,
    self_times,
    uncovered_rows,
)
from run import (
    HOT_KEYS,
    SERVE_HOT_CACHE,
    WARM_HEAVY,
    main,
    serve_stream,
    warm_sequence,
)


def test_nearest_rank_takes_the_ceil_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 0.5) == 3.0
    assert nearest_rank(values, 0.99) == 5.0
    assert nearest_rank([1.0, 2.0], 0.5) == 1.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_p99_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    short = latency_summary([float(i) for i in range(999)])
    assert short["p99_ms"] is None and short["beyond_p99"] == 9
    full = latency_summary([float(i) for i in range(1000)])
    assert full["p99_ms"] == 989.0 and full["beyond_p99"] == 10
    assert full["samples"] == 1000 and full["p50_ms"] == 499.0


def test_fastest_of_keeps_failures():
    repeats = [[3.0, 1.0, math.inf], [2.0, 5.0, 1.0]]
    assert fastest_of(repeats) == [2.0, 1.0, math.inf]
    with pytest.raises(ValueError):
        fastest_of([[1.0], [1.0, 2.0]])


def test_warm_p99_is_the_median_tav_request():
    fsms = dict.fromkeys(["m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", WARM_HEAVY])
    sequence = warm_sequence(fsms, seed=7)
    heavy = [job for job in sequence if job[0] == WARM_HEAVY]
    assert (len(sequence), len(heavy)) == (1029, 21)
    # p99 is the 11th slowest request: the middle one of the 21 tav designs.
    assert samples_beyond(len(sequence), 0.99) == 10
    assert sequence == warm_sequence(fsms, seed=7)


def test_serve_seconds_too_short_for_p99_is_refused():
    with pytest.raises(SystemExit) as refused:
        main(["--workload", "serve-warm", "--seconds", "12"])
    assert refused.value.code == 2


def test_self_time_subtracts_nested_children_once():
    spans = [
        {"id": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "end": 4.0},
        {"id": "c", "parent": "b", "start": 2.0, "end": 3.0},
        {"id": "d", "parent": "a", "start": 3.5, "end": 6.0},
        {"id": "e", "parent": None, "start": 20.0, "end": 21.0},
    ]
    own = self_times(spans)
    # a's children b and d overlap on [3.5, 4]: covered is [1, 6] = 5.
    assert own == pytest.approx({"a": 5.0, "b": 2.0, "c": 1.0, "d": 2.5, "e": 1.0})


def test_failed_requests_lower_ok_share_and_exceed_every_limit():
    tally = Tally()
    latencies = []
    for index in range(20):
        ok = tally.record(index % 10 != 9, f"request {index}")
        latencies.append(request_latency_ms(0.0, 0.001, ok))
    assert (tally.attempted, tally.passed, tally.failed) == (20, 18, 2)
    assert tally.ok_share == 0.9
    assert tally.problems == ["request 9", "request 19"]
    assert nearest_rank(latencies, 0.5) == pytest.approx(1.0)
    assert nearest_rank(latencies, 0.95) == math.inf


def test_gf2_recheck_finds_the_one_uncovered_row():
    # Three observable bits; rows list per-cycle difference words.
    rows = [
        [0b001, 0b000],  # bit 0 differs: beta 0b011 overlaps once -> odd
        [0b011, 0b000],  # bits 0,1: overlap 2 with 0b011 -> even; 0b100 -> 0
        [0b011, 0b100],  # second cycle bit 2: caught by 0b100
        [0b110, 0b000],  # bits 1,2: 0b011 overlaps 1 -> odd
    ]
    assert uncovered_rows(rows, [0b011, 0b100]) == [1]
    assert uncovered_rows(rows, [0b001, 0b010, 0b100]) == []


def test_serve_stream_keeps_hot_keys_hot_and_cold_keys_cold():
    keys = [(f"kind{i}", {"n": i}) for i in range(32)]
    stream = serve_stream(keys, seed=7, count=3 * 28 + 900)
    assert stream == serve_stream(keys, seed=7, count=3 * 28 + 900)
    lru: OrderedDict = OrderedDict()
    hits = []
    for index, key in enumerate(stream):
        name = key[0]
        hit = name in lru
        lru[name] = True
        lru.move_to_end(name)
        while len(lru) > SERVE_HOT_CACHE:
            lru.popitem(last=False)
        if index >= 3 * 28:
            hits.append((key in keys[:HOT_KEYS], hit))
    assert all(is_hot == hit for is_hot, hit in hits)
    assert sum(is_hot for is_hot, _ in hits) == 600
