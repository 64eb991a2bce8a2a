"""Golden SHA-256 digests of the pipeline's pinned outputs.

Fault collapsing, table extraction and exhaustive verification must stay
byte-identical when their internals are reorganised.  This module pins
SHA-256 digests of

* the stuck-at class partition (member names per class, class order),
* detectability tables for both semantics at p ∈ {1, 2, 4} (rows and
  stats),
* :class:`~repro.faults.model.TransitionFaultModel` tables (checker
  semantics, p ∈ {1, 2}),
* canonical certificate JSON for both semantics at p ∈ {1, 2, 4},

on the hand-written machines plus s27 and dk512.  The digests live in
``tests/data/golden_digests.json``; regenerate them only for a change
that is *meant* to alter an output::

    PYTHONPATH=src python -m tests.test_golden_digests
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.core.detectability import TableConfig, extract_tables
from repro.faults.collapse import select_stuck_at_faults
from repro.faults.model import StuckAtModel, TransitionFaultModel
from repro.fsm.benchmarks import HAND_WRITTEN, load_benchmark
from repro.logic.synthesis import synthesize_fsm
from repro.runtime.cache import ArtifactCache
from repro.verification.certificate import certificate_json
from repro.verification.exhaustive import ExhaustiveConfig, verify_exhaustive

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"
MACHINES = (*HAND_WRITTEN, "s27", "dk512")
LATENCIES = (1, 2, 4)
TRANSITION_LATENCIES = (1, 2)


def _sha(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _table_digest(table) -> str:
    stats = json.dumps(dataclasses.asdict(table.stats), sort_keys=True)
    return _sha(
        f"{table.num_bits}:{table.latency}:{table.rows.shape}:".encode()
        + table.rows.tobytes()
        + stats.encode()
    )


def machine_digests(name: str, cache_dir: str) -> dict[str, str]:
    """Every pinned digest of one machine, keyed by output."""
    synthesis = synthesize_fsm(load_benchmark(name))
    digests: dict[str, str] = {}
    selection = select_stuck_at_faults(synthesis)
    digests["partition"] = _sha(
        json.dumps([list(cls.member_names) for cls in selection.classes])
    )
    for semantics in ("checker", "trajectory"):
        config = TableConfig(latency=max(LATENCIES), semantics=semantics)
        tables = extract_tables(
            synthesis, StuckAtModel(synthesis, max_faults=800), config,
            list(LATENCIES),
        )
        for p in LATENCIES:
            digests[f"tables/{semantics}/p{p}"] = _table_digest(tables[p])
    transition = extract_tables(
        synthesis,
        TransitionFaultModel(synthesis),
        TableConfig(latency=max(TRANSITION_LATENCIES), semantics="checker"),
        list(TRANSITION_LATENCIES),
    )
    for p in TRANSITION_LATENCIES:
        digests[f"transition/p{p}"] = _table_digest(transition[p])
    cache = ArtifactCache(Path(cache_dir) / name)
    for semantics in ("checker", "trajectory"):
        for p in LATENCIES:
            certificate = verify_exhaustive(
                name, ExhaustiveConfig(latency=p, semantics=semantics),
                cache=cache,
            )
            digests[f"certificate/{semantics}/p{p}"] = _sha(
                certificate_json(certificate)
            )
    return digests


@pytest.mark.parametrize("name", MACHINES)
def test_outputs_match_golden_digests(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert machine_digests(name, str(tmp_path)) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        golden = {name: machine_digests(name, work) for name in MACHINES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
