"""Tests for the shared fault-response block."""

import numpy as np

import repro.faults.responses as responses_module
from repro.core.detectability import TableConfig, extract_tables
from repro.faults.model import StuckAtModel, stuck_at_universe
from repro.faults.responses import FaultResponses, analysis_alphabet
from repro.flow import design_ced
from repro.logic.sim import PackedSimulator
from repro.verification.exhaustive import exhaustive_check


def test_sparse_growth_matches_the_dense_block(vending_synthesis, monkeypatch):
    """Wide state registers grow each closure level by level; the words
    and closures must equal the whole-block simulation's."""
    alphabet = analysis_alphabet(vending_synthesis)
    dense = FaultResponses(vending_synthesis, alphabet)
    monkeypatch.setattr(responses_module, "DEFAULT_BLOCK_LIMIT", 0)
    sparse = FaultResponses(vending_synthesis, alphabet)
    assert dense.dense and not sparse.dense
    assert sparse.good_reachable == dense.good_reachable
    codes = list(range(dense.num_states))
    assert np.array_equal(sparse.good_rows(codes), dense.good_rows(codes))
    for fault in stuck_at_universe(vending_synthesis.netlist):
        assert sparse.response(fault).signature == dense.response(fault).signature


def test_consumers_reuse_the_entries_collapse_built(monkeypatch):
    """Once selection has simulated the faults, table extraction and the
    exhaustive check read the same entries instead of re-sweeping."""
    design = design_ced("vending", latency=2)
    synthesis = design.synthesis
    model = StuckAtModel(synthesis)
    faults = model.faults()
    sweeps = []
    faulty_outputs = PackedSimulator.faulty_outputs

    def counting(self, fault):
        sweeps.append(fault)
        return faulty_outputs(self, fault)

    monkeypatch.setattr(PackedSimulator, "faulty_outputs", counting)
    for semantics in ("checker", "trajectory"):
        config = TableConfig(latency=2, semantics=semantics)
        extract_tables(synthesis, model, config, [1, 2])
    responses = model.responses()
    exhaustive_check(
        synthesis, design.hardware, faults, 2,
        alphabet=responses.alphabet, responses=responses,
    )
    assert sweeps == []
