"""Tests for the top-level design flow API."""

import pytest

from repro.flow import design_ced, design_ced_sweep


class TestDesignCed:
    def test_design_by_name(self):
        design = design_ced("seqdet", latency=1)
        assert design.latency == 1
        assert design.num_parity_bits >= 1
        assert design.cost > 0
        assert "seqdet" in design.summary()

    def test_design_by_fsm_object(self, vending_fsm):
        design = design_ced(vending_fsm, latency=2)
        assert design.synthesis.fsm is vending_fsm

    def test_verification_attached(self):
        design = design_ced("seqdet", latency=2, verify=True)
        assert design.verification is not None
        assert design.verification.clean

    def test_semantics_recorded_in_table(self):
        design = design_ced("seqdet", latency=1, semantics="trajectory")
        assert design.table.stats.semantics == "trajectory"

    def test_encoding_choice_respected(self):
        design = design_ced("seqdet", latency=1, encoding="onehot")
        assert design.synthesis.encoding.strategy == "onehot"
        assert design.synthesis.num_state_bits == 4


class TestSweep:
    def test_sweep_is_monotone_in_q(self):
        designs = design_ced_sweep("vending", latencies=[1, 2, 3])
        qs = [designs[p].num_parity_bits for p in (1, 2, 3)]
        assert qs == sorted(qs, reverse=True)

    def test_sweep_shares_synthesis(self):
        designs = design_ced_sweep("seqdet", latencies=[1, 2])
        assert designs[1].synthesis is designs[2].synthesis

    def test_empty_latencies_rejected(self):
        with pytest.raises(ValueError):
            design_ced_sweep("seqdet", latencies=[])

    def test_betas_cover_their_tables(self):
        from repro.core.cover import covers_all

        designs = design_ced_sweep("vending", latencies=[1, 2])
        for design in designs.values():
            assert covers_all(design.table.rows, design.solve_result.betas)


class TestLazyFaultWork:
    def test_warm_design_builds_no_responses_or_selection(
        self, tmp_path, monkeypatch
    ):
        """A warm re-request reads tables from the cache: it must neither
        select faults nor build a response block, though both stay one
        call away on the design's fault model."""
        import repro.faults.collapse as collapse
        from repro.faults.responses import FaultResponses
        from repro.runtime.cache import ArtifactCache

        cache = ArtifactCache(tmp_path)
        design_ced("traffic", latency=2, cache=cache)

        built, selected = [], []
        init = FaultResponses.__init__
        select = collapse.select_stuck_at_faults

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counting_select(*args, **kwargs):
            selected.append(1)
            return select(*args, **kwargs)

        monkeypatch.setattr(FaultResponses, "__init__", counting_init)
        monkeypatch.setattr(collapse, "select_stuck_at_faults", counting_select)
        warm = design_ced("traffic", latency=2, cache=cache)
        assert (built, selected) == ([], [])

        warm.fault_model.selection()
        assert (built, selected) == ([1], [1])
