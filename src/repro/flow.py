"""End-to-end convenience flow: FSM in, verified CED design out.

This is the public high-level API tying the whole stack together::

    from repro import design_ced

    design = design_ced("traffic", latency=2)
    print(design.solve_result.q, design.hardware.cost)

For latency sweeps (one extraction, chained solving — the cheap and
monotone way) use :func:`design_ced_sweep`.

Both entry points accept the campaign runtime's hooks: an
:class:`repro.runtime.cache.ArtifactCache` (the expensive stages —
synthesis, table extraction, solving — are then content-addressed and
never recomputed for identical inputs), a
:class:`repro.runtime.metrics.MetricsRecorder` (per-stage wall-time /
memory), and ``degraded=True`` (greedy-only solving, the executor's
timeout fallback).  All three default to off, and the cached path returns
bit-identical results to the uncached one — the cache stores the values
of pure functions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.ced.hardware import CedHardware, build_ced_hardware
from repro.ced.verify import VerificationReport, verify_bounded_latency
from repro.core.detectability import (
    STATE_SCHEMA,
    DetectabilityTable,
    ExtractionState,
    TableConfig,
    extend_extraction_state,
    extract_tables,
    new_extraction_state,
    tables_from_state,
)
from repro.core.search import (
    SolveConfig,
    SolveResult,
    solve_for_latencies,
    solve_greedy_for_latencies,
)
from repro.faults.model import FaultModel, StuckAtModel
from repro.fsm.benchmarks import load_benchmark
from repro.fsm.machine import FSM
from repro.knowledge.similarity import Neighbor, propose_incumbent
from repro.knowledge.store import (
    KnowledgeContext,
    current_knowledge,
    make_record,
    signature_of,
)
from repro.logic.synthesis import SynthesisResult, synthesize_fsm
from repro.runtime.cache import Cache, NullCache, cached_call, fingerprint
from repro.runtime.metrics import MetricsRecorder
from repro.runtime.trace import current_tracer

#: Don't persist extraction states whose frontier arrays exceed this many
#: bytes — the reuse win is dwarfed by pickle/IO on pathological machines.
_STATE_PERSIST_LIMIT = 128 * 1024 * 1024


#: TableConfig knobs that shape the analysis input alphabet.  Signature
#: classes are exact with respect to the *default* alphabet; a config that
#: reshapes it must fall back to structural collapsing only.
_ALPHABET_KNOBS = (
    "exhaustive_input_limit",
    "extra_random_inputs",
    "max_alphabet",
    "seed",
)


def _uses_default_alphabet(table_config: TableConfig) -> bool:
    default = TableConfig()
    return all(
        getattr(table_config, knob) == getattr(default, knob)
        for knob in _ALPHABET_KNOBS
    )


def _config_sans_latency(table_config: TableConfig) -> tuple:
    """The TableConfig fields that shape the extraction *state*.

    ``latency`` is deliberately excluded: it is exactly the axis the
    persisted state is shared across — a ``p=4`` sweep must find and
    extend the state a ``p=1`` run left behind.
    """
    return tuple(
        (fld.name, getattr(table_config, fld.name))
        for fld in dataclasses.fields(table_config)
        if fld.name != "latency"
    )


def _incremental_extract(
    cache: Cache,
    fsm: FSM,
    synthesis: SynthesisResult,
    fault_model: FaultModel,
    table_config: TableConfig,
    latencies: list[int],
    encoding: str,
    multilevel: bool,
    fault_desc: tuple,
) -> dict[int, DetectabilityTable]:
    """Extract tables by extending a cached enumeration frontier.

    The pickled :class:`ExtractionState` lives in the derived
    ``tables-state`` cache stage, keyed by everything that shapes the
    enumeration *except* the latency set — so a warm ``p=1→2→4`` sweep
    reuses every memoized suffix antichain instead of re-enumerating.
    Byte-identity with :func:`extract_tables` is guaranteed by the pure
    per-key memo semantics (and pinned by the differential tests).
    """
    if isinstance(cache, NullCache):
        return extract_tables(synthesis, fault_model, table_config, latencies)
    state_key = fingerprint(
        "tables-state", fsm, encoding, multilevel, fault_desc,
        _config_sans_latency(table_config),
    )
    found, state = cache.get("tables-state", state_key)
    usable = (
        found
        and isinstance(state, ExtractionState)
        and state.schema == STATE_SCHEMA
        and state.fault_names
        == tuple(fault.name for fault in fault_model.faults())
    )
    tracer = current_tracer()
    if tracer.enabled:
        tracer.event(
            "tables.incremental.state",
            fsm=fsm.name,
            hit=bool(found),
            usable=bool(usable),
        )
    if not usable:
        state = new_extraction_state(synthesis, fault_model, table_config)
    parent_latencies = sorted(state.latencies)
    stats = extend_extraction_state(
        state, synthesis, fault_model, table_config, latencies
    )
    mode = (
        "derive"
        if not stats.new_latencies
        else ("extend" if parent_latencies else "build")
    )
    tables = tables_from_state(state, table_config, latencies)
    persisted = False
    state_bytes = state.approx_nbytes()
    if stats.new_latencies and state_bytes <= _STATE_PERSIST_LIMIT:
        cache.put("tables-state", state_key, state)
        persisted = True
    if tracer.enabled:
        tracer.event(
            "tables.incremental.extend",
            fsm=fsm.name,
            mode=mode,
            parent_latencies=parent_latencies,
            latencies=sorted(set(int(p) for p in latencies)),
            new_latencies=list(stats.new_latencies),
            reused_suffix_entries=stats.reused_suffix_entries,
            new_suffix_entries=stats.new_suffix_entries,
            reuse_ratio=round(stats.reuse_ratio, 4),
            state_persisted=persisted,
            state_bytes=state_bytes,
        )
    return tables


def _warm_lookup(
    active: KnowledgeContext | None,
    synthesis: SynthesisResult,
    table_config: TableConfig,
    latencies: list[int],
    fsm_name: str,
) -> Neighbor | None:
    """Rank stored records and pick a warm-start incumbent (or None).

    Emits the ``store.lookup`` journal event whenever a store is active
    with warm start enabled — including empty-store and no-candidate
    outcomes, so fleet telemetry can see lookup hit rates.
    """
    if active is None or not active.warm_start:
        return None
    signature = signature_of(
        synthesis, table_config.semantics, min(latencies)
    )
    records = active.store.records()
    warm = propose_incumbent(records, signature)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.event(
            "store.lookup",
            fsm=fsm_name,
            records=len(records),
            neighbor=warm.record.fingerprint if warm else None,
            neighbor_circuit=warm.record.circuit if warm else None,
            distance=round(warm.distance, 6) if warm else None,
        )
    return warm


def _warm_provenance(
    warm: Neighbor | None,
    results: dict[int, "SolveResult"],
    latencies: list[int],
    fsm_name: str,
) -> dict | None:
    """Build the ``warm_start`` meta dict and emit ``store.warm``."""
    if warm is None:
        return None
    first = results[min(latencies)]
    meta = {
        "neighbor": warm.record.fingerprint,
        "neighbor_circuit": warm.record.circuit,
        "neighbor_q": warm.record.q,
        "distance": round(warm.distance, 6),
        "accepted": bool(first.incumbent_accepted),
        "q_delta": first.q - warm.record.q,
    }
    tracer = current_tracer()
    if tracer.enabled:
        tracer.event("store.warm", fsm=fsm_name, **meta)
    return meta


def _record_designs(
    active: KnowledgeContext,
    synthesis: SynthesisResult,
    table_config: TableConfig,
    solve_config: SolveConfig,
    max_faults: int | None,
    multilevel: bool,
    designs: dict[int, "CedDesign"],
) -> None:
    """Append one store record per designed latency (fingerprint-deduped)."""
    appended = 0
    for latency in sorted(designs):
        design = designs[latency]
        record = make_record(
            signature_of(synthesis, table_config.semantics, latency),
            solve_config,
            max_faults,
            multilevel,
            q=design.solve_result.q,
            betas=design.solve_result.betas,
            cost=design.hardware.cost,
            gates=design.hardware.gates,
            source=design.solve_result.incumbent_source,
        )
        try:
            if active.store.append(record):
                appended += 1
        except OSError:
            # A read-only or vanished store file must never fail a solve.
            break
    tracer = current_tracer()
    if tracer.enabled:
        tracer.event(
            "store.append",
            fsm=synthesis.fsm.name,
            appended=appended,
            latencies=sorted(designs),
        )


@dataclass
class CedDesign:
    """A complete bounded-latency CED design for one machine."""

    synthesis: SynthesisResult
    latency: int
    table: DetectabilityTable
    solve_result: SolveResult
    hardware: CedHardware
    verification: VerificationReport | None = None
    #: Warm-start provenance (neighbor fingerprint, accepted, q delta);
    #: ``None`` whenever no knowledge-base incumbent was injected, so
    #: cold-path designs are indistinguishable from pre-knowledge builds.
    warm_start: dict | None = None
    #: The fault model the table was extracted for.  A cold extraction
    #: leaves its fault selection and response block memoized on it, so
    #: verification reuses them; a warm design has built neither.
    fault_model: FaultModel | None = None

    @property
    def num_parity_bits(self) -> int:
        return self.solve_result.q

    @property
    def gates(self) -> int:
        return self.hardware.gates

    @property
    def cost(self) -> float:
        return self.hardware.cost

    def summary(self) -> str:
        """One-line human-readable summary."""
        fsm = self.synthesis.fsm
        text = (
            f"{fsm.name}: latency={self.latency} parity bits={self.num_parity_bits} "
            f"CED gates={self.gates} cost={self.cost:.1f} "
            f"(original gates={self.synthesis.stats.gates} "
            f"cost={self.synthesis.stats.cost:.1f})"
        )
        if self.verification is not None:
            text += (
                f" verified: {self.verification.num_activated_runs} activations, "
                f"{len(self.verification.violations)} violations"
            )
        return text


def design_ced(
    fsm: FSM | str,
    latency: int = 1,
    semantics: str = "checker",
    encoding: str = "binary",
    max_faults: int | None = 800,
    table_config: TableConfig | None = None,
    solve_config: SolveConfig = SolveConfig(),
    fault_model: FaultModel | None = None,
    verify: bool = False,
    multilevel: bool = False,
    cache: Cache | None = None,
    recorder: MetricsRecorder | None = None,
    degraded: bool = False,
    knowledge: KnowledgeContext | None = None,
) -> CedDesign:
    """Design bounded-latency CED hardware for a machine.

    The default ``semantics="checker"`` makes the built hardware carry the
    detection guarantee (verifiable with ``verify=True``); pass
    ``"trajectory"`` for the paper-faithful table construction.
    ``multilevel=True`` applies the algebraic extraction pass to both the
    machine and the predictor.
    """
    designs = design_ced_sweep(
        fsm,
        latencies=[latency],
        semantics=semantics,
        encoding=encoding,
        max_faults=max_faults,
        table_config=table_config,
        solve_config=solve_config,
        fault_model=fault_model,
        verify=verify,
        multilevel=multilevel,
        cache=cache,
        recorder=recorder,
        degraded=degraded,
        knowledge=knowledge,
    )
    return designs[latency]


def design_ced_sweep(
    fsm: FSM | str,
    latencies: list[int],
    semantics: str = "checker",
    encoding: str = "binary",
    max_faults: int | None = 800,
    table_config: TableConfig | None = None,
    solve_config: SolveConfig = SolveConfig(),
    fault_model: FaultModel | None = None,
    verify: bool = False,
    multilevel: bool = False,
    cache: Cache | None = None,
    recorder: MetricsRecorder | None = None,
    degraded: bool = False,
    knowledge: KnowledgeContext | None = None,
) -> dict[int, CedDesign]:
    """Design CED hardware for several latency bounds in one pass.

    ``knowledge`` (or an ambient :func:`current_knowledge` context)
    activates the design knowledge base: completed solves are recorded,
    and — unless the context's ``warm_start`` is off — the nearest stored
    neighbor's β set seeds the search as a verified incumbent.  With no
    store, an empty store, or ``warm_start=False`` the solve path and its
    cache keys are byte-identical to a knowledge-free run.
    """
    if isinstance(fsm, str):
        fsm = load_benchmark(fsm)
    if not latencies:
        raise ValueError("at least one latency bound required")
    if cache is None:
        cache = NullCache()
    if recorder is None:
        recorder = MetricsRecorder()
    custom_model = fault_model is not None

    with recorder.stage("synthesis") as stage:
        synthesis, stage.cached = cached_call(
            cache,
            "synthesis",
            fingerprint("synthesis", fsm, encoding, multilevel),
            lambda: synthesize_fsm(fsm, encoding=encoding, multilevel=multilevel),
        )
    if table_config is None:
        table_config = TableConfig(latency=max(latencies), semantics=semantics)
    if fault_model is None:
        fault_model = StuckAtModel(
            synthesis,
            max_faults=max_faults,
            signature_collapse=_uses_default_alphabet(table_config),
        )

    with recorder.stage("tables") as stage:
        if custom_model:
            # An arbitrary user model has no stable fingerprint — always
            # extract fresh rather than risk replaying a stale artifact.
            tables = extract_tables(synthesis, fault_model, table_config, latencies)
        else:
            fault_desc = (
                "stuck-at",
                fault_model.include_inputs,
                fault_model.collapse,
                fault_model.signature_collapse,
                max_faults,
                fault_model.seed,
            )
            tables, stage.cached = cached_call(
                cache,
                "tables",
                fingerprint(
                    "tables", fsm, encoding, multilevel, fault_desc,
                    table_config, tuple(sorted(set(latencies))),
                ),
                lambda: _incremental_extract(
                    cache, fsm, synthesis, fault_model, table_config,
                    latencies, encoding, multilevel, fault_desc,
                ),
            )

    # Knowledge base: a custom fault model has no stable request
    # fingerprint, and degraded (greedy-only) q's would poison the
    # neighbor ranking — both keep the store out of the loop entirely.
    active = knowledge if knowledge is not None else current_knowledge()
    if degraded or custom_model:
        active = None
    warm = _warm_lookup(active, synthesis, table_config, latencies, fsm.name)

    with recorder.stage("solve") as stage:
        solver = solve_greedy_for_latencies if degraded else solve_for_latencies
        warm_parts = (
            (("warm", warm.record.fingerprint, list(warm.record.betas)),)
            if warm is not None
            else ()
        )
        solve_key = fingerprint(
            "solve",
            "degraded" if degraded else "full",
            solve_config,
            [(p, tables[p].num_bits, tables[p].rows) for p in sorted(tables)],
            *warm_parts,
        )
        if warm is not None:
            compute = lambda: solve_for_latencies(  # noqa: E731
                tables, solve_config, incumbent=list(warm.record.betas)
            )
        else:
            compute = lambda: solver(tables, solve_config)  # noqa: E731
        results, stage.cached = cached_call(cache, "solve", solve_key, compute)

    warm_meta = _warm_provenance(warm, results, latencies, fsm.name)

    designs: dict[int, CedDesign] = {}
    with recorder.stage("hardware"):
        for latency in latencies:
            # Checker semantics promises detection at whatever state the
            # *faulty* machine occupies — including states the good machine
            # never reaches — so the predictor must stay faithful there
            # (fuzzer find: a present-state stuck-at fault parked the
            # machine in a dc-optimized unreachable state and escaped the
            # bound).  Trajectory designs keep the paper's area-saving dc.
            hardware = build_ced_hardware(
                synthesis,
                results[latency].betas,
                unreachable_dc=(table_config.semantics != "checker"),
                multilevel=multilevel,
            )
            designs[latency] = CedDesign(
                synthesis=synthesis,
                latency=latency,
                table=tables[latency],
                solve_result=results[latency],
                hardware=hardware,
                warm_start=warm_meta,
                fault_model=fault_model,
            )
    if active is not None:
        _record_designs(
            active, synthesis, table_config, solve_config,
            max_faults, multilevel, designs,
        )
    if verify:
        with recorder.stage("verify"):
            for latency in latencies:
                designs[latency].verification = verify_bounded_latency(
                    synthesis,
                    designs[latency].hardware,
                    fault_model.faults(),
                    latency=latency,
                    seed=solve_config.seed,
                )
    return designs
