"""One fault-response block, simulated once and shared by every consumer.

Fault collapsing, table extraction, the latency analysis and the
exhaustive verifier all start inside the good machine's reachable set and
walk *faulty* transitions from there.  The only cells any of them can read
are therefore a fault's **observable closure** (the state codes reachable
from the good-reachable set under the faulty next-state function) crossed
with the input alphabet.  :class:`FaultResponses` holds the fault-free
words once and, per fault, one :class:`FaultResponse`: the closure codes
and the packed output+next-state words on closure × alphabet.

When the whole ``2**s × |alphabet|`` block fits
:data:`DEFAULT_BLOCK_LIMIT` it is simulated fault-free once and each
stuck-at fault is one cone-restricted re-sweep of it
(:class:`repro.logic.sim.PackedSimulator`).  Wider state
registers (one-hot encodings) share the re-sweep over the good-reachable
codes only and evaluate the closure's further codes level by level.
Faults of other models are evaluated through their
``faulty_responses(fault, patterns)``.  Entries are memoized per fault
name and never persisted: rebuilding one costs about 0.1 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.logic.sim import PackedSimulator, evaluate_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.model import Fault, FaultModel
    from repro.logic.synthesis import SynthesisResult

#: Above this many block patterns (``2**s × |alphabet|``) the responses
#: switch to the sparse strategy.  Every bundled benchmark under binary
#: encoding fits (max 4096).
DEFAULT_BLOCK_LIMIT = 1 << 16

def block_patterns(
    synthesis: "SynthesisResult", codes: Sequence[int], alphabet: np.ndarray
) -> np.ndarray:
    """(len(codes) * len(alphabet), r + s) pattern matrix, code-major order."""
    r = synthesis.num_inputs
    s = synthesis.num_state_bits
    input_bits = ((alphabet[:, None] >> np.arange(r)) & 1).astype(np.uint8)
    code_array = np.asarray(codes, dtype=np.int64)
    state_bits = ((code_array[:, None] >> np.arange(s)) & 1).astype(np.uint8)
    tiled_inputs = np.tile(input_bits, (len(code_array), 1))
    repeated_states = np.repeat(state_bits, alphabet.shape[0], axis=0)
    return np.concatenate([tiled_inputs, repeated_states], axis=1)


def pack_words(responses: np.ndarray) -> np.ndarray:
    """Pack (P, n) 0/1 responses into int64 words (bit j = column j)."""
    weights = (1 << np.arange(responses.shape[1], dtype=np.int64)).astype(np.int64)
    return responses.astype(np.int64) @ weights


def analysis_alphabet(synthesis: "SynthesisResult") -> np.ndarray:
    """The default-knob table-extraction alphabet, the one signature
    classes and exhaustive certificates are exact for."""
    from repro.core.detectability import TableConfig, input_alphabet

    return input_alphabet(synthesis, TableConfig())[0]


def reachable_state_codes(
    synthesis: "SynthesisResult",
    alphabet: np.ndarray,
    good_rows: Callable[[list[int]], np.ndarray] | None = None,
) -> list[int]:
    """State codes reachable from reset in the synthesized good machine.

    ``good_rows`` maps a code list to its ``(len, |alphabet|)`` fault-free
    words; by default the netlist is evaluated one BFS level at a time.
    """
    if good_rows is None:

        def good_rows(codes: list[int]) -> np.ndarray:
            patterns = block_patterns(synthesis, codes, alphabet)
            return pack_words(evaluate_batch(synthesis.netlist, patterns))

    mask = (1 << synthesis.num_state_bits) - 1
    seen = {synthesis.reset_code}
    frontier = [synthesis.reset_code]
    while frontier:
        successors = np.unique(np.asarray(good_rows(frontier)) & mask)
        frontier = [code for code in successors.tolist() if code not in seen]
        seen.update(frontier)
    return sorted(seen)


@dataclass(frozen=True)
class FaultResponse:
    """One fault's observable behaviour over closure × alphabet."""

    #: Ascending state codes reachable from the good-reachable set under
    #: the faulty next-state function.
    closure: np.ndarray
    #: ``(len(closure), |alphabet|)`` int64 packed output+next-state words.
    words: np.ndarray

    @property
    def signature(self) -> bytes:
        """Byte-exact observable behaviour (closure codes, then words):
        equal signatures mean identical results in every consumer."""
        return self.closure.tobytes() + self.words.tobytes()


class FaultResponses:
    """Fault-free words plus memoized per-fault closure responses.

    ``faulty_responses`` (``(fault, patterns) -> (P, n)``) evaluates faults
    that are not netlist stuck-ats; with the default ``None`` every fault
    must carry a ``(node, value)`` payload and is simulated as a packed
    cone re-sweep of the shared fault-free block.
    """

    def __init__(
        self,
        synthesis: "SynthesisResult",
        alphabet: np.ndarray,
        faulty_responses: Callable[["Fault", np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self.synthesis = synthesis
        self.alphabet = np.asarray(alphabet, dtype=np.int64)
        self.num_states = 1 << synthesis.num_state_bits
        self.num_inputs = int(self.alphabet.shape[0])
        self.num_patterns = self.num_states * self.num_inputs
        self.dense = self.num_patterns <= DEFAULT_BLOCK_LIMIT
        self.state_mask = np.int64(self.num_states - 1)
        self._faulty_responses = faulty_responses
        self._entries: dict[str, FaultResponse] = {}
        self._good: dict[int, np.ndarray] = {}
        self._simulator: PackedSimulator | None = None
        if self.dense:
            self._simulator = PackedSimulator(
                synthesis.netlist,
                block_patterns(synthesis, range(self.num_states), self.alphabet),
            )
            self.good_words = pack_words(
                self._simulator.good_outputs()
            ).reshape(self.num_states, self.num_inputs)
        self.good_reachable = reachable_state_codes(
            synthesis, self.alphabet, self.good_rows
        )
        #: Codes every fault's first evaluation covers: the whole block
        #: (dense) or the good-reachable codes the closure grows from.
        self._base = np.asarray(
            range(self.num_states) if self.dense else self.good_reachable,
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Fault-free side
    # ------------------------------------------------------------------
    def good_rows(self, codes: Sequence[int]) -> np.ndarray:
        """``(len(codes), |alphabet|)`` fault-free words."""
        codes = np.asarray(codes, dtype=np.int64)
        if self.dense:
            return self.good_words[codes]
        missing = sorted(set(codes.tolist()) - self._good.keys())
        if missing:
            patterns = block_patterns(self.synthesis, missing, self.alphabet)
            words = pack_words(evaluate_batch(self.synthesis.netlist, patterns))
            self._good.update(zip(missing, words.reshape(len(missing), -1)))
        rows = [self._good[code] for code in codes.tolist()]
        return np.stack(rows) if rows else np.zeros((0, self.num_inputs), np.int64)

    # ------------------------------------------------------------------
    # Faulty side
    # ------------------------------------------------------------------
    def response(self, fault: "Fault") -> FaultResponse:
        """The fault's closure and words (simulated once, then memoized)."""
        entry = self._entries.get(fault.name)
        if entry is None:
            entry = self._simulate(fault)
            self._entries[fault.name] = entry
        return entry

    def _faulty_rows(self, fault: "Fault", codes: Sequence[int]) -> np.ndarray:
        patterns = block_patterns(self.synthesis, codes, self.alphabet)
        if self._faulty_responses is not None:
            responses = self._faulty_responses(fault, patterns)
        else:
            node, value = fault.payload  # type: ignore[misc]
            responses = evaluate_batch(
                self.synthesis.netlist, patterns, fault=(int(node), int(value))
            )
        return pack_words(responses).reshape(len(codes), self.num_inputs)

    def _base_rows(self, fault: "Fault") -> np.ndarray:
        if self._faulty_responses is not None:
            return self._faulty_rows(fault, self._base)
        if self._simulator is None:
            self._simulator = PackedSimulator(
                self.synthesis.netlist,
                block_patterns(self.synthesis, self._base, self.alphabet),
            )
        node, value = fault.payload  # type: ignore[misc]
        return pack_words(
            self._simulator.faulty_outputs((int(node), int(value)))
        ).reshape(len(self._base), self.num_inputs)

    def _simulate(self, fault: "Fault") -> FaultResponse:
        """Closure BFS from the good-reachable codes; codes outside the
        shared first evaluation are evaluated one level at a time."""
        rows = dict(zip(self._base.tolist(), self._base_rows(fault)))
        closure = set(self.good_reachable)
        frontier = sorted(closure)
        while frontier:
            missing = [code for code in frontier if code not in rows]
            if missing:
                rows.update(zip(missing, self._faulty_rows(fault, missing)))
            words = np.stack([rows[code] for code in frontier])
            successors = set(np.unique(words & self.state_mask).tolist())
            frontier = sorted(successors - closure)
            closure |= successors
        codes = sorted(closure)
        return FaultResponse(
            np.array(codes, dtype=np.int64), np.stack([rows[c] for c in codes])
        )


def responses_for(
    synthesis: "SynthesisResult", fault_model: "FaultModel", alphabet: np.ndarray
) -> FaultResponses:
    """The fault model's response block over ``alphabet``.

    Models that memoize their own block (:class:`StuckAtModel`) hand it
    out; any other model is evaluated through its ``faulty_responses``.
    """
    shared = getattr(fault_model, "responses", None)
    if shared is not None:
        return shared(alphabet)
    return FaultResponses(synthesis, alphabet, fault_model.faulty_responses)
