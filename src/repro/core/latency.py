"""Maximum useful latency (paper §2).

"Overhead reduction due to latency reaches a saturation point … Given a
fault model, we can find the maximum latency of interest by finding the
length of the shortest loop on each faulty FSM and selecting the largest
value."

For each fault we build the faulty machine's state-transition graph over
the part of its code space reachable from the error-activation states, find
the shortest directed cycle in that region, and report the maximum over
faults — exactly the paper's recipe.

Reproduction note: this is a *heuristic*, not a sound saturation bound.  A
short loop only terminates enumeration along paths that actually traverse
it; paths that avoid the shortest loop can keep adding detection choices
at larger latencies, and our dk512 sweep (q = 5 → 4 → 3 over p = 1..3 with
a predicted bound of 1) demonstrates the under-estimate.  A sound bound
would need the longest simple path in the per-fault pair graph, which is
NP-hard in general.  EXPERIMENTS.md records this finding.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.detectability import TableConfig, input_alphabet
from repro.faults.model import FaultModel
from repro.faults.responses import FaultResponse, responses_for
from repro.logic.synthesis import SynthesisResult


def max_useful_latency(
    synthesis: SynthesisResult,
    fault_model: FaultModel,
    config: TableConfig = TableConfig(),
) -> int:
    """Largest latency bound that can still add detection flexibility."""
    alphabet, _ = input_alphabet(synthesis, config)
    responses = responses_for(synthesis, fault_model, alphabet)
    reachable = responses.good_reachable
    good = responses.good_rows(reachable)

    overall = 1
    for fault in fault_model.faults():
        cycle = _shortest_faulty_cycle(
            responses.response(fault), reachable, good, responses.state_mask
        )
        if cycle is not None:
            overall = max(overall, cycle)
    return overall


def _shortest_faulty_cycle(
    entry: FaultResponse,
    reachable: list[int],
    good: np.ndarray,
    state_mask: np.int64,
) -> int | None:
    """Shortest cycle of the faulty machine reachable from an activation."""
    index = {code: row for row, code in enumerate(entry.closure.tolist())}
    next_codes = entry.words & state_mask

    # Activation states: faulty next-states of erroneous reachable transitions.
    rows = [index[code] for code in reachable]
    erroneous = good != entry.words[rows]
    activations = set(next_codes[rows][erroneous].tolist())
    if not activations:
        return None

    # Close the faulty machine's transition relation from the activations
    # (it stays inside the fault's closure).
    graph = nx.DiGraph()
    graph.add_nodes_from(activations)
    frontier = sorted(activations)
    seen = set(frontier)
    while frontier:
        next_frontier: list[int] = []
        for code in frontier:
            for nxt in set(next_codes[index[code]].tolist()):
                graph.add_edge(code, nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    next_frontier.append(nxt)
        frontier = next_frontier

    best: int | None = None
    for node in graph.nodes:
        if graph.has_edge(node, node):
            return 1
        for successor in graph.successors(node):
            try:
                back = nx.shortest_path_length(graph, successor, node)
            except nx.NetworkXNoPath:
                continue
            candidate = 1 + back
            if best is None or candidate < best:
                best = candidate
    return best
