"""Machine-readable bounded-latency certificates.

A certificate is the durable, diffable record of one verification run:
what was verified (circuit + full config fingerprint), how (``mode:
"exhaustive"`` for the exact engine, ``mode: "sampled"`` for the
fuzzer fallback above the state budget), and what was established
(reachable-state inventory, per-fault exact latency histogram, escape
witnesses, the headline ``bound_holds``).

Certificates are **deterministic by construction**: plain JSON types
only, no wall-clock timestamps, no environment data, and a canonical
serialization (:func:`certificate_json`) with sorted keys and compact
separators — so the same config always yields byte-identical JSON,
whether computed fresh or served from the artifact cache.  The schema is
versioned like the journal schema (``docs/certificate-schema.md``); any
change to field meaning bumps :data:`CERTIFICATE_SCHEMA`.

Layering: ``repro.runtime.report`` renders and diffs certificates by
importing this module — never the reverse.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ced.verify import VerificationReport
    from repro.faults.collapse import FaultSelection
    from repro.flow import CedDesign
    from repro.verification.exhaustive import ExhaustiveConfig, ExhaustiveReport

#: Schema history: 1 — original exhaustive/sampled certificates (PR 6);
#: 2 — behavior-exact fault collapsing: ``faults`` gained ``classes`` /
#: ``checked_universe``, exhaustive idle/proved/escaped counts and the
#: latency histogram are multiplicity-expanded to the full universe, and
#: ``fault_classes`` records every checked class that stands for more
#: than one universe fault.
CERTIFICATE_SCHEMA = 2
CERTIFICATE_KIND = "bounded-latency-certificate"

#: Keys every valid certificate carries, regardless of mode.
_REQUIRED_KEYS = (
    "schema",
    "kind",
    "circuit",
    "mode",
    "config",
    "fingerprint",
    "design",
    "machine",
    "alphabet",
    "faults",
    "summary",
)
_MODES = ("exhaustive", "sampled")


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _common_body(
    fsm_name: str,
    config: "ExhaustiveConfig",
    design: "CedDesign",
    selection: "FaultSelection",
    alphabet_size: int,
    input_mode: str,
    num_patterns: int,
) -> dict:
    from repro.runtime.cache import fingerprint

    synthesis = design.synthesis
    design_body = {
        "q": design.num_parity_bits,
        "betas": [int(beta) for beta in design.solve_result.betas],
        "source": design.solve_result.incumbent_source,
        "gates": design.gates,
        "cost": float(design.cost),
    }
    # Present only when true, so certificates of complete tables keep
    # their bytes: a capped table may omit the very paths that escape.
    if design.table.stats is not None and design.table.stats.truncated:
        design_body["table_truncated"] = True
    return {
        "schema": CERTIFICATE_SCHEMA,
        "kind": CERTIFICATE_KIND,
        "circuit": fsm_name,
        "config": {
            "latency": config.latency,
            "semantics": config.semantics,
            "encoding": config.encoding,
            "max_faults": config.max_faults,
            "multilevel": config.multilevel,
            "seed": config.seed,
            "state_budget": config.state_budget,
        },
        "fingerprint": fingerprint("certificate", fsm_name, config),
        "design": design_body,
        "machine": {
            "inputs": synthesis.num_inputs,
            "state_bits": synthesis.num_state_bits,
            "outputs": synthesis.num_fsm_outputs,
            "bits": synthesis.num_bits,
            "states": len(synthesis.fsm.states),
            "patterns": num_patterns,
        },
        "alphabet": {"size": alphabet_size, "mode": input_mode},
        "faults": {
            "universe": selection.universe,
            "collapsed": selection.structural,
            "classes": selection.num_classes,
            "checked": len(selection.checked),
            "checked_universe": selection.checked_universe,
        },
    }


def build_exhaustive_certificate(
    fsm_name: str,
    config: "ExhaustiveConfig",
    design: "CedDesign",
    report: "ExhaustiveReport",
    selection: "FaultSelection",
) -> dict:
    """Certificate for an exact (``mode: "exhaustive"``) verification.

    Fault counts in ``faults`` (idle/proved/escaped), the latency
    histogram and the summary are **multiplicity-expanded**: every checked
    representative's verdict is weighted by its behavior-equivalence class
    size, so the certificate speaks for the full universe share the
    checked list stands for.  ``fault_classes`` records each checked class
    with more than one member.
    """
    universe_counts = report.universe_counts()
    certificate = _common_body(
        fsm_name,
        config,
        design,
        selection=selection,
        alphabet_size=len(report.alphabet),
        input_mode=report.input_mode,
        num_patterns=report.num_patterns,
    )
    escapes = [
        verdict.witness
        for verdict in report.escapes
        if verdict.witness is not None
    ]
    fault_classes = [
        {
            "representative": cls.representative.name,
            "multiplicity": cls.multiplicity,
            "members": list(cls.member_names[1:]),
        }
        for cls in selection.checked_classes
        if cls.multiplicity > 1
    ]
    certificate.update(
        {
            "mode": "exhaustive",
            "faults": {
                **certificate["faults"],
                "idle": universe_counts["idle"],
                "proved": universe_counts["proved"],
                "escaped": universe_counts["escaped"],
            },
            "fault_classes": fault_classes,
            "reachable": {
                "good": report.reachable_good,
                "good_count": len(report.reachable_good),
                "activation": report.activation_states,
                "activation_count": len(report.activation_states),
            },
            "latency_histogram": {
                str(k): count
                for k, count in sorted(report.histogram().items())
            },
            "worst_latency": report.worst_latency,
            "escapes": escapes,
            "summary": {
                "bound_holds": report.clean,
                "proved": universe_counts["proved"],
                "escaped": universe_counts["escaped"],
                "worst_latency": report.worst_latency,
            },
        }
    )
    return certificate


def build_sampled_certificate(
    fsm_name: str,
    config: "ExhaustiveConfig",
    design: "CedDesign",
    report: "VerificationReport",
    selection: "FaultSelection",
    num_patterns: int,
    input_mode: str,
    alphabet_size: int,
) -> dict:
    """Fallback certificate (``mode: "sampled"``) above the state budget.

    A sampled certificate makes a strictly weaker claim: ``bound_holds``
    means *no violation was observed*, not that none exists, and the
    latency histogram counts observed detections over the sampled runs —
    it is deliberately **not** multiplicity-expanded (the runs only
    exercised the representatives that happened to activate).
    """
    certificate = _common_body(
        fsm_name,
        config,
        design,
        selection=selection,
        alphabet_size=alphabet_size,
        input_mode=input_mode,
        num_patterns=num_patterns,
    )
    histogram = {
        str(k): count
        for k, count in sorted(report.detection_latencies.items())
    }
    observed = [int(k) for k in report.detection_latencies]
    certificate.update(
        {
            "mode": "sampled",
            "latency_histogram": histogram,
            "worst_latency": max(observed) if observed else None,
            "escapes": [],
            "sampled": {
                #: The fuzzer further subsamples the checked representatives
                #: (its own max_faults cap); this is what it actually ran.
                "faults": report.num_faults,
                "runs": report.num_runs,
                "activated_runs": report.num_activated_runs,
                "detected_within_bound": report.num_detected_within_bound,
                "violations": list(report.violations),
            },
            "summary": {
                "bound_holds": report.clean,
                "proved": 0,
                "escaped": len(report.violations),
                "worst_latency": max(observed) if observed else None,
            },
        }
    )
    return certificate


# ----------------------------------------------------------------------
# Serialization / validation
# ----------------------------------------------------------------------
def certificate_json(certificate: dict) -> str:
    """Canonical byte-stable JSON: sorted keys, compact, no NaN."""
    return json.dumps(
        certificate, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def parse_certificate(text: str) -> dict:
    """Parse and validate canonical certificate JSON."""
    certificate = json.loads(text)
    validate_certificate(certificate)
    return certificate


def validate_certificate(certificate: dict) -> None:
    """Raise ``ValueError`` unless ``certificate`` is one we understand."""
    if not isinstance(certificate, dict):
        raise ValueError("certificate must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in certificate]
    if missing:
        raise ValueError(f"certificate missing keys: {', '.join(missing)}")
    if certificate["kind"] != CERTIFICATE_KIND:
        raise ValueError(f"unknown certificate kind {certificate['kind']!r}")
    if certificate["schema"] != CERTIFICATE_SCHEMA:
        raise ValueError(
            f"unsupported certificate schema {certificate['schema']!r} "
            f"(this build reads schema {CERTIFICATE_SCHEMA})"
        )
    if certificate["mode"] not in _MODES:
        raise ValueError(f"unknown certificate mode {certificate['mode']!r}")
    if certificate["mode"] == "sampled" and "sampled" not in certificate:
        raise ValueError("sampled certificate missing 'sampled' section")
    faults = certificate["faults"]
    missing_fault_keys = [
        key
        for key in ("universe", "collapsed", "classes", "checked", "checked_universe")
        if key not in faults
    ]
    if missing_fault_keys:
        raise ValueError(
            "certificate faults section missing keys: "
            + ", ".join(missing_fault_keys)
        )


def render_certificate(certificate: dict) -> str:
    """Human-readable multi-line rendering (CLI + report)."""
    summary = certificate["summary"]
    faults = certificate["faults"]
    design = certificate["design"]
    config = certificate["config"]
    status = "BOUND HOLDS" if summary["bound_holds"] else "BOUND VIOLATED"
    mode = certificate["mode"]
    truncated = ", table truncated" if design.get("table_truncated") else ""
    lines = [
        f"{certificate['circuit']}: {status} "
        f"(p={config['latency']}, mode={mode}{truncated})",
        f"  design: q={design['q']} betas={design['betas']} "
        f"source={design['source']} gates={design['gates']}",
        f"  faults: {faults['checked']} representatives checked, "
        f"standing for {faults['checked_universe']} of "
        f"{faults['universe']} universe faults "
        f"({faults['collapsed']} after equivalence, "
        f"{faults['classes']} classes)",
    ]
    if mode == "exhaustive":
        reachable = certificate["reachable"]
        lines.append(
            f"  reachable: {reachable['good_count']} good states, "
            f"{reachable['activation_count']} activation states, "
            f"{certificate['machine']['patterns']} patterns swept"
        )
        lines.append(
            f"  verdicts: {faults['proved']} proved, "
            f"{faults['idle']} idle, {faults['escaped']} escaped"
        )
    else:
        sampled = certificate["sampled"]
        lines.append(
            f"  sampled: {sampled['activated_runs']} activated of "
            f"{sampled['runs']} runs, "
            f"{sampled['detected_within_bound']} detected in bound"
        )
    histogram = certificate.get("latency_histogram", {})
    if histogram:
        spread = " ".join(
            f"{k}:{histogram[k]}" for k in sorted(histogram, key=int)
        )
        kind = "exact worst-case" if mode == "exhaustive" else "observed"
        lines.append(f"  latency histogram ({kind}): {spread}")
    if summary["worst_latency"] is not None:
        lines.append(f"  worst latency: {summary['worst_latency']}")
    for witness in certificate.get("escapes", []):
        lines.append(
            f"  escape: fault={witness['fault']} "
            f"inputs={witness['inputs']} "
            f"activation_cycle={witness['activation_cycle']}"
        )
    return "\n".join(lines)
