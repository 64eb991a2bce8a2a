"""Certificate schema: round-trip, validation, rendering."""

from __future__ import annotations

import json

import pytest

from repro.verification.certificate import (
    CERTIFICATE_KIND,
    CERTIFICATE_SCHEMA,
    certificate_json,
    parse_certificate,
    render_certificate,
    validate_certificate,
)
from repro.verification.exhaustive import ExhaustiveConfig, verify_exhaustive


@pytest.fixture(scope="module")
def certificate():
    return verify_exhaustive("traffic", ExhaustiveConfig(latency=2))


def test_round_trip_is_lossless_and_canonical(certificate):
    text = certificate_json(certificate)
    parsed = parse_certificate(text)
    assert parsed == certificate
    # Canonical form is a fixed point: re-serializing the parse gives
    # the same bytes (sorted keys, compact separators).
    assert certificate_json(parsed) == text
    assert "\n" not in text


def test_certificate_carries_the_versioned_envelope(certificate):
    assert certificate["schema"] == CERTIFICATE_SCHEMA
    assert certificate["kind"] == CERTIFICATE_KIND
    assert certificate["circuit"] == "traffic"
    assert certificate["config"]["latency"] == 2
    assert len(certificate["fingerprint"]) == 64  # sha256 hex
    faults = certificate["faults"]
    assert faults["checked"] <= faults["classes"] <= faults["collapsed"]
    assert faults["collapsed"] <= faults["universe"]
    assert faults["checked_universe"] == faults["universe"]


def test_exhaustive_counts_cover_the_universe(certificate):
    """Idle/proved/escaped and the histogram are multiplicity-expanded:
    they account for every universe fault, not just the representatives."""
    faults = certificate["faults"]
    assert (
        faults["idle"] + faults["proved"] + faults["escaped"]
        == faults["universe"]
    )
    histogram_total = sum(certificate["latency_histogram"].values())
    assert histogram_total == faults["proved"]
    expanded = sum(
        cls["multiplicity"] for cls in certificate["fault_classes"]
    )
    singletons = faults["checked"] - len(certificate["fault_classes"])
    assert expanded + singletons == faults["checked_universe"]
    for cls in certificate["fault_classes"]:
        assert cls["multiplicity"] == len(cls["members"]) + 1


def test_validation_requires_class_accounting(certificate):
    broken = dict(certificate, faults=dict(certificate["faults"]))
    del broken["faults"]["checked_universe"]
    with pytest.raises(ValueError, match="checked_universe"):
        validate_certificate(broken)


def test_certificate_has_no_wall_clock_fields(certificate):
    # Byte-stability across runs depends on this: nothing time- or
    # host-dependent may appear anywhere in the payload.
    text = certificate_json(certificate).lower()
    for banned in ("created", "timestamp", "elapsed", "seconds", "hostname"):
        assert banned not in text


def test_validation_rejects_malformed_certificates(certificate):
    with pytest.raises(ValueError, match="JSON object"):
        validate_certificate(["not", "an", "object"])

    missing = dict(certificate)
    del missing["summary"]
    with pytest.raises(ValueError, match="missing keys: summary"):
        validate_certificate(missing)

    wrong_kind = dict(certificate, kind="something-else")
    with pytest.raises(ValueError, match="unknown certificate kind"):
        validate_certificate(wrong_kind)

    future = dict(certificate, schema=CERTIFICATE_SCHEMA + 1)
    with pytest.raises(ValueError, match="unsupported certificate schema"):
        validate_certificate(future)

    bad_mode = dict(certificate, mode="approximate")
    with pytest.raises(ValueError, match="unknown certificate mode"):
        validate_certificate(bad_mode)

    fake_sampled = dict(certificate, mode="sampled")
    with pytest.raises(ValueError, match="missing 'sampled'"):
        validate_certificate(fake_sampled)

    with pytest.raises(json.JSONDecodeError):
        parse_certificate("not json")


def test_render_mentions_the_headline_facts(certificate):
    text = render_certificate(certificate)
    assert "traffic" in text
    assert "BOUND HOLDS" in text
    assert "mode=exhaustive" in text
    assert "latency histogram" in text


def test_sampled_certificate_renders_and_validates():
    sampled = verify_exhaustive(
        "seqdet", ExhaustiveConfig(latency=1, state_budget=1)
    )
    validate_certificate(sampled)
    text = render_certificate(sampled)
    assert "mode=sampled" in text
    assert "sampled:" in text


def test_truncated_table_is_flagged_beside_the_verdict(certificate):
    """A capped detectability table can omit the very paths that escape
    (styr p=4 escaped with a truncated table).  The certificate must say
    so, and the rendered verdict line must show it."""
    from repro.core.detectability import TableConfig
    from repro.core.search import SolveConfig
    from repro.faults.collapse import select_stuck_at_faults
    from repro.flow import design_ced
    from repro.verification.certificate import build_exhaustive_certificate
    from repro.verification.exhaustive import exhaustive_check

    config = ExhaustiveConfig(latency=2)
    tight = TableConfig(
        latency=2, semantics="checker",
        max_rows_per_fault=1, max_suffixes_per_state=1,
    )
    design = design_ced(
        "seqdet", latency=2, table_config=tight,
        solve_config=SolveConfig(seed=config.seed),
    )
    selection = select_stuck_at_faults(
        design.synthesis, max_faults=config.max_faults, seed=config.seed
    )
    report = exhaustive_check(
        design.synthesis, design.hardware, list(selection.checked), 2,
        multiplicities=selection.multiplicities(),
    )
    truncated = build_exhaustive_certificate(
        "seqdet", config, design, report, selection
    )
    assert design.table.stats.truncated and not report.clean
    assert truncated["design"]["table_truncated"] is True
    validate_certificate(truncated)
    verdict = render_certificate(truncated).splitlines()[0]
    assert "BOUND VIOLATED" in verdict and "table truncated" in verdict

    # Complete tables leave the field out, keeping their certificate bytes.
    assert "table_truncated" not in certificate["design"]
    assert "table truncated" not in render_certificate(certificate)
