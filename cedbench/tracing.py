"""Spans around the program's public layer functions (traced runs only).

:func:`install` replaces each function in :data:`LAYERS` with a timing
wrapper in its defining module *and* in every ``repro`` module that
imported it by name, so the pipeline's own call sites record spans
without any change under ``src/``.  Spans stay in memory with parent
links; :func:`layer_metrics` reduces them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from reducers import nearest_rank, self_times

#: (layer, defining module, attribute); a dotted attribute is a method.
LAYERS = (
    ("logic.synthesis", "repro.logic.synthesis", "synthesize_fsm"),
    ("logic.espresso", "repro.logic.espresso", "espresso"),
    ("faults.collapse", "repro.faults.collapse", "select_stuck_at_faults"),
    ("core.tables", "repro.core.detectability", "extract_tables"),
    ("core.tables", "repro.core.detectability", "new_extraction_state"),
    ("core.tables", "repro.core.detectability", "extend_extraction_state"),
    ("core.tables", "repro.core.detectability", "tables_from_state"),
    ("core.solve", "repro.core.search", "minimize_parity_bits"),
    ("core.lp", "repro.core.lp", "solve_lp_relaxation"),
    ("core.rounding", "repro.core.rounding", "randomized_rounding"),
    ("core.greedy", "repro.core.greedy", "greedy_parity_cover"),
    ("ced.hardware", "repro.ced.hardware", "build_ced_hardware"),
    ("verification.exhaustive", "repro.verification.exhaustive",
     "exhaustive_check"),
    ("runtime.cache_get", "repro.runtime.cache", "ArtifactCache.get"),
    ("runtime.cache_put", "repro.runtime.cache", "ArtifactCache.put"),
)

_SOLVE_FEASIBLE = ("lp+rr", "lp+rr+repair")


class SpanRecorder:
    """In-memory spans: id, parent, layer, start, end and counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = {
                "id": None,
                "parent": stack[-1]["id"] if stack else None,
                "layer": layer,
                "pid": os.getpid(),
            }
            with self._lock:
                span["id"] = f"{os.getpid()}-{len(self.spans)}"
                self.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _collapse_counts(args, kwargs, selection) -> dict:
    return {"universe": selection.universe, "classes": selection.num_classes}


def _table_counts(args, kwargs, tables) -> dict:
    return {"rows": sum(table.num_rows for table in tables.values())}


def _extend_counts(args, kwargs, stats) -> dict:
    return {
        "reused": stats.reused_suffix_entries,
        "new": stats.new_suffix_entries,
    }


def _solve_counts(args, kwargs, result) -> dict:
    outcomes = list(result.per_q_outcome.values())
    return {
        "probes": len(outcomes),
        "feasible": sum(outcome in _SOLVE_FEASIBLE for outcome in outcomes),
        "from_lp": result.incumbent_source in _SOLVE_FEASIBLE,
    }


def _rounding_counts(args, kwargs, result) -> dict:
    return {"success": result.success}


def _hardware_counts(args, kwargs, hardware) -> dict:
    synthesis = _arg(args, kwargs, 0, "synthesis")
    return {
        "design": repr((
            synthesis.fsm.name,
            synthesis.num_state_bits,
            sorted(set(_arg(args, kwargs, 1, "betas"))),
        ))
    }


def _exhaustive_counts(args, kwargs, report) -> dict:
    return {"faults": len(_arg(args, kwargs, 2, "faults"))}


def _get_counts(args, kwargs, result) -> dict:
    return {"hit": bool(result[0])}


def _put_counts(args, kwargs, result) -> dict:
    cache, stage, key = args[0], _arg(args, kwargs, 1, "stage"), _arg(
        args, kwargs, 2, "key"
    )
    try:
        return {"bytes": cache._path(stage, key).stat().st_size}
    except OSError:
        return {"bytes": 0}


_COUNTS = {
    "select_stuck_at_faults": _collapse_counts,
    "tables_from_state": _table_counts,
    "extend_extraction_state": _extend_counts,
    "minimize_parity_bits": _solve_counts,
    "randomized_rounding": _rounding_counts,
    "build_ced_hardware": _hardware_counts,
    "exhaustive_check": _exhaustive_counts,
    "ArtifactCache.get": _get_counts,
    "ArtifactCache.put": _put_counts,
}


def _import_all_repro_modules() -> None:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(recorder: SpanRecorder) -> None:
    """Wrap every :data:`LAYERS` function wherever ``repro`` bound it."""
    _import_all_repro_modules()
    for layer, module_name, attribute in LAYERS:
        module = sys.modules[module_name]
        counts = _COUNTS.get(attribute)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = getattr(owner, method)
            setattr(owner, method, recorder.wrap(layer, original, counts))
            continue
        original = getattr(module, attribute)
        wrapper = recorder.wrap(layer, original, counts)
        for name, loaded in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[dict], wall_s: float) -> dict:
    """Per-layer self seconds, call counts and ratios from raw spans.

    ``wall_s`` is the time the spans were recorded in; the share of it no
    layer span covers is ``untraced_share``.
    """
    own = self_times(spans)
    seconds: dict = defaultdict(float)
    calls: Counter = Counter()
    by_layer: dict = defaultdict(list)
    for span in spans:
        seconds[span["layer"]] += own[span["id"]]
        calls[span["layer"]] += 1
        by_layer[span["layer"]].append(span)

    def total(layer: str, field: str) -> float:
        return sum(span.get(field, 0) for span in by_layer[layer])

    hits = total("runtime.cache_get", "hit")
    hardware = [span["design"] for span in by_layer["ced.hardware"]]
    return {
        "logic.synthesis_s": seconds["logic.synthesis"],
        "logic.espresso_s": seconds["logic.espresso"],
        "logic.espresso_calls": calls["logic.espresso"],
        "faults.collapse_s": seconds["faults.collapse"],
        "faults.collapse_calls": calls["faults.collapse"],
        "faults.class_share": _share(
            total("faults.collapse", "classes"),
            total("faults.collapse", "universe"),
        ),
        "core.tables_s": seconds["core.tables"],
        "core.table_rows": total("core.tables", "rows"),
        "core.suffix_reuse_share": _share(
            total("core.tables", "reused"),
            total("core.tables", "reused") + total("core.tables", "new"),
        ),
        "core.solve_s": seconds["core.solve"],
        "core.q_probes": total("core.solve", "probes"),
        "core.q_probe_feasible_share": _share(
            total("core.solve", "feasible"), total("core.solve", "probes")
        ),
        "core.q_from_lp_share": _share(
            total("core.solve", "from_lp"), calls["core.solve"]
        ),
        "core.lp_s": seconds["core.lp"],
        "core.lp_calls": calls["core.lp"],
        "core.rounding_s": seconds["core.rounding"],
        "core.rounding_calls": calls["core.rounding"],
        "core.rounding_success_share": _share(
            total("core.rounding", "success"), calls["core.rounding"]
        ),
        "core.greedy_s": seconds["core.greedy"],
        "core.greedy_calls": calls["core.greedy"],
        "ced.hardware_s": seconds["ced.hardware"],
        "ced.hardware_calls": calls["ced.hardware"],
        "ced.hardware_distinct_share": _share(
            len(set(hardware)), len(hardware)
        ),
        "verification.exhaustive_s": seconds["verification.exhaustive"],
        "verification.faults_checked": total(
            "verification.exhaustive", "faults"
        ),
        "runtime.cache_get_s": seconds["runtime.cache_get"],
        "runtime.cache_put_s": seconds["runtime.cache_put"],
        "runtime.cache_hits": hits,
        "runtime.cache_misses": calls["runtime.cache_get"] - hits,
        "runtime.cache_put_mb": total("runtime.cache_put", "bytes") / 1e6,
        "untraced_share": 1.0 - _share(sum(own.values()), wall_s),
    }


def service_metrics(records: list[dict]) -> dict:
    """Client-side hop breakdown from timed requests and response meta."""
    done = [record for record in records if record["ok"]]
    pool = [record for record in done if not record["hot"]]

    def p50(values: list[float]) -> float:
        return nearest_rank(values, 0.5) if values else 0.0

    return {
        "service.client_ms_p50": p50([r["client_ms"] for r in done]),
        "service.daemon_ms_p50": p50([r["daemon_ms"] for r in done]),
        "service.hop_ms_p50": p50(
            [r["client_ms"] - r["daemon_ms"] for r in done]
        ),
        "service.pool_ms_p50": p50([r["daemon_ms"] for r in pool]),
        "service.hot_share": _share(len(done) - len(pool), len(done)),
        "service.late_ms_p99": (
            nearest_rank([r["late_ms"] for r in records], 0.99)
            if records else 0.0
        ),
    }
