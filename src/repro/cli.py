"""Command-line interface.

Installed as ``repro-ced`` (also ``python -m repro``).  Subcommands:

* ``info CIRCUIT``     — structural report of a benchmark FSM;
* ``synth CIRCUIT``    — synthesize and print gate/cost statistics;
* ``design CIRCUIT``   — full bounded-latency CED design (+ verification);
* ``verify CIRCUIT``   — fault-injection check of the latency guarantee
  (exit 1 on violations; accepts ``--kiss PATH`` for external machines;
  ``--exhaustive`` proves the bound exactly and emits a machine-readable
  certificate, see ``docs/certificate-schema.md``);
* ``fuzz``             — coverage-guided differential fuzzing of the
  whole pipeline (exit 1 on discrepancies);
* ``sweep CIRCUIT...`` — latency-saturation curves;
* ``table1``           — reproduce the paper's Table 1 (+ summary stats);
* ``campaign``         — run a circuits × latencies job matrix in parallel;
* ``query``            — fleet-wide analytics over the design knowledge
  base: cost-vs-latency frontiers, per-encoding aggregates, raw record
  lookup (``--server`` asks a running daemon via ``GET /query``);
* ``report``           — summarise a run's journal/manifest/table1.json,
  or diff two runs and flag q/cost/runtime regressions;
* ``serve``            — long-lived design-service daemon (HTTP over TCP
  or a unix socket; hot cache, request coalescing, worker pool;
  ``--peer ADDR`` enables the read-through peer artifact cache);
* ``route``            — front-tier router over ``serve`` replicas
  (rendezvous-hashed dispatch, health-checked failover, bounded retry,
  hedged re-dispatch of stragglers);
* ``cache``            — artifact-cache statistics / purge;
* ``list``             — list available benchmarks.

``design --server ADDR`` delegates the query to a running daemon (or
router) instead of computing locally (see ``docs/service-api.md``);
transient busy/draining answers are absorbed by a bounded jittered-
backoff retry before the command gives up with exit 3.

``design``, ``sweep``, ``table1`` and ``campaign`` share the campaign
runtime flags: ``--jobs N`` (worker processes), ``--cache-dir PATH``,
``--no-cache`` and ``--journal PATH`` (write the traced run journal).
Results are bit-identical whatever the flags — the cache stores values of
pure functions, jobs are seeded deterministically, and tracing is
write-only observability (it never feeds back into results or keys).

``design``, ``sweep``, ``table1``, ``campaign`` and ``serve`` also take
``--knowledge PATH`` (record every completed solve into the design
knowledge store and warm-start new solves from structural neighbors)
and ``--no-warm-start`` (record only — the solver never sees the store,
so results stay byte-identical to a cold run).  See
``docs/store-schema.md``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Sequence

from repro.experiments.figures import latency_saturation_curves
from repro.experiments.summary import summarize
from repro.experiments.table1 import Table1Config, format_table1, run_table1
from repro.flow import design_ced
from repro.fsm.analysis import analyze
from repro.fsm.benchmarks import (
    TABLE1_CIRCUITS,
    UnknownBenchmarkError,
    benchmark_summaries,
    load_benchmark,
)
from repro.logic.synthesis import synthesize_fsm
from repro.runtime.cache import ArtifactCache, open_cache
from repro.runtime.campaign import CampaignOptions, design_matrix_jobs, run_campaign
from repro.runtime.trace import JournalWriter, Tracer, use_tracer
from repro.util.tables import format_table


class CliError(Exception):
    """A user-input error: printed as ``error: ...`` and exits 2.

    The same convention :class:`UnknownBenchmarkError` gets from
    :func:`main` — raise this instead of hand-rolling print-and-return-2
    in subcommand handlers.
    """


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "info": _cmd_info,
        "synth": _cmd_synth,
        "design": _cmd_design,
        "verify": _cmd_verify,
        "fuzz": _cmd_fuzz,
        "sweep": _cmd_sweep,
        "table1": _cmd_table1,
        "campaign": _cmd_campaign,
        "query": _cmd_query,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "route": _cmd_route,
        "cache": _cmd_cache,
    }[args.command]
    try:
        return handler(args)
    except (UnknownBenchmarkError, CliError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro-ced list | head`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _load_fsm(circuit: str | None, kiss: str | None):
    """Load from a benchmark name or a KISS file, with uniform errors.

    Benchmark typos propagate :class:`UnknownBenchmarkError` (nearest-match
    suggestion included); unreadable or malformed KISS files become
    :class:`CliError` — both reach the user as ``error: ...`` + exit 2
    instead of a traceback.
    """
    if (circuit is None) == (kiss is None):
        raise CliError("give exactly one of CIRCUIT or --kiss PATH")
    if kiss is not None:
        from repro.fsm.kiss import parse_kiss_file

        try:
            return parse_kiss_file(kiss)
        except OSError as error:
            raise CliError(f"cannot read KISS file {kiss!r}: "
                           f"{error.strerror or error}") from error
        except ValueError as error:
            raise CliError(f"bad KISS file {kiss!r}: {error}") from error
    return load_benchmark(circuit)


def _check_circuits(circuits: Sequence[str]) -> None:
    """Fail fast on benchmark typos — before forking workers."""
    for circuit in circuits:
        load_benchmark(circuit)


def _add_runtime_flags(
    parser: argparse.ArgumentParser, jobs: bool = True, journal: bool = False
) -> None:
    if jobs:
        parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes (default 1 = serial)")
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="artifact cache directory (default "
                        "$REPRO_CACHE_DIR or ~/.cache/repro-ced)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache for this run")
    if journal:
        parser.add_argument("--journal", metavar="PATH",
                            help="write the traced run journal (JSONL) here; "
                            "render it with `repro-ced report`")


def _add_knowledge_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--knowledge", metavar="PATH",
                        help="design knowledge store (JSONL): record every "
                        "completed solve and warm-start new solves from "
                        "structural neighbors (see docs/store-schema.md)")
    parser.add_argument("--no-warm-start", action="store_true",
                        help="record into the knowledge store but never "
                        "seed the solver from it; results stay "
                        "byte-identical to a cold run")


def _knowledge_context(args: argparse.Namespace):
    """``--knowledge PATH`` → a :class:`KnowledgeContext`, else ``None``.

    The knowledge base is strictly opt-in: without the flag nothing is
    read or written and results are byte-identical to earlier releases.
    """
    if not getattr(args, "knowledge", None):
        return None
    from repro.knowledge.store import KnowledgeContext, open_store

    return KnowledgeContext(
        store=open_store(args.knowledge),
        warm_start=not args.no_warm_start,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ced",
        description="Bounded-latency concurrent error detection in FSMs "
        "(DATE 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available benchmark FSMs")

    info = sub.add_parser("info", help="structural report of a benchmark")
    info.add_argument("circuit")

    synth = sub.add_parser("synth", help="synthesize a benchmark")
    synth.add_argument("circuit")
    synth.add_argument("--encoding", default="binary",
                       choices=("binary", "gray", "onehot", "weighted"))
    synth.add_argument("--multilevel", action="store_true",
                       help="apply the algebraic multilevel pass")
    synth.add_argument("--minimize-states", action="store_true",
                       help="merge equivalent states first")
    synth.add_argument("--blif", metavar="PATH",
                       help="export the synthesized netlist as BLIF")

    design = sub.add_parser("design", help="design CED hardware")
    design.add_argument("circuit")
    design.add_argument("--latency", type=int, default=1)
    design.add_argument("--semantics", default="checker",
                        choices=("checker", "trajectory"))
    design.add_argument("--encoding", default="binary",
                        choices=("binary", "gray", "onehot", "weighted"))
    design.add_argument("--max-faults", type=int, default=800)
    design.add_argument("--verify", action="store_true",
                        help="run the fault-injection verifier")
    design.add_argument("--server", metavar="ADDR",
                        help="delegate to a running `repro-ced serve` "
                        "daemon (host:port or unix:PATH) instead of "
                        "computing locally")
    _add_runtime_flags(design, journal=True)
    _add_knowledge_flags(design)

    verify = sub.add_parser(
        "verify",
        help="fault-injection verification of the bounded-latency guarantee",
    )
    verify.add_argument("circuit", nargs="?", default=None,
                        help="benchmark name (or use --kiss)")
    verify.add_argument("--kiss", metavar="PATH",
                        help="verify a machine from a KISS2 file instead")
    verify.add_argument("--latency", type=int, default=1)
    verify.add_argument("--semantics", default="checker",
                        choices=("checker", "trajectory"))
    verify.add_argument("--encoding", default="binary",
                        choices=("binary", "gray", "onehot", "weighted"))
    verify.add_argument("--max-faults", type=int, default=800)
    verify.add_argument("--exhaustive", action="store_true",
                        help="prove the bound exactly (breadth-first search "
                        "over every reachable fault activation) instead of "
                        "sampling it; exit 1 on any escape")
    verify.add_argument("--state-budget", type=int, default=None,
                        metavar="N",
                        help="with --exhaustive: fall back to the sampled "
                        "verifier above N enumerated (state, input) "
                        "patterns (default 65536); the certificate is "
                        "then marked mode=sampled")
    verify.add_argument("--certificate", metavar="PATH",
                        help="with --exhaustive: write the machine-readable "
                        "certificate (canonical JSON, see "
                        "docs/certificate-schema.md)")
    _add_runtime_flags(verify, jobs=False, journal=True)

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided differential fuzzing of the CED pipeline",
    )
    fuzz.add_argument("--iterations", type=int, default=200, metavar="N",
                      help="fuzzed machines to generate (default %(default)s)")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--batch-size", type=int, default=25, metavar="N",
                      help="machines per executor batch (coverage feedback "
                      "is folded between batches)")
    fuzz.add_argument("--latency", type=int, default=2)
    fuzz.add_argument("--max-faults", type=int, default=40)
    fuzz.add_argument("--solve-iterations", type=int, default=200)
    fuzz.add_argument("--mutation", default="none",
                      choices=("none", "rounding"),
                      help="inject a known pipeline bug (smoke test: the "
                      "fuzzer must catch it)")
    fuzz.add_argument("--no-gap", action="store_true",
                      help="skip the trajectory-vs-checker gap measurement")
    fuzz.add_argument("--no-replay", action="store_true",
                      help="skip the seed-corpus replay phase")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="persist failing machines unminimized")
    fuzz.add_argument("--time-budget", type=float, default=None, metavar="SEC",
                      help="stop starting new batches after SEC seconds")
    fuzz.add_argument("--corpus-dir", default="fuzz-corpus", metavar="PATH",
                      help="reproducer output directory (default %(default)s)")
    fuzz.add_argument("--manifest", metavar="PATH", default=None,
                      help="manifest path (default CORPUS_DIR/fuzz-manifest.json)")
    fuzz.add_argument("--timeout", type=float, default=None, metavar="SEC",
                      help="per-machine wall-clock limit")
    fuzz.add_argument("--retries", type=int, default=1)
    _add_runtime_flags(fuzz)

    sweep = sub.add_parser("sweep", help="latency saturation curve(s)")
    sweep.add_argument("circuits", nargs="+", metavar="circuit")
    sweep.add_argument("--max-latency", type=int, default=4)
    sweep.add_argument("--semantics", default="trajectory",
                       choices=("checker", "trajectory"))
    _add_runtime_flags(sweep, journal=True)
    _add_knowledge_flags(sweep)

    table1 = sub.add_parser("table1", help="reproduce the paper's Table 1")
    table1.add_argument("--circuits", nargs="*", default=list(TABLE1_CIRCUITS))
    table1.add_argument("--semantics", default="trajectory",
                        choices=("checker", "trajectory"))
    table1.add_argument("--max-faults", type=int, default=800)
    table1.add_argument("--seed", type=int, default=2004)
    table1.add_argument("--json", metavar="PATH",
                        help="also write the machine-readable table1.json")
    table1.add_argument("--manifest", metavar="PATH",
                        help="write the campaign run manifest (JSON)")
    table1.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-circuit wall-clock limit")
    table1.add_argument("--retries", type=int, default=1,
                        help="extra attempts before the degraded fallback")
    _add_runtime_flags(table1, journal=True)
    _add_knowledge_flags(table1)

    campaign = sub.add_parser(
        "campaign",
        help="run a circuits × latencies design matrix in parallel",
    )
    campaign.add_argument("--circuits", nargs="*", default=list(TABLE1_CIRCUITS))
    campaign.add_argument("--latencies", nargs="*", type=int, default=[1, 2, 3])
    campaign.add_argument("--semantics", default="trajectory",
                          choices=("checker", "trajectory"))
    campaign.add_argument("--encoding", default="binary",
                          choices=("binary", "gray", "onehot", "weighted"))
    campaign.add_argument("--max-faults", type=int, default=800)
    campaign.add_argument("--multilevel", action="store_true")
    campaign.add_argument("--seed", type=int, default=2004)
    campaign.add_argument("--derive-seeds", action="store_true",
                          help="independent deterministic per-circuit seeds")
    campaign.add_argument("--timeout", type=float, default=None, metavar="SEC",
                          help="per-job wall-clock limit")
    campaign.add_argument("--retries", type=int, default=1,
                          help="extra attempts before the degraded fallback")
    campaign.add_argument("--no-fallback", action="store_true",
                          help="fail jobs instead of degrading to greedy-only")
    campaign.add_argument("--manifest", metavar="PATH",
                          default="repro-campaign-manifest.json",
                          help="run manifest path (default %(default)s)")
    _add_runtime_flags(campaign, journal=True)
    _add_knowledge_flags(campaign)

    query = sub.add_parser(
        "query",
        help="fleet-wide analytics over the design knowledge base",
    )
    query.add_argument("kind", choices=("frontier", "aggregates", "lookup"),
                       help="frontier: cheapest design per (circuit, "
                       "latency), Pareto-flagged; aggregates: per-encoding "
                       "counts and means; lookup: raw records")
    query.add_argument("--circuit", action="append", default=[],
                       dest="circuits", metavar="NAME",
                       help="filter by circuit (repeatable for frontier; "
                       "single for lookup)")
    query.add_argument("--encoding", default=None,
                       choices=("binary", "gray", "onehot", "weighted"),
                       help="frontier filter")
    query.add_argument("--semantics", default=None,
                       choices=("checker", "trajectory"),
                       help="frontier/aggregates filter")
    query.add_argument("--fingerprint", default=None, metavar="PREFIX",
                       help="lookup filter: record fingerprint prefix")
    query.add_argument("--knowledge", metavar="PATH",
                       help="knowledge store path (default $REPRO_KNOWLEDGE "
                       "or ~/.cache/repro-ced/knowledge.jsonl)")
    query.add_argument("--json", action="store_true",
                       help="emit canonical JSON (byte-stable for frontier/"
                       "aggregates) instead of a text table")
    query.add_argument("--server", metavar="ADDR",
                       help="ask a running daemon or router via GET /query "
                       "instead of reading a local store")

    report = sub.add_parser(
        "report",
        help="summarise run artifacts, or diff two runs for regressions",
    )
    report.add_argument("paths", nargs="+", metavar="PATH",
                        help="run directory (holding journal.jsonl / "
                        "manifest.json / table1.json) or one such file")
    report.add_argument("--diff", action="store_true",
                        help="compare exactly two runs: BASELINE NEW")
    report.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when the diff finds a blocking "
                        "regression (q or cost; runtime stays advisory)")
    report.add_argument("--include-runtime", action="store_true",
                        help="make runtime regressions blocking too")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived design-service daemon",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default %(default)s)")
    serve.add_argument("--port", type=int, default=8537,
                       help="TCP port (default %(default)s; 0 = ephemeral)")
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="serve over a unix domain socket instead of TCP")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="pool processes owned by the daemon "
                       "(default %(default)s; 0 = compute in the request "
                       "thread)")
    serve.add_argument("--hot-cache-size", type=int, default=256, metavar="N",
                       help="in-memory LRU response entries "
                       "(default %(default)s)")
    serve.add_argument("--queue-limit", type=int, default=8, metavar="N",
                       help="max concurrent computations before requests "
                       "are rejected with HTTP 429 (default %(default)s)")
    serve.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-request wall-clock budget")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.add_argument("--peer", action="append", default=[],
                       metavar="ADDR", dest="peers",
                       help="peer replica address (repeatable); a local "
                       "artifact-cache miss fetches from warm peers "
                       "before re-solving (more can join at runtime via "
                       "POST /cache/peer)")
    serve.add_argument("--peer-timeout", type=float, default=5.0,
                       metavar="SEC",
                       help="per-peer-fetch timeout (default %(default)s; "
                       "a slow peer degrades to a local re-solve)")
    serve.add_argument("--peer-negative-ttl", type=float, default=30.0,
                       metavar="SEC",
                       help="seconds a peer miss is remembered before "
                       "peers are asked again (default %(default)s)")
    _add_runtime_flags(serve, jobs=False, journal=True)
    _add_knowledge_flags(serve)

    route = sub.add_parser(
        "route",
        help="run the front-tier router over `serve` replicas",
    )
    route.add_argument("--replica", action="append", default=[],
                       metavar="ADDR", dest="replicas", required=True,
                       help="replica daemon address (repeatable, at least "
                       "one): host:port or unix:PATH")
    route.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default %(default)s)")
    route.add_argument("--port", type=int, default=8600,
                       help="TCP port (default %(default)s; 0 = ephemeral)")
    route.add_argument("--socket", metavar="PATH", default=None,
                       help="listen on a unix domain socket instead of TCP")
    route.add_argument("--retries", type=int, default=6, metavar="N",
                       help="dispatch attempts per request before a "
                       "saturated fleet surfaces as 503 "
                       "(default %(default)s)")
    route.add_argument("--retry-base-delay", type=float, default=0.1,
                       metavar="SEC",
                       help="backoff base; the delay before attempt n is "
                       "uniform(0, min(max, base*2^n)) (default %(default)s)")
    route.add_argument("--retry-max-delay", type=float, default=2.0,
                       metavar="SEC",
                       help="backoff cap (default %(default)s)")
    route.add_argument("--health-interval", type=float, default=2.0,
                       metavar="SEC",
                       help="seconds between replica /healthz probes "
                       "(default %(default)s)")
    route.add_argument("--no-hedge", action="store_true",
                       help="disable hedged re-dispatch of stragglers")
    route.add_argument("--hedge-multiplier", type=float, default=3.0,
                       metavar="X",
                       help="hedge a request after p95 * X seconds in "
                       "flight (default %(default)s)")
    route.add_argument("--hedge-min-samples", type=int, default=10,
                       metavar="N",
                       help="latency samples per kind before hedging "
                       "activates (default %(default)s)")
    route.add_argument("--hedge-floor", type=float, default=0.05,
                       metavar="SEC",
                       help="minimum hedge deadline (default %(default)s)")
    route.add_argument("--timeout", type=float, default=600.0, metavar="SEC",
                       help="per-leg forwarding timeout (default %(default)s)")
    route.add_argument("--journal", metavar="PATH",
                       help="write route.dispatch/route.hedge events (JSONL)")
    route.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    cache = sub.add_parser("cache", help="artifact cache maintenance")
    cache.add_argument("action", choices=("stats", "purge"))
    cache.add_argument("--stage", default=None,
                       help="purge only one stage (synthesis/tables/"
                       "tables-state/solve/...); tables-state holds the "
                       "incremental extraction frontiers derived tables "
                       "are extended from")
    cache.add_argument("--cache-dir", metavar="PATH",
                       help="cache directory (default $REPRO_CACHE_DIR or "
                       "~/.cache/repro-ced)")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        [s["name"], s["family"], s["inputs"], s["states"], s["outputs"], s["n"]]
        for s in benchmark_summaries()
    ]
    print(format_table(
        ["Circuit", "Family", "In", "States", "Out", "n"], rows,
        title="Registered benchmark FSMs (n = observable bits, binary encoding)",
    ))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    print(analyze(load_benchmark(args.circuit)))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    fsm = load_benchmark(args.circuit)
    if args.minimize_states:
        from repro.fsm.minimize import minimize_states

        before = fsm.num_states
        fsm = minimize_states(fsm)
        print(f"state minimization: {before} -> {fsm.num_states} states")
    synthesis = synthesize_fsm(
        fsm, encoding=args.encoding, multilevel=args.multilevel
    )
    stats = synthesis.stats
    print(
        f"{args.circuit}: {synthesis.num_inputs} in / "
        f"{synthesis.num_state_bits} state bits / "
        f"{synthesis.num_fsm_outputs} out — {stats.gates} gates, "
        f"cost {stats.cost:.1f} ({args.encoding} encoding"
        f"{', multilevel' if args.multilevel else ''})"
    )
    for cell, count in sorted(stats.cells.items()):
        print(f"  {cell:6s} x{count}")
    if args.blif:
        from repro.logic.blif import write_blif_file

        write_blif_file(synthesis.netlist, args.blif, model_name=args.circuit)
        print(f"BLIF written to {args.blif}")
    return 0


def _cmd_design_remote(args: argparse.Namespace) -> int:
    """``design --server``: ship the query to a running daemon/router.

    Transient failures (429 busy, 503 draining, unreachable socket) are
    absorbed by the client's jittered-backoff retry; only a budget-
    exhausting string of them surfaces as exit 3.
    """
    from repro.service.client import ServiceClient, ServiceError

    if args.verify:
        print("error: --verify runs locally only (the service returns "
              "design summaries, not netlists)", file=sys.stderr)
        return 2

    def note_retry(attempt: int, delay: float, error: Exception) -> None:
        print(f"server {args.server} busy ({error}); "
              f"retry {attempt + 2} in {delay:.2f}s", file=sys.stderr)

    try:
        client = ServiceClient(args.server)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        body = client.call_with_retry(
            "design",
            {
                "circuit": args.circuit,
                "latency": args.latency,
                "semantics": args.semantics,
                "encoding": args.encoding,
                "max_faults": args.max_faults,
            },
            on_retry=note_retry,
        )
    except ServiceError as error:
        print(f"error: server {args.server}: {error}", file=sys.stderr)
        if error.busy:
            return 3  # transient and the retry budget is spent
        return 2 if error.status == 400 else 1
    except OSError as error:
        print(f"error: cannot reach server {args.server}: {error}",
              file=sys.stderr)
        return 3
    result, meta = body["result"], body["meta"]
    print(
        f"{result['circuit']}: latency={result['latency']} "
        f"parity bits={result['q']} CED gates={result['gates']} "
        f"cost={result['cost']:.1f} "
        f"(original gates={result['original']['gates']} "
        f"cost={result['original']['cost']:.1f})"
    )
    print(f"  parity vectors: {[hex(b) for b in result['betas']]}")
    labels = {
        "parity_trees": "parity trees",
        "predictor": "predictor",
        "comparator": "comparator+holds",
    }
    for part, label in labels.items():
        stats = result["breakdown"][part]
        print(f"  {label:17s} {stats['gates']:4d} gates, "
              f"cost {stats['cost']:8.1f}")
    print(
        f"  served by {args.server} in {meta['elapsed_ms']:.1f} ms "
        f"(hot_cache={str(meta['hot_cache']).lower()}, "
        f"coalesced={str(meta['coalesced']).lower()})"
    )
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    if args.server:
        return _cmd_design_remote(args)
    cache = open_cache(args.cache_dir, enabled=not args.no_cache)
    knowledge = _knowledge_context(args)
    tracer = Tracer() if args.journal else None
    context = use_tracer(tracer) if tracer is not None else nullcontext()
    with context:
        design = design_ced(
            args.circuit,
            latency=args.latency,
            semantics=args.semantics,
            encoding=args.encoding,
            max_faults=args.max_faults,
            verify=args.verify,
            cache=cache,
            knowledge=knowledge,
        )
    if tracer is not None:
        with JournalWriter(args.journal, name=f"design-{args.circuit}") as writer:
            writer.write_all(tracer.records, job=args.circuit)
        print(f"journal written to {args.journal}")
    print(design.summary())
    print(f"  parity vectors: {[hex(b) for b in design.solve_result.betas]}")
    if design.warm_start is not None:
        meta = design.warm_start
        verdict = "accepted" if meta["accepted"] else "rejected"
        print(f"  warm start: neighbor {meta['neighbor_circuit']} "
              f"({meta['neighbor'][:12]}, distance {meta['distance']:.3f}) "
              f"{verdict}, q delta {meta['q_delta']:+d}")
    breakdown = {
        "parity trees": design.hardware.parity_stats,
        "predictor": design.hardware.predictor_stats,
        "comparator+holds": design.hardware.comparator_stats,
    }
    for label, stats in breakdown.items():
        print(f"  {label:17s} {stats.gates:4d} gates, cost {stats.cost:8.1f}")
    if args.verify and design.verification is not None:
        report = design.verification
        print(
            f"  verification: {report.num_activated_runs} activated runs, "
            f"{len(report.violations)} violations, "
            f"latency histogram {report.detection_latencies}"
        )
        if not report.clean:
            return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    fsm = _load_fsm(args.circuit, args.kiss)
    if args.exhaustive:
        return _cmd_verify_exhaustive(args, fsm)
    cache = open_cache(args.cache_dir, enabled=not args.no_cache)
    design = design_ced(
        fsm,
        latency=args.latency,
        semantics=args.semantics,
        encoding=args.encoding,
        max_faults=args.max_faults,
        verify=True,
        cache=cache,
    )
    report = design.verification
    assert report is not None
    truncated = ", table truncated" if design.table.stats.truncated else ""
    print(f"{fsm.name} ({args.semantics} semantics, "
          f"q={design.num_parity_bits}{truncated}): {report.summary()}")
    for violation in report.violations[:10]:
        print(f"  violation: {violation}")
    if len(report.violations) > 10:
        print(f"  ... and {len(report.violations) - 10} more")
    return 0 if report.clean else 1


def _cmd_verify_exhaustive(args: argparse.Namespace, fsm) -> int:
    """``verify --exhaustive``: prove the bound, emit the certificate."""
    from pathlib import Path

    from repro.verification.certificate import (
        certificate_json,
        render_certificate,
    )
    from repro.verification.exhaustive import (
        DEFAULT_STATE_BUDGET,
        ExhaustiveConfig,
        verify_exhaustive,
    )

    config = ExhaustiveConfig(
        latency=args.latency,
        semantics=args.semantics,
        encoding=args.encoding,
        max_faults=args.max_faults,
        state_budget=(
            args.state_budget
            if args.state_budget is not None
            else DEFAULT_STATE_BUDGET
        ),
    )
    cache = open_cache(args.cache_dir, enabled=not args.no_cache)
    tracer = Tracer() if args.journal else None
    context = use_tracer(tracer) if tracer is not None else nullcontext()
    with context:
        certificate = verify_exhaustive(fsm, config, cache=cache)
    if tracer is not None:
        with JournalWriter(args.journal, name=f"verify-{fsm.name}") as writer:
            writer.write_all(tracer.records, job=fsm.name)
        print(f"journal written to {args.journal}")
    print(render_certificate(certificate))
    if args.certificate:
        path = Path(args.certificate)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(certificate_json(certificate) + "\n")
        print(f"certificate written to {args.certificate}")
    return 0 if certificate["summary"]["bound_holds"] else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verification.fuzzer import FuzzOptions, run_fuzz

    options = FuzzOptions(
        iterations=args.iterations,
        seed=args.seed,
        jobs=args.jobs,
        batch_size=args.batch_size,
        latency=args.latency,
        max_faults=args.max_faults,
        solve_iterations=args.solve_iterations,
        mutation=args.mutation,
        check_trajectory_gap=not args.no_gap,
        time_budget=args.time_budget,
        corpus_dir=args.corpus_dir,
        manifest_path=args.manifest,
        replay_corpus=not args.no_replay,
        shrink=not args.no_shrink,
        timeout=args.timeout,
        retries=args.retries,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
    )
    run = run_fuzz(options, echo=print)
    totals = run.manifest["totals"]
    gap = totals["trajectory_gap"]
    print(
        f"\n{totals['machines']} machines fuzzed, "
        f"{totals['discrepant']} discrepancies, "
        f"{totals['coverage_signatures']} coverage signatures "
        f"in {totals['wall_seconds']:.1f}s"
    )
    if gap["eligible"]:
        print(
            f"trajectory-vs-checker gap: {gap['with_gap']}/{gap['eligible']} "
            f"machines ({100 * gap['rate']:.1f}%) violate the hardware bound "
            "when designed with trajectory semantics"
        )
    return 0 if run.clean else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_circuits(args.circuits)
    options = CampaignOptions(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        journal_path=args.journal,
        knowledge_path=args.knowledge,
        warm_start=not args.no_warm_start,
        name="sweep",
    )
    curves = latency_saturation_curves(
        args.circuits,
        max_latency=args.max_latency,
        semantics=args.semantics,
        options=options,
    )
    for index, circuit in enumerate(args.circuits):
        if index:
            print()
        print(curves[circuit].format())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    _check_circuits(args.circuits)
    config = Table1Config(
        semantics=args.semantics, max_faults=args.max_faults, seed=args.seed
    )
    options = CampaignOptions(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        timeout=args.timeout,
        retries=args.retries,
        manifest_path=args.manifest,
        journal_path=args.journal,
        knowledge_path=args.knowledge,
        warm_start=not args.no_warm_start,
        name="table1",
    )
    result = run_table1(tuple(args.circuits), config, options=options)
    print(format_table1(result))
    print()
    print(summarize(result).format())
    if args.json:
        from repro.experiments.report import write_table1_json

        write_table1_json(result, args.json)
        print(f"\nJSON written to {args.json}")
    if args.manifest:
        print(f"manifest written to {args.manifest}")
    if args.journal:
        print(f"journal written to {args.journal}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    _check_circuits(args.circuits)
    jobs = design_matrix_jobs(
        args.circuits,
        latencies=args.latencies,
        semantics=args.semantics,
        encoding=args.encoding,
        max_faults=args.max_faults,
        multilevel=args.multilevel,
        seed=args.seed,
        derive_seeds=args.derive_seeds,
    )
    options = CampaignOptions(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        timeout=args.timeout,
        retries=args.retries,
        fallback=not args.no_fallback,
        manifest_path=args.manifest,
        journal_path=args.journal,
        knowledge_path=args.knowledge,
        warm_start=not args.no_warm_start,
        name="campaign",
    )
    run = run_campaign(jobs, options, echo=print)

    headers = ["Circuit"]
    for latency in args.latencies:
        headers += [f"p{latency}:Trees", f"p{latency}:Gates", f"p{latency}:Cost"]
    rows = []
    for job in jobs:
        summary = run.values.get(job.name)
        if summary is None:
            rows.append([job.name] + ["-"] * (len(headers) - 1))
            continue
        cells: list[object] = [job.name]
        for latency in args.latencies:
            entry = summary["latencies"][str(latency)]
            cells += [entry["trees"], entry["gates"], round(entry["cost"], 2)]
        rows.append(cells)
    print()
    print(format_table(
        headers, rows,
        title=f"Campaign over {len(jobs)} circuits "
        f"(semantics={args.semantics}, jobs={args.jobs})",
    ))
    totals = run.manifest["totals"]
    print(
        f"\n{totals['ok']} ok / {totals['degraded']} degraded / "
        f"{totals['failed']} failed in {totals['wall_seconds']:.1f}s wall "
        f"({totals['job_seconds']:.1f}s job time; cache "
        f"{totals['cache_hits']} hits, {totals['cache_misses']} misses)"
    )
    if args.manifest:
        print(f"manifest written to {args.manifest}")
    if args.journal:
        print(f"journal written to {args.journal}")
    return 1 if run.failed else 0


def _query_params(args: argparse.Namespace) -> dict:
    """Collect the set query flags; validation happens in ``run_query``
    so the CLI and the daemon's ``GET /query`` reject the same inputs."""
    params: dict = {}
    if args.circuits:
        if args.kind == "lookup":
            if len(args.circuits) > 1:
                raise CliError("lookup takes a single --circuit")
            params["circuit"] = args.circuits[0]
        else:
            params["circuit"] = list(args.circuits)
    if args.encoding:
        params["encoding"] = args.encoding
    if args.semantics:
        params["semantics"] = args.semantics
    if args.fingerprint:
        params["fingerprint"] = args.fingerprint
    return params


def _render_query(result: dict) -> str:
    from repro.knowledge.analytics import (
        render_aggregates,
        render_frontier,
        render_lookup,
    )

    renderer = {
        "frontier": render_frontier,
        "aggregates": render_aggregates,
        "lookup": render_lookup,
    }[result["kind"]]
    return renderer(result)


def _cmd_query_remote(args: argparse.Namespace, params: dict) -> int:
    """``query --server``: the daemon answers from *its* store."""
    import json
    from urllib.parse import urlencode

    from repro.service.client import ServiceClient

    pairs = [("kind", args.kind)]
    for name in sorted(params):
        value = params[name]
        values = value if isinstance(value, list) else [value]
        pairs.extend((name, entry) for entry in values)
    try:
        client = ServiceClient(args.server)
    except ValueError as error:
        raise CliError(str(error)) from error
    try:
        status, body = client.request_raw(
            "GET", f"/query?{urlencode(pairs)}"
        )
    except OSError as error:
        print(f"error: cannot reach server {args.server}: {error}",
              file=sys.stderr)
        return 3
    if status != 200:
        try:
            message = json.loads(body.decode("utf-8"))["error"]
        except (ValueError, KeyError, UnicodeDecodeError):
            message = f"HTTP {status}"
        print(f"error: server {args.server}: {message}", file=sys.stderr)
        return 2 if status == 400 else 1
    if args.json:
        # The daemon already answers in canonical JSON — pass the bytes
        # through untouched so two-run comparisons stay byte-stable.
        sys.stdout.write(body.decode("utf-8") + "\n")
        return 0
    print(_render_query(json.loads(body.decode("utf-8"))))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    params = _query_params(args)
    if args.server:
        return _cmd_query_remote(args, params)
    from repro.knowledge.analytics import canonical_query_json, run_query
    from repro.knowledge.store import open_store

    store = open_store(args.knowledge)
    try:
        result = run_query(store, args.kind, params)
    except ValueError as error:
        raise CliError(str(error)) from error
    if args.json:
        print(canonical_query_json(result))
    else:
        print(_render_query(result))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.runtime.report import (
        diff_runs,
        format_diff,
        has_regressions,
        load_run,
        summarize_run,
    )

    try:
        runs = [load_run(path) for path in args.paths]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.diff:
        if len(runs) != 2:
            print("error: --diff needs exactly two paths (BASELINE NEW)",
                  file=sys.stderr)
            return 2
        findings = diff_runs(runs[0], runs[1])
        print(format_diff(runs[0], runs[1], findings))
        if args.fail_on_regression and has_regressions(
            findings, include_runtime=args.include_runtime
        ):
            return 1
        return 0
    for index, run in enumerate(runs):
        if index:
            print()
        print(summarize_run(run))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        workers=args.workers,
        hot_cache_size=args.hot_cache_size,
        queue_limit=args.queue_limit,
        timeout=args.timeout,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        journal_path=args.journal,
        verbose=args.verbose,
        peers=tuple(args.peers),
        peer_timeout=args.peer_timeout,
        peer_negative_ttl=args.peer_negative_ttl,
        knowledge_path=args.knowledge,
        warm_start=not args.no_warm_start,
    )
    return serve(config)


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.service.client import RetryPolicy, parse_address
    from repro.service.router import RouterConfig, serve_router

    try:
        for address in args.replicas:
            parse_address(address)
    except ValueError as error:
        raise CliError(str(error)) from error
    config = RouterConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        replicas=tuple(args.replicas),
        retry=RetryPolicy(
            attempts=max(1, args.retries),
            base_delay=args.retry_base_delay,
            max_delay=args.retry_max_delay,
        ),
        health_interval=args.health_interval,
        hedge=not args.no_hedge,
        hedge_multiplier=args.hedge_multiplier,
        hedge_min_samples=args.hedge_min_samples,
        hedge_floor=args.hedge_floor,
        timeout=args.timeout,
        journal_path=args.journal,
        verbose=args.verbose,
    )
    return serve_router(config)


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = open_cache(args.cache_dir)
    assert isinstance(cache, ArtifactCache)
    if args.action == "stats":
        print(f"cache directory: {cache.cache_dir}")
        print(cache.stats().format())
    else:
        removed = cache.purge(stage=args.stage)
        scope = f"stage {args.stage!r}" if args.stage else "all stages"
        print(f"purged {removed} entries ({scope}) from {cache.cache_dir}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
