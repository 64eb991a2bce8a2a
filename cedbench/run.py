#!/usr/bin/env python3
"""The repository benchmark: cold certification and warm serving.

Run from the repository root::

    python3 cedbench/run.py --workload certify-cold --seed 2004 --seconds 30 --trace 0
    python3 cedbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around each layer and reports the per-layer metrics.
Raw values, per-circuit rows and the host-speed probe are printed first;
the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 1 means a
correctness check failed, 2 that the tree holds no program to measure or
that ``--seconds`` is too short for serve-warm's p99.
Workload and metric definitions are in ``cedbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from reducers import (  # noqa: E402
    P99_MIN_BEYOND,
    Tally,
    fastest_of,
    latency_summary,
    nearest_rank,
    request_latency_ms,
    samples_beyond,
    uncovered_rows,
)
from tracing import (  # noqa: E402
    SpanRecorder,
    install,
    layer_metrics,
    service_metrics,
)

WORKLOADS = ("certify-cold", "serve-warm")
DEFAULT_SEED = 2004

#: Fresh-interpreter launches whose median is the interpreter part of
#: ``setup_s``; one launch varies by half on a shared 2-core host.
SETUP_LAUNCHES = 5

#: certify-cold: the hand-written machines plus MCNC-signature circuits
#: small enough to prove exhaustively at every latency in a few seconds.
#: keyb would take a third of each pass, and three passes with it do not
#: fit the time one run is allowed.
CERTIFY_MCNC = ("s27", "dk512", "tav", "dk16", "donfile", "s386", "tma", "sse")
CERTIFY_LATENCIES = (1, 2, 4)
#: Cold passes per run, each on a fresh cache.  The host's speed swings by
#: a fifth or more for seconds at a time, so ``wall_s`` sums, per circuit,
#: the fastest of its passes: the passes lie ~20 s apart, and a circuit
#: is counted slow only when every one of them hit a slow spell.
CERTIFY_PASSES = 3
#: Warm design re-requests after each pass: the same seeded sequence of
#: rounds each time, a round being every hand-written machine at every
#: latency twice, then one Table-1 tav design (48 + 1 requests).  Each
#: request rebuilds the predictor from cached tables and solve: 1-5 ms on
#: the hand-written machines, ~20 ms on tav.  21 rounds give 1029
#: requests, 10 beyond p99; the 21 tav requests are the slowest, so p99
#: is about their median rather than the host's millisecond stalls.  As
#: for ``wall_s``, each request counts with the fastest of its repeats.
WARM_ROUNDS = 21
WARM_HEAVY = "tav"

#: serve-warm: open-loop rate, hot-cache size and traffic shape.  Every
#: third request is a cold key (an LRU miss served by the pool from the
#: disk cache); the rest cycle through HOT_KEYS keys that never leave the
#: hot cache (see ``serve_stream``).
SERVE_RATE = 80.0
SERVE_HOT_CACHE = 12
HOT_KEYS = 4
ROUTER_REPLAY = 300

_SERVE_IMPORTS = "repro.cli, repro.service.daemon, repro.flow"
_CERTIFY_IMPORTS = "repro.flow, repro.verification.exhaustive"


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def host_probe_s() -> float:
    """A fixed pure-Python loop; recorded beside metrics, never applied."""
    start = time.perf_counter()
    value = 0
    for index in range(2_000_000):
        value = (value * 31 + index) & 0xFFFFFFFF
    return time.perf_counter() - start


def interpreter_setup_s(imports: str) -> list[float]:
    """Wall seconds of fresh interpreters importing the program."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {imports}"], cwd=ROOT, check=True,
        )
        times.append(time.perf_counter() - start)
    return times


def metric(value: float, unit: str) -> dict:
    value = float(value)
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def say(text: str) -> None:
    print(text, flush=True)


# ----------------------------------------------------------------------
# certify-cold
# ----------------------------------------------------------------------
def certify_machines(seed: int) -> list:
    from repro.fsm import load_benchmark
    from repro.fsm.benchmarks import HAND_WRITTEN

    return [
        (name, load_benchmark(name, seed=seed))
        for name in HAND_WRITTEN + CERTIFY_MCNC
    ]


def certify_pass(machines: list, cache_dir: Path) -> tuple:
    """One cold pass: a fresh artifact cache, every certificate."""
    from repro.runtime import ArtifactCache
    from repro.verification.exhaustive import ExhaustiveConfig, verify_exhaustive

    cache = ArtifactCache(cache_dir)
    certificates, rows = {}, []
    start = time.perf_counter()
    for name, fsm in machines:
        circuit_start = time.perf_counter()
        for latency in CERTIFY_LATENCIES:
            certificates[name, latency] = verify_exhaustive(
                fsm, ExhaustiveConfig(latency=latency), cache=cache
            )
        rows.append((name, time.perf_counter() - circuit_start))
    return time.perf_counter() - start, cache, certificates, rows


def check_certificates(machines: list, cache, certificates: dict, tally: Tally) -> None:
    """Every certificate is valid and proves its bound; its β set covers
    every row of the table it was solved on (re-derived from the warm
    cache and re-checked with the benchmark's own GF(2) test)."""
    from repro.core.search import SolveConfig
    from repro.flow import design_ced
    from repro.verification.certificate import validate_certificate
    from repro.verification.exhaustive import ExhaustiveConfig

    fsms = dict(machines)
    seed = ExhaustiveConfig().seed
    for (name, latency), certificate in certificates.items():
        try:
            validate_certificate(certificate)
        except ValueError as error:
            tally.record(False, f"{name} p={latency}: {error}")
            continue
        design = design_ced(
            fsms[name], latency=latency, cache=cache,
            solve_config=SolveConfig(seed=seed),
        )
        betas = certificate["design"]["betas"]
        problems = []
        if not certificate["summary"]["bound_holds"]:
            problems.append("bound does not hold")
        if design.solve_result.betas != betas:
            problems.append("certificate β set differs from its design")
        uncovered = uncovered_rows(design.table.rows.tolist(), betas)
        if uncovered:
            problems.append(f"{len(uncovered)} table rows uncovered")
        tally.record(not problems, f"{name} p={latency}: {', '.join(problems)}")


def warm_machines() -> dict:
    """The warm mix: the hand-written machines and the Table-1 tav, the
    same whatever the seed (the seed only orders the requests)."""
    from repro.fsm import load_benchmark
    from repro.fsm.benchmarks import HAND_WRITTEN

    return {
        name: load_benchmark(name, seed=DEFAULT_SEED)
        for name in (*HAND_WRITTEN, WARM_HEAVY)
    }


def warm_sequence(fsms: dict, seed: int) -> list[tuple[str, int]]:
    """WARM_ROUNDS rounds: every hand-written machine at every latency
    twice in a seeded order, then one tav design."""
    rng = random.Random(seed)
    light = [
        (name, latency)
        for name in fsms if name != WARM_HEAVY
        for latency in CERTIFY_LATENCIES
    ]
    sequence = []
    for round_index in range(WARM_ROUNDS):
        sequence += rng.sample(2 * light, 2 * len(light))
        sequence.append(
            (WARM_HEAVY, CERTIFY_LATENCIES[round_index % len(CERTIFY_LATENCIES)])
        )
    return sequence


def warm_design_requests(
    fsms: dict, cache, sequence: list, first: dict, tally: Tally
) -> list[float]:
    """Re-request the designs of ``sequence`` from a warm cache; the
    latency of each request.

    Every design is made once untimed first (tav is new to a cache built
    at another seed).  Each answer's β set must equal the first serving's,
    which for the hand-written machines comes from their certificates.
    """
    from repro.core.search import SolveConfig
    from repro.flow import design_ced
    from repro.verification.exhaustive import ExhaustiveConfig

    solve_config = SolveConfig(seed=ExhaustiveConfig().seed)

    def design(name: str, latency: int) -> bool:
        betas = design_ced(
            fsms[name], latency=latency, cache=cache, solve_config=solve_config
        ).solve_result.betas
        return tally.record(
            first.setdefault((name, latency), betas) == betas,
            f"warm design {name} p={latency}: β set differs",
        )

    for name in fsms:
        for latency in CERTIFY_LATENCIES:
            design(name, latency)
    latencies = []
    for name, latency in sequence:
        start = time.perf_counter()
        ok = design(name, latency)
        latencies.append(request_latency_ms(start, time.perf_counter(), ok))
    return latencies


def run_certify(args, work: Path) -> tuple[Tally, dict]:
    tally = Tally()
    machines = certify_machines(args.seed)
    # Untimed: the first certificates in a process pay lazy imports and
    # solver start-up.
    certify_pass(machines[:2], work / "cache-warmup")
    if args.trace:
        return tally, certify_traced(machines, work, tally)
    setup = interpreter_setup_s(_CERTIFY_IMPORTS)
    say(f"setup launches s: {setup}")
    fsms = warm_machines()
    sequence = warm_sequence(fsms, args.seed)
    passes, windows, first, served = [], [], None, {}
    for index in range(CERTIFY_PASSES):
        wall, cache, certificates, rows = certify_pass(
            machines, work / f"cache-{index}"
        )
        passes.append([seconds for _, seconds in rows])
        say(f"cold pass {index + 1}: {wall:.3f} s")
        first = first or certificates
        tally.record(certificates == first, f"pass {index + 1} differs")
        served = served or {
            key: certificate["design"]["betas"]
            for key, certificate in certificates.items()
            if key[0] in fsms and key[0] != WARM_HEAVY
        }
        windows.append(
            warm_design_requests(fsms, cache, sequence, served, tally)
        )
    check_certificates(machines, cache, certificates, tally)
    for (name, _), seconds in zip(machines, zip(*passes)):
        say(f"  {name:10s} " + " ".join(f"{value:8.3f}" for value in seconds))
    for index, window in enumerate(windows):
        single = latency_summary(window)
        say(f"warm window {index + 1}: p50 {single['p50_ms']:.4f} ms, "
            f"p99 {single['p99_ms']:.4f} ms")
    summary = latency_summary(fastest_of(windows))
    say(
        f"warm design re-requests: {summary['samples']} samples, fastest "
        f"of {len(windows)} windows each, {summary['beyond_p99']} beyond p99"
    )
    q_total = sum(cert["design"]["q"] for cert in certificates.values())
    cost_total = sum(cert["design"]["cost"] for cert in certificates.values())
    for (name, latency), cert in sorted(certificates.items()):
        say(f"  {name:10s} p={latency} q={cert['design']['q']} "
            f"cost={cert['design']['cost']} worst={cert['worst_latency']}")
    return tally, {
        "setup_s": statistics.median(setup),
        "wall_s": sum(fastest_of(passes)),
        "p50_ms": summary["p50_ms"],
        "p99_ms": summary["p99_ms"],
        "q_total": q_total,
        "ced_cost_total": cost_total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": tally.ok_share,
    }


def certify_traced(machines: list, work: Path, tally: Tally) -> dict:
    """One untraced cold pass, then a traced one; fresh caches."""
    untraced = certify_pass(machines, work / "cache-untraced")[0]
    recorder = SpanRecorder()
    install(recorder)
    traced, cache, certificates, _ = certify_pass(machines, work / "cache-traced")
    recorder.enabled = False
    check_certificates(machines, cache, certificates, tally)
    say(f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s, "
        f"{len(recorder.spans)} spans")
    metrics = layer_metrics(recorder.spans, traced)
    metrics.update(service_metrics([]))
    metrics["service.router_hop_ms_p50"] = 0.0
    metrics["trace_overhead_share"] = traced / untraced - 1.0
    return metrics


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
def serve_keys() -> list[tuple[str, dict]]:
    """Design, sweep and verify queries over the hand-written machines,
    the HOT_KEYS hot ones (one of each query shape) first."""
    from repro.fsm.benchmarks import HAND_WRITTEN

    keys = []
    for circuit in HAND_WRITTEN:
        keys.append(("design", {"circuit": circuit, "latency": 1}))
        keys.append(("design", {"circuit": circuit, "latency": 2}))
        keys.append(("verify", {"circuit": circuit, "latency": 1}))
        keys.append(("sweep", {"circuit": circuit, "max_latency": 2}))
    hot = keys[::5][:HOT_KEYS]
    return hot + [key for key in keys if key not in hot]


def serve_stream(keys: list, seed: int, count: int) -> list:
    """Two hot requests, then one cold one, repeated.

    Hot slots walk seeded permutations of the first HOT_KEYS keys, so
    between two uses of a hot key at most 7 other keys are touched: it
    stays in a SERVE_HOT_CACHE-entry LRU.  Cold keys repeat one seeded
    order, so each returns only after every other cold key: by then the
    LRU has evicted it and the pool serves it from the disk cache.
    """
    rng = random.Random(seed)
    hot = keys[:HOT_KEYS]
    cold = rng.sample(keys[HOT_KEYS:], len(keys) - HOT_KEYS)
    stream, hot_queue = [], []
    while len(stream) < count:
        for cold_key in cold:
            for _ in range(2):
                if not hot_queue:
                    hot_queue = rng.sample(hot, len(hot))
                stream.append(hot_queue.pop())
            stream.append(cold_key)
    return stream[:count]


def _key_id(kind: str, params: dict) -> str:
    return f"{kind}:{json.dumps(params, sort_keys=True)}"


def _result_bytes(body: bytes) -> bytes:
    return body.partition(b'"result":')[2]


class Daemon:
    """One ``repro-ced serve`` (or traced) process and its address."""

    def __init__(self, argv: list[str], banner: str) -> None:
        self.process = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        self.address = None
        for line in self.process.stdout:
            if banner in line:
                self.address = line.split(banner, 1)[1].split()[0]
                break
        if self.address is None:
            self.process.wait(timeout=30)
            raise RuntimeError(f"{argv[:4]} exited before listening")
        # Keep draining stdout so the child never blocks on a full pipe.
        self._drain = threading.Thread(
            target=lambda: self.process.stdout.read(), daemon=True
        )
        self._drain.start()

    def peak_rss_mb(self) -> float:
        """VmHWM of the process plus its direct children (pool workers)."""
        pids = [self.process.pid]
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    stat = (entry / "stat").read_text()
                except OSError:
                    continue
                if int(stat.rsplit(")", 1)[1].split()[1]) == self.process.pid:
                    pids.append(int(entry.name))
        total_kb = 0
        for pid in pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024

    def stop(self) -> int:
        """SIGTERM drain; the exit status (killed after a minute)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._drain.join(timeout=10)
        return code


def start_daemon(span_dir: Path | None) -> Daemon:
    options = [
        "--port", "0", "--workers", "1",
        "--hot-cache-size", str(SERVE_HOT_CACHE),
    ]
    if span_dir is None:
        argv = [sys.executable, "-m", "repro", "serve", *options]
    else:
        argv = [sys.executable, str(HERE / "traced_serve.py"), str(span_dir),
                *options]
    daemon = Daemon(argv, "service listening on ")
    from repro.service.client import ServiceClient

    if not ServiceClient(daemon.address, timeout=30).ping(attempts=300):
        daemon.stop()
        raise RuntimeError("daemon never became healthy")
    return daemon


def send(client, kind: str, params: dict) -> tuple:
    """(status, body, client seconds); a transport error is status 0."""
    start = time.perf_counter()
    try:
        status, body = client.request_raw("POST", f"/{kind}", params)
    except OSError as error:
        status, body = 0, str(error).encode()
    return status, body, time.perf_counter() - start


def prime(address: str, keys: list, first: dict, tally: Tally) -> list[float]:
    """Serve every key once (cold: the pool computes and fills the disk
    cache) and remember the result bytes of that first serving."""
    from repro.service.client import ServiceClient

    client = ServiceClient(address, timeout=120)
    elapsed = []
    for kind, params in keys:
        status, body, _ = send(client, kind, params)
        key = _key_id(kind, params)
        if status == 200:
            first.setdefault(key, _result_bytes(body))
            elapsed.append(json.loads(body)["meta"]["elapsed_ms"])
        tally.record(
            status == 200 and _result_bytes(body) == first.get(key),
            f"prime {key}: HTTP {status} or bytes differ",
        )
    return elapsed


def open_loop(address: str, stream: list, rate: float) -> list[dict]:
    """Send ``stream`` on a fixed schedule from two threads (two
    connections at most); each record keeps its due/sent/done times."""
    from repro.service.client import ServiceClient

    records: list = [None] * len(stream)
    cursor = iter(range(len(stream)))
    lock = threading.Lock()
    begin = time.perf_counter() + 0.05

    def sender() -> None:
        client = ServiceClient(address, timeout=60)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = begin + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            kind, params = stream[index]
            sent = time.perf_counter()
            status, body, seconds = send(client, kind, params)
            records[index] = {
                "key": _key_id(kind, params), "due": due, "sent": sent,
                "done": sent + seconds, "status": status, "body": body,
            }

    helper = threading.Thread(target=sender)
    helper.start()
    sender()
    helper.join()
    return records


def judge(records: list[dict], first: dict, tally: Tally) -> None:
    """Mark each record ok/failed and attach its meta timings."""
    for record in records:
        ok = record["status"] == 200 and _result_bytes(record["body"]) == first.get(
            record["key"]
        )
        tally.record(ok, f"{record['key']}: HTTP {record['status']} or bytes differ")
        meta = json.loads(record["body"])["meta"] if record["status"] == 200 else {}
        record.update(
            ok=ok,
            hot=bool(meta.get("hot_cache")),
            daemon_ms=meta.get("elapsed_ms", 0.0),
            client_ms=(record["done"] - record["sent"]) * 1000,
            late_ms=(record["sent"] - record["due"]) * 1000,
            latency_ms=request_latency_ms(record["due"], record["done"], ok),
        )


def design_totals(first: dict) -> tuple[float, float]:
    """Σq and Σ CED cost over the distinct keys served."""
    q_total = cost_total = 0.0
    for key, raw in first.items():
        result = json.loads(raw[:-1])  # drop the envelope's closing brace
        kind = key.split(":", 1)[0]
        if kind == "design":
            q_total += result["q"]
            cost_total += result["cost"]
        elif kind == "verify":
            q_total += result["design"]["q"]
            cost_total += result["design"]["cost"]
        else:
            q_total += sum(point["num_trees"] for point in result["points"])
            cost_total += sum(point["cost"] for point in result["points"])
    return q_total, cost_total


def check_results(first: dict, tally: Tally) -> None:
    for key, raw in first.items():
        if key.startswith("verify:"):
            result = json.loads(raw[:-1])
            tally.record(result["summary"]["bound_holds"], f"{key}: bound fails")


def warm_cycle(keys: list) -> int:
    """Stream length that touches every cold key once (LRU warm-up)."""
    return 3 * (len(keys) - HOT_KEYS)


def serve_session(
    keys: list, stream: list, first: dict, tally: Tally,
    span_dir: Path | None = None, router: bool = False,
) -> dict:
    """Start a daemon, prime it, warm its LRU, run the open loop, stop it."""
    cycle = warm_cycle(keys)
    started = time.perf_counter()
    daemon = start_daemon(span_dir)
    try:
        daemon_ms = prime(daemon.address, keys, first, tally)
        warmup = open_loop(daemon.address, stream[:cycle], SERVE_RATE)
        judge(warmup, first, tally)
        setup = time.perf_counter() - started
        records = open_loop(daemon.address, stream[cycle:], SERVE_RATE)
        judge(records, first, tally)
        hop, replay_ms = (
            route_hop_ms(daemon.address, stream, first, tally)
            if router else (None, [])
        )
        from repro.service.client import ServiceClient

        stats = ServiceClient(daemon.address, timeout=30).stats()
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    tally.record(code == 0, f"daemon exit status {code}")
    say(f"daemon stats: {json.dumps(stats['requests'])} "
        f"disk {json.dumps(stats['disk_cache']['by_stage'])}")
    daemon_ms += [r["daemon_ms"] for r in warmup + records] + replay_ms
    return {
        "setup": setup, "records": records, "rss": rss, "router_hop": hop,
        "daemon_ms": daemon_ms,
    }


def route_hop_ms(
    address: str, stream: list, first: dict, tally: Tally
) -> tuple[float, list[float]]:
    """p50 of the same closed-loop requests through a one-replica router
    minus p50 sent straight to the daemon, and the daemon's own time for
    every replayed request."""
    from repro.service.client import ServiceClient

    replay = stream[:ROUTER_REPLAY]
    router = Daemon(
        [sys.executable, "-m", "repro", "route", "--replica", address,
         "--port", "0"],
        "router listening on ",
    )
    try:
        if not ServiceClient(router.address, timeout=30).ping(attempts=300):
            raise RuntimeError("router never became healthy")
        p50, daemon_ms = {}, []
        for target in (address, router.address):
            client = ServiceClient(target, timeout=60)
            times = []
            for kind, params in replay:
                status, body, seconds = send(client, kind, params)
                ok = tally.record(
                    status == 200
                    and _result_bytes(body) == first.get(_key_id(kind, params)),
                    f"replay {kind} via {target}: HTTP {status} or bytes differ",
                )
                if ok:
                    daemon_ms.append(json.loads(body)["meta"]["elapsed_ms"])
                times.append(request_latency_ms(0.0, seconds, ok))
            p50[target] = nearest_rank(times, 0.5)
    finally:
        tally.record(router.stop() == 0, "router exit status")
    return p50[router.address] - p50[address], daemon_ms


def run_serve(args, work: Path) -> tuple[Tally, dict]:
    tally = Tally()
    keys = serve_keys()
    count = int(SERVE_RATE * args.seconds)
    stream = serve_stream(keys, args.seed, warm_cycle(keys) + count)
    first: dict = {}
    if args.trace:
        return tally, serve_traced(work, keys, stream, first, tally)
    launches = interpreter_setup_s(_SERVE_IMPORTS)
    say(f"setup launches s: {launches}")
    session = serve_session(keys, stream, first, tally)
    records = session["records"]
    summary = latency_summary([r["latency_ms"] for r in records])
    hot = sum(r["hot"] for r in records)
    say(f"open loop: {summary['samples']} requests at {SERVE_RATE}/s, "
        f"{summary['beyond_p99']} beyond p99, {hot} hot, "
        f"daemon setup {session['setup']:.3f} s")
    q_total, cost_total = design_totals(first)
    check_results(first, tally)
    return tally, {
        "setup_s": statistics.median(launches) + session["setup"],
        "wall_s": sum(r["done"] - r["sent"] for r in records),
        "p50_ms": summary["p50_ms"],
        "p99_ms": summary["p99_ms"],
        "q_total": q_total,
        "ced_cost_total": cost_total,
        "peak_rss_mb": session["rss"],
        "ok_share": tally.ok_share,
    }


def serve_traced(work, keys, stream, first, tally) -> dict:
    """A traced daemon (cold priming included) with a router hop, then an
    untraced daemon on the same warm disk cache and the same stream; both
    streams are half as long, to keep the run within its time."""
    stream = stream[: warm_cycle(keys) + (len(stream) - warm_cycle(keys)) // 2]
    span_dir = work / "spans"
    span_dir.mkdir()
    traced = serve_session(
        keys, stream, first, tally, span_dir=span_dir, router=True
    )
    untraced = serve_session(keys, stream, first, tally)
    spans = []
    for path in sorted(span_dir.glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    say(f"{len(spans)} spans from {len({span['pid'] for span in spans})} "
        "processes")
    tally.record(bool(spans), "the traced daemon's pool wrote no spans")
    metrics = layer_metrics(spans, sum(traced["daemon_ms"]) / 1000)
    metrics.update(service_metrics(traced["records"]))
    metrics["service.router_hop_ms_p50"] = traced["router_hop"]
    stream_ms = [
        sum(r["daemon_ms"] for r in session["records"])
        for session in (traced, untraced)
    ]
    metrics["trace_overhead_share"] = stream_ms[0] / stream_ms[1] - 1.0
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "p50_ms": "ms", "p99_ms": "ms",
    "q_total": "count", "ced_cost_total": "cost", "peak_rss_mb": "MB",
    "ok_share": "share",
}
PER_LAYER_UNITS = {"_s": "s", "_ms_p50": "ms", "_ms_p99": "ms", "_mb": "MB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "share" if name.endswith("share") else "count"


def run_workload(args, workload: str) -> dict:
    work = ROOT / ".cedbench-work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # Inherited by every process the run starts: the program from this
    # checkout, and every file it writes inside ``work``.
    os.environ.update(
        PYTHONPATH=str(SRC),
        PYTHONUNBUFFERED="1",
        REPRO_CACHE_DIR=str(work / "cache"),
        REPRO_KNOWLEDGE=str(work / "knowledge.jsonl"),
        TMPDIR=str(work),
    )
    try:
        probe_before = host_probe_s()
        runner = run_certify if workload == "certify-cold" else run_serve
        tally, metrics = runner(args, work)
        probe_after = host_probe_s()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    say(f"host probe s: before {probe_before:.4f}, after {probe_after:.4f}")
    for problem in tally.problems[:20]:
        say(f"FAILED CHECK: {problem}")
    metrics = {name: metric(value, unit_of(name)) for name, value in metrics.items()}
    for name, entry in metrics.items():
        say(f"{workload} {name} = {entry['value']} {entry['unit']}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "certify-cold" and not args.trace and (
        samples_beyond(int(SERVE_RATE * args.seconds), 0.99) < P99_MIN_BEYOND
    ):
        parser.error(
            f"--seconds {args.seconds:g} gives serve-warm fewer than "
            f"{P99_MIN_BEYOND} requests beyond its p99"
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {workload: run_workload(args, workload) for workload in workloads}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": entry
                for workload, r in results.items()
                for name, entry in r["metrics"].items()
            },
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
