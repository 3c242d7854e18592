"""``serve-mixed``: a closed loop of one connection against ``repro serve``.

The server (``python -m repro serve --jobs 1``) runs on a private copy of
a store pre-filled with the 54 *repeat* requests: 6 benchmarks x {plain,
ratchet, wario} x {compile, lint ``ir``, eval}.  The seeded request
sequence is built from blocks of 60: the 54 repeats in seeded order
(cache hits) plus 6 *fresh* requests (10 %), seeded variants of crc and
dijkstra sent as compile or lint requests, which miss and are stored.
One connection sends each request when the previous reply arrives, as
the server's callers do.  A request's latency is the CPU time the
client, the server and its worker spend between sending it and reading
its reply (see :class:`CpuMeter`), scaled to the reference speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from common import (
    SETUP_PROBES, SETUP_REPEATS, SRC, WORK, Outcome, Speed, Tally, geomean,
    latency_summary, percentile, proc_peak_rss_mb, process_clock, steal_seconds,
)

BENCHES = ("coremark", "sha", "crc", "tiny-aes", "dijkstra", "picojpeg")
ENVS = ("plain", "ratchet", "wario")
#: requests per batch, traced or not (ten blocks)
UNIT = 600
#: requests between two speed probes
PROBE_EVERY = 25
#: compile replies re-checked against an in-process ``iclang``
SAMPLE_CHECKS = 12

Request = Tuple[str, Dict[str, object]]


def repeat_requests() -> List[Request]:
    out: List[Request] = []
    for bench in BENCHES:
        for env in ENVS:
            out.append(("compile", {"benchmark": bench, "env": env}))
            out.append(("lint", {"benchmark": bench, "env": env, "level": "ir"}))
            out.append(("eval", {"benchmark": bench, "env": env}))
    return out


def fresh_request(rng: random.Random, serial: int) -> Request:
    """A source the store has never seen (unique per ``serial``).  The
    benchmark and the kind follow ``serial`` (crc and dijkstra take turns,
    and compile and lint take turns in pairs), so every ten blocks hold
    the same mix whatever the seed; the seed draws the environment and
    the changed constant."""
    from repro.benchsuite import get_benchmark

    if serial % 2 == 0:
        source = get_benchmark("crc").source.replace(
            "i * 7 + 13", f"i * {9 + 2 * serial} + {rng.randrange(256)}")
        name = "crc-variant"
    else:
        source = get_benchmark("dijkstra").source.replace(
            "unsigned int x = 123456789;",
            f"unsigned int x = {123456789 + 7919 * serial + rng.randrange(7919)};")
        name = "dijkstra-variant"
    params: Dict[str, object] = {"source": source, "name": name,
                                 "env": rng.choice(ENVS)}
    if (serial // 2) % 2:
        params["level"] = "ir"
        return "lint", params
    return "compile", params


def request_stream(seed: int) -> Iterator[Request]:
    """Blocks of the 54 repeats in seeded order plus 6 fresh requests."""
    rng = random.Random(f"serve-mixed:{seed}")
    repeats = repeat_requests()
    serial = 0
    while True:
        block = list(repeats)
        for _ in range(6):
            block.append(fresh_request(rng, serial))
            serial += 1
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# The pre-filled store and the server process
# ---------------------------------------------------------------------------


def prefilled_store() -> Tuple[str, float]:
    """The store holding every repeat request, built once per checkout
    and per toolchain version; returns its path and the build seconds
    (0 when it already existed)."""
    from repro.cache import version_tag
    from repro.serve.jobs import pool_entry

    tag = hashlib.sha256(version_tag().encode()).hexdigest()[:16]
    final = os.path.join(WORK, f"serve-store-{tag}")
    if os.path.isdir(final):
        return final, 0.0
    staging = f"{final}.{os.getpid()}.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    started = time.perf_counter()
    saved = os.environ.get("REPRO_CACHE_DIR")
    try:
        for kind, params in repeat_requests():
            reply = pool_entry((kind, params, staging, True))
            if reply["status"] != "ok":
                raise RuntimeError(f"pre-filling {kind} {params}: {reply}")
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    os.rename(staging, final)
    return final, time.perf_counter() - started


def _stat(pid) -> List[str]:
    """``/proc/<pid>/stat`` after the command name (state first), or []."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _children(pid: int) -> List[int]:
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and _stat(entry)[1:2] == [str(pid)]]


def _alive(pid: int) -> bool:
    return _stat(pid)[:1] not in ([], ["Z"], ["X"])


class Server:
    """One ``python -m repro serve`` child on a private store copy."""

    def __init__(self, store: str, workdir: str):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        self.workdir = workdir
        self.cache_dir = os.path.join(workdir, "store")
        shutil.copytree(store, self.cache_dir)
        env = dict(os.environ)
        env.pop("REPRO_CACHE", None)
        env["PYTHONPATH"] = SRC
        env["REPRO_CACHE_DIR"] = self.cache_dir
        self.stderr = open(os.path.join(workdir, "server.err"), "w+")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--announce", "--jobs", "1",
             "--cache-dir", self.cache_dir],
            env=env, stdout=subprocess.PIPE, stderr=self.stderr, text=True,
        )
        self.workers: List[int] = []
        line = self.proc.stdout.readline()
        try:
            self.port = int(json.loads(line)["port"])
        except (ValueError, KeyError):
            self.stderr.seek(0)
            message = f"server did not announce itself: {line!r}\n{self.stderr.read()[-2000:]}"
            self.stop()
            raise RuntimeError(message) from None

    def peak_rss_mb(self) -> float:
        self.workers = sorted(set(self.workers) | set(_children(self.proc.pid)))
        return max([proc_peak_rss_mb(self.proc.pid)]
                   + [proc_peak_rss_mb(pid) for pid in self.workers])

    def stop(self) -> None:
        """Ask for a drain, then make sure the server and its pool
        workers have all ended."""
        if self.proc.poll() is None:
            self.workers = sorted(set(self.workers) | set(_children(self.proc.pid)))
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.stderr.close()
        deadline = time.monotonic() + 15
        for pid in self.workers:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    index: int
    kind: str
    params: Dict[str, object]
    client_ms: float
    ok: bool
    cached: bool = False
    server_ms: float = 0.0
    size: int = 0
    result: Optional[Dict[str, object]] = None
    error: str = ""
    #: CPU milliseconds of the client, the server and its workers over
    #: the request (None when a process of the server could not be read)
    cpu_ms: Optional[float] = None
    #: ``cpu_ms`` scaled by the speed of its batch (see ``common.Speed``)
    scaled_ms: Optional[float] = None


class CpuMeter:
    """CPU seconds of the server, its pool workers and this client.

    With one connection the three take turns on a request, so the CPU
    they spend between sending it and reading its reply is the request's
    latency without the time the host took the CPUs away.
    """

    def __init__(self, server: Server):
        self.server = server
        self.refresh()

    def refresh(self) -> None:
        self.clocks = [process_clock(pid) for pid in
                       [self.server.proc.pid] + _children(self.server.proc.pid)]

    def others(self) -> Optional[float]:
        """The server's and workers' CPU seconds; None (and the process
        list re-read) if one of them has ended."""
        try:
            return sum(time.clock_gettime(clock) for clock in self.clocks)
        except OSError:
            self.refresh()
            return None

    def read(self) -> Optional[float]:
        others = self.others()
        return None if others is None else others + time.process_time()


class Connection:
    """One blocking newline-delimited JSON connection to the server."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=600)
        self.file = self.sock.makefile("rwb")

    def exchange(self, index: int, kind: str, params) -> Dict[str, object]:
        self.file.write(json.dumps({"id": index, "type": kind, "params": params}).encode()
                        + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line)
        reply["_bytes"] = len(line)
        return reply

    def close(self) -> None:
        self.file.close()
        self.sock.close()


#: the fields of each reply kind the checks and metrics read
KEPT = {"compile": ("text_size", "static_checkpoints"), "lint": ("certified",),
        "eval": ("cycles", "text_size", "checkpoints")}


def compact(kind: str, result: Optional[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """What the checks need of a reply, so thousands of kept samples do
    not hold whole listings (a growing heap makes the client's garbage
    collections, and so its CPU time, grow through a run)."""
    if not isinstance(result, dict):
        return result
    out = {key: result.get(key) for key in KEPT.get(kind, ())}
    if kind == "compile":
        out["listing_sha256"] = hashlib.sha256(str(result.get("listing")).encode()).hexdigest()
    return out


def _simple(port: int, kind: str, params=None) -> Dict[str, object]:
    connection = Connection(port)
    try:
        return connection.exchange(0, kind, params or {})
    finally:
        connection.close()


def _drive(server: Server, meter: CpuMeter, stream: Iterator[Request], count: int,
           first_index: int, tracer=None) -> Tuple[List[Sample], float, float]:
    """Closed loop on one connection: the next request goes out when the
    previous reply arrives.  Returns the samples, each with its scaled
    time, the wall seconds and the speed factor."""
    samples: List[Sample] = []
    connection = Connection(server.port)
    speed = Speed()
    started = time.perf_counter()
    try:
        for index in range(first_index, first_index + count):
            if (index - first_index) % PROBE_EVERY == 0:
                speed.take()
            kind, params = next(stream)
            cpu, begun = meter.read(), time.perf_counter()
            try:
                reply = connection.exchange(index, kind, params)
            except (OSError, ValueError) as exc:
                samples.append(Sample(index, kind, params,
                                      (time.perf_counter() - begun) * 1000.0,
                                      False, error=f"{type(exc).__name__}: {exc}"))
                break
            ended, cpu_after = time.perf_counter(), meter.read()
            if tracer is not None:
                tracer.add_span(f"serve.{kind}", begun, ended, index, 1)
            meta = reply.get("meta") or {}
            samples.append(Sample(
                index, kind, params, (ended - begun) * 1000.0,
                bool(reply.get("ok")), bool(meta.get("cached")),
                float(meta.get("elapsed_ms") or 0.0),
                reply["_bytes"], compact(kind, reply.get("result")),
                "" if reply.get("ok") else str(reply.get("error")),
                None if cpu is None or cpu_after is None else (cpu_after - cpu) * 1000.0,
            ))
    finally:
        connection.close()
    wall = time.perf_counter() - started
    speed.take()
    factor = speed.factor()
    for sample in samples:
        if sample.cpu_ms is not None:
            sample.scaled_ms = sample.cpu_ms * factor
    return samples, wall, factor


# ---------------------------------------------------------------------------
# Checks and metrics
# ---------------------------------------------------------------------------


def check_samples(samples: List[Sample], seed: int) -> Dict[int, str]:
    """Reasons, by request index, for every reply that is wrong.

    Every reply must be ``ok``; instrumented lint replies must certify;
    all compile replies for one benchmark cell must carry the same
    listing; and a seeded sample of compile replies must match
    ``text_size`` and ``static_checkpoints`` of an in-process ``iclang``.
    """
    from repro.benchsuite import get_benchmark
    from repro.core import iclang

    wrong: Dict[int, str] = {}
    listings: Dict[str, str] = {}
    compiles = []
    for s in samples:
        if not s.ok:
            wrong[s.index] = f"{s.kind}: {s.error}"
            continue
        if s.kind == "lint" and s.params["env"] != "plain" and not s.result["certified"]:
            wrong[s.index] = f"lint {s.params['env']}: not certified"
        if s.kind == "compile":
            compiles.append(s)
            if "benchmark" in s.params:
                cell = f"{s.params['benchmark']}/{s.params['env']}"
                digest = s.result["listing_sha256"]
                if listings.setdefault(cell, digest) != digest:
                    wrong[s.index] = f"compile {cell}: listing differs between replies"
    rng = random.Random(f"serve-check:{seed}")
    for s in rng.sample(compiles, min(SAMPLE_CHECKS, len(compiles))):
        if "benchmark" in s.params:
            bench = get_benchmark(s.params["benchmark"])
            sources, name = bench.source, bench.name
        else:
            sources, name = s.params["source"], s.params["name"]
        program = iclang(sources, s.params["env"], name=name, cache=False)
        checkpoints = sum(1 for i in program.instrs if i.opcode == "checkpoint")
        if (s.result["text_size"], s.result["static_checkpoints"]) != (
                program.text_size, checkpoints):
            wrong[s.index] = "compile reply differs from an in-process iclang"
    return wrong


def listing_fingerprint(samples: List[Sample]) -> Dict[str, str]:
    out = {}
    for s in samples:
        if s.ok and s.kind == "compile" and "benchmark" in s.params:
            cell = f"{s.params['benchmark']}/{s.params['env']}"
            out.setdefault(cell, s.result["listing_sha256"])
    return dict(sorted(out.items()))


def gen_metrics(samples: List[Sample]) -> Dict[str, float]:
    """``gen.*`` over the eval replies of the 12 instrumented cells."""
    runs: Dict[Tuple[str, str], Dict[str, object]] = {}
    for s in samples:
        if s.ok and s.kind == "eval":
            runs.setdefault((s.params["benchmark"], s.params["env"]), s.result)
    plain = {bench: r for (bench, env), r in runs.items() if env == "plain"}
    cells = [(bench, r) for (bench, env), r in sorted(runs.items())
             if env != "plain" and bench in plain]
    return {
        "gen.norm_cycles": geomean([r["cycles"] / plain[b]["cycles"] for b, r in cells]),
        "gen.norm_text": geomean([r["text_size"] / plain[b]["text_size"] for b, r in cells]),
        "gen.checkpoints": float(sum(r["checkpoints"] for _, r in cells)),
    }


def layer_metrics(samples: List[Sample], before: Dict, after: Dict,
                  units: int) -> Dict[str, float]:
    """The ``serve.*`` and ``cache.*`` per-layer metrics of the traced
    requests; server counters are the difference across them."""
    good = [s for s in samples if s.ok]

    def p50(values) -> float:
        return percentile(values, 0.5)

    metrics = {
        "serve.hit_ms.p50": p50([s.client_ms for s in good if s.cached]),
        "serve.miss_ms.p50": p50([s.client_ms for s in good if not s.cached]),
        "serve.wire_ms.p50": p50([s.client_ms - s.server_ms for s in good]),
        "serve.response_bytes": statistics.mean([s.size for s in good]) if good else 0.0,
    }
    for kind in ("compile", "lint", "eval"):
        mine = [s for s in good if s.kind == kind]
        metrics[f"serve.{kind}.client_p50_ms"] = p50([s.client_ms for s in mine])
        metrics[f"serve.{kind}.server_p50_ms"] = p50([s.server_ms for s in mine])
    for name, key in (("dedup_hits", "dedup_hits"), ("retries", "retries"),
                      ("timeouts", "timeouts"), ("worker_crashes", "worker_crashes")):
        metrics[f"serve.{name}"] = (after[key] - before[key]) / units
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    metrics.update({
        "cache.hits": hits / units,
        "cache.misses": misses / units,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.entries": float(after["cache"]["entries"]),
        "cache.bytes": float(after["cache"]["bytes"]),
    })
    return metrics


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def cpu_total_s(samples: List[Sample], field: str = "cpu_ms") -> float:
    """Summed CPU seconds of the requests (``field="scaled_ms"``: scaled)."""
    return sum(getattr(s, field) or 0.0 for s in samples) / 1000.0


def request_class(sample: Sample) -> Tuple[object, ...]:
    """Requests that do the same work: one repeat request, or the fresh
    variants of one benchmark, environment and kind (they differ in one
    constant of the source)."""
    params = sample.params
    return (sample.kind, params.get("benchmark") or params.get("name"), params["env"],
            params.get("level"), "benchmark" in params)


def class_latencies(samples: List[Sample]) -> List[float]:
    """Each answered request timed by the median scaled time of its
    class, so one slow request does not move the figures."""
    timed = [s for s in samples if s.ok and s.scaled_ms is not None]
    times: Dict[Tuple[object, ...], List[float]] = {}
    for s in timed:
        times.setdefault(request_class(s), []).append(s.scaled_ms)
    typical = {key: statistics.median(values) for key, values in times.items()}
    return [typical[request_class(s)] for s in timed]


class Workload:
    name = "serve-mixed"

    def __init__(self, seed: int):
        self.seed = seed

    def _start(self, store: str, attempt: int) -> Tuple[Server, CpuMeter, float]:
        """Set-up proper: copy the store, start the server and warm its
        worker with one hit of each request kind.  Returns the server, its
        CPU meter and the CPU seconds the client, server and worker spent."""
        started = time.process_time()
        server = Server(store, os.path.join(WORK, "runs", f"{os.getpid()}-{attempt}"))
        try:
            for kind, params in repeat_requests()[6:9]:
                reply = _simple(server.port, kind, params)
                if not reply.get("ok"):
                    raise RuntimeError(f"warm-up {kind} failed: {reply.get('error')}")
            meter = CpuMeter(server)
            others = meter.others()
            if others is None:
                raise RuntimeError("a server process ended during warm-up")
        except BaseException:
            server.stop()
            raise
        return server, meter, time.process_time() - started + others

    def run(self, seconds: float, tracer=None) -> Outcome:
        store, build_s = prefilled_store()
        timings = []
        server = None
        try:
            for attempt in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                speed = Speed()
                speed.take(SETUP_PROBES)
                server, meter, cpu = self._start(store, attempt)
                speed.take(SETUP_PROBES)
                timings.append(cpu * speed.factor())
            return self._measure(server, meter, seconds, tracer, statistics.median(timings),
                                 {"setup_s_all": timings, "store_build_s": build_s})
        finally:
            if server is not None:
                server.stop()

    def _measure(self, server: Server, meter: CpuMeter, seconds: float, tracer,
                 setup_s: float, details: Dict[str, object]) -> Outcome:
        stream = request_stream(self.seed)
        tally = Tally()
        if tracer is None:
            walls: List[float] = []
            factors: List[float] = []
            peaks: List[float] = []
            samples = []
            started, steal = time.perf_counter(), steal_seconds()
            # another batch only while it is expected to end in time
            while len(walls) < 2 or (time.perf_counter() - started + walls[-1] <= seconds):
                batch, wall, factor = _drive(server, meter, stream, UNIT, UNIT * len(walls))
                samples += batch
                walls.append(wall)
                factors.append(factor)
                peaks.append(server.peak_rss_mb())
            # after a fixed amount of work, so it does not grow with how
            # many requests a fast machine fits in
            peak = peaks[0]
            steal = steal_seconds() - steal
        else:
            started = time.perf_counter()
            # one batch warms up; the untraced baseline is the one after it
            untraced, _, _ = _drive(server, meter, stream, UNIT, 0)
            batch, _, _ = _drive(server, meter, stream, UNIT, UNIT)
            untraced += batch
            untraced_s = cpu_total_s(batch, "scaled_ms")
            before = _simple(server.port, "stats")["result"]
            samples, units, wall = [], [], 0.0
            # another batch only while it is expected to end in time
            while not units or time.perf_counter() - started + wall <= seconds:
                batch, wall, _ = _drive(server, meter, stream, UNIT, UNIT * (len(units) + 2),
                                        tracer)
                samples += batch
                units.append(cpu_total_s(batch, "scaled_ms"))
            after = _simple(server.port, "stats")["result"]
            samples = untraced + samples
        wrong = check_samples(samples, self.seed)
        for s in samples:
            reason = wrong.get(s.index, "")
            tally.record(not reason, reason)
        details["error_rate"] = tally.error_rate
        details["unmetered"] = sum(1 for s in samples if s.cpu_ms is None)
        if tracer is not None:
            traced = samples[len(untraced):]
            metrics = layer_metrics(traced, before, after, len(units))
            metrics["trace.overhead_s"] = sum(units) / len(units) - untraced_s
            details.update({"traced_units": len(units), "untraced_unit_s": untraced_s,
                            "traced_unit_s": units, "requests_per_unit": UNIT})
            return Outcome(tally, metrics, {}, details, units=len(units))
        latencies = class_latencies(samples)
        lat = latency_summary(latencies)
        gen = gen_metrics(samples)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / (sum(latencies) / 1000.0),
            "latency_ms.p50": lat["p50"],
            "latency_ms.p99": lat["p99"],
            "peak_rss_mb": peak,
        }
        metrics.update(gen)
        details.update({
            "requests": len(samples), "batches": len(walls), "latency_samples": lat,
            "request_classes": len({request_class(s) for s in samples}),
            "measure_wall_s": sum(walls), "measure_cpu_s": cpu_total_s(samples),
            "measure_steal_s": steal, "speed_factors": factors, "peak_rss_mb": peaks,
            "hits": sum(1 for s in samples if s.cached),
            "misses": sum(1 for s in samples if s.ok and not s.cached),
        })
        fingerprint = {"listings": listing_fingerprint(samples), "gen": gen}
        return Outcome(tally, metrics, fingerprint, details)
