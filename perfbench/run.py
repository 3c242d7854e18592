"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` prints its per-layer
metrics, writes the spans to ``.perfbench/traces/`` as Chrome
trace-event JSON and reports the tracing overhead.  The last line of
standard output is the result object; the line before it is the full
report (revision, seed, nproc, Python version, sample counts, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

from common import ROOT, SRC, WORK, revision

WORKLOADS = ("compile-cold", "inject-quick", "serve-mixed")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _make(name: str, seed: int):
    if name == "compile-cold":
        import compile_cold as module
    elif name == "inject-quick":
        import inject_quick as module
    else:
        import serve_mixed as module
    return module.Workload(seed)


def _determinism(workload: str, seed: int, rev: str, fingerprint: dict) -> bool:
    """Compare this run's deterministic outputs with an earlier run of the
    same seed, program revision and benchmark code, recording them the
    first time."""
    digest = hashlib.sha256(rev.encode())
    here = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(here)) + ["../BENCHMARK.json"]:
        if name.endswith((".py", ".json")):
            with open(os.path.join(here, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    folder = os.path.join(WORK, "determinism")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}-{seed}-{digest.hexdigest()[:16]}.json")
    blob = json.dumps(fingerprint, sort_keys=True)
    if os.path.exists(path):
        with open(path) as handle:
            return handle.read() == blob
    staging = f"{path}.{os.getpid()}"
    with open(staging, "w") as handle:
        handle.write(blob)
    os.replace(staging, path)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    spec = _load_spec()
    os.makedirs(WORK, exist_ok=True)
    # in-process work never touches a disk cache outside the checkout
    os.environ["REPRO_CACHE"] = "0"
    os.environ["REPRO_CACHE_DIR"] = os.path.join(WORK, "cache")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from layers import Tracer, layer_values

    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    workload = _make(args.workload, args.seed)
    outcome = workload.run(args.seconds, tracer)
    wall = time.perf_counter() - started

    rev = revision()
    if tracer is None:
        wanted = spec["end_to_end"]
        values = dict(outcome.metrics)
        deterministic = _determinism(args.workload, args.seed, rev, outcome.fingerprint)
    else:
        wanted = spec["per_layer"]
        values = layer_values(tracer, outcome.units)
        values.update(outcome.metrics)
        deterministic = True
        folder = os.path.join(WORK, "traces")
        os.makedirs(folder, exist_ok=True)
        trace_path = os.path.join(folder, f"{args.workload}-seed{args.seed}.json")
        tracer.write_chrome(trace_path)
        outcome.details["trace_file"] = os.path.relpath(trace_path, ROOT)
        outcome.details["layers_not_listed"] = {
            k: v for k, v in sorted(values.items())
            if k not in {m["name"] for m in wanted}
        }

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if tracer is None and missing:
        print(f"perfbench: workload did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    report = {
        "workload": args.workload, "why": why, "seed": args.seed,
        "revision": rev, "nproc": os.cpu_count(),
        "python": platform.python_version(), "seconds": args.seconds,
        "trace": args.trace, "wall_s": wall, "deterministic": deterministic,
        "error_rate": outcome.tally.error_rate,
        "failures": outcome.tally.reasons, "details": outcome.details,
    }
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": outcome.tally.failed == 0 and deterministic,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
