"""Benchmark for sparsity-forge: graph in, verified answer out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
inputs come from --seed.  With --trace 0 the run measures the end-to-end
metrics; with --trace 1 it wraps each module's entry points with span and
counter recorders (perfbench/spans.py) and reports per-layer metrics, then
replays the same operations untraced to report the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it holds the run's metadata: seed,
output digest, host, source hash, tail latency and the first problems found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"
WORKLOADS = ("small_batch", "split_circuit", "split_forest", "cli_batch")
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_sha256() -> str:
    """Hash of the program's sources and of the benchmark's own code."""
    h = hashlib.sha256()
    files = [*(SRC / "sparsity_forge").rglob("*"), *HERE.glob("*.py")]
    for path in sorted(files):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fresh_import_s() -> float:
    """Seconds a new interpreter spends importing the program's modules."""
    code = ("import time; t = time.perf_counter(); "
            "import sparsity_forge, sparsity_forge.cli, sparsity_forge.instances; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, timeout=60)
    return float(proc.stdout)


def commit() -> str:
    """HEAD of the checkout when it is a git work tree; else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def compare_digest(workload: str, seed: int, digest: str, src_sha: str) -> str:
    """Compare with the digest stored for this workload and seed.

    Returns "new", "same", "changed" (the source changed too: reported, not a
    failure) or "mismatch" (same source, different output: a failure).
    """
    STATE.mkdir(exist_ok=True)
    path = STATE / "digests.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    key = f"{workload}:{seed}"
    prev = store.get(key)
    if prev is None:
        status = "new"
    elif prev["digest"] == digest:
        status = "same"
    else:
        status = "mismatch" if prev["source"] == src_sha else "changed"
    if status != "mismatch":
        store[key] = {"digest": digest, "source": src_sha}
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(store, indent=0, sort_keys=True))
        os.replace(tmp, path)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsity_forge" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import sparsity_forge

    if Path(sparsity_forge.__file__).resolve().parent != (SRC / "sparsity_forge").resolve():
        print(f"perfbench: imported sparsity_forge from {sparsity_forge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import spans
    import workloads as wl

    tracer = spans.Tracer().install() if args.trace else None

    # set-up is a fresh import of the program plus input generation, in raw
    # seconds: it is too short to pair with enough host-speed probes (see
    # hostspeed.py), and only its median over runs is compared
    setup_runs = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        import_s = fresh_import_s()
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        inputs = wl.setup(args.workload, args.seed)
        raw = import_s + time.perf_counter() - t0
        if tracer:
            tracer.active = False
        setup_runs.append(raw)

    cli = args.workload == "cli_batch"
    child_absent = set()

    def sink(child):
        for key, value in child["counts"].items():
            if key in tracer.counts:
                tracer.counts[key] += value
        child_absent.update(child["absent"])

    def run(max_ops=None, traced=False):
        if cli:
            passes = None if max_ops is None else max_ops // (len(inputs) * len(wl.CLI_COMMANDS))
            return wl.run_cli(inputs, args.seed, args.seconds, sink if traced else None, passes)
        recorder = tracer if traced else None
        if args.workload == "small_batch":
            return wl.run_in_process(inputs, args.seed, args.seconds, wl.SMALL_DIGEST_OPS,
                                     wl.SMALL_AUDIT_EVERY, max_ops, recorder)
        return wl.run_in_process(inputs, args.seed, args.seconds, len(inputs), 0, max_ops,
                                 recorder)

    outcome = run(traced=bool(tracer))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss

    src_sha = source_sha256()
    problems = list(outcome.problems)
    digest_status = compare_digest(args.workload, args.seed, outcome.digest, src_sha)
    if digest_status == "mismatch":
        problems.append("output digest differs from an earlier run of the same source and seed")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": outcome.digest,
        "digest_ops": outcome.digest_ops,
        "digest_status": digest_status,
        "source_sha256": src_sha,
        "commit": commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "op_s": outcome.busy_s,
        "op_s_scaled": outcome.scaled_s,
        "raw_ops_per_s": outcome.attempted / outcome.busy_s,
        "host_probe_ms": {"median": 1e3 * statistics.median(outcome.host.probes),
                          "min": 1e3 * min(outcome.host.probes),
                          "max": 1e3 * max(outcome.host.probes),
                          "count": len(outcome.host.probes)},
        "setup_runs_s": setup_runs,
        "op_ms_tail": wl.tail_ms(outcome),
        "op_ms_p50_by_class": {k: 1e3 * statistics.median(v) for k, v in outcome.latencies.items()},
        "ops_by_class": {k: len(v) for k, v in outcome.latencies.items()},
        "failed_ratio": outcome.failed / outcome.attempted,
    }

    if tracer:
        tracer.uninstall()
        absent = sorted(set(tracer.absent) | child_absent)
        metrics = {name: {"value": tracer.counts[name], "unit": unit}
                   for layer in spans.TARGETS if layer not in absent
                   for name, unit in spans.layer_metrics(layer)}
        replay = run(max_ops=outcome.attempted)
        if replay.digest != outcome.digest:
            problems.append("traced and untraced runs produced different outputs")
        problems += [f"untraced replay: {p}" for p in replay.problems]
        # span times are raw seconds, so the operation total they divide is too
        metrics["trace.op_s"] = {"value": outcome.busy_s, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100 * (outcome.scaled_s / replay.scaled_s - 1), "unit": "%"}
        meta["absent_layers"] = absent
        meta["wrapped_namespaces"] = tracer.namespaces
        meta["untraced_replay"] = {"ops": replay.attempted, "op_s_scaled": replay.scaled_s,
                                   "failed": replay.failed}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_runs), "unit": "s"},
            "ops_per_s": {"value": outcome.attempted / outcome.scaled_s, "unit": "1/s"},
            "op_ms.p50": {"value": wl.p50_ms(outcome), "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            "verified_ratio": {"value": 1 - outcome.failed / outcome.attempted, "unit": "ratio"},
        }
    meta["problems"] = problems[:20]
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
