"""Seeded inputs for the four workloads and the closed loops that drive them.

Every workload is one client in a closed loop: the next operation starts
only after the previous one returned.  Only the time inside operations counts
toward the run length and toward throughput; checks, digests and preparing
the next input happen between operations, untimed.

Operation cost on the split workloads depends mostly on the order in which
edges meet the augmenting-path search, so a fresh random vertex labelling of
a host varies the cost as much as a fresh host does, at none of the
generation cost.  Inputs therefore cycle through the generated pool, and
every input after the first pass is a seeded random relabelling of its
pool entry: a run never repeats an input, and the spread between seeds
shrinks with the number of operations a run completes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import sparsity_forge as sf
from sparsity_forge import decompose, graphs, instances

import checks
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# the ten density values of acceptance criterion 1
M_VALUES = [
    Fraction(6, 5), Fraction(3, 2), Fraction(9, 5), Fraction(2), Fraction(7, 3),
    Fraction(5, 2), Fraction(11, 4), Fraction(3), Fraction(10, 3), Fraction(4),
]

SMALL_GRAPHS = 2000        # G(8, p) graphs, each run at all ten M_VALUES
SMALL_DIGEST_OPS = 2000    # small_batch digests its first 2000 answers
SMALL_AUDIT_EVERY = 97     # brute-force audit of every 97th small_batch answer

# (m, n, hosts, expected case label) per host class
SPLIT_CIRCUIT = [
    (Fraction(19, 10), 120, 8, "small_m_triangle_free"),
    (Fraction(20, 7), 120, 8, "large_m_case_D2"),
]
SPLIT_FOREST = [
    (Fraction(5, 2), 600, 2, "large_m_case_C"),
    (Fraction(7), 600, 2, "large_m_case_A"),
]

CLI_COMMANDS = [
    ("check", Fraction(5, 2), -1),
    ("partition", 1, -1, 1, 1),
    ("partition", 1, -1, 1, -2),
]


@dataclass
class Job:
    cls: str
    graph: sf.Graph
    m: Fraction | None = None
    case: str | None = None


@dataclass
class Outcome:
    """What one run measured and what its checks found.

    ``busy_s`` is raw operation time and sets the run length; ``scaled_s`` and
    ``latencies`` are in reference-host seconds (see hostspeed.py).
    """

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    scaled_s: float = 0.0
    latencies: dict[str, array] = field(default_factory=dict)
    digest: str = ""
    digest_ops: int = 0
    problems: list[str] = field(default_factory=list)
    host: HostSpeed = field(default_factory=HostSpeed)
    tracer: object = None  # spans.Tracer recording inside operations only

    def fail(self, where: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {'; '.join(problems)}")

    def timed(self, cls: str, fn, *args):
        """Run fn(*args) as one measured operation of input class ``cls``."""
        self.host.before_work()
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
        scaled = self.host.scaled(raw)
        self.latencies.setdefault(cls, array("d")).append(scaled)
        self.busy_s += raw
        self.scaled_s += scaled
        return result


def relabel(g: sf.Graph, rng: random.Random) -> sf.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return sf.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def stream(pool: list[Job], seed: int):
    """Pool entries in order, then seeded relabellings of them, forever."""
    rng = random.Random(f"perfbench-stream:{seed}")
    yield from pool
    while True:
        for job in pool:
            yield Job(job.cls, relabel(job.graph, rng), job.m, job.case)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def small_batch_pool(rng: random.Random) -> list[Job]:
    pairs = list(combinations(range(8), 2))
    pool = []
    for _ in range(SMALL_GRAPHS):
        p = rng.random()
        g = sf.Graph(8, [e for e in pairs if rng.random() < p])
        pool += [Job("n8", g, m) for m in M_VALUES]
    return pool


def split_pool(rng: random.Random, classes) -> list[Job]:
    by_class = []
    for m, n, hosts, case in classes:
        cls = f"m={m},n={n}"
        by_class.append([Job(cls, instances.random_sparse_graph(n, m, rng), m, case)
                         for _ in range(hosts)])
    # interleave the classes so that every stretch of the stream mixes them
    return [job for row in zip(*by_class) for job in row]


def cli_corpus(rng: random.Random) -> list[Job]:
    """graph6 corpus with n from about 10 to about 90, either side of n = 40."""
    corpus = []
    for n in range(13, 91, 11):
        corpus.append(instances.random_sparse_graph(n, 2, rng))
        corpus.append(instances.random_sparse_graph(n, 2, rng, b=-3))
        p = rng.uniform(4, 8) / n
        corpus.append(sf.Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    corpus.append(sf.gen_counterexample_disconnected(1, 1, rng.randrange(5, 13), rng.randrange(2, 5)))
    corpus.append(sf.gen_counterexample_ring(1, rng.randrange(3, 25)))
    corpus.append(sf.gen_counterexample_glued_trees(2))
    return [Job("corpus", g) for g in corpus]


def setup(name: str, seed: int) -> list[Job]:
    rng = random.Random(seed)
    if name == "small_batch":
        return small_batch_pool(rng)
    if name == "split_circuit":
        return split_pool(rng, SPLIT_CIRCUIT)
    if name == "split_forest":
        return split_pool(rng, SPLIT_FOREST)
    if name == "cli_batch":
        return cli_corpus(rng)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# in-process loop: one decompose_ksw + verify_decomposition per operation
# ---------------------------------------------------------------------------


def _answer(job: Job):
    """The timed operation; returns (kind, payload)."""
    try:
        d = decompose.decompose_ksw(job.graph, job.m)
        return "yes", (d, decompose.verify_decomposition(d).ok)
    except sf.NotSparseError as exc:
        return "no", exc.certificate
    except Exception as exc:  # a crash is a failed operation, not a failed run
        return "error", exc


def run_in_process(pool: list[Job], seed: int, seconds: float, digest_ops: int,
                   audit_every: int = 0, max_ops: int | None = None, tracer=None) -> Outcome:
    """Run operations until ``seconds`` of operation time have passed and the
    first ``digest_ops`` answers exist, or exactly ``max_ops`` operations."""
    out = Outcome(digest_ops=digest_ops, tracer=tracer)
    hasher = hashlib.sha256()
    for i, job in enumerate(stream(pool, seed)):
        if i == max_ops or (max_ops is None and out.busy_s >= seconds and i >= digest_ops):
            break
        kind, payload = out.timed(job.cls, _answer, job)
        out.attempted += 1
        if kind == "error":
            record = {"error": repr(payload)}
            problems = [f"raised {payload!r}"]
        elif kind == "no":
            record = payload.to_json_dict()
            problems = checks.check_certificate(job.graph, job.m, 0, record, expect_sparse=False)
        else:
            d, ok = payload
            record = d.to_json_dict(verified=ok)
            problems = checks.check_decomposition(job.graph, job.m, record, job.case)
        if audit_every and i % audit_every == 0 and not problems:
            problems = checks.audit_small(job.graph, job.m, record)
        if i < digest_ops:
            hasher.update(json.dumps(record, separators=(",", ":")).encode() + b"\n")
        if problems:
            out.fail(f"op {i} ({job.cls}, m={job.m})", problems)
    out.digest = hasher.hexdigest()
    return out


# ---------------------------------------------------------------------------
# CLI loop: one subprocess per command over the whole corpus
# ---------------------------------------------------------------------------


def _command_argv(command) -> list[str]:
    if command[0] == "check":
        return ["check", "--a", sf.format_rational(command[1]), "--b", str(command[2])]
    _, a1, b1, a2, b2 = command
    return ["partition", "--a1", str(a1), "--b1", str(b1), "--a2", str(a2), "--b2", str(b2)]


def run_cli(corpus: list[Job], seed: int, seconds: float, trace_sink=None,
            max_passes: int | None = None) -> Outcome:
    """Pipe the corpus through each CLI command in turn, in whole passes, until
    ``seconds`` of invocation time have passed, or exactly ``max_passes``.

    An operation is one output record.  ``trace_sink``, when given, receives
    each traced child's counters; the children then run under
    perfbench/cli_child.py instead of ``python -m sparsity_forge.cli``.
    """
    out = Outcome(digest_ops=len(corpus) * len(CLI_COMMANDS))
    schemas = checks.load_schemas(ROOT)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def invoke(cmd, text):
        return subprocess.run(cmd, input=text, capture_output=True, env=env, cwd=ROOT, timeout=120)

    hasher = hashlib.sha256()
    trace_path = HERE / ".state" / f"cli-trace-{os.getpid()}.json"
    inputs = stream(corpus, seed)
    passes = 0
    while passes != max_passes and (max_passes is not None or passes == 0 or out.busy_s < seconds):
        batch = [next(inputs).graph for _ in corpus]
        text = "".join(graphs.write_graph6(g) + "\n" for g in batch).encode()
        for command in CLI_COMMANDS:
            argv = _command_argv(command)
            if trace_sink is None:
                cmd = [sys.executable, "-m", "sparsity_forge.cli", *argv]
            else:
                trace_path.parent.mkdir(exist_ok=True)
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_path), *argv]
            proc = out.timed(" ".join(argv), invoke, cmd, text)
            out.attempted += len(batch)
            if trace_sink is not None and trace_path.exists():
                trace_sink(json.loads(trace_path.read_text()))
                trace_path.unlink()
            if passes == 0:
                hasher.update(" ".join(argv).encode() + b"\n" + proc.stdout)
            _check_cli_output(out, batch, command, proc, schemas)
        passes += 1
    out.digest = hasher.hexdigest()
    return out


def _check_cli_output(out: Outcome, batch: list[sf.Graph], command, proc, schemas) -> None:
    where = " ".join(_command_argv(command))
    if proc.returncode not in (0, 1):
        for _ in batch:
            out.fail(where, [f"exit code {proc.returncode}: {proc.stderr.decode()[-200:]}"])
        return
    lines = proc.stdout.decode().splitlines()
    for idx, g in enumerate(batch):
        if idx >= len(lines):
            out.fail(f"{where} record {idx}", ["missing"])
            continue
        problems = checks.check_cli_record(g, command, lines[idx], schemas)
        if problems:
            out.fail(f"{where} record {idx}", problems)
    if len(lines) > len(batch):
        out.fail(where, [f"{len(lines) - len(batch)} extra output lines"])


# ---------------------------------------------------------------------------
# latency summaries
# ---------------------------------------------------------------------------


def p50_ms(out: Outcome) -> float:
    """Geometric mean over input classes of each class's median latency."""
    medians = [statistics.median(v) for v in out.latencies.values()]
    return 1e3 * math.exp(sum(math.log(x) for x in medians) / len(medians))


def tail_ms(out: Outcome) -> dict | None:
    """Latency at the highest of p99.9 / p99 / p90 with >= 10 samples beyond it."""
    samples = sorted(x for v in out.latencies.values() for x in v)
    for pct in (99.9, 99.0, 90.0):
        idx = math.ceil(len(samples) * pct / 100) - 1
        beyond = len(samples) - 1 - idx
        if idx >= 0 and beyond >= 10:
            return {"percentile": pct, "ms": 1e3 * samples[idx], "beyond": beyond,
                    "samples": len(samples)}
    return None
