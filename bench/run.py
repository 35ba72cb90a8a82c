"""Run the benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

One invocation runs one workload in this (fresh) interpreter and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
measures the end-to-end metrics with no tracing; ``--trace 1`` is the
separate traced run that yields the per-layer metrics.  Without
``--workload`` every workload runs, each in an interpreter of its own.
The exit code is 0 only if no operation failed.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # Run as a script, sys.path[0] is bench/ itself: its modules must be
    # reachable as bench.* only, never shadow a top-level name (trace, ...).
    sys.path[0] = ROOT
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(1, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Callable, Iterator  # noqa: E402

from bench import load_spec, stats  # noqa: E402
from bench.layers import Observation, layer_metrics, log_bytes  # noqa: E402
from bench.targets import make_target  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import (  # noqa: E402
    WORKLOADS,
    Op,
    OpStream,
    Sample,
    Workload,
    shrunk,
    verify,
)

OUT_DIR = os.path.join(ROOT, "bench", "out")
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Set-ups timed per measured run; ``setup_s`` is their median.
SETUPS = 3
#: A traced run traces every other block: block 0 leads in, odd blocks are
#: traced, even blocks are the untraced base of ``trace.overhead_share``.
TRACED_MIN_BLOCKS = 3


def traced_block(index: int) -> bool:
    return index % 2 == 1


class Feed:
    """Hands operations to the callers, block by block, until the time is
    up.  Only whole blocks are handed out, and at least ``min_blocks``, so
    every run executes the same mix however long or fast it is.
    ``on_block(i)`` runs just before block ``i`` is handed out."""

    def __init__(
        self,
        blocks: Iterator[list[Op]],
        seconds: float,
        min_blocks: int = 1,
        on_block: Callable[[int], None] = lambda index: None,
    ) -> None:
        self._blocks = blocks
        self._seconds = seconds
        self._min_blocks = min_blocks
        self._on_block = on_block
        self._pending: collections.deque[tuple[Op, int]] = collections.deque()
        self._lock = threading.Lock()
        self._started = 0.0
        self._handed = 0  # blocks handed out so far

    def __call__(self) -> tuple[Op, int] | None:
        """The next operation and the number of its block."""
        with self._lock:
            if not self._pending:
                now = time.perf_counter()
                if self._handed == 0:
                    self._started = now
                elif (
                    self._handed >= self._min_blocks
                    and now - self._started >= self._seconds
                ):
                    return None
                self._on_block(self._handed)
                self._pending.extend((op, self._handed) for op in next(self._blocks))
                self._handed += 1
            return self._pending.popleft()


def drive(target: Any, feed: Feed) -> list[Sample]:
    """Closed loop: each caller sends its next operation when the
    previous one has completed."""
    samples: list[Sample] = []

    def loop(caller: Callable[[Op], Sample]) -> None:
        while (handed := feed()) is not None:
            sample = caller(handed[0])
            sample.block = handed[1]
            samples.append(sample)

    callers = [target.caller(i) for i in range(target.workload.connections)]
    if len(callers) == 1:
        loop(callers[0])
        return samples
    threads = [threading.Thread(target=loop, args=(caller,)) for caller in callers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


@dataclass
class Window:
    """One timed window over a prepared target.  ``cpu_s`` and ``rss_mb``
    are the program's CPU seconds and high-water RSS read at the start of
    the window and as each block completed (one more entry than blocks)."""

    samples: list[Sample]
    seconds: float
    cpu_s: list[float]
    rss_mb: list[float]
    bronze_bytes: list[int]  # the store's page log, read at the same instants
    before: Any = None  # layers.Observation, traced runs only
    after: Any = None

    def queries(self, block: int | None = None) -> int:
        return sum(
            1
            for s in self.samples
            if s.op.kind == "query" and (block is None or s.block == block)
        )

    def cpu_ms_per_query(self, blocks: list[int] | None = None) -> float:
        """Program CPU per query, over the whole window or some blocks."""
        if blocks is None:
            return (self.cpu_s[-1] - self.cpu_s[0]) * 1e3 / self.queries()
        cpu = sum(self.cpu_s[b + 1] - self.cpu_s[b] for b in blocks)
        queries = sum(self.queries(b) for b in blocks)
        return cpu * 1e3 / queries if queries else 0.0


def observe(target: Any) -> Observation:
    flat, snapshot = target.registry()
    return Observation(flat, snapshot, log_bytes(target.store_dirs()))


def prepare(
    workload: Workload, seed: int, hosted: bool, tag: str
) -> tuple[Any, OpStream, list[Sample], float]:
    """Set up once: build or launch the program, connect, warm up.
    Returns (target, stream, warm-up samples, set-up seconds)."""
    stream = OpStream(workload, seed)
    scratch = os.path.join(OUT_DIR, "run-%d-%s" % (os.getpid(), tag))
    target = make_target(workload, scratch, hosted)
    started = time.perf_counter()
    target.start()
    try:
        warmup = drive(target, Feed(iter([stream.warmup()]), 0.0))
    except BaseException:
        target.stop()
        raise
    return target, stream, warmup, time.perf_counter() - started


def measure(
    target: Any,
    stream: OpStream,
    seconds: float,
    tracer: Any = None,
) -> Window:
    """Run whole blocks for ``seconds``.  With a tracer (a traced run),
    at least :data:`TRACED_MIN_BLOCKS` blocks run, the tracer is switched
    on for the traced ones, and the registry is observed around them."""

    cpu_s: list[float] = []
    rss_mb: list[float] = []
    bronze_bytes: list[int] = []

    def on_block(index: int) -> None:
        cpu_s.append(target.cpu_seconds())
        rss_mb.append(target.peak_rss_mb())
        if tracer is not None:
            bronze_bytes.append(log_bytes(target.store_dirs())["bronze.log"])
            tracer.enabled = traced_block(index)

    gc.collect()
    before = observe(target) if tracer is not None else None
    blocks = iter(stream.block, None)  # endless: block() never returns None
    feed = Feed(blocks, seconds, TRACED_MIN_BLOCKS if tracer else 1, on_block)
    started = time.perf_counter()
    samples = drive(target, feed)
    elapsed = time.perf_counter() - started
    on_block(-1)  # the readings after the last block; tracing off
    after = observe(target) if tracer is not None else None
    return Window(samples, elapsed, cpu_s, rss_mb, bronze_bytes, before, after)


def run_measured(workload: Workload, seed: int, seconds: float, setups_timed: int) -> dict[str, Any]:
    """The untraced run: the end-to-end metrics."""
    setups: list[float] = []
    target = None
    try:
        for attempt in range(setups_timed):
            if target is not None:
                target.stop()
                target = None
            target, stream, warmup, setup_s = prepare(
                workload, seed, hosted=False, tag="setup%d" % attempt
            )
            setups.append(setup_s)
        window = measure(target, stream, seconds)
    finally:
        if target is not None:
            target.stop()
    samples = warmup + window.samples
    failed = verify(samples, log)
    timed = [s for s in window.samples if s.op.kind == "query"]
    latencies = [s.latency_s * 1e3 for s in timed]
    correct = sum(1 for s in timed if not s.error)
    log(
        "%s: %d timed queries in %.2f s; highest percentile with %d samples beyond: p%g"
        % (workload.name, len(timed), window.seconds, stats.SAMPLES_BEYOND,
           stats.highest_supported_percentile(len(timed)))
    )  # fmt: skip
    return {
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "query_p50_ms": stats.percentile(latencies, 50),
            "query_p90_ms": stats.percentile(latencies, 90),
            "throughput_qps": correct / window.seconds,
            "cpu_ms_per_query": window.cpu_ms_per_query(),
            # After a fixed amount of work, not at the end: a faster program
            # runs more blocks in its time and must not read as a bigger one.
            "peak_rss_mb": window.rss_mb[1],
        },
    }


def run_traced(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """The traced run: the per-layer metrics.  The program is hosted in
    this process so that the wrappers see the server side."""
    tracer = Tracer()
    tracer.install()  # before set-up: bound methods captured there must be wrapped
    try:
        target, stream, warmup, _ = prepare(workload, seed, hosted=True, tag="traced")
        try:
            window = measure(target, stream, seconds, tracer)
        finally:
            target.stop()
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT_DIR, "trace-%s.jsonl" % workload.name))
    samples = warmup + window.samples
    blocks = range(len(window.cpu_s) - 1)
    return {
        "attempted": len(samples),
        "failed": verify(samples, log),
        "metrics": layer_metrics(
            tracer.spans,
            window,
            traced=[b for b in blocks if traced_block(b)],
            # Block 0 leads in: the host runs a process faster in its first seconds.
            untraced=[b for b in blocks if not traced_block(b) and b > 0],
        ),
    }


# -- the command line -----------------------------------------------------------------


def log(message: str) -> None:
    print(message, flush=True)


def declared(spec: dict[str, Any], traced: bool) -> dict[str, str]:
    """name -> unit of the metrics a run of this kind must print."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def result_line(outcome: dict[str, Any], units: dict[str, str]) -> dict[str, Any]:
    """The contract's result object; refuses to print anything the
    benchmark's declaration does not name, or to leave a name out."""
    metrics = outcome["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: undeclared %s, missing %s"
            % (sorted(set(metrics) - set(units)), sorted(set(units) - set(metrics)))
        )
    bad = [name for name in metrics if not METRIC_NAME.match(name)]
    if bad:
        raise SystemExit("metric names outside [A-Za-z0-9_.-]: %s" % bad)
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in sorted(metrics)
        },
    }


def run_one(args: argparse.Namespace, spec: dict[str, Any], traced: bool) -> int:
    workload = WORKLOADS[args.workload]
    if args.check:
        workload = shrunk(workload)
    if traced:
        outcome = run_traced(workload, args.seed, args.seconds)
    else:
        outcome = run_measured(workload, args.seed, args.seconds, 1 if args.check else SETUPS)
    line = result_line(outcome, declared(spec, traced))
    for name, metric in line["metrics"].items():
        log("%-14s %-40s %14.4f %s" % (workload.name, name, metric["value"], metric["unit"]))
    if args.out:
        record = dict(line, workload=workload.name, seed=args.seed, trace=int(traced))
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    log(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all")
    parser.add_argument("--seed", type=int, default=1999, help="workload seed")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result, with its workload and seed, to this JSON-lines file")
    parser.add_argument(
        "--check",
        action="store_true",
        help="one tiny block per run, traced and untraced: validates what is printed",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no program to measure: %s/src/repro is missing" % ROOT, file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads %s differ from bench.workloads" % names)
    if args.workload is None:
        # Each workload in a fresh interpreter: peak RSS is per workload.
        forwarded = sys.argv[1:] if argv is None else argv
        return max(
            subprocess.call([sys.executable, os.path.abspath(__file__), "--workload", name, *forwarded])
            for name in names
        )
    os.makedirs(OUT_DIR, exist_ok=True)
    # Teardown runs in ``finally`` blocks: turn a polite kill into an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.check:
        args.seconds = 0.0
        return max(run_one(args, spec, traced=False), run_one(args, spec, traced=True))
    return run_one(args, spec, traced=bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
