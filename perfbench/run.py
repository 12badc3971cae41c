"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload upg_sp --seed 1 --seconds 12 --trace 0

Run it from the repository root; the library is imported from ``src/``.
One client sends the next op only when the previous one has finished, in
one thread. Ops run in whole rounds (see ``workloads.py``), after an
untimed warm-up, until they have taken ``--seconds`` at reference speed
(see below). Every op is checked exactly; an op that raises or
mismatches is counted as failed and the run goes on.

Op times are reported at reference speed. A shared virtual machine can
run the same code twice as fast at some moments as at others, so between
ops, every ``CALIBRATE_EVERY_S``, the run times a fixed
pure-Python kernel (``SpeedClock``). Each op time is scaled by
``REF_KERNEL_S / kernel time`` around it: it reads as it would on a
machine that runs the kernel in exactly ``REF_KERNEL_S``. The timed phase
ends after ``--seconds`` of scaled op time, so the number of ops does not
depend on the machine's speed. The raw figures are printed on the lines
before the result.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones. With ``--trace 1`` the ops run with every layer
wrapped (see ``tracing.py``), then run again unwrapped to measure the
tracing overhead and to check that both runs give the same outputs; the
metrics are the per-layer ones, and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 9        # set-ups timed for setup_s; the median is reported
EXTENSIONS = tuple(EXTENSION_SUFFIXES)
WARMUP_S = 0.5
TAIL_BEYOND = 10        # op_tail_ms: highest percentile with this many samples beyond it
TAIL_WINDOW = 100       # ops per window for op_tail_ms
MAX_TRACEBACKS = 3
REF_KERNEL_S = 0.00075  # kernel time that defines reference speed
CALIBRATE_EVERY_S = 0.1
KERNEL_REPS = 3
MAX_SLOWDOWN = 2.5      # wall-time cap on a timed phase, as a multiple of --seconds


def kernel() -> int:
    """Fixed work in the library's style: small Fractions, tuples, dicts."""
    out = {}
    for i in range(1, 150):
        p = Fraction(i % 7, i % 9 + 1) * Fraction(3, 4) + Fraction(1, i % 5 + 2)
        out[i % 13] = (p, p.numerator + p.denominator)
    return len(out)


class SpeedClock:
    """Samples the machine's current speed with ``kernel``."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Kernel time now (median of a few runs); also recorded."""
        times = []
        for _ in range(KERNEL_REPS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from raw time to reference time, for work between two samples."""
        return REF_KERNEL_S / ((before + after) / 2)


class Tally:
    """Outcome of a stretch of ops; times are at reference speed."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.latencies_s: list[float] = []    # ops that passed their checks
        self.outputs: list = []


def record_failure(tally: Tally, what: str) -> None:
    """Count the exception being handled as a failed op."""
    tally.failed += 1
    tally.outputs.append(("failed", what))
    if tally.failed <= MAX_TRACEBACKS:
        print(f"{what} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def play(workload, first_round: int, tally: Tally, clock: SpeedClock, *,
         seconds=None, rounds=None, tracer=None) -> None:
    """Run whole rounds from ``first_round`` until ``rounds`` rounds are done,
    or until ops have taken ``seconds`` at reference speed (at most
    ``MAX_SLOWDOWN`` times that in wall time)."""
    from tracing import BENCH_OP

    i = first_round
    before = clock.sample()
    next_sample = time.perf_counter() + CALIBRATE_EVERY_S
    if seconds is not None:
        wall_end = time.perf_counter() + MAX_SLOWDOWN * seconds
    block_ns: list[int] = []        # raw latencies of passed ops since `before`
    block_busy_ns = 0

    def flush() -> None:
        nonlocal before, block_ns, block_busy_ns
        after = clock.sample()
        scale = clock.scale(before, after) / 1e9
        tally.latencies_s.extend(ns * scale for ns in block_ns)
        tally.busy_s += block_busy_ns * scale
        tally.raw_busy_s += block_busy_ns / 1e9
        before, block_ns, block_busy_ns = after, [], 0

    while rounds is None or tally.rounds < rounds:
        if seconds is not None and (
                tally.busy_s + block_busy_ns / 1e9 * REF_KERNEL_S / before >= seconds
                or time.perf_counter() >= wall_end):
            break
        if tracer is not None:
            tracer.active = False   # input generation is not a layer's work
        try:
            ops = workload.round(i)
        except Exception:   # counted as one failed op; the run goes on
            tally.attempted += 1
            record_failure(tally, f"round {i} input generation")
            ops = []
        if tracer is not None:
            tracer.active = True
        for op in ops:
            op_id = tally.attempted
            tally.attempted += 1
            start = time.perf_counter_ns()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    out = tracer.call(BENCH_OP, op_id, op.run)
            except Exception:   # a failed op is counted; the run goes on
                block_busy_ns += time.perf_counter_ns() - start
                record_failure(tally, f"op {op_id} ({op.kind})")
                continue
            elapsed = time.perf_counter_ns() - start
            block_busy_ns += elapsed
            block_ns.append(elapsed)
            tally.outputs.append(out)
            if time.perf_counter() >= next_sample:
                flush()
                next_sample = time.perf_counter() + CALIBRATE_EVERY_S
        tally.rounds += 1
        i += 1
    flush()


def tail(latencies: list[float]) -> tuple[float, float, int, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    The samples are taken in consecutive windows of TAIL_WINDOW ops (one
    window when there are fewer), and the median over the windows is
    returned: over thousands of ops the percentile is so high that a few
    stalls of the machine decide it. Returns (latency, percentile, samples
    per window, windows); the maximum stands in when a window has too few
    samples.
    """
    windows = max(1, len(latencies) // TAIL_WINDOW)
    size = len(latencies) // windows
    index = size - 1 if size <= TAIL_BEYOND else size - TAIL_BEYOND - 1
    values = [sorted(latencies[k * size:(k + 1) * size])[index] for k in range(windows)]
    return statistics.median(values), 100.0 * (index + 1) / size, size, windows


def probe_setup(args, clock: SpeedClock, preloaded: set) -> float:
    """Seconds of one set-up, at reference speed.

    Every module imported since ``preloaded`` was taken is dropped first,
    except compiled extensions, which cannot be loaded twice; the import of
    ``relaycircuits`` then runs its modules again, and the pure-Python
    modules it needs."""
    for name in [n for n in sys.modules if n not in preloaded]:
        if not (getattr(sys.modules[name], "__file__", None) or "").endswith(EXTENSIONS):
            del sys.modules[name]
    before = clock.sample()
    start = time.perf_counter()
    importlib.import_module("relaycircuits")
    workloads = importlib.import_module("workloads")
    workloads.WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    raw = time.perf_counter() - start
    return raw * clock.scale(before, clock.sample())


def end_to_end(args, workloads, preloaded: set) -> tuple[dict, Tally, Tally]:
    clock = SpeedClock()
    workload = workloads[args.workload](args.seed, tiny=args.size == "tiny")
    warm = Tally()
    play(workload, 0, warm, clock, seconds=WARMUP_S)
    timed = Tally()
    play(workload, warm.rounds, timed, clock, seconds=args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del workload
    setups = []
    for _ in range(SETUP_PROBES):   # after the ops, so that their garbage is not in the peak
        setups.append(probe_setup(args, clock, preloaded))
        gc.collect()

    lat = timed.latencies_s
    if lat:
        tail_s, tail_pct, window, windows = tail(lat)
        p50_s = statistics.median(lat)
        ops_per_s = len(lat) / timed.busy_s
    else:
        tail_s, tail_pct, window, windows, p50_s, ops_per_s = 0.0, 0.0, 0, 0, 0.0, 0.0
    print(f"# {args.workload} seed {args.seed}: {timed.attempted} timed ops in "
          f"{timed.rounds} rounds, {timed.failed} failed; op_tail_ms is "
          f"p{tail_pct:.2f} of {window} samples" +
          (f", median over {windows} consecutive windows" if windows > 1 else ""))
    print(f"# raw: {timed.raw_busy_s:.3f} s busy ({len(lat) / max(timed.raw_busy_s, 1e-9):.4f} "
          f"ops/s); kernel "
          f"median {statistics.median(clock.samples) * 1e3:.3f} ms over "
          f"{len(clock.samples)} samples (reference {REF_KERNEL_S * 1e3:g} ms)")
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50_s * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return metrics, warm, timed


def per_layer(args, workloads) -> tuple[dict, Tally, Tally, bool]:
    from tracing import BENCH_SETUP, Tracer

    clock = SpeedClock()
    tracer = Tracer()
    tracer.install()
    try:
        workload = tracer.call(BENCH_SETUP, -1, workloads[args.workload],
                               args.seed, args.size == "tiny")
        tracer.active = False
        warm = Tally()
        play(workload, 0, warm, clock, seconds=WARMUP_S)
        traced_from = len(clock.samples)
        traced = Tally()
        play(workload, warm.rounds, traced, clock, seconds=args.seconds, tracer=tracer)
        traced_scale = REF_KERNEL_S / statistics.median(clock.samples[traced_from:])
    finally:
        tracer.uninstall()
    plain = Tally()
    play(workload, warm.rounds, plain, clock, rounds=traced.rounds)
    same = plain.outputs == traced.outputs
    if not same:
        print("traced and untraced runs gave different outputs", file=sys.stderr)

    metrics = tracer.layer_metrics(traced_scale)
    metrics["bench.trace_overhead"] = (traced.busy_s / max(plain.busy_s, 1e-9), "ratio")
    metrics["fail_share"] = (traced.failed / max(traced.attempted, 1), "share")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz")
    count = tracer.write_spans(path)
    print(f"# {args.workload} seed {args.seed}: {traced.attempted} traced ops in "
          f"{traced.rounds} rounds, {traced.failed} failed; {count} spans written to "
          f"{os.path.relpath(path)}; self_s scaled by {traced_scale:.4f} to reference speed")
    return metrics, warm, traced, same


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for selftest.py")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    preloaded = set(sys.modules)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "relaycircuits", "__init__.py")):
        print(f"perfbench: {src}/relaycircuits not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    same = True
    if args.trace:
        metrics, warm, timed, same = per_layer(args, WORKLOADS)
    else:
        metrics, warm, timed = end_to_end(args, WORKLOADS, preloaded)
    attempted = warm.attempted + timed.attempted
    failed = warm.failed + timed.failed
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
