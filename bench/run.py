"""gentle-si benchmark: three workloads, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload relation-search --seed 1 --seconds 40 --trace 0

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs every instance twice, once plain and once with spans around the
package's public functions, and reports per-layer metrics. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The line before it, and a file under bench/out/, record the environment and
the details behind each figure. Everything runs in this one process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracer import TRACED_MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
FAILURES_KEPT = 20
ACCOUNTING_TOLERANCE = 0.02  # self times must cover the traced time this closely

# speed reference: a fixed block of dict, tuple and list work, and its time
# at the reference speed (the fastest it ran on the 2-vCPU host the
# benchmark was tuned on). Only the scale of the figures depends on it.
REFERENCE_ITERS = 1000
REFERENCE_S = 0.0005
REFERENCE_PROBES = 3
PROBE_INTERVAL_S = 0.1

# per-layer metrics: span name -> extra counters reported beside self_s, calls
LAYERS = {
    "matching.presentation": ("relations",),
    "matching.build_graph": ("solid_edges",),
    "matching.enumerate_strings": ("walks",),
    "matching.enumerate_bands": ("walks",),
    "matching.enumerate_irreducible_walks": (),
    "oracle.minimal_generators_bruteforce": (),
    "oracle.enumerate_points": ("points",),
    "oracle.toric_relations_bruteforce": ("relations",),
    "oracle.verify_presentation": (),
    "ranks.maximal_rank_sequences": ("sequences",),
    "ranks.is_maximal_rank": (),
    "si.si_presentation": ("generators",),
    "si.peg_context": (),
    "peg.build_peg": ("roots",),
    "peg.components": (),
    "peg.classify_endpoints": (),
    "peg.extract_matching_system": ("equations",),
    "cli.parse_model": (),
    "cli.run_command": (),
}


def _reference_block() -> int:
    seen: dict = {}
    keys = []
    for i in range(REFERENCE_ITERS):
        key = (i % 61, i % 53)
        seen[key] = seen.get(key, 0) + 1
        keys.append(key)
    keys.sort()
    return len(seen)


class SpeedClock:
    """Wall time rescaled to a fixed speed of the host.

    The speed of a shared host drifts by a third for minutes at a time,
    longer than one run. The reference block is timed before and after each
    measurement (fastest of a few tries) and, on a SIGALRM timer, every
    PROBE_INTERVAL_S during it. The measured time, less the time of the
    probes taken during it, is scaled by REFERENCE_S over the mean of all
    the probe times, so a slow phase of the host does not read as a slow
    program. Raw wall times are kept beside.
    """

    def __init__(self):
        self._last = self._probe()
        self._during: list[tuple[float, float]] = []  # (probe, its cost)
        self.probe_cost = 0.0  # probe time inside the last measurement
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _probe(self) -> float:
        best = float("inf")
        for _ in range(REFERENCE_PROBES):
            start = perf_counter()
            _reference_block()
            best = min(best, perf_counter() - start)
        return best

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        probe = self._probe()
        self._during.append((probe, perf_counter() - start))

    def measure(self, fn):
        """(raw seconds, scaled seconds, result, exception or None) of fn()."""
        before = self._last
        self._during = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = perf_counter()
        try:
            out, exc = fn(), None
        except Exception as e:  # counted by the caller, never fatal
            out, exc = None, e
        finally:
            raw = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe_cost = sum(cost for _, cost in self._during)
        raw -= self.probe_cost
        self._last = self._probe()
        probes = [before, self._last, *(probe for probe, _ in self._during)]
        return raw, raw * REFERENCE_S * len(probes) / sum(probes), out, exc


def import_package() -> types.SimpleNamespace:
    """Import gentle_si afresh from this checkout's src directory."""
    for name in [n for n in sys.modules if n == "gentle_si" or n.startswith("gentle_si.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"gentle_si.{m}") for m in TRACED_MODULES}
    return types.SimpleNamespace(**mods)


def setup(workload: str, seed: int, clock: SpeedClock):
    """Import the package, generate and check inputs, SETUP_REPS times.

    Returns the last set-up and the raw and scaled time of each.
    """
    def set_up():
        mods = import_package()
        return mods, WORKLOADS[workload](mods, seed)

    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        t_raw, t_scaled, result, exc = clock.measure(set_up)
        if exc is not None:
            raise exc
        raw.append(t_raw)
        scaled.append(t_scaled)
    return *result, raw, scaled


def execute(inst, fn, clock: SpeedClock):
    """Time fn, then check its output outside the timed region.

    Returns (raw seconds, scaled seconds, problem or None).
    """
    raw, scaled, out, exc = clock.measure(fn)
    if exc is not None:
        return raw, scaled, f"{inst.label}: {type(exc).__name__}: {exc}"
    try:
        problem = inst.check(out)
    except Exception as e:
        problem = f"malformed output: {type(e).__name__}: {e}"
    return raw, scaled, None if problem is None else f"{inst.label}: {problem}"


def run_rounds(wl, seconds: float, body, min_rounds: int = 1) -> int:
    """Whole rounds while the next one is expected to end within the time."""
    start = perf_counter()
    r = 0
    while True:
        for i, inst in enumerate(wl.rounds(r)):
            body(i, inst)
        r += 1
        elapsed = perf_counter() - start
        if r >= min_rounds and elapsed + elapsed / r > seconds:
            return r


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value.

    With too few samples for that, the maximum (percentile 100).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def latency_metrics(latencies: list[float], busy: float) -> dict:
    completed = len(latencies)
    return {
        "instances_per_s": completed / busy,
        "latency_p50_s": statistics.median(latencies) if latencies else busy,
        "latency_tail_s": tail(latencies)[1] if latencies else busy,
    }


def measure_plain(wl, seconds: float, clock: SpeedClock):
    raw, scaled, failures = [], [], []
    busy_raw = busy_scaled = 0.0

    def body(i, inst):
        nonlocal busy_raw, busy_scaled
        t_raw, t_scaled, problem = execute(inst, inst.run, clock)
        busy_raw += t_raw
        busy_scaled += t_scaled
        if problem is None:
            raw.append(t_raw)
            scaled.append(t_scaled)
        else:
            failures.append(problem)

    # two rounds at least, so that the sample count, and with it the tail
    # percentile, does not collapse when one round takes most of the time
    rounds = run_rounds(wl, seconds, body, min_rounds=2)
    attempted = len(raw) + len(failures)
    units = {"instances_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s"}
    metrics = {k: (v, units[k]) for k, v in latency_metrics(scaled, busy_scaled).items()}
    metrics["completed_frac"] = (len(scaled) / attempted, "frac")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "MB",
    )
    details = {
        "rounds": rounds,
        "latency_samples": len(scaled),
        "latency_tail_percentile": tail(scaled)[0] if scaled else 100.0,
        "latency_tail_samples_beyond": TAIL_BEYOND if len(scaled) > TAIL_BEYOND else 0,
        "busy_s": busy_scaled,
        "raw": {**latency_metrics(raw, busy_raw), "busy_s": busy_raw},
    }
    return metrics, details, attempted, failures


def measure_traced(wl, mods, seconds: float, clock: SpeedClock):
    tracer = Tracer(mods)
    failures = []
    plain = traced = 0.0
    attempted = 0

    def body(i, inst):
        nonlocal plain, traced, attempted
        for is_traced in (i % 2 == 1, i % 2 == 0):
            fn = (lambda: tracer.run_instance(inst.run)) if is_traced else inst.run
            t_raw, t_scaled, problem = execute(inst, fn, clock)
            attempted += 1
            if is_traced:
                traced += t_scaled
                # the spans also hold the probe time, so scale them to t_scaled
                tracer.scale[tracer.instance] = t_scaled / (t_raw + clock.probe_cost)
            else:
                plain += t_scaled
            if problem is not None:
                failures.append(problem)

    rounds = run_rounds(wl, seconds, body)
    own = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    listed = 0.0
    for name, extra in LAYERS.items():
        listed += own.get(name, 0.0)
        metrics[f"{name}.self_s"] = (own.get(name, 0.0) / rounds, "s")
        metrics[f"{name}.calls"] = (counts[name]["calls"] / rounds, "count")
        for counter in extra:
            metrics[f"{name}.{counter}"] = (counts[name][counter] / rounds, "count")
    walks = sum(counts[f"matching.enumerate_{k}"]["walks"] for k in ("strings", "bands"))
    irreducible = counts["matching.enumerate_irreducible_walks"]["walks"]
    metrics["matching.irreducible_ratio"] = (irreducible / walks if walks else 0.0, "frac")
    quivers = [name for name in own if name.startswith("quivers.")]
    quivers_s = sum(own[name] for name in quivers)
    metrics["quivers.self_s"] = (quivers_s / rounds, "s")
    metrics["quivers.calls"] = (sum(counts[n]["calls"] for n in quivers) / rounds, "count")
    total = sum(own.values())
    metrics["other.self_s"] = ((total - listed - quivers_s) / rounds, "s")
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    accounted = min(own.values(), default=0.0) >= 0 and (
        abs(total - traced) <= ACCOUNTING_TOLERANCE * traced
    )
    details = {
        "trace_accounted": accounted,
        "rounds": rounds,
        "spans": len(tracer.spans),
        "plain_s": plain,
        "traced_s": traced,
        "self_sum_s": total,
        "self_s_by_function": dict(sorted(own.items())),
    }
    return metrics, details, attempted, failures, tracer


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "gentle_si" / "__init__.py").is_file():
        print(f"error: no gentle_si package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    clock = SpeedClock()
    mods, wl, setup_raw, setup_scaled = setup(args.workload, args.seed, clock)
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: gentle_si imported from {mods.cli.__file__}", file=sys.stderr)
        return 2
    tracer = None
    correct = True
    if args.trace:
        metrics, details, attempted, failures, tracer = measure_traced(
            wl, mods, args.seconds, clock
        )
        correct = details["trace_accounted"]
    else:
        metrics, details, attempted, failures = measure_plain(wl, args.seconds, clock)
        metrics = {"setup_s": (statistics.median(setup_scaled), "s"), **metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "inputs": wl.inputs,
        "setup_s_each": setup_scaled,
        "setup_s_each_raw": setup_raw,
        **details,
        "failures": failures[:FAILURES_KEPT],
        "failures_dropped": max(0, len(failures) - FAILURES_KEPT),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv.gz")
    print(json.dumps(record))
    result = {
        "correct": correct and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
