"""hochtrace benchmark runner.

    python3 bench/run.py --workload hh-build --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports hochtrace from its
``src/``. One process, one thread, a closed loop with one caller: each
iteration of the workload starts when the previous one has been checked.

``--trace 0`` measures the end-to-end metrics with tracing off:
``wall_s`` (the median iteration, from prepared inputs to every library
certificate checked), ``setup_s`` (median of several import-and-build-
fixtures rounds) and ``peak_rss_mb`` (of a fresh process that sets up
and runs one iteration, rss_probe.py). Each round and iteration is scaled
to a nominal host speed by the timings of a reference loop just before
and after it (hostspeed.py); the raw times are printed beside them.
``--trace 1`` runs untraced and then traced iterations, one cProfile
iteration, and reports the per-layer metrics; spans go to
``bench/out/trace-<workload>-<seed>.json``.

Every output is checked after its timed region (library certificates,
pinned hashes, homology dimensions, characters and complex sizes in
``pins.json``). A failed check, an exception or an iteration over the
workload's time limit counts as a failed operation. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--write-pins`` records the current outputs as the pinned values.
"""
from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import pstats
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

from certify import Checks, complex_sizes
from hostspeed import HostSpeed, Series
from tracer import COUNT_EMPTY, DISTINCT_KEYS, LAYERS, ComplexRecorder, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
OUT = BENCH / "out"
MODULES = ("grdlin", "report", "cdga", "ainf", "bimod", "hoch", "transfer", "wheeled", "fixtures")
SETUP_ROUNDS = 9
# no iteration may run past this point of the run, so that a slow or hung
# workload still ends the process well inside three minutes
RUN_LIMIT_S = 150
SIZE_COUNTERS = ("hoch.HochschildComplex.dim", "hoch.HochschildComplex.nnz",
                 "hoch.BarConnesComplex.full_dim", "hoch.BarConnesComplex.dim")


class IterationTimeout(BaseException):
    """Raised by the alarm inside a workload iteration; a BaseException so
    that the per-part ``except Exception`` does not swallow it."""


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise IterationTimeout(f"iteration exceeded {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_hochtrace():
    """A fresh import of every hochtrace module, as a namespace."""
    for name in [n for n in sys.modules if n == "hochtrace" or n.startswith("hochtrace.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"hochtrace.{m}") for m in MODULES})
    where = Path(lib.grdlin.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"hochtrace imported from {where}, not from {SRC}")
    return lib


def set_up(workload, seed, checks, host):
    """Import hochtrace and build the workload's validated inputs, several
    times; the last round's library and inputs are the ones measured.
    Returns them with the series of round times."""
    times = Series(host)
    for i in range(SETUP_ROUNDS):
        round_checks = checks if i == SETUP_ROUNDS - 1 else Checks(None)
        gc.collect()
        start = time.perf_counter()
        lib = import_hochtrace()
        inputs = workload.setup(lib, seed, round_checks)
        times.add(time.perf_counter() - start)
    times.flush()
    return lib, inputs, times


def probe_peak_rss_mb(workload, seed, checks):
    """Peak resident memory, in MiB, of a fresh process that sets up the
    workload and runs one iteration of it. A child's peak counts the pages
    of its parent at the fork, so this runs before the parent has grown."""
    command = [sys.executable, str(BENCH / "rss_probe.py"), workload.name, str(seed)]
    try:
        subprocess.run(command, check=True, timeout=workload.timeout_s + 30,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    except subprocess.CalledProcessError as exc:
        checks.fail("memory probe", exc.stderr[-2000:])
    except subprocess.TimeoutExpired as exc:
        checks.fail("memory probe", f"timeout after {exc.timeout} s")
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def built_sizes(built):
    sizes = []
    for kind, obj in built:
        if kind == "Complex":
            sizes.append(complex_sizes(obj))
        elif kind == "BarConnesComplex":
            sizes.append({"full_dim": obj.full_space.dim, "dim": obj.space.dim})
    return sizes


def size_tally(built):
    """The per-layer size counters of one iteration."""
    tally = Counter()
    for kind, obj in built:
        if kind == "HochschildComplex":
            tally["hoch.HochschildComplex.dim"] += obj.space.dim
            tally["hoch.HochschildComplex.nnz"] += sum(len(c) for c in obj.d.entries.values())
        elif kind == "BarConnesComplex":
            tally["hoch.BarConnesComplex.full_dim"] += obj.full_space.dim
            tally["hoch.BarConnesComplex.dim"] += obj.space.dim
    return tally


class Bench:
    """One workload's prepared inputs, checks and complex recorder; every
    iteration is bounded by the workload's time limit and by the run's
    deadline, so no run can hang."""

    def __init__(self, workload, lib, inputs, checks, deadline, host):
        self.workload = workload
        self.host = host
        self.lib = lib
        self.inputs = inputs
        self.checks = checks
        self.deadline = deadline
        self.recorder = ComplexRecorder(lib)

    def run_iteration(self, tracer=None):
        """One timed iteration, then its checks. Returns (seconds, size tally)."""
        span = tracer.span if tracer else (lambda name: nullcontext())
        limit = min(self.workload.timeout_s, self.deadline - time.perf_counter())
        if limit <= 0:
            raise IterationTimeout("run deadline reached")
        outcomes = []
        gc.collect()
        self.recorder.take()
        start = time.perf_counter()
        with time_limit(limit), span("iteration"):
            for part in self.workload.parts:
                with span(f"part:{part.name}"):
                    try:
                        result, error = part.run(self.lib, self.inputs), None
                    except Exception as exc:  # a raised certificate is a failed operation
                        result, error = None, exc
                outcomes.append((part, result, error, self.recorder.take()))
        elapsed = time.perf_counter() - start
        tally = Counter()
        for part, result, error, built in outcomes:
            tally += size_tally(built)
            if error is not None:
                self.checks.fail(f"{part.name} raised", f"{type(error).__name__}: {error}")
                continue
            try:
                part.verify(result, self.checks)
            except Exception as exc:  # an unreadable output is a failed operation
                self.checks.fail(f"{part.name} verify raised", f"{type(exc).__name__}: {exc}")
            if part.pinned:
                self.checks.pin(f"{part.name}.sizes", built_sizes(built))
        if tracer:
            tracer.end_iteration()
        return elapsed, tally

    def measure(self, seconds, tracer=None):
        """Iterations until ``seconds`` have passed (at least one). Returns
        the series of iteration times and the size tally summed over
        iterations; an iteration cut by its time limit counts with the time
        it ran."""
        samples, tally = Series(self.host), Counter()
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            try:
                elapsed, its_tally = self.run_iteration(tracer)
            except IterationTimeout as exc:
                self.checks.fail("timeout", str(exc))
                samples.add(time.perf_counter() - began)
                break
            samples.add(elapsed)
            tally += its_tally
            if time.perf_counter() - start >= seconds:
                break
        samples.flush()
        return samples, tally

    def fractions_share(self):
        """Share of self time spent in fractions.py, from one cProfile iteration."""
        profile = cProfile.Profile()
        profile.enable()
        try:
            self.run_iteration()
        except IterationTimeout as exc:
            self.checks.fail("timeout", str(exc))
        finally:
            profile.disable()
        stats = pstats.Stats(profile).stats
        total = sum(v[2] for v in stats.values())
        in_fractions = sum(v[2] for k, v in stats.items() if k[0].endswith("fractions.py"))
        return in_fractions / total if total else 0.0


def _per_iteration(total, n):
    return total // n if total % n == 0 else total / n


def per_layer_metrics(workload, tracer, untraced, traced, tally, share):
    """The traced run's metrics. Self times and layer shares are raw
    seconds; the tracing overhead compares the scaled medians of the
    untraced and the traced iterations."""
    n = len(traced.raw)
    wall = sum(traced.raw)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, stat in tracer.stats.items():
        put(f"{name}.calls", _per_iteration(stat.calls, n), "count")
        put(f"{name}.self_s", stat.self_time / n, "s")
        calls = stat.calls or 1
        if name in DISTINCT_KEYS:
            put(f"{name}.distinct_ratio", stat.distinct / calls, "ratio")
        if name in COUNT_EMPTY:
            put(f"{name}.empty_ratio", stat.empty / calls, "ratio")
    for name in SIZE_COUNTERS:
        put(name, _per_iteration(tally[name], n), "count")
    shares = {layer: sum(tracer.stats[t].self_time for t in targets) / wall
              for layer, targets in LAYERS.items()}
    for layer, value in shares.items():
        put(f"layer.{layer}.share", value, "ratio")
    put("dominant.share", shares[workload.dominant], "ratio")
    put("dominant.holds", int(max(shares, key=shares.get) == workload.dominant), "bool")
    put("fractions.self_share", share, "ratio")
    base, with_trace = statistics.median(untraced.scaled), statistics.median(traced.scaled)
    put("trace.untraced_wall_s", base, "s")
    put("trace.traced_wall_s", with_trace, "s")
    put("trace.overhead_s", with_trace - base, "s")
    put("trace.overhead_ratio", (with_trace - base) / base, "ratio")
    return metrics


def write_spans(workload, seed, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-{seed}.json"
    spans = [{"id": i, "name": name, "start": s, "end": e, "parent": p}
             for i, name, s, e, p in tracer.spans]
    stats = {name: {"calls": st.calls, "total_s": st.total, "self_s": st.self_time}
             for name, st in tracer.stats.items()}
    path.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                "spans": spans, "stats": stats}))
    return path


def _summary(name, value, unit, samples=None):
    line = f"{name:40s} {value:.6g} {unit}"
    if samples:
        q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
        line += (f"  ({len(samples)} samples; min {min(samples):.6g}, p25 {q[0]:.6g}, "
                 f"median {q[1]:.6g}, p75 {q[2]:.6g}, max {max(samples):.6g})")
    print(line)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's outputs in pins.json instead of checking them")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "hochtrace" / "__init__.py").is_file():
        print(f"error: no hochtrace sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    all_pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    checks = Checks(None if args.write_pins else all_pins.get(workload.name, {}))

    if not args.trace:
        peak_mb = probe_peak_rss_mb(workload, args.seed, checks)
    host = HostSpeed()
    lib, inputs, setup_times = set_up(workload, args.seed, checks, host)
    bench = Bench(workload, lib, inputs, checks, started + RUN_LIMIT_S, host)
    bench.recorder.install()
    if args.trace:
        untraced, _ = bench.measure(args.seconds / 2)
        tracer = Tracer(lib)
        tracer.install()
        try:
            traced, tally = bench.measure(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        share = bench.fractions_share()
        metrics = per_layer_metrics(workload, tracer, untraced, traced, tally, share)
        print(f"spans written to {write_spans(workload, args.seed, tracer).relative_to(ROOT)}")
        for name, m in metrics.items():
            _summary(name, m["value"], m["unit"])
        holds = "holds" if metrics["dominant.holds"]["value"] else "does NOT hold"
        print(f"stated dominant layer '{workload.dominant}' {holds} "
              f"(share {metrics['dominant.share']['value']:.3f})")
    else:
        samples, _ = bench.measure(args.seconds)
        metrics = {
            "wall_s": {"value": statistics.median(samples.scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times.scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MiB"},
        }
        _summary("wall_s", metrics["wall_s"]["value"], "s", samples.scaled)
        _summary("setup_s", metrics["setup_s"]["value"], "s", setup_times.scaled)
        _summary("peak_rss_mb", peak_mb, "MiB")
        _summary("raw wall time", statistics.median(samples.raw), "s", samples.raw)
        _summary("raw set-up time", statistics.median(setup_times.raw), "s", setup_times.raw)
        _summary("reference loop", statistics.median(host.samples), "s", host.samples)
    bench.recorder.uninstall()

    if args.write_pins:
        all_pins[workload.name] = checks.observed
        PINS.write_text(json.dumps(all_pins, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(checks.observed)} values for {workload.name}")
    for name, witness in checks.failures[:20]:
        print(f"FAILED {name}: {witness}")
    print(f"{'fail_ratio':40s} {len(checks.failures) / max(checks.attempted, 1):.6g} ratio"
          f"  ({len(checks.failures)} of {checks.attempted} operations)")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
