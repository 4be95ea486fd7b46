"""wordweight benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the library is imported from ``src/``. One
process, one thread, closed loop: a single caller asks for one verdict at a
time and checks it before asking for the next.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
The seeded corpus runs in order for about a third of ``--seconds``,
stopping at the end of a period (a run of items that holds every stratum of
the workload once); those items then run twice more in the same order, so
that the three calls of an item lie a third of the run apart. Each item's
time is the fastest of its three calls. The host these figures come from
switches each CPU between a fast and a slow speed state, each lasting from
a fraction of a second to minutes, and the fastest call misses the slow
state unless all three fall in it. For the same reason the process moves
itself to the faster CPU every ``REPIN_S`` seconds, between calls. Set-up
(import, certificate pools, corpus) is timed ``SETUP_REPEATS`` times,
spread evenly over the run, and reported as the median.

With ``--trace 1`` a fixed prefix of the corpus runs once untraced and once
under the tracer, which gives per-layer metrics with call and node counts
that repeat exactly for a seed, and the tracing overhead.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
PASSES = 3
REPIN_S = 0.2  # seconds between two choices of CPU
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
LIBRARY_MODULES = ("words", "genset", "lengths", "search", "algebra", "cli")


def library_entries() -> list[str]:
    return [n for n in sys.modules if n == "wordweight" or n.startswith("wordweight.")]


def load_library() -> SimpleNamespace:
    """Import the library afresh, so that each set-up pays for the import."""
    for name in library_entries():
        del sys.modules[name]
    package = importlib.import_module("wordweight")
    lib = SimpleNamespace(
        package=package,
        **{m: importlib.import_module(f"wordweight.{m}") for m in LIBRARY_MODULES},
    )
    lib.modules = [package] + [getattr(lib, m) for m in LIBRARY_MODULES]
    return lib


def set_up(workload, seed: int):
    """Import, warm the certificate pools, build the corpus.

    Returns the duration, the library and the corpus.
    """
    pin_to_fastest_cpu(CPUS)
    t0 = time.perf_counter()
    lib = load_library()
    for base in (2, 5):
        lib.lengths.certificate_pool(base)
    items = workload.make(lib, random.Random(seed))
    return time.perf_counter() - t0, lib, items


def timed_set_up(workload, seed: int) -> float:
    """One more set-up, kept for its time only.

    The modules in use go back into ``sys.modules`` afterwards, so that lazy
    imports inside the library keep finding the copy the run calls into.
    """
    saved = {name: sys.modules[name] for name in library_entries()}
    duration, _, _ = set_up(workload, seed)
    for name in library_entries():
        del sys.modules[name]
    sys.modules.update(saved)
    return duration


def _spin() -> None:
    d = {}
    for i in range(8000):
        d[(i % 97, i >> 3)] = i


def pin_to_fastest_cpu(cpus: list[int]) -> None:
    """Move this process to the CPU that runs a short probe fastest.

    On the host these figures come from, each virtual CPU has its own speed
    state, which lasts from a fraction of a second to minutes and which the
    scheduler does not see. The probe takes about 2 ms a CPU.
    """
    if len(cpus) < 2:
        return
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        _spin()
        timings.append((time.perf_counter() - t0, cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


class Tally:
    """Timed calls, checks, and the first answer for each item.

    Only a digest of each answer is kept, so that memory does not grow
    with the number of verdicts a run completes.
    """

    def __init__(self, workload, lib, items):
        self.workload, self.lib, self.items = workload, lib, items
        self.durations: list[float] = []
        self.failed = 0
        self.digests: list[bytes | None] = [None] * len(items)
        self.brackets: list = [None] * len(items)

    def call(self, i: int, check: bool = True) -> None:
        item = self.items[i % len(self.items)]
        t0 = time.perf_counter()
        try:
            answer = self.workload.run(self.lib, item)
        except Exception:
            self.durations.append(time.perf_counter() - t0)
            self._fail(i, traceback.format_exc(limit=3))
            return
        self.durations.append(time.perf_counter() - t0)
        errors = []
        if check:
            try:
                errors = self.workload.check(self.lib, item, answer)
            except Exception:
                errors = [traceback.format_exc(limit=3)]
        slot = i % len(self.items)
        digest = hashlib.sha256(repr(answer.signature).encode()).digest()
        if self.digests[slot] is None:
            self.digests[slot] = digest
            self.brackets[slot] = answer.brackets
        elif digest != self.digests[slot]:
            errors.append("answer differs from an earlier run of the same item")
        if errors:
            self._fail(i, "; ".join(errors))

    def _fail(self, i: int, reason: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED item {i}: {reason}", file=sys.stderr)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, lib, items, seconds: float, seed: int, setup: float):
    tally = Tally(workload, lib, items)
    setups = [setup]
    period = workload.period
    start = time.perf_counter()
    paused = 0.0  # time spent in the extra set-ups, not part of the run
    pinned = start

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    def call(i: int) -> None:
        nonlocal paused, pinned
        due = seconds * len(setups) / (SETUP_REPEATS - 1)
        if i % period == 0 and len(setups) < SETUP_REPEATS and elapsed() >= due:
            t0 = time.perf_counter()
            setups.append(timed_set_up(workload, seed))
            paused += time.perf_counter() - t0
        if time.perf_counter() - pinned >= REPIN_S:
            pin_to_fastest_cpu(CPUS)
            pinned = time.perf_counter()
        tally.call(i)

    # first pass: the whole number of periods nearest to a third of the run
    target = seconds / PASSES
    i = 0
    while i % period or not i or elapsed() < target - elapsed() * period / i / 2:
        call(i)
        i += 1
    m = i
    for _ in range(PASSES - 1):
        for i in range(m):
            call(i)
    run_s = elapsed()
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_set_up(workload, seed))

    best = [min(tally.durations[j::m]) for j in range(m)]
    ms = [d * 1000.0 for d in best]
    distinct = [b for b in tally.brackets if b is not None]
    brackets = [b for item_brackets in distinct for b in item_brackets]
    beyond = max(q for q in range(50, 100) if m * (100 - q) / 100 >= 10) if m >= 20 else None
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (m / sum(best), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "verdict_ms_p50": (statistics.median(ms), "ms"),
        "verdict_ms_p90": (percentile(ms, 90), "ms"),
        "decided_share": (sum(lo == up for lo, up in brackets) / len(brackets), "share"),
        "bracket_gap_sum": (sum(up - lo for lo, up in brackets), "letters"),
        "failed_share": (tally.failed / len(tally.durations), "share"),
    }
    if getattr(workload, "max_ms", None):
        ratios = [t / workload.max_ms for t in ms]
        extra["budget_wall_ratio"] = (percentile(ratios, 90), "ratio")
    notes = [
        f"{m} verdicts timed {PASSES} times each, the fastest kept; "
        f"{len(distinct)} distinct items of a {len(items)}-item corpus",
        f"{sum(best):.2f} s in the fastest calls, {sum(tally.durations):.2f} s in all calls, "
        f"{run_s:.2f} s of run",
        f"highest percentile with >= 10 samples beyond it: p{beyond}",
        f"set-up times of {len(setups)} set-ups: " + " ".join(f"{s:.4f}" for s in setups),
        "decided_share and bracket_gap_sum are over the distinct items, "
        f"{len(brackets)} length verdicts",
    ]
    return tally, metrics, extra, notes


def trace(workload, lib, items):
    prefix = items[: workload.trace_items]
    n = len(prefix)
    tally = Tally(workload, lib, prefix)
    for i in range(n):
        tally.call(i)
    with Tracer(lib) as tracer:
        t0 = time.perf_counter()
        for i in range(n, 2 * n):  # answers must equal the untraced ones
            tally.call(i, check=False)
        traced_s = time.perf_counter() - t0
    untraced_s = sum(tally.durations[:n])
    metrics = tracer.layer_metrics()
    metrics["lengths.gap_before_search"] = (sum(item.gap for item in prefix), "letters")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    notes = [
        f"traced {n} items: {untraced_s:.3f} s untraced, {traced_s:.3f} s traced",
        f"{len(tracer.spans)} spans; wrappers installed at {len(tracer.patched_sites)} names",
    ]
    return tally, metrics, {}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wordweight" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    setup, lib, items = set_up(workload, args.seed)
    if args.trace:
        tally, metrics, extra, notes = trace(workload, lib, items)
    else:
        tally, metrics, extra, notes = measure(
            workload, lib, items, args.seconds, args.seed, setup
        )

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": len(tally.durations),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
