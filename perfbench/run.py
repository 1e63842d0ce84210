"""Benchmark of the cohalab package: one workload per run.

    python3 perfbench/run.py --workload basis-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run repeats passes over the workload's items until another pass would
not fit in ``--seconds``.  Every pass starts from a fresh import of the
package, so no cache survives from one pass to the next, and the set-up
(import, quivers, inputs) is timed separately from the items.  Items run
one after another in this one process (a closed loop with one client).

The machine this runs on is shared: its speed drifts by a quarter and
more over minutes, which no number of passes averages away.  So a fixed
pure-Python reference loop is timed before every set-up and after about
every PROBE_EVERY_S seconds of items, and every time reported is the
measured time scaled by REF_NOMINAL_S over the mean of the reference
timings just before and just after it: seconds at the speed at which the
reference loop takes REF_NOMINAL_S.  The measured times are printed beside
them.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
its passes.  With ``--trace 1`` it runs one untraced pass, then traced
passes, and reports the per-layer metrics.  Either way the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from layers import PACKAGE, install, layer_metrics
from tracing import Tracer, clock
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 7
# fastest timing of the reference loop observed on the shared 2-vCPU x86-64
# VM the benchmark was tuned on, rounded
REF_NOMINAL_S = 0.020
PROBE_EVERY_S = 0.25
# max_item_s is printed but left out of the JSON: it times one long item,
# which the reference timings around it track poorly, and its spread over
# ten runs (11-13 %) is too wide for a bound that could catch regressions
JSON_END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def reference_loop() -> float:
    """Time a fixed computation of the same kind as cohalab's own work:
    Fraction products accumulated in a dict of exponent tuples, and sorts
    of tuples.  It uses no cohalab code, so changes to the package leave it
    alone."""
    start = clock()
    poly = {(i, j, (i * j) % 5): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
    product: dict = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            product[e] = product.get(e, 0) + c1 * c2
    sorted(product, key=lambda e: (sum(e), e))
    sorted(tuple((i * k) % 3 for i in range(1 + k % 6)) for k in range(1500))
    return clock() - start


class Probes:
    """Reference-loop timings, each with the time it was taken."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        self.at.append(clock())
        self.took.append(reference_loop())

    def at_nominal(self, sample: "Sample") -> float:
        """The sample's time scaled by the reference timings just before and
        just after it.  The nearest timings track the machine's speed
        better than any wider average of them."""
        before = self.took[bisect.bisect_right(self.at, sample.start) - 1]
        after = self.took[bisect.bisect_left(self.at, sample.end)]
        return sample.seconds * REF_NOMINAL_S * 2 / (before + after)


@dataclass(frozen=True)
class Sample:
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    setup: Sample
    items: list[Sample] = field(default_factory=list)
    failed: int = 0

    @property
    def measured_wall_s(self) -> float:
        return sum(s.seconds for s in self.items)


def fresh_setup(workload: str, seed: int, probes: Probes):
    """Import cohalab anew and build the workload's items; returns (lab, items, sample)."""
    gc.collect()
    probes.probe()
    start = clock()
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lab = importlib.import_module(PACKAGE)
    items = WORKLOADS[workload](lab, seed)
    sample = Sample(start, clock())
    probes.probe()
    return lab, items, sample


def run_pass(workload: str, seed: int, probes: Probes, tracer: Tracer | None = None) -> Pass:
    lab, items, setup = fresh_setup(workload, seed, probes)
    if tracer is not None:
        install(tracer, lab)
    result = Pass(setup)
    since_probe = 0.0
    for item in items:
        nonexact = tracer.counts["linalg.nonexact_entries"] if tracer else 0
        if tracer is not None:
            tracer.active = True
        start = clock()
        try:
            out = item.run()
            problems = []
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
        result.items.append(Sample(start, clock()))
        if tracer is not None:
            tracer.active = False
            if tracer.counts["linalg.nonexact_entries"] != nonexact:
                problems.append("float entries among exact outputs")
        if not problems:
            try:
                problems = item.check(out)
            except Exception:
                problems = ["check raised:\n" + traceback.format_exc()]
        if problems:
            result.failed += 1
            print(f"FAIL {workload} / {item.name}: " + "; ".join(problems), file=sys.stderr)
        since_probe += result.items[-1].seconds
        if since_probe >= PROBE_EVERY_S:
            probes.probe()
            since_probe = 0.0
    probes.probe()
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Passes until the next one would overrun.

    Returns (untraced passes, traced passes, their tracers, set-up samples,
    probes).
    """
    start = clock()
    probes = Probes()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracers: list[Tracer] = []
    while True:
        if trace and untraced:
            tracers.append(Tracer())
            traced.append(run_pass(workload, seed, probes, tracers[-1]))
            last = traced[-1]
        else:
            untraced.append(run_pass(workload, seed, probes))
            last = untraced[-1]
        next_pass = last.setup.seconds + last.measured_wall_s
        if clock() - start + next_pass > seconds and (traced or not trace):
            break
    setups = [p.setup for p in untraced]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(fresh_setup(workload, seed, probes)[2])
    return untraced, traced, tracers, setups, probes


def item_medians(passes: list[Pass], scale) -> list[float]:
    """Per-item medians over the passes, so a burst of contention during
    one pass moves few items."""
    return [
        statistics.median(scale(s) for s in samples)
        for samples in zip(*(p.items for p in passes))
    ]


def end_to_end(untraced: list[Pass], setups: list[Sample], scale) -> dict[str, tuple[float, str]]:
    per_item = item_medians(untraced, scale)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (sum(per_item), "s"),
        "max_item_s": (max(per_item), "s"),
        "setup_s": (statistics.median(scale(s) for s in setups), "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
    }


def per_layer(untraced: list[Pass], traced: list[Pass], tracers: list[Tracer], scale):
    runs = [layer_metrics(t, p.measured_wall_s) for t, p in zip(tracers, traced)]
    out = {}
    for name, (value, unit) in runs[0].items():
        if unit == "s" or name.startswith("share."):
            value = statistics.median(r[name][0] for r in runs)
        elif any(r[name][0] != value for r in runs[1:]):
            print(f"warning: {name} differs between traced passes", file=sys.stderr)
        out[name] = (value, unit)
    out["trace.overhead_ratio"] = (
        sum(item_medians(traced, scale)) / sum(item_medians(untraced, scale)), "ratio"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    untraced, traced, tracers, setups, probes = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    passes = untraced + traced
    attempted = sum(len(p.items) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = per_layer(untraced, traced, tracers, probes.at_nominal)
        shown = metrics
    else:
        timings = end_to_end(untraced, setups, probes.at_nominal)
        as_measured = end_to_end(untraced, setups, lambda s: s.seconds)
        metrics = {name: timings[name] for name in JSON_END_TO_END}
        shown = {**timings, **{
            f"measured.{name}": as_measured[name] for name in ("wall_s", "max_item_s", "setup_s")
        }}

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(untraced)} untraced and {len(traced)} traced passes, "
        f"{len(setups)} set-ups, {len(passes[0].items)} items per pass, "
        f"{len(probes.took)} reference timings (median {statistics.median(probes.took):.4f} s)"
    )
    print(f"{'fail_ratio':40s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    nonexact = metrics.get("linalg.nonexact_entries", (0, ""))[0]
    print(json.dumps({
        "correct": failed == 0 and nonexact == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
