"""Benchmark runner: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its ``src``.
It repeats one seeded pass of the workload (see ``workloads.py``), in a
freshly shuffled order each time, until ``--seconds`` have elapsed, after
one untimed warm-up pass.  It checks every answer of every pass against the
reference, cross-checks a seeded subset with sympy outside the timed region,
and prints a table followed by one JSON line.

The end-to-end metrics are host-speed corrected medians.  The host is
shared, and other tenants slow every instruction by up to 2x for stretches
of seconds to minutes (see ``calibration.py``).  Between items the runner
times a fixed kernel that does not use the library, and scales each item's
latency to the reference speed by the kernel's slowdown around that item.
An item's latency is the median of its scaled latencies over the run's
repetitions.  ``items_per_s`` is the pass's item count over the sum of
those latencies (plus the pass-level step's, scaled the same way);
``item_p50_ms`` and ``item_tail_ms`` are quantiles of them.  ``setup_s`` is
the median over fresh interpreters of the set-up time, each scaled by the
kernel's slowdown timed just before and just after it.  The table also
prints the plain wall rates of the passes and the host's slowdown, which
carry its noise.

``--workload all`` runs every workload in turn, each in a fresh process.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports per-layer call counts and self times
(per item) from the traced passes, with the tracing overhead as the ratio of
the two corrected rates.  The benchmark is single-threaded and has no queue,
so no layer has waiting time to report.
"""

import benchenv

benchenv.prepare()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
#: kernel calls on each side of a set-up probe
GAUGE_CALLS = 25
PROBE_TIMEOUT_S = 60

#: functions reported per layer, each as .calls and .self_s
LAYER_FUNCTIONS = (
    "matrices.char_poly_exact", "matrices.solve_exact", "matrices.rank_exact",
    "matrices.nullspace_exact", "matrices.signature_exact", "matrices.solve_unit_upper",
    "matrices.mat_pow",
    "seifert.classify", "seifert.class_from_spp",
    "polycore.factor_cyclotomic", "polycore.unit_circle_angles",
    "polycore.expand_signed_product",
    "hor.poly_to_matrix", "hor.verify_power_identity", "hor.recipe_spectral_pairs",
    "hor.recipe_spectrum", "hor.simplex_path_track", "hor.is_signature",
    "hor.restricted_form_eigenvalues",
    "chain.verify_spectrum_shift", "chain.qh_spectrum", "chain.stokes_poly",
    "chain.stokes_spectrum", "chain.reduce_chain",
    "spectra.Spp.equals", "spectra.decompose_into_ladders",
    "orbit.generic_path_track", "orbit.conjecture16_check",
    "lowdim.classify3",
)
COUNT_ONLY = ("polycore.totient",)


def quartiles(values):
    """(q1, median, q3) by statistics.quantiles; a single value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall seconds, host slowdown) of each set-up probe; the slowdown is
    the kernel's, timed in this process just before and just after the probe."""
    probe = str(benchenv.HERE / "setup_probe.py")
    out = []
    for _ in range(SETUP_PROBES):
        gauge = calibration.Gauge()
        for _ in range(GAUGE_CALLS):
            gauge.tick()
        proc = subprocess.run([sys.executable, probe, "--workload", workload, "--seed", str(seed)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=str(benchenv.ROOT), check=False)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        for _ in range(GAUGE_CALLS):
            gauge.tick()
        seconds = float(proc.stdout.strip().splitlines()[-1])
        out.append((seconds, statistics.median(gauge.seconds) / calibration.REF_S))
    return out


class Raised:
    """The answer of an item that raised an unexpected exception."""

    def __init__(self, exc: Exception):
        self.text = "".join(traceback.format_exception(exc))


def call(fn, *args):
    # the benchmark must keep running: an unexpected exception is a wrong answer
    try:
        return fn(*args)
    except Exception as exc:
        return Raised(exc)


class Pass:
    """One timed pass: per-item latencies scaled to the reference speed,
    raw answers, the scaled time of the pass-level step, the wall time of
    the pass without the kernel calls, and the host's median slowdown."""

    def __init__(self, xs, latencies, results, end_result, end_seconds, seconds, slowdown):
        self.xs = xs
        self.latencies = latencies
        self.results = results
        self.end_result = end_result
        self.end_seconds = end_seconds
        self.seconds = seconds
        self.slowdown = slowdown

    @property
    def rate(self) -> float:
        return len(self.xs) / self.seconds


class Typical:
    """Each item's median scaled latency, and the pass-level step's, over
    the repetitions of one pass in any order."""

    def __init__(self):
        self.latencies: dict[int, list[float]] = {}
        self.end_seconds: list[float] = []

    def add(self, p: Pass):
        for x, t in zip(p.xs, p.latencies):
            self.latencies.setdefault(id(x), []).append(t)
        self.end_seconds.append(p.end_seconds)

    def _medians(self) -> list[float]:
        return sorted(statistics.median(ts) for ts in self.latencies.values())

    @property
    def rate(self) -> float:
        return len(self.latencies) / (sum(self._medians()) + statistics.median(self.end_seconds))

    @property
    def p50_ms(self) -> float:
        return statistics.median(self._medians()) * 1e3

    @property
    def tail(self) -> tuple[float, float]:
        """(latency in ms, percentile) of the item with exactly ten above it."""
        lat = self._medians()
        n = len(lat)
        return lat[n - 11] * 1e3, 100.0 * (n - 10) / n


def run_pass(wl, xs, tracer=None) -> Pass:
    gc.collect()
    run_item, end_pass = wl.run_item, wl.end_pass
    if tracer is not None:
        run_item = tracer.wrap("bench.item", run_item)
        if end_pass is not None:
            end_pass = tracer.wrap("bench.end_pass", end_pass)
        tracer.install()
    gauge = calibration.Gauge()
    starts, latencies, results = [], [], []
    clock = time.perf_counter
    kernel_s = 0.0
    try:
        t_start = clock()
        for x in xs:
            kernel_s += gauge.tick(clock())
            t0 = clock()
            r = call(run_item, x)
            latencies.append(clock() - t0)
            starts.append(t0)
            results.append(r)
        kernel_s += gauge.tick(clock())
        t_end_start = clock()
        end_result = None if end_pass is None else call(end_pass, xs)
        t_end = clock()
        kernel_s += gauge.tick()
    finally:
        if tracer is not None:
            tracer.uninstall()
    scaled = [t / gauge.slowdown(t0) for t0, t in zip(starts, latencies)]
    end_scaled = (t_end - t_end_start) / gauge.slowdown(t_end_start)
    return Pass(xs, scaled, results, end_result, end_scaled, t_end - t_start - kernel_s,
                statistics.median(gauge.seconds) / calibration.REF_S)


def count_failures(wl, p: Pass, ref) -> int:
    """Wrong or raised answers of a pass; the first few go to stderr."""
    bad = [(x[0], r) for x, r in zip(p.xs, p.results)
           if isinstance(r, Raised) or not wl.check_item(x, r, ref)]
    if wl.check_pass is not None and (isinstance(p.end_result, Raised)
                                      or not wl.check_pass(p.xs, p.end_result, ref)):
        bad.append(("end of pass", p.end_result))
    for key, r in bad[:3]:
        print(f"wrong answer for {key}: {r.text if isinstance(r, Raised) else r!r}",
              file=sys.stderr)
    return len(bad)


def merge(into: dict, rows: dict):
    for name, row in rows.items():
        acc = into.setdefault(name, {"calls": 0, "self_s": 0.0, "raised": {}, "tags": {}})
        acc["calls"] += row["calls"]
        acc["self_s"] += row["self_s"]
        for key in ("raised", "tags"):
            for k, v in row.get(key, {}).items():
                acc[key][k] = acc[key].get(k, 0) + v


def layer_metrics(rows: dict, items: int, rate_untraced: float, rate_traced: float,
                  redrawn_frac: float) -> dict:
    def row(name):
        return rows.get(name, {"calls": 0, "self_s": 0.0, "raised": {}, "tags": {}})

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    for name in LAYER_FUNCTIONS:
        r = row(name)
        m[f"{name}.calls"] = (r["calls"] / items, "1/item")
        m[f"{name}.self_s"] = (r["self_s"] / items, "s/item")
    for name in COUNT_ONLY:
        m[f"{name}.calls"] = (row(name)["calls"] / items, "1/item")
    cl = row("seifert.classify")
    m["seifert.classify.classified_frac"] = (
        frac(cl["calls"] - cl["raised"].get("Unclassified", 0), cl["calls"]), "ratio")
    uca = row("polycore.unit_circle_angles")["tags"]
    m["polycore.unit_circle_angles.exact_frac"] = (
        frac(uca.get("exact_rational", 0),
             uca.get("exact_rational", 0) + uca.get("exact_numeric", 0)), "ratio")
    m["seifert.classify.redrawn_frac"] = (redrawn_frac, "ratio")
    gt = row("orbit.generic_path_track")
    m["orbit.generic_path_track.left_frac"] = (frac(gt["raised"].get("LeftT", 0), gt["calls"]),
                                               "ratio")
    for layer in tracing.LAYERS:
        total = sum(r["self_s"] for n, r in rows.items() if n.startswith(layer + "."))
        m[f"layer.{layer}.self_s"] = (total / items, "s/item")
    m["trace.items_per_s_untraced"] = (rate_untraced, "1/s")
    m["trace.items_per_s_traced"] = (rate_traced, "1/s")
    m["trace.overhead_ratio"] = (rate_untraced / rate_traced, "ratio")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            code = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], check=False).returncode
            if code:
                return code
        return 0
    wl = workloads.WORKLOADS[args.workload]

    setup = measure_setup(args.workload, args.seed)
    xs = wl.make_inputs(args.seed)
    ref = wl.reference()
    order = random.Random(args.seed)

    attempted = failed = 0

    def check(p: Pass):
        # answers are dropped once checked, so memory does not grow with passes
        nonlocal attempted, failed
        attempted += len(p.xs)
        failed += count_failures(wl, p, ref)
        p.results = p.end_result = None

    def shuffled():
        ys = list(xs)
        order.shuffle(ys)
        return ys

    check(run_pass(wl, shuffled()))

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, rows = [], [], {}
    typ_untraced, typ_traced = Typical(), Typical()
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or not untraced:
        untraced.append(run_pass(wl, shuffled()))
        typ_untraced.add(untraced[-1])
        check(untraced[-1])
        if tracer is not None:
            traced.append(run_pass(wl, shuffled(), tracer))
            typ_traced.add(traced[-1])
            merge(rows, tracer.collect())
            check(traced[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_cross = cross_bad = 0
    if wl.crosscheck is not None:
        n_cross = wl.crosscheck_items
        cross_bad = wl.crosscheck(xs, random.Random(args.seed))
    failed += cross_bad

    rate = typ_untraced.rate
    p50 = typ_untraced.p50_ms
    tail, tail_pct = typ_untraced.tail
    wall = quartiles([p.rate for p in untraced])
    slow = quartiles([p.slowdown for p in untraced])
    drawn, redrawn = getattr(wl, "drawn", 0), getattr(wl, "redrawn", 0)
    setup_q = quartiles([t / f for t, f in setup])
    setup_wall = statistics.median(t for t, _ in setup)
    print(f"workload {wl.name}  seed {args.seed}  {len(xs)} items a pass, "
          f"passes {len(untraced)} untraced{f', {len(traced)} traced' if traced else ''}")
    print(f"{'metric':<14}{'value':>12}  unit")
    for name, value, unit in (("items_per_s", rate, "1/s"), ("item_p50_ms", p50, "ms"),
                              ("item_tail_ms", tail, "ms"), ("setup_s", setup_q[1], "s"),
                              ("peak_rss_mb", peak_rss_mb, "MB"),
                              ("fail_frac", failed / attempted, "ratio")):
        print(f"{name:<14}{value:>12.5g}  {unit}")
    print(f"fail_frac counts {failed} of {attempted} answers; {cross_bad} in {n_cross} "
          f"sympy cross-checks")
    print(f"items_per_s, item_p50_ms and item_tail_ms take each item's median over "
          f"{len(untraced)} repetitions, scaled to the reference speed; item_tail_ms is the "
          f"p{tail_pct:.3g} latency (ten items above it)")
    print(f"host slowdown against the reference, by pass: median {slow[1]:.4g}, quartiles "
          f"{slow[0]:.4g} and {slow[2]:.4g}")
    print(f"wall rate of the passes: median {wall[1]:.5g}, quartiles {wall[0]:.5g} and "
          f"{wall[2]:.5g} 1/s")
    print(f"setup_s is the median of {len(setup)} fresh interpreters scaled the same way, "
          f"quartiles {setup_q[0]:.5g} and {setup_q[2]:.5g} s; wall median {setup_wall:.5g} s")
    if redrawn:
        print(f"{redrawn} of {drawn} drawn members were redrawn: float seifert.classify "
              f"could not classify them (a library defect; see workloads.Numeric)")

    if tracer is None:
        metrics = {"items_per_s": (rate, "1/s"), "item_p50_ms": (p50, "ms"),
                   "item_tail_ms": (tail, "ms"), "setup_s": (setup_q[1], "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        items = sum(len(p.xs) for p in traced)
        metrics = layer_metrics(rows, items, typ_untraced.rate, typ_traced.rate,
                                redrawn / drawn if drawn else 0.0)
        print(f"per item over {items} traced items; self time excludes child spans")
        print(f"{'function':<44}{'calls/item':>12}{'self_ms/item':>14}")
        for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:<44}{r['calls'] / items:>12.5g}{r['self_s'] / items * 1e3:>14.5g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
