#!/usr/bin/env python3
"""The ttw benchmark.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Runs one workload (``verify``, ``complete``, ``order`` or ``cli``) in
this single-threaded process against the ``ttw`` sources in ``src/`` of
the checkout that holds this directory.  Inputs come from ``--seed``.
Whole passes over the workload's fixed case list run back to back for
``--seconds``: a pass starts only if it is expected to end within that
budget, and an untraced run makes at least two.  Every timing is scaled
to a fixed speed of the machine by the reference kernel timed around it
(see ``reference.py``); the summary line also gives the unscaled
figures.  Each case's latency is its best scaled time over the passes,
and ``wall_s`` is the sum of these over the case list.  Every case's
outcome is checked against an expectation the benchmark holds itself,
and the output fingerprints against ``baseline.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones from the span
recorder.  The line before it is a JSON summary: the input digest, the
output fingerprints and every failed case with its error.  A traced run
also writes the spans and layer report of its last traced pass to
``.perfbench-out/<workload>.*``.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import expect  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify", "complete", "order", "cli")
MIN_PASSES = 2
SETUP_REPEATS = 3
LAYERS = ("orderkit", "fincat", "subunits", "restriction", "fractions",
          "support", "daycat", "schema", "cli")
FUNCTIONS_SELF = ("orderkit.is_frame", "orderkit.is_distributive",
                  "orderkit.downsets", "fincat.validate",
                  "restriction.verify_comonad_bijection",
                  "fractions.simple_quotient", "daycat.broad_category",
                  "daycat.day_tensor", "schema.parse_category_document")
FUNCTIONS_CALLS = ("orderkit.downsets", "fincat.validate", "fincat.is_mono",
                   "subunits.enumerate_subunits", "subunits.subunit_semilattice",
                   "subunits.is_stiff")
SIZES = ("orderkit.downset_count", "daycat.completion_objects",
         "daycat.completion_morphisms", "daycat.day_triples", "caps.exceeded")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_ttw():
    sys.path.insert(0, SRC)
    import ttw
    where = os.path.dirname(os.path.abspath(ttw.__file__))
    if where != os.path.join(SRC, "ttw"):
        fail(f"ttw imported from {where}, not from this checkout")
    for name in ("cli", "daycat", "fractions", "restriction", "support"):
        importlib.import_module(f"ttw.{name}")


def quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of the sorted
    samples weighted by a beta density centred on rank p.  The case
    latencies of a workload fall in clusters, and a single order
    statistic jumps from one cluster to the next when the seed moves one
    case across the rank; this estimate moves smoothly."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    steps = 64   # midpoints per sample for integrating the density
    logs = [[a * math.log(x) + b * math.log1p(-x)
             for x in ((i + (k + 0.5) / steps) / n for k in range(steps))]
            for i in range(n)]
    top = max(map(max, logs))
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ttw", "__init__.py")):
        fail(f"no ttw sources under {SRC}")
    load_ttw()
    work = importlib.import_module(f"wl_{args.workload}")
    import_s = perf_counter() - STARTED

    scratch = None
    if getattr(work, "NEEDS_DIR", False):
        os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
        scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-work"))
    try:
        return measure(args, work, scratch, import_s)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def compare_baseline(workload: str, seed: int, input_digest: str,
                     fingerprint: dict) -> list[str]:
    """What differs from the fingerprints ``baseline.json`` records: the
    seed-independent one always, the input digest and the full one when
    the seed is recorded."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)["fingerprints"].get(workload, {})
    if "fixed" not in recorded:
        return ["no fingerprint recorded for this workload"]
    problems = []
    if fingerprint["fixed"] != recorded["fixed"]:
        problems.append("fixed-input fingerprint differs from baseline.json")
    seed = recorded.get("seeds", {}).get(str(seed))
    if seed is not None:
        if input_digest != seed["input_digest"]:
            problems.append("input digest differs from baseline.json")
        if fingerprint["full"] != seed["full"]:
            problems.append("fingerprint differs from baseline.json")
    return problems


def measure(args, work, scratch, import_s: float) -> int:
    # the inputs are built several times and the median taken; each build
    # starts after the previous state is dropped.  The reference kernel is
    # timed before and after the builds.
    refs = [reference.sample() for _ in range(reference.WINDOW)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None
        rng = random.Random(args.seed)
        start = perf_counter()
        state = work.setup(rng, scratch) if scratch else work.setup(rng)
        setup_times.append(perf_counter() - start)
    refs += [reference.sample() for _ in range(reference.WINDOW)]
    setup_raw = import_s + statistics.median(setup_times)
    input_digest = inputs.digest(state.inputs)
    skip = tuple(expect.KNOWN_DEFECTS)
    # the set-up state lives for the whole run; keep it out of the cyclic
    # collector's sweeps, which a user's own process would not make
    gc.collect()
    gc.freeze()

    # untraced passes P0, P1, ...; a traced run puts a traced pass Tk
    # between P(k-1) and Pk, so every traced pass follows a warm-up
    recorder = spans.Recorder() if args.trace else None
    traced, reports = [], []
    budget_start = perf_counter()
    plain = [harness.run_pass(work.cases(state), skip)]
    last_round = perf_counter() - budget_start
    while True:
        # another round only if it is expected to end within the budget;
        # an untraced run makes at least MIN_PASSES passes, a traced run
        # at least one traced pass
        enough = traced if recorder is not None else len(plain) >= MIN_PASSES
        if enough and perf_counter() - budget_start + last_round > args.seconds:
            break
        round_start = perf_counter()
        if recorder is not None:
            recorder.reset()
            recorder.install()
            try:
                traced.append(harness.run_pass(work.cases(state), skip, recorder))
            finally:
                recorder.uninstall()
            reports.append(recorder.report())
        plain.append(harness.run_pass(work.cases(state), skip))
        last_round = perf_counter() - round_start

    passes = plain + traced
    fingerprints = {json.dumps(p.fingerprint, sort_keys=True) for p in passes}
    failures = sorted({f for p in passes for f in p.failures})
    known = [expect.KNOWN_DEFECTS.get(cid, (None,))[0] == sig
             for cid, _, sig in failures]
    baseline = compare_baseline(args.workload, args.seed, input_digest,
                                plain[0].fingerprint)
    correct = all(known) and len(fingerprints) == 1 and not baseline
    attempted = sum(p.attempted for p in plain)
    failed = sum(len(p.failures) for p in plain)
    summary = {"workload": args.workload, "seed": args.seed,
               "input_digest": input_digest,
               "fingerprint": [json.loads(f) for f in sorted(fingerprints)],
               "baseline_mismatch": baseline,
               "passes": len(plain), "cases_per_pass": plain[0].attempted,
               "pass_walls": [round(p.wall_s, 3) for p in plain],
               "failures": [{"case": c, "error": e, "signature": sig, "known": k}
                            for (c, e, sig), k in zip(failures, known)],
               "unexpected_failures": known.count(False)}

    if recorder is None:
        # each case's best scaled time over the passes
        best = [min(col) for col in zip(*(reference.scale(p.samples, p.refs)
                                          for p in plain))]
        best_ms = [s * 1000 for s in best]
        raw = [min(col) for col in zip(*(p.samples for p in plain))]
        metrics = {
            "wall_s": metric(sum(best), "s"),
            "setup_s": metric(
                setup_raw * reference.REFERENCE_S / statistics.median(refs), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "correct_share": metric((attempted - failed) / attempted, "ratio"),
            "request_p50_ms": metric(quantile(best_ms, 0.50), "ms"),
            "request_p95_ms": metric(quantile(best_ms, 0.95), "ms"),
        }
        summary["request_samples"] = len(best_ms)
        summary["unscaled"] = {
            "wall_s": sum(raw), "setup_s": setup_raw,
            "request_p50_ms": quantile([s * 1000 for s in raw], 0.50),
            "request_p95_ms": quantile([s * 1000 for s in raw], 0.95),
            "reference_ms": statistics.median(
                r for p in plain for r in p.refs) * 1000}
    else:
        metrics, accounting = layer_metrics(traced, reports, plain)
        summary["accounting"] = accounting
        correct = correct and accounting["ok"]
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        # one file per workload, overwritten by each traced run
        stem = os.path.join(out_dir, args.workload)
        recorder.write(stem + ".spans.json.gz")
        with open(stem + ".layers.json", "w", encoding="utf-8") as handle:
            json.dump({"summary": summary, "report": reports[-1]}, handle,
                      indent=1, sort_keys=True)

    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(traced, reports, plain):
    """Per-layer metrics from the traced passes: self times are medians
    over passes; counts and sizes must repeat exactly from pass to pass,
    and every traced pass must pass the span accounting."""
    def median_of(get):
        return statistics.median(get(r) for r in reports)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(
            median_of(lambda r: r["layer_self_s"].get(layer, 0.0)), "s")
        metrics[f"{layer}.calls"] = metric(
            reports[0]["layer_calls"].get(layer, 0), "count")
    for name in FUNCTIONS_SELF:
        metrics[f"{name}.self_s"] = metric(
            median_of(lambda r: r["fn_self_s"].get(name, 0.0)), "s")
    for name in FUNCTIONS_CALLS:
        metrics[f"{name}.calls"] = metric(
            reports[0]["fn_calls"].get(name, 0), "count")
    for name in SIZES:
        metrics[name] = metric(traced[0].sizes.get(name, 0), "count")
    # each traced pass against the faster of the untraced passes around it
    metrics["trace_overhead_s"] = metric(statistics.median(
        t.wall_s - min(before.wall_s, after.wall_s)
        for before, t, after in zip(plain, traced, plain[1:])), "s")

    repeat = all(r["fn_calls"] == reports[0]["fn_calls"] for r in reports) and \
        all(p.sizes == traced[0].sizes for p in traced + plain)
    checks = [r["accounting"] for r in reports]
    accounting = dict(checks[-1], trace_pairs=len(traced), counts_repeat=repeat,
                      min_self_s=min(r["min_self_s"] for r in reports))
    accounting["ok"] = repeat and all(c["ok"] for c in checks) and \
        accounting["min_self_s"] > -1e-9
    return metrics, accounting


if __name__ == "__main__":
    sys.exit(main())
