#!/usr/bin/env python3
"""Gate bench results against checked-in baselines.

Usage: compare_baselines.py <results_dir> <baselines_dir> [--threshold 0.25]
       compare_baselines.py --soak-report chaos_report.json

Both directories hold BENCH_<name>.json files as written by
bench::JsonReporter (bench/bench_util.h):

    {"bench": "...", "config": {...},
     "metrics": [{"name": ..., "value": ..., "unit": ..., "direction": ...}]}

For every baseline file there must be a matching result file, and every
gated baseline metric (direction "higher" or "lower") must be within
`threshold` of its baseline value in the non-regressing direction:

    direction "higher": fail when value < baseline * (1 - threshold)
    direction "lower":  fail when value > baseline * (1 + threshold)

"info" metrics and metrics that only exist in the results are reported but
never gated. Result files with no baseline counterpart are a warning, not a
failure — a freshly added bench must not break CI before its baseline is
checked in, but it should be loudly visible until it is. Exit status 1 on
any regression or missing file/metric.

The benches run on simulated time, so the numbers are deterministic across
machines — the 25% default margin absorbs intentional small recalibrations,
not noise. Because of that determinism, any change at all in a metric other
than a wall-time one (wall_clock_ms, and any name containing "_wall_", e.g.
bench_layers' <shape>_wall_ns_per_acquire; these are always "info") gets
the status "drift" and is counted, so a refactor that claims "simulated
baselines bit-identical" can be checked at a glance. Drift is reported,
never gated.

When running under GitHub Actions (GITHUB_STEP_SUMMARY is set), the same
comparison is appended to the job's step summary as a markdown table, so a
reviewer sees every metric/baseline/current/delta without opening the log.

With --soak-report the script instead summarizes a chaos_soak JSON report:
per-seed wall-clock (real time, not simulated — the one number in the soak
that IS machine-dependent) as a step-summary table of the slowest seeds plus
totals, so a soak-job reviewer can spot pathological seeds whose checking
blew up without downloading the artifact. Informational only: never gates.
"""

import argparse
import json
import os
import sys
from pathlib import Path


def load(path: Path) -> dict:
    """Parse one reporter file; a clear error beats a traceback in CI."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"error: cannot read {path}: {e}")
    if not isinstance(doc, dict):
        raise SystemExit(f"error: {path}: expected a JSON object, got "
                         f"{type(doc).__name__}")
    return doc


def metric_map(doc: dict, path: Path) -> dict:
    metrics = doc.get("metrics", [])
    for m in metrics:
        if not isinstance(m, dict) or "name" not in m or "value" not in m:
            raise SystemExit(f"error: {path}: malformed metric entry {m!r}")
    return {m["name"]: m for m in metrics}


# Metrics measured in real time; every other value is simulated or a
# deterministic work count.
WALL_CLOCK = "wall_clock_ms"


def is_wall_time(name: str) -> bool:
    return name == WALL_CLOCK or "_wall_" in name


def drift_line(rows) -> str:
    """One sentence counting simulated metrics that differ at all."""
    drifted = sum(1 for r in rows if r[6] in ("drift", "REGRESSED"))
    if drifted:
        return (f"{drifted} simulated metric(s) drifted from their baselines "
                f"(any change; wall-time metrics excluded).")
    return ("No simulated metric drifted: all bit-identical to baselines "
            "(wall-time metrics excluded).")


def write_step_summary(rows, failures, warnings, threshold) -> None:
    """Mirror the comparison into the GitHub job's step summary, if any."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Bench comparison", ""]
    if failures:
        lines += [f"**{len(failures)} regression(s)** "
                  f"(threshold {threshold:.0%}):", ""]
        lines += [f"- {f}" for f in failures]
        lines.append("")
    else:
        lines += [f"All gated metrics within {threshold:.0%} of baselines.",
                  ""]
    lines += [drift_line(rows), ""]
    lines += ["| metric | dir | baseline | current | delta | status |",
              "|---|---|---:|---:|---:|---|"]
    for bench, name, direction, old, new, delta, status in rows:
        old_s = f"{old:g}" if old is not None else "-"
        new_s = f"{new:g}" if new is not None else "-"
        marker = "**REGRESSED**" if status == "REGRESSED" else status
        lines.append(f"| {bench}/{name} | {direction} | {old_s} | {new_s} "
                     f"| {delta:+.1%} | {marker} |")
    if warnings:
        lines.append("")
        lines += [f"- :warning: {w}" for w in warnings]
    try:
        with open(path, "a") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        # The summary is a convenience; never let it mask the real verdict.
        print(f"warning: cannot write step summary: {e}", file=sys.stderr)


def soak_wall_clock_summary(report_path: Path, top: int = 15) -> int:
    """Render per-seed soak wall-clock from a chaos_soak report.

    Prints totals to stdout and, under GitHub Actions, appends a markdown
    table of the `top` slowest seeds to the step summary. Wall-clock is the
    soak's only machine-dependent number — everything else in the report is
    a pure function of the seed — so it is reported, never gated.
    """
    report = load(report_path)
    entries = [e for e in report.get("wall_ms", [])
               if isinstance(e, dict) and "seed" in e and "ms" in e]
    if not entries:
        print(f"warning: {report_path} has no per-seed wall_ms entries "
              "(old chaos_soak binary?)", file=sys.stderr)
        return 0
    total_ms = sum(e["ms"] for e in entries)
    slowest = sorted(entries, key=lambda e: e["ms"], reverse=True)[:top]
    failed = {f.get("seed") for f in report.get("failures", [])}

    print(f"soak wall-clock: {len(entries)} seed(s), total {total_ms} ms, "
          f"mean {total_ms / len(entries):.0f} ms, "
          f"max {slowest[0]['ms']} ms (seed {slowest[0]['seed']})")

    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return 0
    mode = "".join(m for m, on in
                   [("history", report.get("history")),
                    ("elasticity", report.get("elasticity"))] if on)
    lines = ["## Soak wall-clock per seed", "",
             f"{len(entries)} seed(s)"
             + (f" ({mode} mode)" if mode else "")
             + f", total {total_ms / 1000.0:.1f} s, mean "
             f"{total_ms / len(entries):.0f} ms. Slowest {len(slowest)}:",
             "",
             "| seed | wall (ms) | verdict |",
             "|---:|---:|---|"]
    for e in slowest:
        verdict = "**FAIL**" if e["seed"] in failed else "ok"
        lines.append(f"| {e['seed']} | {e['ms']} | {verdict} |")
    try:
        with open(path, "a") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        print(f"warning: cannot write step summary: {e}", file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results_dir", type=Path, nargs="?")
    parser.add_argument("baselines_dir", type=Path, nargs="?")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative regression (default 0.25)")
    parser.add_argument("--soak-report", type=Path, metavar="JSON",
                        help="summarize a chaos_soak report's per-seed "
                             "wall-clock instead of gating benches")
    args = parser.parse_args()

    if args.soak_report:
        return soak_wall_clock_summary(args.soak_report)
    if args.results_dir is None or args.baselines_dir is None:
        parser.error("results_dir and baselines_dir are required unless "
                     "--soak-report is given")

    baselines = sorted(args.baselines_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {args.baselines_dir}", file=sys.stderr)
        return 1
    if not args.results_dir.is_dir():
        # The bench step silently producing nothing must read as a failure,
        # not as "no regressions".
        print(f"results dir {args.results_dir} does not exist — did the "
              "bench step run?", file=sys.stderr)
        return 1
    if not any(args.results_dir.glob("BENCH_*.json")):
        print(f"no BENCH_*.json results under {args.results_dir} but "
              f"{len(baselines)} baseline(s) are committed — did the bench "
              "step run?", file=sys.stderr)
        return 1

    failures = []
    warnings = []
    rows = []
    # Results nobody gates yet: a new bench ran but its baseline was never
    # checked in. Warn — silently skipping it would look like coverage.
    baseline_names = {p.name for p in baselines}
    for result_path in sorted(args.results_dir.glob("BENCH_*.json")):
        if result_path.name not in baseline_names:
            warnings.append(
                f"{result_path.name}: result has no baseline — add one "
                f"under {args.baselines_dir} to gate it")
    for base_path in baselines:
        result_path = args.results_dir / base_path.name
        if not result_path.exists():
            failures.append(f"{base_path.name}: no result produced")
            continue
        base = metric_map(load(base_path), base_path)
        result = metric_map(load(result_path), result_path)
        for name, bm in base.items():
            direction = bm.get("direction", "info")
            if name not in result:
                failures.append(f"{base_path.name}: metric '{name}' missing "
                                "from results")
                continue
            old, new = bm["value"], result[name]["value"]
            if old is None or new is None:
                failures.append(f"{base_path.name}: metric '{name}' is null")
                continue
            delta = (new - old) / abs(old) if old else 0.0
            regressed = False
            if old <= 0:
                # Relative margins are meaningless around zero or negative
                # baselines; record but never gate.
                direction = "info"
            elif direction == "higher":
                regressed = new < old * (1.0 - args.threshold)
            elif direction == "lower":
                regressed = new > old * (1.0 + args.threshold)
            if regressed:
                status = "REGRESSED"
            elif new != old and not is_wall_time(name):
                status = "drift"
            else:
                status = "info" if direction == "info" else "ok"
            rows.append((base_path.name.replace("BENCH_", "").replace(
                ".json", ""), name, direction, old, new, delta, status))
            if regressed:
                failures.append(
                    f"{base_path.name}: '{name}' ({direction}-is-better) "
                    f"{old:g} -> {new:g} ({delta:+.1%})")
        for name in sorted(set(result) - set(base)):
            rows.append((base_path.name.replace("BENCH_", "").replace(
                ".json", ""), name, result[name].get("direction", "info"),
                None, result[name]["value"], 0.0, "new"))

    width = max((len(r[0]) + len(r[1]) for r in rows), default=20) + 3
    print(f"{'bench/metric':<{width}} {'dir':>6} {'baseline':>12} "
          f"{'result':>12} {'delta':>8}  status")
    for bench, name, direction, old, new, delta, status in rows:
        # Either side may be null (JsonReporter writes null for inf/nan).
        old_s = f"{old:g}" if old is not None else "-"
        new_s = f"{new:g}" if new is not None else "-"
        print(f"{bench + '/' + name:<{width}} {direction:>6} {old_s:>12} "
              f"{new_s:>12} {delta:>+7.1%}  {status}")

    print(f"\n{drift_line(rows)}")

    if warnings:
        print(f"\n{len(warnings)} warning(s):", file=sys.stderr)
        for w in warnings:
            print(f"  WARNING: {w}", file=sys.stderr)

    write_step_summary(rows, failures, warnings, args.threshold)

    if failures:
        print(f"\n{len(failures)} regression(s) against "
              f"{args.baselines_dir}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nall gated metrics within {args.threshold:.0%} of baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
