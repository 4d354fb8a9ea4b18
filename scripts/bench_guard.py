#!/usr/bin/env python3
"""Threshold guard on the composed Monte-Carlo fast path.

Reads a google-benchmark JSON report and fails CI when the alias-sampled
engine regresses:

  * absolute floor on BM_ComposedMonteCarlo/2 items/s (conservative, so a
    slow shared runner does not flake the build), and
  * a relative floor against BM_ComposedMonteCarloCompat from the same run
    (runner-speed independent: the fast path must stay meaningfully ahead
    of the historical event loop it replaced).

With --max-qdisc-overhead it additionally guards the AQM hot path: each
BM_PacketLevelSessionQdisc arm (droptail/pie/fq_pie/codel, DenseRange 0-3)
must process events within that fraction of BM_PacketLevelSessionQdisc/0
(the droptail-through-the-interface baseline) from the same run — a ratio
of two rates from one binary on one runner, so machine-speed independent.

It also guards the default DES queue (the radix heap behind
DMP_DES=calendar) on the packet-level session bench: an absolute floor on
BM_PacketLevelSession events/s (conservative for slow shared runners; the
floor corresponds to ~70% of the rate measured on a 2.1 GHz single-core
reference box) and a relative floor against BM_PacketLevelSessionHeap from
the same run — the default backend must never fall behind the binary-heap
backend (runner-speed independent, a ratio of two rates from one binary).

With --obs-report it additionally guards the streaming-telemetry overhead:
BM_SessionTelemetryOn must process events within --max-obs-overhead
(default 3%) of BM_SessionTelemetryOff from the same run.  The comparison
is a ratio of two rates from one binary on one runner, so it is
machine-speed independent; the best rate across repetitions is used on
each side to damp scheduler noise.

Usage: bench_guard.py REPORT.json [--min-items-per-s N] [--min-speedup X]
                      [--obs-report OBS.json] [--max-obs-overhead F]
"""

import argparse
import json
import sys


def items_per_second(report, name):
    for bench in report.get("benchmarks", []):
        if bench.get("name") == name and bench.get("run_type") != "aggregate":
            rate = bench.get("items_per_second")
            if rate is None:
                raise SystemExit(f"{name}: no items_per_second counter")
            return float(rate)
    raise SystemExit(f"{name}: not found in report")


def best_items_per_second(report, name):
    """Max rate over non-aggregate repetitions (noise-damped)."""
    rates = [
        float(bench["items_per_second"])
        for bench in report.get("benchmarks", [])
        if bench.get("name") == name and bench.get("run_type") != "aggregate"
        and bench.get("items_per_second") is not None
    ]
    if not rates:
        raise SystemExit(f"{name}: not found in report")
    return max(rates)


def check_session_engine(report, min_events_per_s, min_vs_heap):
    """Default-backend session floor: absolute + relative to the heap arm."""
    failures = []
    default = best_items_per_second(report, "BM_PacketLevelSession")
    heap = best_items_per_second(report, "BM_PacketLevelSessionHeap")
    ratio = default / heap if heap > 0 else float("inf")
    print(f"BM_PacketLevelSession (radix):    {default / 1e6:8.2f} M events/s")
    print(f"BM_PacketLevelSessionHeap:        {heap / 1e6:8.2f} M events/s")
    print(f"radix/heap: {ratio:.3f}x  (floors: "
          f"{min_events_per_s / 1e6:.1f}M abs, {min_vs_heap}x rel)")
    if default < min_events_per_s:
        failures.append(
            f"session floor violated: {default / 1e6:.2f}M < "
            f"{min_events_per_s / 1e6:.1f}M events/s")
    if ratio < min_vs_heap:
        failures.append(
            f"default DES backend fell behind the heap backend: "
            f"{ratio:.3f}x < {min_vs_heap}x")
    return failures


QDISC_ARMS = {1: "pie", 2: "fq_pie", 3: "codel"}


def check_qdisc_overhead(report, max_overhead):
    """AQM arms must stay within max_overhead of the droptail arm."""
    failures = []
    base = best_items_per_second(report, "BM_PacketLevelSessionQdisc/0")
    print(f"BM_PacketLevelSessionQdisc/0 (droptail): "
          f"{base / 1e6:8.2f} M events/s")
    for arm, name in sorted(QDISC_ARMS.items()):
        rate = best_items_per_second(report,
                                     f"BM_PacketLevelSessionQdisc/{arm}")
        overhead = 1.0 - rate / base if base > 0 else float("inf")
        print(f"BM_PacketLevelSessionQdisc/{arm} ({name}): "
              f"{rate / 1e6:8.2f} M events/s  "
              f"overhead {overhead * 100:.2f}%  "
              f"(floor: {max_overhead * 100:.0f}%)")
        if overhead > max_overhead:
            failures.append(
                f"{name} qdisc overhead {overhead * 100:.2f}% exceeds "
                f"{max_overhead * 100:.0f}%")
    return failures


def check_obs_overhead(path, max_overhead):
    with open(path) as fh:
        report = json.load(fh)
    off = best_items_per_second(report, "BM_SessionTelemetryOff")
    on = best_items_per_second(report, "BM_SessionTelemetryOn")
    overhead = 1.0 - on / off if off > 0 else float("inf")
    print(f"BM_SessionTelemetryOff: {off / 1e6:8.2f} M events/s")
    print(f"BM_SessionTelemetryOn:  {on / 1e6:8.2f} M events/s")
    print(f"telemetry overhead: {overhead * 100:.2f}%  "
          f"(floor: {max_overhead * 100:.0f}%)")
    if overhead > max_overhead:
        return (f"telemetry overhead {overhead * 100:.2f}% exceeds "
                f"{max_overhead * 100:.0f}%")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("--min-items-per-s", type=float, default=40e6)
    parser.add_argument("--min-speedup", type=float, default=1.3)
    parser.add_argument("--obs-report", default=None,
                        help="perf_obs_overhead JSON to guard as well")
    parser.add_argument("--max-obs-overhead", type=float, default=0.03)
    parser.add_argument("--max-qdisc-overhead", type=float, default=None,
                        help="guard BM_PacketLevelSessionQdisc arms against "
                             "the droptail arm (fraction, e.g. 0.10)")
    parser.add_argument("--min-session-events-per-s", type=float, default=6.5e6,
                        help="absolute floor on BM_PacketLevelSession "
                             "(default DES backend) events/s")
    parser.add_argument("--min-session-vs-heap", type=float, default=0.95,
                        help="BM_PacketLevelSession must reach this fraction "
                             "of BM_PacketLevelSessionHeap")
    args = parser.parse_args()

    with open(args.report) as fh:
        report = json.load(fh)

    alias = items_per_second(report, "BM_ComposedMonteCarlo/2")
    compat = items_per_second(report, "BM_ComposedMonteCarloCompat")
    speedup = alias / compat if compat > 0 else float("inf")

    print(f"BM_ComposedMonteCarlo/2:     {alias / 1e6:8.1f} M items/s")
    print(f"BM_ComposedMonteCarloCompat: {compat / 1e6:8.1f} M items/s")
    print(f"speedup: {speedup:.2f}x  (floors: "
          f"{args.min_items_per_s / 1e6:.0f}M abs, {args.min_speedup}x rel)")

    failures = check_session_engine(report, args.min_session_events_per_s,
                                    args.min_session_vs_heap)
    if alias < args.min_items_per_s:
        failures.append(
            f"absolute floor violated: {alias / 1e6:.1f}M < "
            f"{args.min_items_per_s / 1e6:.0f}M items/s")
    if speedup < args.min_speedup:
        failures.append(
            f"relative floor violated: {speedup:.2f}x < {args.min_speedup}x "
            "over the compat loop")
    if args.max_qdisc_overhead is not None:
        failures.extend(check_qdisc_overhead(report, args.max_qdisc_overhead))
    if args.obs_report:
        obs_failure = check_obs_overhead(args.obs_report,
                                         args.max_obs_overhead)
        if obs_failure:
            failures.append(obs_failure)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
