#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs every workload, also those BENCHMARK.json leaves out, untraced and
traced on small instances and checks that each result carries exactly the
metrics BENCHMARK.json names, with their units, and that the report carries
the metrics kept out of the result.  Then
corrupts x_final on every other solve and checks that the corruption shows
in `failed` and `fail_rate`.  Exits 1 on any mismatch.
"""

import dataclasses
import json
import math

import program

import run as R
import workloads as W

TOY_SIZES = {
    "fpca": {"n": 10, "k": 2, "d": 3},
    "npca": {"n": 30, "m_cols": 5, "rho": 0.1},
    "qpb-l4": {"n": 40},
    "check-fpca": {"n": 4, "k": 2, "d": 3},
}
REPORT_ONLY = ("op_s_p50", "ops_per_s", "op_s_tail", "fail_rate", "kkt_viol_rate")


def toy(name):
    w = W.WORKLOADS[name]
    return dataclasses.replace(w, sizes=TOY_SIZES[name], pool=min(w.pool, 2))


def check_run(w, trace, want, problems):
    report, result = R.run(w, seed=1, seconds=0.2, trace=trace)
    label = f"{w.name} trace={int(trace)}"
    json.loads(json.dumps(result))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {got} != {want}")
    for k, v in result["metrics"].items():
        if not (isinstance(v["value"], float) and math.isfinite(v["value"])):
            problems.append(f"{label}: {k} = {v['value']!r}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} failed: "
                        f"{report['failures'][:2]}")
    missing = [k for k in REPORT_ONLY if k not in report["end_to_end"]]
    if missing:
        problems.append(f"{label}: report lacks {missing}")


def check_corruption(problems):
    real = W.run_op
    count = [0]

    def corrupting(w, case, tracer=None):
        out, dt, secs = real(w, case, tracer)
        count[0] += 1
        if tracer is None and count[0] % 2:
            out = dataclasses.replace(out, x_final=out.x_final + 10.0)
        return out, dt, secs

    W.run_op = corrupting
    try:
        report, result = R.run(toy("npca"), seed=1, seconds=0.2, trace=False)
    finally:
        W.run_op = real
    corrupted = (count[0] + 1) // 2
    rate = report["end_to_end"]["fail_rate"]["value"]
    if result["correct"] or result["failed"] != corrupted \
            or rate != corrupted / result["attempted"]:
        problems.append(f"corrupted x_final: {corrupted} corrupted, result "
                        f"{result['failed']} failed of {result['attempted']}, "
                        f"fail_rate {rate}")


def main():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    names = [wl["name"] for wl in spec["workloads"]]
    unknown = sorted(set(names) - set(W.WORKLOADS))
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {unknown}")
    for name in W.WORKLOADS:
        for trace in (False, True):
            check_run(toy(name), trace, want[trace], problems)
    check_corruption(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
