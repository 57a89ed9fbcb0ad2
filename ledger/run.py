#!/usr/bin/env python3
"""The audit ledger: fairrank's end-to-end benchmark, one workload per run.

    python3 ledger/run.py --workload uniform_pairwise --seed 1 \\
        --seconds 30 --trace 0

Builds ledger_bench (ledger/CMakeLists.txt, the library from src/) into
.bench_build/ledger, writes the workload's worker CSV from --seed in a
process of its own, then runs the workload in another process, so its
peak_rss_mb is that workload's alone. Prints the binary's human-readable
lines, every metric by name with its unit, the provenance, and as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones (see BENCHMARK.json and ledger/README.md).

    python3 ledger/run.py --workload all --seconds 30   # every workload
    python3 ledger/run.py --write-manifest              # BENCHMARK.json

Exits 0 with a result line, or non-zero without one when the program cannot
be built or run, or a metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ledger")
DATA_DIR = os.path.join(ROOT, ".bench_build", "ledger-data")
BINARY = os.path.join(BUILD_DIR, "ledger_bench")

RUN_SECONDS = 30

WORKLOADS = [
    {"name": "uniform_pairwise",
     "why": "Table 2: balanced on 7,300 uniform workers ends near-full "
            "(~1,760 partitions), so pairwise divergence and its memo cache "
            "do almost all the work"},
    {"name": "server_closed_loop",
     "why": "in-process fairauditd, 2 workers, 2 keep-alive clients, cheap "
            "f7-f9 audits, 1 in 4 a cache hit: HTTP framing, cache, admission "
            "and JSON are a large share of each request"},
    {"name": "aggregate_ingest",
     "why": "2,000,000 workers: score, 2-thread cell-store ingest with shard "
            "merge, and cell audit; the only workload that runs "
            "fairness.aggregate"},
]

# name, unit, better, bound (share of the parent's median). The host this
# was tuned on shifts every timing by up to a quarter over minutes
# (ledger/README.md), so timings get the largest bound; memory moves much
# less.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
]

# name, unit, better. Per-op medians of the traced run (see
# ledger/README.md); counts of work and shares of op time are better lower.
PER_LAYER = [
    ("data.csv_load_ms", "ms", "lower"),
    ("marketplace.score_ms", "ms", "lower"),
    ("search.evaluator_make_ms", "ms", "lower"),
    ("search.run_ms", "ms", "lower"),
    ("search.pairwise_floor_ms", "ms", "lower"),
    ("search.rowwork_ceiling_ms", "ms", "lower"),
    ("search.evaluator_teardown_ms", "ms", "lower"),
    ("search.nodes", "count", "lower"),
    ("search.histogram_builds", "count", "lower"),
    ("search.histogram_hits", "count", "higher"),
    ("search.divergences", "count", "lower"),
    ("search.divergence_hits", "count", "higher"),
    ("search.cache_hit_ratio", "ratio", "higher"),
    ("search.cache_bytes", "B", "lower"),
    ("report.unfairness_ms", "ms", "lower"),
    ("report.top_pairs_ms", "ms", "lower"),
    ("report.summaries_ms", "ms", "lower"),
    ("report.json_ms", "ms", "lower"),
    ("report.partitions", "count", "lower"),
    ("report.pairs", "count", "lower"),
    ("report.divergences", "count", "lower"),
    ("aggregate.ingest_ms", "ms", "lower"),
    ("aggregate.ingest_rows_per_s", "1/s", "higher"),
    ("aggregate.cells", "count", "lower"),
    ("aggregate.audit_ms", "ms", "lower"),
    ("server.handler_ms", "ms", "lower"),
    ("server.parse_us", "us", "lower"),
    ("server.canonical_key_us", "us", "lower"),
    ("server.transport_ms", "ms", "lower"),
    ("server.side_p50_ms", "ms", "lower"),
    ("server.side_p99_ms", "ms", "lower"),
    ("server.response_cache_hit_ratio", "ratio", "higher"),
    ("server.response_cache_evictions", "count", "lower"),
    ("server.shed", "count", "lower"),
    ("server.connects", "count", "lower"),
    ("layer.marketplace.self_ms", "ms", "lower"),
    ("layer.fairness.search.self_ms", "ms", "lower"),
    ("layer.fairness.report.self_ms", "ms", "lower"),
    ("layer.fairness.aggregate.self_ms", "ms", "lower"),
    ("layer.server.self_ms", "ms", "lower"),
    ("layer.harness.self_ms", "ms", "lower"),
    ("layer.dominant_share", "ratio", "lower"),
    ("work.pairwise_divergence.share", "ratio", "lower"),
    ("work.search_row_work.share", "ratio", "lower"),
    ("work.ingest_scoring.share", "ratio", "lower"),
    ("work.serving.share", "ratio", "lower"),
    ("work.cache_teardown.share", "ratio", "lower"),
    ("work.other.share", "ratio", "lower"),
    ("work.dominant_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Per-layer metrics of layers a workload never calls: reported as 0 (no
# work there). Any other missing metric fails the run.
_AUDIT_ONLY = ["search.", "report.", "layer.fairness.search.",
               "layer.fairness.report.", "work.pairwise_divergence.",
               "work.search_row_work.", "work.cache_teardown."]
NOT_EXERCISED = {
    "uniform_pairwise": ["aggregate.", "server.", "layer.fairness.aggregate.",
                         "layer.server.", "work.serving."],
    "server_closed_loop": ["aggregate.", "layer.fairness.aggregate."],
    "aggregate_ingest": _AUDIT_ONLY + ["server.", "layer.server.",
                                       "work.serving."],
}


def manifest():
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("fairrank sources (src/) not found next to ledger/")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", LEDGER_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=880)


def run_workload(workload, seed, seconds, trace, smoke, corrupt):
    """Runs one workload; returns the binary's result object."""
    os.makedirs(DATA_DIR, exist_ok=True)
    csv = os.path.join(DATA_DIR, "%s-%d-%d.csv" % (workload, seed, os.getpid()))
    common = ["--workload", workload, "--seed", str(seed), "--csv", csv]
    if smoke:
        common.append("--smoke")
    try:
        probes = [probe()]
        subprocess.run([BINARY, "generate"] + common, check=True,
                       stdout=sys.stderr, timeout=120)
        args = [BINARY, "run"] + common + ["--seconds", str(seconds),
                                           "--trace", str(trace)]
        if corrupt:
            args.append("--corrupt-expectation")
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        probes.append(probe())
    finally:
        if os.path.exists(csv):
            os.remove(csv)
    if proc.returncode != 0:
        raise RuntimeError("ledger_bench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    # Before and after: a slow run on a slow host shows here, not as a
    # change of the program.
    result["provenance"]["host_probe_ms"] = probes
    return result


def probe():
    """The host-speed reading of `ledger_bench probe`, in ms."""
    out = subprocess.run([BINARY, "probe"], check=True, timeout=60,
                         stdout=subprocess.PIPE, text=True).stdout
    return float(out)


def select_metrics(workload, result, trace):
    """The contract's metrics for this mode, checked for presence/units."""
    wanted = [m[:2] for m in (PER_LAYER if trace else END_TO_END)]
    measured = result["metrics"]
    out = {}
    for name, unit in wanted:
        if name in measured:
            if measured[name]["unit"] != unit:
                raise RuntimeError("%s: unit %s, expected %s"
                                   % (name, measured[name]["unit"], unit))
            out[name] = {"value": measured[name]["value"], "unit": unit}
        elif any(name.startswith(p) for p in NOT_EXERCISED[workload]):
            out[name] = {"value": 0, "unit": unit}
        else:
            raise RuntimeError("%s did not report %s" % (workload, name))
    return out


def report(workload, result, metrics):
    prov = result["provenance"]
    attempted, failed = result["attempted"], result["failed"]
    print("== %s (seed %s, %s s, trace %s)" % (workload, prov["seed"],
                                              prov["seconds"], prov["trace"]))
    for name, m in sorted(result["metrics"].items()):
        if name not in metrics:
            print("  %-36s %16.6f %s" % (name, m["value"], m["unit"]))
    for name, m in metrics.items():
        print("  %-36s %16.6f %s" % (name, m["value"], m["unit"]))
    print("  %-36s %16.6f ratio  (%d failed of %d attempted)"
          % ("fail_ratio", failed / max(1, attempted), failed, attempted))
    for failure in result.get("failures", []):
        print("  FAILED: %s" % failure)
    print("  provenance %s" % json.dumps(prov, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny populations (ledger/smoke_test.py)")
    parser.add_argument("--corrupt-expectation", action="store_true",
                        help="flip one expected value so checks must fail")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repo root and exit")
    args = parser.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0

    names = [w["name"] for w in WORKLOADS]
    if args.workload != "all" and args.workload not in names:
        log("run.py: unknown workload %r (known: %s)"
            % (args.workload, ", ".join(names)))
        return 2
    try:
        build()
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in names if args.workload == "all" else [args.workload]:
            result = run_workload(workload, args.seed, args.seconds,
                                  args.trace, args.smoke,
                                  args.corrupt_expectation)
            metrics = select_metrics(workload, result, args.trace)
            report(workload, result, metrics)
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            if args.workload == "all":
                metrics = {workload + "." + k: v for k, v in metrics.items()}
            total["metrics"].update(metrics)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("run.py: %s" % error)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
