#!/usr/bin/env python3
"""Smoke test of the audit ledger: every workload at a tiny size.

    python3 ledger/smoke_test.py

Checks that
  * BENCHMARK.json is what `run.py --write-manifest` writes;
  * every workload, untraced and traced, ends with a result line holding
    exactly correct/attempted/failed/metrics, is correct, and prints every
    metric BENCHMARK.json names, with its unit, by name;
  * two runs with one seed print the same per-op output digests;
  * a deliberately wrong expected value (--corrupt-expectation) makes ops
    fail, so fail_ratio rises and the run is not correct;
  * in a directory holding only BENCHMARK.json and ledger/, run.py exits
    non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
sys.dont_write_bytecode = True  # Keep ledger/ free of __pycache__.
sys.path.insert(0, LEDGER_DIR)
import run  # noqa: E402  (ledger/run.py: the manifest it writes)


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def ledger(workload, seed, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "ledger", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def parse(proc, what):
    check(proc.returncode == 0, "%s exited %d:\n%s" % (what, proc.returncode,
                                                      proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "%s: result keys %s" % (what, sorted(result)))
    provenance = {}
    for line in lines:
        if line.strip().startswith("provenance "):
            provenance = json.loads(line.strip()[len("provenance "):])
    return result, lines[:-1], provenance


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    check(manifest == run.manifest(),
          "BENCHMARK.json differs from `run.py --write-manifest`")

    for workload in [w["name"] for w in manifest["workloads"]]:
        digests = []
        for trace, listed in ((0, manifest["end_to_end"]),
                              (1, manifest["per_layer"]),
                              (0, manifest["end_to_end"])):
            what = "%s trace %d" % (workload, trace)
            result, text, provenance = parse(ledger(workload, 7, trace), what)
            check(result["correct"] and result["failed"] == 0,
                  "%s: not correct: %s" % (what, "\n".join(text[-12:])))
            check(result["attempted"] >= 1, what + ": no ops attempted")
            for metric in listed:
                got = result["metrics"].get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"],
                      "%s: %s missing or wrong unit" % (what, metric["name"]))
                check(any(line.split()[:1] == [metric["name"]] and
                          line.split()[-1] == metric["unit"]
                          for line in text),
                      "%s: %s not printed with its unit"
                      % (what, metric["name"]))
            if trace == 0:
                digests.append(provenance.get("digests", {}))
        shared = set(digests[0]) & set(digests[1])
        check(all(digests[0][k] == digests[1][k] for k in shared),
              workload + ": output digests differ between runs of one seed")

        result, _, _ = parse(ledger(workload, 7, 0, "--corrupt-expectation"),
                             workload + " corrupted")
        check(result["failed"] > 0 and not result["correct"],
              workload + ": a wrong expected value did not raise fail_ratio")
        print("ok  %s (fail_ratio with a wrong expectation: %d/%d)"
              % (workload, result["failed"], result["attempted"]))

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(LEDGER_DIR, os.path.join(bare, "ledger"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = ledger("uniform_pairwise", 7, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py in a directory without the sources did not fail cleanly")
    print("ok  fails without a result when the sources are missing")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
