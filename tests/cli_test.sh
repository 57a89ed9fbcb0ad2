#!/bin/sh
# End-to-end smoke test of the fairaudit CLI. First argument: path to the
# fairaudit binary. Exercises every subcommand on a small generated
# population and checks key output fragments.
set -eu

FAIRAUDIT="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# generate (uniform + realistic).
"$FAIRAUDIT" generate --workers 400 --seed 3 --out "$WORKDIR/w.csv" \
  | grep -q "wrote 400 uniform workers" || fail "generate uniform"
"$FAIRAUDIT" generate --workers 200 --seed 3 --realistic --bias 0.5 \
  --out "$WORKDIR/r.csv" \
  | grep -q "wrote 200 realistic workers" || fail "generate realistic"

# profile with the association screen.
"$FAIRAUDIT" profile --input "$WORKDIR/w.csv" --function alpha:0.5 \
  > "$WORKDIR/profile.out"
grep -q "Gender" "$WORKDIR/profile.out" || fail "profile lists Gender"
grep -q "eta^2" "$WORKDIR/profile.out" || fail "profile association screen"

# audit + save partitioning; f6 must recover Gender with ~0.8 unfairness.
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f6 \
  --algorithm balanced --save-partitioning "$WORKDIR/part.txt" \
  > "$WORKDIR/audit.out"
grep -q "attributes used: Gender" "$WORKDIR/audit.out" || fail "audit attrs"
grep -q "unfairness" "$WORKDIR/audit.out" || fail "audit unfairness line"
grep -q "partition: Gender=0" "$WORKDIR/part.txt" || fail "saved spec"

# audit --json is a JSON object.
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function alpha:0.5 --json \
  | grep -q '^{"algorithm"' || fail "audit json"

# audit --trace prints the span tree on stderr, leaving stdout (the report,
# or --json) untouched.
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f6 --json --trace \
  > "$WORKDIR/trace.out" 2> "$WORKDIR/trace.err"
grep -q '^{"algorithm"' "$WORKDIR/trace.out" || fail "trace kept stdout clean"
grep -q "^trace " "$WORKDIR/trace.err" || fail "trace header line"
grep -q -- "- audit " "$WORKDIR/trace.err" || fail "trace root span"
grep -q -- "  - search " "$WORKDIR/trace.err" || fail "trace child span"
grep -q "totals:" "$WORKDIR/trace.err" || fail "trace totals"

# apply the saved partitioning.
"$FAIRAUDIT" apply --input "$WORKDIR/w.csv" --spec "$WORKDIR/part.txt" \
  --function f6 | grep -q "applied 2 partitions" || fail "apply"

# rank prints the requested number of rows.
RANKED=$("$FAIRAUDIT" rank --input "$WORKDIR/w.csv" --function alpha:0.7 \
  --top 5 | wc -l)
[ "$RANKED" -eq 7 ] || fail "rank row count (got $RANKED)"  # header+rule+5.

# exposure reports every protected attribute.
"$FAIRAUDIT" exposure --input "$WORKDIR/w.csv" --function f6 \
  > "$WORKDIR/exposure.out"
grep -q "exposure gap" "$WORKDIR/exposure.out" || fail "exposure gap"
grep -q "Ethnicity" "$WORKDIR/exposure.out" || fail "exposure attributes"

# repair reports before/after.
"$FAIRAUDIT" repair --input "$WORKDIR/w.csv" --function f6 \
  --strategy quantile --out "$WORKDIR/repaired.csv" > "$WORKDIR/repair.out"
grep -q "repair=quantile" "$WORKDIR/repair.out" || fail "repair summary"
head -1 "$WORKDIR/repaired.csv" | grep -q "repaired_score" \
  || fail "repair csv header"

# significance: f6 must be significant at the minimum p-value.
"$FAIRAUDIT" significance --input "$WORKDIR/w.csv" --function f6 \
  --iterations 19 | grep -q "p-value 0.05" || fail "significance p-value"

# catalog audit covers the default five categories.
CATEGORIES=$("$FAIRAUDIT" catalog --input "$WORKDIR/w.csv" \
  --algorithm all-attributes | grep -c "labor\|writing\|entry\|development\|support")
[ "$CATEGORIES" -eq 5 ] || fail "catalog categories (got $CATEGORIES)"

# list names every algorithm.
"$FAIRAUDIT" list | grep -q "merge" || fail "list algorithms"

# execution limits: a 1 ms deadline must still exit 0 with a truncated
# best-so-far result (graceful degradation, never a hang or hard failure).
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f6 \
  --algorithm balanced --timeout-ms 1 --json > "$WORKDIR/deadline.json" \
  || fail "audit under tiny deadline must exit 0"
grep -q '"truncated":' "$WORKDIR/deadline.json" \
  || fail "audit json reports truncation field"

# a tiny node budget on the exhaustive search (space >> 100 partitionings)
# must truncate with the node-budget reason, not error out.
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f6 \
  --algorithm exhaustive --max-nodes 100 --json > "$WORKDIR/budget.json" \
  || fail "audit under node budget must exit 0"
grep -q '"truncated":true' "$WORKDIR/budget.json" \
  || fail "node budget marks result truncated"
grep -q '"exhaustion_reason":"node-budget"' "$WORKDIR/budget.json" \
  || fail "node budget reason reported"

# the truncation note also shows up in the human-readable report.
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f6 \
  --algorithm exhaustive --max-nodes 100 > "$WORKDIR/budget.out" \
  || fail "text audit under node budget must exit 0"
grep -q "truncated" "$WORKDIR/budget.out" || fail "text report truncation note"

# limits flags must be rejected when malformed.
if "$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f6 \
  --timeout-ms -5 > /dev/null 2>&1; then
  fail "negative timeout should fail"
fi
if "$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f6 \
  --max-memory-mb -1 > /dev/null 2>&1; then
  fail "negative memory budget should fail"
fi
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f6 --algorithm balanced \
  --bins 4294967297 2>&1 | grep -q -- "--bins must be in" \
  || fail "--bins beyond int must be rejected by name, not wrapped to 1 bin"

"$FAIRAUDIT" apply --input "$WORKDIR/w.csv" --spec "$WORKDIR/part.txt" \
  --function f6 --bins 4294967297 2>&1 | grep -q -- "--bins must be in" \
  || fail "apply --bins beyond int must be rejected by name"
"$FAIRAUDIT" significance --input "$WORKDIR/w.csv" --function f6 \
  --iterations -1 2>&1 | grep -q -- "--iterations must be in" \
  || fail "negative --iterations must be rejected, not run until killed"
"$FAIRAUDIT" generate --workers -5 --out "$WORKDIR/neg.csv" 2>&1 \
  | grep -q -- "--workers must be in" \
  || fail "negative --workers must be rejected, not abort"

# audit --aggregate runs the requested algorithm on the cells, fails on an
# unknown one, and truncates under a node budget like the row audit.
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f7 --aggregate \
  --algorithm unbalanced --json | grep -q '"algorithm":"unbalanced"' \
  || fail "aggregate audit runs unbalanced"
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f7 --aggregate \
  --algorithm bogus 2>&1 | grep -q "NotFound" \
  || fail "aggregate audit rejects an unknown algorithm"
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function alpha:0.5 --aggregate \
  --max-nodes 1 --json > "$WORKDIR/aggregate_budget.json" \
  || fail "aggregate audit under node budget must exit 0"
grep -q '"truncated":true,"exhaustion_reason":"node-budget"' \
  "$WORKDIR/aggregate_budget.json" || fail "aggregate node budget truncates"

# suite cells run the audit flags: --beam-width reaches every beam cell, so
# its f7 cell visits the nodes of the direct beam audit at that width.
for WIDTH in 1 8; do
  SUITE_NODES=$("$FAIRAUDIT" suite --input "$WORKDIR/w.csv" --functions f7 \
    --algorithms beam --beam-width "$WIDTH" --json \
    | grep -o '"nodes_visited":[0-9]*' | head -1)
  AUDIT_NODES=$("$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f7 \
    --algorithm beam --beam-width "$WIDTH" --json \
    | grep -o '"nodes_visited":[0-9]*')
  [ -n "$SUITE_NODES" ] && [ "$SUITE_NODES" = "$AUDIT_NODES" ] \
    || fail "suite beam cell at width $WIDTH ($SUITE_NODES vs $AUDIT_NODES)"
done

# suite takes --algorithms; the single-audit --algorithm is an unknown flag.
if "$FAIRAUDIT" suite --input "$WORKDIR/w.csv" --algorithm merge \
  > "$WORKDIR/suite_algorithm.out" 2>&1; then
  fail "suite --algorithm should be rejected"
fi
grep -q "unknown flag --algorithm" "$WORKDIR/suite_algorithm.out" \
  || fail "suite --algorithm names the flag"

# no command: usage on stderr lists every command, exit 2.
STATUS=0
"$FAIRAUDIT" > /dev/null 2> "$WORKDIR/usage.err" || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "no command exits 2 (got $STATUS)"
grep -q "catalog" "$WORKDIR/usage.err" || fail "usage lists catalog"
STATUS=0
"$FAIRAUDIT" nosuch > /dev/null 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || fail "unknown command exits 2 (got $STATUS)"

# a misspelled flag must fail loudly, not silently run an unbounded audit.
if "$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f6 \
  --max-node 100 > /dev/null 2>&1; then
  fail "unknown flag --max-node should be rejected"
fi
"$FAIRAUDIT" audit --input "$WORKDIR/w.csv" --function f6 --max-node 100 2>&1 \
  | grep -q "unknown flag --max-node" || fail "unknown flag named in error"
if "$FAIRAUDIT" suite --input "$WORKDIR/w.csv" --suite-thread 2 \
  > /dev/null 2>&1; then
  fail "unknown flag --suite-thread should be rejected"
fi

# error paths: bad input file and unknown subcommand.
if "$FAIRAUDIT" audit --input /nonexistent.csv > /dev/null 2>&1; then
  fail "missing input should fail"
fi
if "$FAIRAUDIT" frobnicate > /dev/null 2>&1; then
  fail "unknown subcommand should fail"
fi

echo "cli_test: all subcommands OK"
