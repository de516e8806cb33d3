#!/usr/bin/env bash
# Tier-1 gate for the dHPF reproduction. Run from the repository root:
#
#     scripts/ci.sh
#
# Stages:
#   1. rustfmt      — first-party crates must be formatted (vendor/ is
#                     exempt: vendored dependencies keep upstream style)
#   2. clippy       — zero warnings across the whole workspace
#   3. build        — release build of every crate and binary
#   4. test         — the full test suite, including the comm-coverage
#                     verifier golden/mutation tests (crates/analysis)
#   4a. benchmark   — the repo benchmark harness (benchmark/) still
#                     builds against the crates' public API: its own
#                     tests plus one `run --all --quick` pass (~20 s)
#   5. dhpf-lint    — the lint/verify binary over examples/hpf/:
#                     jacobi.f must verify clean; the three seeded
#                     examples must each produce their expected finding
#   6. observability — trace/metrics/decision-log schema validation
#   7. rank-failure  — panic-propagation tests under a hard timeout
#                     (a regression hangs rather than fails)
#   8. overlap       — regenerate blocking-vs-overlapped virtual-time
#                     deltas, validate the dhpf-overlap-v1 schema, and
#                     diff against the checked-in results/BENCH_overlap.json
#   8a. aggregation  — per-peer message aggregation acceptance: the
#                     tests/aggregation.rs invariants under a hard
#                     timeout, offline dhpf-agg-v1 schema + staleness
#                     validation against results/BENCH_aggregation.json,
#                     and the protocol verifier over aggregated and
#                     unaggregated plans at every fuzz geometry's rank
#                     count
#   8b. profile      — the cross-rank critical-path profiler on SP
#                     class S under a hard timeout: the dhpf-profile-v1
#                     document is schema-validated offline (path tiles
#                     the makespan, stall attribution >= 95%, what-if
#                     makespans bounded by the baseline) and the human
#                     report is diffed against the checked-in golden
#   9. protocol      — the static SPMD protocol verifier over
#                     examples/hpf/ and the NAS SP/BT goldens, under a
#                     hard timeout and a 2x wall-time regression gate
#                     against results/protocol_baseline.txt
#  10. fuzz smoke    — a pinned-seed generative differential campaign
#                     (50 random HPF programs x 3 processor geometries x
#                     the whole optimization-flag lattice) through the
#                     multi-oracle conformance matrix, plus one planted
#                     mutant that at least two oracles must catch; the
#                     dhpf-fuzz-v1 JSON report is schema-validated and a
#                     hard timeout bounds the stage
set -euo pipefail
cd "$(dirname "$0")/.."

FIRST_PARTY=(dhpf dhpf-analysis dhpf-bench dhpf-core dhpf-depend
             dhpf-fortran dhpf-fuzz dhpf-iset dhpf-nas dhpf-obs
             dhpf-profile dhpf-spmd)
FMT_ARGS=()
for p in "${FIRST_PARTY[@]}"; do FMT_ARGS+=(-p "$p"); done

echo "== fmt"
cargo fmt --check "${FMT_ARGS[@]}"

echo "== clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "== build"
cargo build --release --workspace

echo "== test"
cargo test --workspace -q

echo "== property suite (pinned seed)"
# the vendored proptest shim mixes PROPTEST_SEED into every test's RNG
# seed; pinning it makes the property battery bit-reproducible in CI
PROPTEST_SEED=20260806 cargo test -q -p dhpf-iset --test algebra_props

echo "== compile bench smoke"
# one cold+warm timing pass (class S only), the trace-overhead gate
# (asserted inside compilebench), and a schema check on the JSON
target/release/compilebench --quick --out target/BENCH_compile_smoke.json
python3 - target/BENCH_compile_smoke.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "dhpf-compilebench-v2", doc.get("schema")
assert doc["benchmarks"], "no benchmarks recorded"
for b in doc["benchmarks"]:
    for key in ("name", "class", "cold_ms", "warm_ms", "warm_speedup",
                "traced_cold_ms", "trace_overhead", "cache_hit_rate",
                "peak_interned_nodes", "phases"):
        assert key in b, f"missing {key} in {b}"
    assert b["cold_ms"] > 0 and b["warm_ms"] > 0 and b["traced_cold_ms"] > 0
    assert 0.0 <= b["cache_hit_rate"] <= 1.0
    assert b["peak_interned_nodes"] > 0
    assert isinstance(b["phases"], dict) and b["phases"], "empty phases"
    for name, ms in b["phases"].items():
        assert isinstance(ms, (int, float)) and ms >= 0.0, (name, ms)
print(f"bench smoke OK ({len(doc['benchmarks'])} benchmarks)")
EOF

echo "== repo benchmark harness (benchmark/, a package of its own)"
# the harness calls run_node_program / ExecResult / MachineConfig and the
# rest of the API listed in benchmark/README.md directly; its own tests
# and one quick pass over all five workloads make a signature change
# that breaks it fail here instead of at the next benchmark run
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --all --quick

echo "== dhpf-lint examples"
LINT=target/release/dhpf-lint
# clean example must verify with no findings at all
out=$("$LINT" --verify examples/hpf/jacobi.f)
grep -q "no findings" <<<"$out" || { echo "$out"; echo "FAIL: jacobi.f should be clean"; exit 1; }
# each seeded example must trip its lint (warnings only: exit 0)
for f in nonaffine directives conflict; do
    "$LINT" examples/hpf/$f.f > /dev/null || {
        echo "FAIL: dhpf-lint errored on examples/hpf/$f.f"; exit 1; }
done
"$LINT" examples/hpf/nonaffine.f  | grep -q "nonaffine-subscript" || { echo "FAIL: nonaffine lint"; exit 1; }
"$LINT" examples/hpf/directives.f | grep -q "directive-ignored"   || { echo "FAIL: directive lint"; exit 1; }
"$LINT" examples/hpf/conflict.f   | grep -q "cp-conflict"         || { echo "FAIL: conflict lint"; exit 1; }
# the machine-readable output must carry the frozen dhpf-lint-v1 schema
"$LINT" --format json examples/hpf/nonaffine.f | python3 -c '
import json, sys
doc = json.loads(sys.stdin.readline())
assert doc["schema"] == "dhpf-lint-v1", doc.get("schema")
assert doc["file"].endswith("nonaffine.f")
assert isinstance(doc["errors"], int)
assert any(f["code"] == "nonaffine-subscript" for f in doc["findings"])
print("lint schema OK")
'

echo "== observability (trace + metrics + decision log)"
# compile NAS SP class S with tracing, execute it on the virtual machine,
# and validate all three JSON documents offline
DHPF=target/release/dhpf
OBS_DIR=target/obs-ci
mkdir -p "$OBS_DIR"
"$DHPF" compile --nas sp --class S --nprocs 4 --run \
    --trace-out "$OBS_DIR/sp_s_trace.json" \
    --metrics-out "$OBS_DIR/sp_s_metrics.json" \
    --decisions-out "$OBS_DIR/sp_s_decisions.json"
python3 - "$OBS_DIR/sp_s_trace.json" "$OBS_DIR/sp_s_metrics.json" \
          "$OBS_DIR/sp_s_decisions.json" <<'EOF'
import json, sys

# Chrome/Perfetto trace: compile spans in pid 1, execution in pid 2
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "empty trace"
pids = {e["pid"] for e in events if "pid" in e}
assert {1, 2} <= pids, f"expected compile+exec processes, got {pids}"
for e in events:
    assert e["ph"] in ("X", "i", "M"), e
    if e["ph"] == "X":
        assert e["dur"] >= 0 and e["ts"] >= 0, e

# metrics document
m = json.load(open(sys.argv[2]))
assert m["schema"] == "dhpf-metrics-v1", m.get("schema")
assert m["counters"]["comm.pre_messages"] > 0
assert m["counters"]["driver.units"] > 0
assert m["nests"], "no per-nest metrics"
for n in m["nests"]:
    for key in ("unit", "stmt", "pipelined", "overlapped", "pre_messages",
                "pre_elems", "post_messages", "post_elems"):
        assert key in n, f"missing {key} in {n}"
assert any(n["overlapped"] for n in m["nests"]), "SP should overlap some nests"
assert sum(n["pre_messages"] for n in m["nests"]) == m["counters"]["comm.pre_messages"]

# decision log
d = json.load(open(sys.argv[3]))
assert d["schema"] == "dhpf-decisions-v1", d.get("schema")
assert d["decisions"], "no decisions recorded"
kinds = {x["kind"] for x in d["decisions"]}
assert "cp-select" in kinds, kinds
assert "comm-eliminated" in kinds and "comm-retained" in kinds, kinds
assert "comm-overlapped" in kinds, kinds
for x in d["decisions"]:
    assert "unit" in x and "line" in x, f"unattributed decision {x}"

print(f"observability OK ({len(events)} trace events, "
      f"{len(d['decisions'])} decisions)")
EOF
# the checked-in reference trace must round-trip the same validator
python3 - results/sp_s_trace.json <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events and {1, 2} <= {e["pid"] for e in events if "pid" in e}
print(f"checked-in trace OK ({len(events)} events)")
EOF

echo "== rank-failure propagation (bounded time)"
# a panicking rank must poison every mailbox and the barrier so blocked
# peers wake and Machine::run terminates; the hard timeout is the gate —
# a regression here hangs, it does not merely fail
timeout 120 cargo test -q -p dhpf-spmd propagates_without_hanging \
    || { echo "FAIL: rank-panic propagation hung or failed"; exit 1; }

echo "== halo/compute overlap (dhpf-overlap-v1)"
# regenerate the blocking-vs-overlapped virtual-time deltas and check the
# schema plus the paper's claim: overlap strictly helps wherever an
# overlappable nest exists. Everything is virtual time, so the document
# is byte-reproducible and must match the checked-in copy.
target/release/overlapbench --out target/BENCH_overlap_ci.json > /dev/null
python3 - target/BENCH_overlap_ci.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "dhpf-overlap-v1", doc.get("schema")
assert doc["benchmarks"], "no benchmarks recorded"
names = {(b["name"], b["class"]) for b in doc["benchmarks"]}
assert {("sp", "S"), ("bt", "S")} <= names, names
for b in doc["benchmarks"]:
    for key in ("name", "class", "nprocs", "overlapped_nests",
                "blocking_vt", "overlapped_vt", "delta", "speedup"):
        assert key in b, f"missing {key} in {b}"
    assert b["blocking_vt"] > 0 and b["overlapped_vt"] > 0
    assert abs(b["delta"] - (b["blocking_vt"] - b["overlapped_vt"])) < 1e-9
    if b["overlapped_nests"] > 0:
        assert b["overlapped_vt"] < b["blocking_vt"], \
            f"{b['name']} {b['class']}: overlap did not help"
    else:
        assert abs(b["delta"]) < 1e-12, b
print(f"overlap deltas OK ({len(doc['benchmarks'])} benchmarks)")
EOF
cmp target/BENCH_overlap_ci.json results/BENCH_overlap.json || {
    echo "FAIL: results/BENCH_overlap.json is stale; rerun"
    echo "      target/release/overlapbench --out results/BENCH_overlap.json"
    exit 1; }

echo "== message aggregation (dhpf-agg-v1)"
# the acceptance invariants — >=25% message cut on NAS SP/BT class S at
# 4 ranks, bitwise-identical numerics against the unaggregated run, and
# strictly improved LogGP makespan — are asserted by tests/aggregation.rs;
# the hard timeout bounds a hang rather than letting CI stall
timeout 300 cargo test -q -p dhpf --test aggregation \
    || { echo "FAIL: aggregation acceptance tests (or timeout)"; exit 1; }
# regenerate the on/off comparison; everything is virtual time, so the
# document is byte-reproducible and must match the checked-in copy
target/release/aggbench --out target/BENCH_agg_ci.json > /dev/null
python3 - target/BENCH_agg_ci.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "dhpf-agg-v1", doc.get("schema")
assert doc["nprocs"] == 4
names = {(b["name"], b["class"]) for b in doc["benchmarks"]}
assert {("sp", "S"), ("sp", "W"), ("bt", "S"), ("bt", "W")} <= names, names
for b in doc["benchmarks"]:
    for key in ("name", "class", "nprocs", "messages_saved", "messages_off",
                "messages_on", "msg_reduction_pct", "makespan_off",
                "makespan_on", "speedup"):
        assert key in b, f"missing {key} in {b}"
    assert b["messages_on"] < b["messages_off"], b
    assert b["messages_saved"] > 0, b
    assert b["makespan_on"] < b["makespan_off"], \
        f"{b['name']} {b['class']}: aggregation did not improve the makespan"
    if b["class"] == "S":
        assert b["msg_reduction_pct"] >= 25.0, b
print(f"aggregation deltas OK ({len(doc['benchmarks'])} benchmarks)")
EOF
cmp target/BENCH_agg_ci.json results/BENCH_aggregation.json || {
    echo "FAIL: results/BENCH_aggregation.json is stale; rerun"
    echo "      target/release/aggbench --out results/BENCH_aggregation.json"
    exit 1; }
# the static protocol checks must hold with packing both on and off at
# every fuzz geometry's rank count (aggregation is on by default)
for n in 1 4 6; do
    for bench in sp bt; do
        timeout 300 "$DHPF" verify-protocol --nas "$bench" --class S --nprocs "$n" > /dev/null \
            || { echo "FAIL: protocol violation in aggregated $bench S @ $n ranks"; exit 1; }
        timeout 300 "$DHPF" verify-protocol --nas "$bench" --class S --nprocs "$n" --no-aggregate > /dev/null \
            || { echo "FAIL: protocol violation in unaggregated $bench S @ $n ranks"; exit 1; }
    done
done
# the lint/verify front end must stay clean over an aggregated plan
"$LINT" --verify examples/hpf/jacobi.f | grep -q "no findings" \
    || { echo "FAIL: jacobi.f should verify clean with aggregation on"; exit 1; }

echo "== critical-path profile (dhpf profile)"
# profile SP class S with blocking exchanges (so the overlap what-if has
# something to hypothesize), validate the dhpf-profile-v1 document
# offline, and diff the human report against the checked-in golden —
# everything is virtual time, so both are byte-reproducible
PROF_DIR=target/profile-ci
mkdir -p "$PROF_DIR"
timeout 300 "$DHPF" profile --nas sp --class S --nprocs 4 --no-overlap \
    --json --out "$PROF_DIR/sp_s_profile.json" \
    || { echo "FAIL: dhpf profile errored (or timed out)"; exit 1; }
timeout 300 "$DHPF" profile --nas sp --class S --nprocs 4 --no-overlap \
    --out "$PROF_DIR/sp_s_profile.txt" \
    || { echo "FAIL: dhpf profile errored (or timed out)"; exit 1; }
python3 - "$PROF_DIR/sp_s_profile.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "dhpf-profile-v1", doc.get("schema")
assert doc["nprocs"] == 4 and doc["makespan_s"] > 0
assert len(doc["ranks"]) == 4
path = doc["critical_path"]
assert path, "empty critical path"
assert abs(path[0]["t0_s"]) < 1e-12
assert abs(path[-1]["t1_s"] - doc["makespan_s"]) < 1e-12
for a, b in zip(path, path[1:]):
    assert abs(a["t1_s"] - b["t0_s"]) < 1e-12, "critical path has a gap"
stall = doc["stall"]
assert stall["total_s"] > 0, "SP should stall somewhere"
assert stall["coverage"] >= 0.95, f"attribution {stall['coverage']:.2%} < 95%"
assert doc["nests"], "no attributed nests"
for n in doc["nests"]:
    assert n["line"] is not None, f"nest {n['id']} missing source line"
    assert n["decisions"], f"nest {n['id']} joined no compiler decision"
assert doc["whatif"], "no what-if scenarios"
for w in doc["whatif"]:
    assert w["makespan_s"] <= doc["makespan_s"] * (1 + 1e-9), w
assert any(w["scenario"] == "overlap" for w in doc["whatif"])
print(f"profile OK ({len(path)} path segment(s), {len(doc['nests'])} nest(s), "
      f"{stall['coverage']:.0%} stall attributed, {len(doc['whatif'])} what-if(s))")
EOF
diff -u tests/golden/sp_s_profile.txt "$PROF_DIR/sp_s_profile.txt" || {
    echo "FAIL: tests/golden/sp_s_profile.txt is stale; regenerate with"
    echo "      $DHPF profile --nas sp --class S --nprocs 4 --no-overlap --out tests/golden/sp_s_profile.txt"
    exit 1; }

echo "== protocol verifier (static SPMD protocol checks)"
# one rank-symbolic pass proves matching, congruence, wait coverage and
# deadlock-freedom for every rank — any violation fails CI. The hard
# timeout bounds a hung verifier; the recorded baseline gates wall-time
# regressions (>2x fails).
PROTO_T0=$(python3 -c 'import time; print(time.time())')
# jacobi.f is the one example with a full processor grid; the seeded
# lint fixtures have no node program for the verifier to check
timeout 120 "$DHPF" verify-protocol examples/hpf/jacobi.f > /dev/null \
    || { echo "FAIL: protocol violation (or timeout) in examples/hpf/jacobi.f"; exit 1; }
for spec in "sp S" "bt S" "sp W" "bt W"; do
    set -- $spec
    timeout 300 "$DHPF" verify-protocol --nas "$1" --class "$2" --nprocs 4 > /dev/null \
        || { echo "FAIL: protocol violation (or timeout) in NAS $1 class $2"; exit 1; }
done
PROTO_T1=$(python3 -c 'import time; print(time.time())')
python3 - "$PROTO_T0" "$PROTO_T1" results/protocol_baseline.txt <<'EOF'
import sys
t0, t1 = float(sys.argv[1]), float(sys.argv[2])
base = float(open(sys.argv[3]).read().strip())
elapsed = t1 - t0
assert elapsed <= 2.0 * base, \
    f"protocol verifier took {elapsed:.1f}s, more than 2x the {base:.1f}s baseline"
print(f"protocol verifier OK ({elapsed:.1f}s, baseline {base:.1f}s)")
EOF

echo "== fuzz smoke (pinned-seed differential campaign)"
# the seed is pinned so the 50-program corpus is identical on every run;
# the generator is geometry-aware, so the same seed with different
# --geometries produces different (still deterministic) programs. The
# hard timeout is the wall-time gate: a pathological slowdown in the
# pipeline hangs the stage rather than silently doubling CI time.
timeout 240 "$DHPF" fuzz --seed 20260806 --count 50 --geometries 1,4,2x3 \
    --mutate 1 --out target/FUZZ_smoke.json \
    || { echo "FAIL: fuzz smoke campaign not clean (or timed out)"; exit 1; }
python3 - target/FUZZ_smoke.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "dhpf-fuzz-v1", doc.get("schema")
for key in ("seed", "count", "geometries", "programs", "compiles", "runs",
            "messages", "oracles", "failures", "mutation", "wall_ms", "clean"):
    assert key in doc, f"missing {key}"
assert doc["seed"] == 20260806 and doc["count"] == 50
assert doc["geometries"] == ["1", "4", "2x3"]
assert doc["programs"] == 50, doc["programs"]
assert doc["compiles"] > 0 and doc["runs"] > 0 and doc["messages"] > 0
for name, o in doc["oracles"].items():
    assert set(o) == {"checked", "failed"}, (name, o)
    assert o["checked"] > 0 or name == "compile-declined", f"oracle {name} never ran"
# every oracle in the matrix must actually have fired
for name in ("generate", "roundtrip", "serial", "compile", "coverage",
             "protocol-static", "protocol-dynamic", "numeric", "fingerprint"):
    assert name in doc["oracles"], f"oracle {name} missing from report"
assert doc["failures"] == [], doc["failures"]
m = doc["mutation"]
assert m is not None and m["planted"] >= 1, m
assert m["caught_twice"] == m["planted"], m
assert doc["clean"] is True
print(f"fuzz smoke OK ({doc['programs']} programs, {doc['compiles']} compiles, "
      f"{doc['runs']} runs, {doc['wall_ms']} ms)")
EOF

echo "CI OK"
