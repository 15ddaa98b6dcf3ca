#!/usr/bin/env sh
# Local CI gate: build, full test suite, and lint-clean clippy.
# Run from the repository root before sending a change.
set -eu

cargo fmt --all --check
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# Documentation gate: rustdoc must build warning-free (missing-docs are
# hard errors in core/tcg/host-arm/host-tso via #![deny(missing_docs)]).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Cross-backend gate (docs/BACKENDS.md): the MiniTSO backend's unit
# suite (lowering, dialect verifier, mutant kill), then the standing
# Arm-vs-TSO differential — kernels bit-identical at VerifyLevel::Full,
# litmus containment, seeded fuzz matrix, engine-level Pass-3 mutant
# kill, and the BACKENDS.md completeness test in both directions.
cargo test -q --release -p risotto-host-tso
cargo test -q --release --test backends

# Verifier gate: the translation-validator suite (mutation tests over
# the 16-kernel corpus + litmus at VerifyLevel::Full) in bounded smoke
# mode. Any clean-corpus violation or surviving mutant fails CI.
RISOTTO_VERIFY_SMOKE=1 cargo test -q --release --test verifier

# Determinism gate: the same IR must lower to bit-identical host bytes
# and allocation statistics twice, across the kernel/litmus/fuzz corpora
# and stitched tier-2 superblocks, under both RMW styles.
RISOTTO_VERIFY_SMOKE=1 cargo test -q --release --test determinism

# End-to-end pipeline bench in smoke mode: runs the 16-kernel suite at a
# CI-sized scale and emits BENCH_pipeline.json (per-kernel cycles +
# TB-chain hit rate + registry snapshot + tier-2 superblock delta).
cargo bench -q -p risotto-bench --bench pipeline -- smoke
test -s BENCH_pipeline.json

# Schema assert: every kernel entry must carry the tier-2 "superblock"
# key with its cycle delta and cross-boundary fence-merge count, the
# cross-backend "tso" key with its cycles and MFENCE count, the tier-0
# "tier0" key with its template counters, and the whole-program
# "analysis" key (docs/ANALYSIS.md) with its relaxed-fence count and
# cycle delta — the delta must never be negative (analysis-on can only
# remove ordering cost) and at least one kernel must actually relax
# fences, or the analysis subsystem went dead. The top-level
# "cold_start" object must show tier-0 template translation strictly
# cheaper per guest instruction than the tier-1 IR pipeline (the
# simulator's only wall-time gate; the measured gap is ≥ 5×, so a
# strict < holds with wide margin on any machine).
if command -v jq > /dev/null 2>&1; then
    jq -e '(.kernels | length) == 16
           and ([.kernels[] | select(.superblock
                 and (.superblock | has("cycle_delta"))
                 and (.superblock | has("fences_merged_cross"))
                 and .tso
                 and (.tso | has("cycles"))
                 and (.tso | has("mfences"))
                 and .tier0
                 and (.tier0 | has("cycles"))
                 and (.tier0.blocks > 0)
                 and (.tier0 | has("ns_per_insn"))
                 and .analysis
                 and (.analysis | has("relaxed"))
                 and (.analysis.cycle_delta_vs_off >= 0))] | length) == 16
           and ([.kernels[] | select(.analysis.relaxed > 0)] | length) >= 1
           and (.cold_start.tier0_insns > 0)
           and (.cold_start.tier0_ns_per_insn < .cold_start.tier1_ns_per_insn)' \
        BENCH_pipeline.json > /dev/null
else
    python3 - BENCH_pipeline.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert len(doc["kernels"]) == 16, len(doc["kernels"])
for k in doc["kernels"]:
    sb = k["superblock"]
    assert "cycle_delta" in sb and "fences_merged_cross" in sb, k["kernel"]
    tso = k["tso"]
    assert "cycles" in tso and "mfences" in tso, k["kernel"]
    t0 = k["tier0"]
    assert "cycles" in t0 and "ns_per_insn" in t0, k["kernel"]
    assert t0["blocks"] > 0, k["kernel"]
    an = k["analysis"]
    assert "relaxed" in an, k["kernel"]
    assert an["cycle_delta_vs_off"] >= 0, k["kernel"]
assert any(k["analysis"]["relaxed"] > 0 for k in doc["kernels"]), \
    "no kernel relaxed any fences"
cold = doc["cold_start"]
assert cold["tier0_insns"] > 0, cold
assert cold["tier0_ns_per_insn"] < cold["tier1_ns_per_insn"], cold
EOF
fi

# Codegen-performance gate: per-kernel simulated cycles must not exceed
# the checked-in ceilings (BENCH_baseline.json) on either tier. The
# simulator is deterministic, so any increase is a genuine codegen or
# engine regression, not noise.
python3 - BENCH_pipeline.json BENCH_baseline.json <<'EOF'
import json, sys
new = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))["kernels"]
bad = []
for k in new["kernels"]:
    b = base[k["kernel"]]
    if k["cycles"] > b["cycles"]:
        bad.append(f'{k["kernel"]}: tier-1 {k["cycles"]} > baseline {b["cycles"]}')
    if k["superblock"]["tier2_cycles"] > b["tier2_cycles"]:
        bad.append(
            f'{k["kernel"]}: tier-2 {k["superblock"]["tier2_cycles"]}'
            f' > baseline {b["tier2_cycles"]}'
        )
assert not bad, "cycle regression vs BENCH_baseline.json:\n  " + "\n  ".join(bad)
EOF

# Static-analysis gate (docs/ANALYSIS.md): the analyzer over the
# 16-kernel and litmus corpora must report zero lint findings (the
# corpora are known-clean; any finding is a false positive) and at
# least one kernel with relaxable accesses.
analysis_json="$(mktemp /tmp/analysis.XXXXXX.json)"
cargo run -q --release -p risotto-bench --bin analyze -- \
    --smoke --json "$analysis_json" > /dev/null
if command -v jq > /dev/null 2>&1; then
    jq -e '(.version == 1)
           and (.kernels | length) == 16
           and ([.kernels[], .litmus[] | select((.lints | length) > 0)]
                | length) == 0
           and ([.kernels[] | select(.relaxable > 0)] | length) >= 1' \
        "$analysis_json" > /dev/null
else
    python3 - "$analysis_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == 1
assert len(doc["kernels"]) == 16, len(doc["kernels"])
for img in doc["kernels"] + doc["litmus"]:
    assert img["lints"] == [], f'{img["name"]}: false-positive lints {img["lints"]}'
assert any(k["relaxable"] > 0 for k in doc["kernels"]), "no relaxable kernel accesses"
EOF
fi
rm -f "$analysis_json"

# Metrics-artifact smoke: fig12 at CI scale must emit a parseable,
# versioned JSON artifact with one workload entry per kernel.
metrics_json="$(mktemp /tmp/fig12_metrics.XXXXXX.json)"
cargo run -q --release -p risotto-bench --bin fig12_parsec_phoenix -- \
    --smoke --metrics-json "$metrics_json" > /dev/null
if command -v jq > /dev/null 2>&1; then
    jq -e '.version == 1 and (.workloads | length) == 16
           and ([.workloads[]
                 | select(.metrics.metrics["verify.violations"].value == 0
                          and .metrics.metrics["verify.checked"].value > 0)]
                | length) == 16' "$metrics_json" > /dev/null
else
    python3 - "$metrics_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == 1, doc["version"]
assert len(doc["workloads"]) == 16, len(doc["workloads"])
for w in doc["workloads"]:
    assert w["metrics"]["version"] == 1
    m = w["metrics"]["metrics"]
    # The harness runs at VerifyLevel::Install: every install must have
    # been read back, with zero violations.
    assert m["verify.violations"]["value"] == 0, w["name"]
    assert m["verify.checked"]["value"] > 0, w["name"]
EOF
fi
rm -f "$metrics_json"

# Differential-fuzz gate (docs/FUZZING.md): a seeded smoke run across
# the full oracle matrix. The binary exits nonzero on any divergence,
# validator violation, or fault-contract breach, and asserts the tier-2
# promotion-rate floor; the corpus replay itself runs inside
# `cargo test --test fuzz` above. Fixed seed: failures are replayable.
fuzz_json="$(mktemp /tmp/fuzz_metrics.XXXXXX.json)"
cargo run -q --release -p risotto-bench --bin fuzz -- \
    --smoke --seed 0xC1 --metrics-json "$fuzz_json" > /dev/null
if command -v jq > /dev/null 2>&1; then
    jq -e '.version == 1
           and (.workloads[0].metrics.metrics["fuzz.divergences"].value == 0)
           and (.workloads[0].metrics.metrics["fuzz.programs"].value >= 300)
           and (.workloads[0].metrics.metrics["fuzz.fault_runs"].value > 0)
           and (.workloads[0].metrics.metrics["fuzz.configs_run"].value
                == 7 * .workloads[0].metrics.metrics["fuzz.programs"].value)' \
        "$fuzz_json" > /dev/null
else
    python3 - "$fuzz_json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
m = doc["workloads"][0]["metrics"]["metrics"]
assert m["fuzz.divergences"]["value"] == 0, m["fuzz.divergences"]
assert m["fuzz.programs"]["value"] >= 300, m["fuzz.programs"]
assert m["fuzz.fault_runs"]["value"] > 0, m["fuzz.fault_runs"]
# The full oracle matrix is interp + tier0 + tier1 + tier1-noopt +
# tier2 + tier1-tso + tier1-analysis: exactly seven configurations
# per program.
assert m["fuzz.configs_run"]["value"] == 7 * m["fuzz.programs"]["value"], m
EOF
fi
rm -f "$fuzz_json"

# Repository-benchmark gate (perfbench/README.md): every workload runs
# briefly and each program's result must match its independent
# reference — `Interp` checksums (kernels-hot), `run_interp`
# (fuzz-cold) and the CAS closed form (cas-ladder) — so the simulator's
# fast paths are checked end to end. The `--trace 1` runs of the two
# translation-heavy workloads also check that a traced run's counters
# equal an untraced run's and replay every translated block through
# verifier Passes 1-3: the contract of the staged translate pipeline.
# The last line is the JSON summary.
for run in "kernels-hot 0" "fuzz-cold 0" "cas-ladder 0" "fuzz-cold 1" "cas-ladder 1"; do
    set -- $run
    summary="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 2 --trace "$2" | tail -n 1)"
    if command -v jq > /dev/null 2>&1; then
        printf '%s\n' "$summary" | jq -e '.correct == true and .failed == 0' > /dev/null
    else
        printf '%s\n' "$summary" | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["correct"] is True and doc["failed"] == 0, doc'
    fi
done

# Remaining figure binaries, CI-sized: every figure in the paper's
# evaluation gets exercised, not just fig12.
cargo run -q --release -p risotto-bench --bin fig13_openssl_sqlite -- --smoke > /dev/null
cargo run -q --release -p risotto-bench --bin fig14_mathlib -- --smoke > /dev/null
cargo run -q --release -p risotto-bench --bin fig15_cas -- --smoke > /dev/null

echo "ci: all green"
