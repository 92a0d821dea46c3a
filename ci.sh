#!/usr/bin/env bash
# Full verification pipeline: configure, build, test, run every
# reproduction benchmark and all examples, then cross-check the
# generated artifacts with ecohmem-lint. Exits non-zero on any failure.
#
# Usage:
#   ./ci.sh             # regular build + tests + benches + examples + lint
#   ./ci.sh --sanitize  # additionally run tier-1 tests under ASan/UBSan and
#                       # the concurrency stress tests under TSan
#   ./ci.sh --static    # additionally gate on static analysis: the
#                       # ecohmem-srclint source lint, the clang-tsa
#                       # thread-safety build, and clang-tidy (the clang
#                       # steps skip loudly when clang is not installed)
set -euo pipefail
cd "$(dirname "$0")"

sanitize=0
static=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) sanitize=1 ;;
    --static) static=1 ;;
    *) echo "usage: $0 [--sanitize] [--static]" >&2; exit 2 ;;
  esac
done

cmake --preset default
cmake --build --preset default
ctest --preset default -j"$(nproc)"

# Concurrency-suite filter, shared by the lockdep re-run below and the
# TSan pass: every suite that exercises locks or threads — the serve
# daemon (ServeConcurrency*), the worker pool (WorkerPoolConcurrency),
# salvage-mode parallel block decode, autotune's std::async candidate
# fan-out, and the lockdep validator's own tests. FlexMalloc and the
# online engine are single-threaded and need no entry. New concurrent
# suites must match this regex (name them *Concurrency* or extend the
# list).
concurrency_suites='Concurrency|Salvage|Lockdep|Autotune'

# Runtime leaf-rule validation (docs/threading.md): re-run the
# concurrency suites with the lockdep validator armed. Taking any lock
# while holding one aborts the offending test.
echo "== concurrency suites with ECOHMEM_LOCKDEP=1 =="
ECOHMEM_LOCKDEP=1 ctest --preset default -j"$(nproc)" -R "$concurrency_suites"

# The repository benchmark's own output checks: every workload runs
# tiny, traced and untraced, and fails on a report hash that changes
# across ops, an incremental fold whose site count differs from
# analyze()'s, a served report that differs from the offline one, or a
# metric name or unit that BENCHMARK.json does not declare.
echo "== perfbench smoke =="
python3 perfbench/run.py --smoke

if [ "$static" -eq 1 ]; then
  # Source-level determinism/concurrency contracts: gates unconditionally
  # (no external toolchain needed). Zero findings required.
  echo "== ecohmem-srclint =="
  build/tools/ecohmem-srclint --root .

  # Clang thread-safety analysis over the annotations. Requires clang++
  # (>= 16: std::source_location needs __builtin_source_location against
  # libstdc++); the GCC-only toolchain image skips this loudly instead of
  # failing, and the annotations still gate wherever clang exists.
  if command -v clang++ >/dev/null 2>&1; then
    echo "== clang -Wthread-safety (as errors) =="
    cmake --preset clang-tsa
    cmake --build --preset clang-tsa
  else
    echo "note: clang++ not found; skipping the clang-tsa thread-safety build" >&2
  fi

  # clang-tidy over the layers with a tidy config, driven off the
  # compile database the default preset exports.
  if command -v clang-tidy >/dev/null 2>&1 && command -v run-clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (gating) =="
    run-clang-tidy -p build -quiet "src/ecohmem/(advisor|analyzer|check)/.*\.cpp$"
  else
    echo "note: clang-tidy not found; skipping the clang-tidy pass" >&2
  fi

  # The serve headers are a compatibility surface (third-party clients
  # code against docs/serving.md + these declarations), so an
  # undocumented public entity under src/ecohmem/serve/ fails the docs
  # build. Doxygen is optional in the image; skip loudly without it.
  if command -v doxygen >/dev/null 2>&1; then
    echo "== doxygen (serve headers must be warning-clean) =="
    cmake --build build --target docs 2>/tmp/ecohmem_ci_doxygen_err.txt || {
      cat /tmp/ecohmem_ci_doxygen_err.txt >&2; exit 1
    }
    if grep "ecohmem/serve/" /tmp/ecohmem_ci_doxygen_err.txt; then
      echo "doxygen warnings in src/ecohmem/serve/ headers" >&2; exit 1
    fi
  else
    echo "note: doxygen not found; skipping the serve docs warning gate" >&2
  fi
fi

if [ "$sanitize" -eq 1 ]; then
  echo "== tier-1 tests under ASan/UBSan =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan
  ctest --preset asan-ubsan -j"$(nproc)"

  # The concurrency suites only prove their locking under
  # ThreadSanitizer; ASan cannot see data races (docs/threading.md).
  # The filter is the shared $concurrency_suites list above.
  echo "== concurrency stress tests under TSan =="
  cmake --preset tsan
  cmake --build --preset tsan
  ctest --preset tsan -j"$(nproc)" -R "$concurrency_suites"
fi

for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] && "$b"
done

build/examples/quickstart
build/examples/custom_tiers
build/examples/trace_inspector minife /tmp/ecohmem_ci.trc
build/examples/placement_explorer lulesh 12
build/examples/host_interposition

build/tools/ecohmem-profile --app hpcg --out /tmp/ecohmem_ci2.trc --compact
build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci2.trc --out /tmp/ecohmem_ci_report.txt \
  --config configs/advisor_dram_pmem.ini \
  --bandwidth-aware --dump-sites --csv /tmp/ecohmem_ci_sites.csv

# Cross-artifact invariant check: trace vs site CSV vs placement report vs
# tier config must tell one consistent story. Error-severity findings fail CI.
build/tools/ecohmem-lint \
  --trace /tmp/ecohmem_ci2.trc \
  --sites /tmp/ecohmem_ci_sites.csv \
  --report /tmp/ecohmem_ci_report.txt \
  --config configs/advisor_dram_pmem.ini

build/tools/ecohmem-run --app hpcg --report /tmp/ecohmem_ci_report.txt
# Replay is single-threaded; a leftover --threads (or any other
# undeclared flag) must be a usage error, not silently ignored.
set +e
build/tools/ecohmem-run --app hpcg --report /tmp/ecohmem_ci_report.txt --threads 4 \
  2>/tmp/ecohmem_ci_unknown_flag.txt
unknown_rc=$?
set -e
if [ "$unknown_rc" -ne 2 ]; then
  echo "ecohmem-run --threads 4 exited $unknown_rc, want 2" >&2; exit 1
fi
grep -q "unknown flag --threads" /tmp/ecohmem_ci_unknown_flag.txt

# Online placement smoke: the shipped policy config must lint clean and
# must actually migrate on the phase-shifting workload.
build/tools/ecohmem-lint --online-policy configs/online_policy.ini
build/tools/ecohmem-profile --app phase-shift --out /tmp/ecohmem_ci3.trc --compact
build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci3.trc --out /tmp/ecohmem_ci_report3.txt
online_out=$(build/tools/ecohmem-run --app phase-shift --report /tmp/ecohmem_ci_report3.txt \
  --online configs/online_policy.ini --migration-log /tmp/ecohmem_ci_mig1.csv)
echo "$online_out"
if ! echo "$online_out" | grep -E 'online +: [1-9][0-9]* migrations' >/dev/null; then
  echo "online run performed no migrations on phase-shift" >&2; exit 1
fi
if ! echo "$online_out" | grep -E '\([1-9][0-9]* partial' >/dev/null; then
  echo "online run performed no partial (page-granular) moves on phase-shift" >&2; exit 1
fi
# The migration log must satisfy the conservation identities against the
# policy it was produced under.
build/tools/ecohmem-lint --migration-log /tmp/ecohmem_ci_mig1.csv \
  --online-policy configs/online_policy.ini

# Guidance seeding: --from-report warm-starts the policy from the advisor
# report; two seeded invocations must agree byte-for-byte (the replay
# line reports host wall-clock time, not simulated time).
seeded_a=$(build/tools/ecohmem-run --app phase-shift --report /tmp/ecohmem_ci_report3.txt \
  --online configs/online_policy.ini --from-report /tmp/ecohmem_ci_report3.txt)
seeded_b=$(build/tools/ecohmem-run --app phase-shift --report /tmp/ecohmem_ci_report3.txt \
  --online configs/online_policy.ini --from-report /tmp/ecohmem_ci_report3.txt)
if [ "$(echo "$seeded_a" | grep -v 'replay')" != "$(echo "$seeded_b" | grep -v 'replay')" ]; then
  echo "seeded online runs are not deterministic" >&2; exit 1
fi
if ! echo "$seeded_a" | grep -E 'guidance +: [1-9][0-9]* of' >/dev/null; then
  echo "--from-report matched no sites" >&2; exit 1
fi

# Residual invalid combinations must die with a one-line usage error (2).
set +e
build/tools/ecohmem-run --app hpcg --report /tmp/ecohmem_ci_report.txt \
  --from-report /tmp/ecohmem_ci_report.txt
[ $? -eq 2 ] || { echo "--from-report without --online did not exit 2" >&2; exit 1; }
build/tools/ecohmem-run --app hpcg --report /tmp/ecohmem_ci_report.txt \
  --migration-log /tmp/ecohmem_ci_mig_bad.csv
[ $? -eq 2 ] || { echo "--migration-log without --online did not exit 2" >&2; exit 1; }
set -e

# The online bench (run in the bench loop above) must have recorded its
# acceptance verdict; the binary itself exits nonzero on a violated bound.
for key in '"bench": "online_placement"' '"hysteresis"' '"all_pass": true' \
           '"static_s"' '"online_s"' '"seeded_s"' \
           '"kernel_tiering_s"' '"migrations"' '"migrations_partial"'; do
  if ! grep -F "$key" BENCH_online_placement.json >/dev/null; then
    echo "BENCH_online_placement.json missing $key" >&2; exit 1
  fi
done

# v3 indexed trace path: profile in v3, lint the footer index
# (trace-v3-index), advise from it, and stream a timeline from the file.
build/tools/ecohmem-profile --app lulesh --out /tmp/ecohmem_ci_v3.trc \
  --format v3 --block-events 4096
build/tools/ecohmem-lint --trace /tmp/ecohmem_ci_v3.trc
build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci_v3.trc \
  --out /tmp/ecohmem_ci_v3_serial.txt --csv /tmp/ecohmem_ci_v3_sites.csv
build/tools/ecohmem-timeline --trace /tmp/ecohmem_ci_v3.trc \
  --out /tmp/ecohmem_ci_v3.csv --bin-ms 50

# The profiler emits its trace in time order without a final sort
# (docs/model.md §5). Every registry app, and lulesh at other sampling
# rates and without store samples, must pass trace-monotonic-time.
for app in cloverleaf3d hpcg lammps large-hot lulesh minife minimd openfoam phase-shift; do
  build/tools/ecohmem-profile --app "$app" --out /tmp/ecohmem_ci_order.trc --format v3 >/dev/null
  build/tools/ecohmem-lint --trace /tmp/ecohmem_ci_order.trc
done
for variant in "--rate 10" "--rate 1000" "--no-stores"; do
  build/tools/ecohmem-profile --app lulesh --out /tmp/ecohmem_ci_order.trc --format v3 \
    $variant >/dev/null
  build/tools/ecohmem-lint --trace /tmp/ecohmem_ci_order.trc
done

# Compressed v3 blocks (docs/trace_format.md): the same workload profiled
# with --compress must lint clean (trace-block-compression rule) and
# produce an advisor report byte-identical to the uncompressed v3 one —
# compression must be invisible to every consumer.
build/tools/ecohmem-profile --app lulesh --out /tmp/ecohmem_ci_v3c.trc \
  --format v3 --block-events 4096 --compress
build/tools/ecohmem-lint --trace /tmp/ecohmem_ci_v3c.trc
build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci_v3c.trc \
  --out /tmp/ecohmem_ci_v3c.txt
cmp /tmp/ecohmem_ci_v3c.txt /tmp/ecohmem_ci_v3_serial.txt
build/tools/ecohmem-timeline --trace /tmp/ecohmem_ci_v3c.trc \
  --out /tmp/ecohmem_ci_v3c.csv --bin-ms 50
cmp /tmp/ecohmem_ci_v3c.csv /tmp/ecohmem_ci_v3.csv
# One reader serves every encoding: the same workload profiled as v1 (the
# default) and as v2 (--compact) must stream to the same timeline.
build/tools/ecohmem-profile --app lulesh --out /tmp/ecohmem_ci_v1.trc
build/tools/ecohmem-profile --app lulesh --out /tmp/ecohmem_ci_v2.trc --compact
for v in v1 v2; do
  build/tools/ecohmem-timeline --trace "/tmp/ecohmem_ci_$v.trc" \
    --out "/tmp/ecohmem_ci_$v.csv" --bin-ms 50
  cmp "/tmp/ecohmem_ci_$v.csv" /tmp/ecohmem_ci_v3.csv
done
# --compress without the v3 index must exit 2 (cli_common usage error).
for bad_compress in "--compress" "--format v2 --compress" "--compact --compress"; do
  set +e
  build/tools/ecohmem-profile --app lulesh --iterations 2 \
    --out /tmp/ecohmem_ci_bad.trc $bad_compress >/dev/null 2>&1
  compress_rc=$?
  set -e
  if [ "$compress_rc" -ne 2 ]; then
    echo "ecohmem-profile $bad_compress exited $compress_rc, want 2" >&2; exit 1
  fi
done

# Corruption-fuzz smoke: damage the v3 trace and prove the fail-soft
# contract on the CLI surface (the seeded sweep itself — zero crashes,
# manifest byte conservation, parallel == serial salvage — runs as
# test_salvage in the suite above).
v3_size=$(stat -c %s /tmp/ecohmem_ci_v3.trc)
head -c $((v3_size * 3 / 5)) /tmp/ecohmem_ci_v3.trc > /tmp/ecohmem_ci_v3_damaged.trc
# Strict readers must fail loudly, naming the path and a byte offset.
if build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci_v3_damaged.trc \
    --out /tmp/ecohmem_ci_damaged.txt 2>/tmp/ecohmem_ci_strict_err.txt; then
  echo "strict advisor accepted a truncated trace" >&2; exit 1
fi
grep -q "ecohmem_ci_v3_damaged.trc" /tmp/ecohmem_ci_strict_err.txt
grep -q "offset" /tmp/ecohmem_ci_strict_err.txt
# Salvage mode recovers the decodable prefix and prints the manifest...
build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci_v3_damaged.trc \
  --out /tmp/ecohmem_ci_damaged.txt --salvage --min-coverage 0 | grep "salvage: kept"
# ...but the default coverage gate (0.9) must reject this much loss.
if build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci_v3_damaged.trc \
    --out /tmp/ecohmem_ci_damaged2.txt --salvage >/dev/null 2>&1; then
  echo "salvage advisor accepted ~60% coverage under the default 90% gate" >&2; exit 1
fi
# Timeline streams the salvaged blocks.
build/tools/ecohmem-timeline --trace /tmp/ecohmem_ci_v3_damaged.trc \
  --out /tmp/ecohmem_ci_damaged.csv --bin-ms 50 --salvage
# Lint falls back to a salvage read (warnings, exit 0) and turns the
# trace-salvage-coverage finding into an error when the bar is missed.
build/tools/ecohmem-lint --trace /tmp/ecohmem_ci_v3_damaged.trc --min-coverage 0.1
if build/tools/ecohmem-lint --trace /tmp/ecohmem_ci_v3_damaged.trc --min-coverage 0.99; then
  echo "lint passed a salvaged trace below --min-coverage" >&2; exit 1
fi

# Placement-as-a-service smoke (docs/serving.md): a daemon on a unix
# socket serves a placement report byte-identical to the offline
# ecohmem-advisor run above for the same trace and config, then drains
# cleanly on SIGTERM (prints its farewell, unlinks its socket).
serve_sock=/tmp/ecohmem_ci_serve.sock
build/tools/ecohmem-serve --listen "$serve_sock" >/tmp/ecohmem_ci_serve.log 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do [ -S "$serve_sock" ] && break; sleep 0.1; done
[ -S "$serve_sock" ]
build/tools/ecohmem-serve --connect "$serve_sock" --ingest /tmp/ecohmem_ci2.trc \
  --query /tmp/ecohmem_ci_served.txt --config configs/advisor_dram_pmem.ini \
  --bandwidth-aware --csv /tmp/ecohmem_ci_served.csv
cmp /tmp/ecohmem_ci_served.txt /tmp/ecohmem_ci_report.txt
cmp /tmp/ecohmem_ci_served.csv /tmp/ecohmem_ci_sites.csv
# Compressed traces must flow through serve ingest unchanged: the served
# report and sites CSV for the compressed lulesh trace must be
# byte-identical to the offline advisor's for the uncompressed copy.
# Lulesh (31 sites, freed temporaries) is the many-site check of the
# analyzer's site store.
build/tools/ecohmem-serve --connect "$serve_sock" --ingest /tmp/ecohmem_ci_v3c.trc \
  --query /tmp/ecohmem_ci_served_v3c.txt --csv /tmp/ecohmem_ci_served_v3c.csv
cmp /tmp/ecohmem_ci_served_v3c.txt /tmp/ecohmem_ci_v3_serial.txt
cmp /tmp/ecohmem_ci_served_v3c.csv /tmp/ecohmem_ci_v3_sites.csv
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "ecohmem-serve exited nonzero on SIGTERM" >&2; exit 1; }
grep -q "drained, socket unlinked" /tmp/ecohmem_ci_serve.log
if [ -e "$serve_sock" ]; then
  echo "ecohmem-serve left its socket behind after draining" >&2; exit 1
fi

# ecohmem-serve usage errors must exit 2 (the cli_common convention),
# before any socket is created or bound.
for bad_serve in "--listen" \
                 "--listen /tmp/ecohmem_ci_serve_a.sock --connect /tmp/ecohmem_ci_serve_b.sock" \
                 "--connect /tmp/ecohmem_ci_serve_b.sock --attach 0" \
                 "--listen /tmp/ecohmem_ci_serve_a.sock --queue-blocks 0" \
                 "--listen /tmp/ecohmem_ci_serve_a.sock --max-frame-bytes 1"; do
  set +e
  build/tools/ecohmem-serve $bad_serve >/dev/null 2>&1
  serve_rc=$?
  set -e
  if [ "$serve_rc" -ne 2 ]; then
    echo "ecohmem-serve $bad_serve exited $serve_rc, want 2" >&2; exit 1
  fi
done

# Learned placement smoke (docs/learned.md): train a small model, advise
# with --policy learned, prove the report stays schema-compatible with the
# greedy one (FlexMalloc replays it unchanged), and verify the
# report/model pairing with ecohmem-lint.
build/tools/ecohmem-train --apps minife,large-hot --out /tmp/ecohmem_ci_model.ehm \
  --epochs 80 --max-solo 8 --max-swaps 4
build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci2.trc \
  --out /tmp/ecohmem_ci_learned.txt --config configs/advisor_dram_pmem.ini \
  --policy learned --model /tmp/ecohmem_ci_model.ehm
grep -q "^# model = 0x" /tmp/ecohmem_ci_learned.txt
build/tools/ecohmem-lint --trace /tmp/ecohmem_ci2.trc \
  --report /tmp/ecohmem_ci_learned.txt --config configs/advisor_dram_pmem.ini \
  --model /tmp/ecohmem_ci_model.ehm
build/tools/ecohmem-run --app hpcg --report /tmp/ecohmem_ci_learned.txt
# A damaged model must be a lint error (model-load), not a crash or a pass.
head -c 40 /tmp/ecohmem_ci_model.ehm > /tmp/ecohmem_ci_model_damaged.ehm
if build/tools/ecohmem-lint --report /tmp/ecohmem_ci_learned.txt \
    --model /tmp/ecohmem_ci_model_damaged.ehm >/dev/null 2>&1; then
  echo "lint accepted a truncated model file" >&2; exit 1
fi

# Learned-policy usage errors must exit 2 (the cli_common convention):
# unknown policy names, --policy learned without a model, --model with
# the greedy policy, an unusable model file, and out-of-range train flags.
for bad_learned in "build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci2.trc --out /tmp/ecohmem_ci_bad.txt --policy bogus" \
                   "build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci2.trc --out /tmp/ecohmem_ci_bad.txt --policy learned" \
                   "build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci2.trc --out /tmp/ecohmem_ci_bad.txt --model /tmp/ecohmem_ci_model.ehm" \
                   "build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci2.trc --out /tmp/ecohmem_ci_bad.txt --policy learned --model /tmp/ecohmem_ci_model_damaged.ehm" \
                   "build/tools/ecohmem-train --apps no-such-app --out /tmp/ecohmem_ci_bad.ehm" \
                   "build/tools/ecohmem-train --apps minife --out /tmp/ecohmem_ci_bad.ehm --epochs 0"; do
  set +e
  $bad_learned >/dev/null 2>&1
  learned_rc=$?
  set -e
  if [ "$learned_rc" -ne 2 ]; then
    echo "$bad_learned exited $learned_rc, want 2" >&2; exit 1
  fi
done

# The learned-placement bench (run in the bench loop above) must have
# recorded its acceptance verdict — learned no worse than greedy on every
# fig6 app and strictly better on large-hot; the binary itself exits
# nonzero on a violated bound.
for key in '"bench": "learned_placement"' '"model_hash"' '"training_pairs"' \
           '"pair_accuracy"' '"greedy_s"' '"learned_s"' '"adversarial": true' \
           '"all_pass": true'; do
  if ! grep -F "$key" BENCH_learned_placement.json >/dev/null; then
    echo "BENCH_learned_placement.json missing $key" >&2; exit 1
  fi
done

# Every tool parsing integer flags through cli_common must reject
# out-of-range values instead of silently truncating them.
for bad in "build/tools/ecohmem-profile --app hpcg --out /tmp/ecohmem_ci_bad.trc --pmem-dimms 0" \
           "build/tools/ecohmem-profile --app hpcg --out /tmp/ecohmem_ci_bad.trc --format v3 --block-events 0" \
           "build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci_v3.trc --out /tmp/ecohmem_ci_bad.txt --threads 0" \
           "build/tools/ecohmem-timeline --app hpcg --out /tmp/ecohmem_ci_bad.csv --iterations -1" \
           "build/tools/ecohmem-timeline --trace /tmp/ecohmem_ci_v3.trc --out /tmp/ecohmem_ci_bad.csv --bin-ms 0" \
           "build/tools/ecohmem-autotune --app hpcg --parallelism 9999"; do
  if $bad; then
    echo "accepted bad flag: $bad" >&2; exit 1
  fi
done

# Malformed size and number flags must be usage errors (exit 2), never a
# silent fall back to the default (a 12 GiB DRAM limit, a zero store
# coefficient).
advise_bad="ecohmem-advisor --trace /tmp/ecohmem_ci_v3.trc --out /tmp/ecohmem_ci_bad.txt"
for bad_value in "$advise_bad --dram-limit 4Gb" "$advise_bad --store-coef abc" \
                 "$advise_bad --threads x" \
                 "ecohmem-timeline --trace /tmp/ecohmem_ci_v3.trc --out /tmp/ecohmem_ci_bad.csv --bin-ms abc"; do
  set +e
  build/tools/$bad_value >/dev/null 2>&1
  value_rc=$?
  set -e
  if [ "$value_rc" -ne 2 ]; then
    echo "$bad_value exited $value_rc, want 2" >&2; exit 1
  fi
done

# Both linters must reject unknown rule ids in --disable (exit 2, not a
# silent no-op that would re-enable a rule in CI) and list valid ids.
build/tools/ecohmem-srclint --list-rules >/dev/null
for bad_disable in "build/tools/ecohmem-lint --trace /tmp/ecohmem_ci_v3.trc --disable no-such-rule" \
                   "build/tools/ecohmem-srclint --disable det-rnd"; do
  if $bad_disable 2>/tmp/ecohmem_ci_disable_err.txt; then
    echo "accepted unknown --disable id: $bad_disable" >&2; exit 1
  fi
  grep -q "valid rule ids" /tmp/ecohmem_ci_disable_err.txt
done

echo "CI OK"
