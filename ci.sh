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

# Concurrency-suite filter for the TSan pass: every suite that
# exercises locks or threads — the serve daemon (ServeConcurrency*) and
# autotune's std::async candidate fan-out — plus the salvage suites,
# which drive the trace reader serve's ingest shares. Trace decode,
# FlexMalloc and the online engine are single-threaded and need no
# entry. New concurrent suites must match this regex (name them
# *Concurrency* or extend the list).
concurrency_suites='Concurrency|Salvage|Autotune'

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

  # Clang thread-safety analysis over the annotations. Requires clang++;
  # a GCC-only toolchain skips this loudly instead of failing, and the
  # annotations still gate wherever clang exists.
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
# The loop above rewrote both BENCH records in place; they must equal
# the committed ones (ctest's bench_output.* tests gate the stdout).
git diff --exit-code BENCH_*.json

build/examples/quickstart
build/examples/custom_tiers
build/examples/trace_inspector minife /tmp/ecohmem_ci.trc
build/examples/placement_explorer lulesh 12
build/examples/host_interposition

build/tools/ecohmem-profile --app hpcg --out /tmp/ecohmem_ci2.trc
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
# Removed flags must be usage errors, not silently ignored: replay and
# trace decode are single-threaded, and the profiler writes only v3, so
# it has no format flags. Each entry names the flag it rejects.
for removed in "ecohmem-run --app hpcg --report /tmp/ecohmem_ci_report.txt --threads 4|--threads" \
               "ecohmem-advisor --trace /tmp/ecohmem_ci2.trc --out /tmp/ecohmem_ci_bad.txt --threads 4|--threads" \
               "ecohmem-profile --app hpcg --out /tmp/ecohmem_ci_bad.trc --format v3|--format" \
               "ecohmem-profile --app hpcg --out /tmp/ecohmem_ci_bad.trc --compact|--compact" \
               "ecohmem-profile --app hpcg --out /tmp/ecohmem_ci_bad.trc --compress|--compress"; do
  set +e
  build/tools/${removed%%|*} 2>/tmp/ecohmem_ci_unknown_flag.txt
  unknown_rc=$?
  set -e
  if [ "$unknown_rc" -ne 2 ]; then
    echo "${removed%%|*} exited $unknown_rc, want 2" >&2; exit 1
  fi
  grep -q "unknown flag ${removed#*|}" /tmp/ecohmem_ci_unknown_flag.txt
done

# Online placement smoke: the shipped policy config must lint clean and
# must actually migrate on the phase-shifting workload.
build/tools/ecohmem-lint --online-policy configs/online_policy.ini
build/tools/ecohmem-profile --app phase-shift --out /tmp/ecohmem_ci3.trc
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

# v3 trace path at a small block size: lint the footer index
# (trace-v3-index), advise from it, and stream a timeline from the file.
build/tools/ecohmem-profile --app lulesh --out /tmp/ecohmem_ci_v3.trc --block-events 4096
build/tools/ecohmem-lint --trace /tmp/ecohmem_ci_v3.trc
build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci_v3.trc \
  --out /tmp/ecohmem_ci_v3_serial.txt --csv /tmp/ecohmem_ci_v3_sites.csv
# Lint and the strict reader share one index check. Damage block 0's
# event count in a copy, two ways: zero it, and set its reserved bit 63
# (the flag of the retired bit-packed body, which must name the re-profile
# fix). trace-v3-index must report the message the advisor fails with.
v3_footer=$(od -An -t u8 -j $(( $(stat -c %s /tmp/ecohmem_ci_v3.trc) - 16 )) -N 8 \
  /tmp/ecohmem_ci_v3.trc | tr -d ' ')
v3_count_top=$(od -An -t u1 -j $((v3_footer + 15)) -N 1 /tmp/ecohmem_ci_v3.trc | tr -d ' ')
for damage in zero-count reserved-bit; do
  bad_index=/tmp/ecohmem_ci_v3_$damage.trc
  cp /tmp/ecohmem_ci_v3.trc "$bad_index"
  if [ "$damage" = zero-count ]; then
    dd if=/dev/zero of="$bad_index" bs=1 seek=$((v3_footer + 8)) count=8 conv=notrunc 2>/dev/null
  else
    printf "\\$(printf '%03o' $((v3_count_top | 128)))" |
      dd of="$bad_index" bs=1 seek=$((v3_footer + 15)) count=1 conv=notrunc 2>/dev/null
  fi
  set +e
  build/tools/ecohmem-lint --trace "$bad_index" >/tmp/ecohmem_ci_lint_msg.txt 2>&1
  lint_rc=$?
  build/tools/ecohmem-advisor --trace "$bad_index" --out /tmp/ecohmem_ci_bad.txt \
    >/dev/null 2>/tmp/ecohmem_ci_load_msg.txt
  load_rc=$?
  set -e
  if [ "$lint_rc" -ne 1 ] || [ "$load_rc" -ne 1 ]; then
    echo "v3 index $damage: lint exited $lint_rc, advisor exited $load_rc, want 1 and 1" >&2
    exit 1
  fi
  load_msg=$(sed -n "s|^error: $bad_index: ||p" /tmp/ecohmem_ci_load_msg.txt)
  if [ -z "$load_msg" ] ||
     ! grep -qF "[trace-v3-index] $bad_index: $load_msg" /tmp/ecohmem_ci_lint_msg.txt; then
    echo "v3 index $damage: lint does not report the advisor's message '$load_msg'" >&2; exit 1
  fi
  if [ "$damage" = reserved-bit ] && [[ "$load_msg" != *re-profile* ]]; then
    echo "v3 index $damage: '$load_msg' does not say to re-profile" >&2; exit 1
  fi
done
build/tools/ecohmem-timeline --trace /tmp/ecohmem_ci_v3.trc \
  --out /tmp/ecohmem_ci_v3.csv --bin-ms 50

# Replay-mode timelines (the series behind Figs. 3 and 7): the engine's
# per-tier bandwidth bins printed by ecohmem-timeline --app. Pinned by
# hash; a deliberate model change re-pins them.
for pin in "memory 8c8b4e858c9007cd267ebd8d28742b002985ff30d3fcde69b59c9673f15dd117" \
           "bw-aware 3119858fc09c9ad60cecdd2b2aac1ba2556b2cfd5011e3727166809fce1c4dcf"; do
  read -r mode want <<< "$pin"
  build/tools/ecohmem-timeline --app lulesh --mode "$mode" --out /tmp/ecohmem_ci_tl.csv >/dev/null
  got=$(sha256sum /tmp/ecohmem_ci_tl.csv | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "ecohmem-timeline --app lulesh --mode $mode: sha256 $got, pinned $want" >&2; exit 1
  fi
done

# The profiler emits its trace in time order without a final sort
# (docs/model.md §5). Every registry app, and lulesh at other sampling
# rates and without store samples, must pass trace-monotonic-time.
for app in cloverleaf3d hpcg lammps large-hot lulesh minife minimd openfoam phase-shift; do
  build/tools/ecohmem-profile --app "$app" --out /tmp/ecohmem_ci_order.trc >/dev/null
  build/tools/ecohmem-lint --trace /tmp/ecohmem_ci_order.trc
done
for variant in "--rate 10" "--rate 1000" "--no-stores"; do
  build/tools/ecohmem-profile --app lulesh --out /tmp/ecohmem_ci_order.trc $variant >/dev/null
  build/tools/ecohmem-lint --trace /tmp/ecohmem_ci_order.trc
done

# Corruption-fuzz smoke: damage the v3 trace and prove the fail-soft
# contract on the CLI surface (the seeded sweep itself — zero crashes,
# manifest byte conservation, for_each == read_all — runs as
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
# Timeline streams the salvaged blocks. The truncation took the footer
# index with it, so the blocks came from a sequential scan and the tool
# warns (on stderr, exit 0) that their timestamps may be skewed.
build/tools/ecohmem-timeline --trace /tmp/ecohmem_ci_v3_damaged.trc \
  --out /tmp/ecohmem_ci_damaged.csv --bin-ms 50 --salvage 2>/tmp/ecohmem_ci_timeline_err.txt
grep -q "timestamps after the first block boundary may be skewed" /tmp/ecohmem_ci_timeline_err.txt
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
# The served report and sites CSV for the lulesh trace must be
# byte-identical to the offline advisor's. Lulesh (31 sites, freed
# temporaries) is the many-site check of the analyzer's site store.
build/tools/ecohmem-serve --connect "$serve_sock" --ingest /tmp/ecohmem_ci_v3.trc \
  --query /tmp/ecohmem_ci_served_v3.txt --csv /tmp/ecohmem_ci_served_v3.csv
cmp /tmp/ecohmem_ci_served_v3.txt /tmp/ecohmem_ci_v3_serial.txt
cmp /tmp/ecohmem_ci_served_v3.csv /tmp/ecohmem_ci_v3_sites.csv
# An explicit peak takes the same Advisor stage on both sides.
build/tools/ecohmem-advisor --trace /tmp/ecohmem_ci2.trc --out /tmp/ecohmem_ci_peak30.txt \
  --config configs/advisor_dram_pmem.ini --bandwidth-aware --peak-pmem-bw 30
build/tools/ecohmem-serve --connect "$serve_sock" --ingest /tmp/ecohmem_ci2.trc \
  --query /tmp/ecohmem_ci_served_peak30.txt --config configs/advisor_dram_pmem.ini \
  --bandwidth-aware --peak-pmem-bw 30
cmp /tmp/ecohmem_ci_served_peak30.txt /tmp/ecohmem_ci_peak30.txt
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
           "build/tools/ecohmem-profile --app hpcg --out /tmp/ecohmem_ci_bad.trc --block-events 0" \
           "build/tools/ecohmem-timeline --app hpcg --out /tmp/ecohmem_ci_bad.csv --iterations -1" \
           "build/tools/ecohmem-timeline --trace /tmp/ecohmem_ci_v3.trc --out /tmp/ecohmem_ci_bad.csv --bin-ms 0" \
           "build/tools/ecohmem-autotune --app hpcg --parallelism 9999"; do
  if $bad; then
    echo "accepted bad flag: $bad" >&2; exit 1
  fi
done

# calibrate takes application names as arguments: an unknown one is a
# usage error (exit 2) that lists the valid names, never an uncaught
# throw; --help prints the usage and exits 0.
set +e
build/tools/calibrate nosuchapp 2>/tmp/ecohmem_ci_calibrate.txt
calibrate_rc=$?
set -e
if [ "$calibrate_rc" -ne 2 ]; then
  echo "calibrate nosuchapp exited $calibrate_rc, want 2" >&2; exit 1
fi
grep -q "valid apps: minife" /tmp/ecohmem_ci_calibrate.txt
build/tools/calibrate --help | grep -q "usage: calibrate"

# Malformed size and number flags must be usage errors (exit 2), never a
# silent fall back to the default (a 12 GiB DRAM limit, a zero store
# coefficient, the observed peak bandwidth). The advisor config the flags build must pass the same
# validation a config file does.
advise_bad="ecohmem-advisor --trace /tmp/ecohmem_ci_v3.trc --out /tmp/ecohmem_ci_bad.txt"
for bad_value in "$advise_bad --dram-limit 4Gb" "$advise_bad --store-coef abc" \
                 "$advise_bad --store-coef nan" "$advise_bad --store-coef -1" \
                 "$advise_bad --dram-limit 0" \
                 "$advise_bad --bandwidth-aware --peak-pmem-bw nan" \
                 "$advise_bad --bandwidth-aware --peak-pmem-bw 0" \
                 "$advise_bad --bandwidth-aware --peak-pmem-bw -1" \
                 "ecohmem-timeline --trace /tmp/ecohmem_ci_v3.trc --out /tmp/ecohmem_ci_bad.csv --bin-ms abc"; do
  set +e
  build/tools/$bad_value >/dev/null 2>&1
  value_rc=$?
  set -e
  if [ "$value_rc" -ne 2 ]; then
    echo "$bad_value exited $value_rc, want 2" >&2; exit 1
  fi
done

# Lint and the loaders share one validator per config: a config the
# loader rejects must fail ecohmem-lint too, with the loader's message.
printf '[online]\nchunk_bytes = 3\n' > /tmp/ecohmem_ci_bad_policy1.ini
printf '[online]\nhuge_object_bytes = 4096\n' > /tmp/ecohmem_ci_bad_policy2.ini
printf '[memory]\nname = dram\nlimit = 1GB\nload_coef = %s\n[memory]\nname = pmem\nlimit = 1TB\norder = 1\nfallback = true\n' \
  nan > /tmp/ecohmem_ci_bad_config1.ini
printf '[memory]\nname = dram\nlimit = 1GB\nload_coef = %s\n[memory]\nname = pmem\nlimit = 1TB\norder = 1\nfallback = true\n' \
  -1 > /tmp/ecohmem_ci_bad_config2.ini
for bad_cfg in "--online-policy /tmp/ecohmem_ci_bad_policy1.ini|ecohmem-run --app hpcg --report /tmp/ecohmem_ci_report.txt --online /tmp/ecohmem_ci_bad_policy1.ini" \
               "--online-policy /tmp/ecohmem_ci_bad_policy2.ini|ecohmem-run --app hpcg --report /tmp/ecohmem_ci_report.txt --online /tmp/ecohmem_ci_bad_policy2.ini" \
               "--config /tmp/ecohmem_ci_bad_config1.ini|$advise_bad --config /tmp/ecohmem_ci_bad_config1.ini" \
               "--config /tmp/ecohmem_ci_bad_config2.ini|$advise_bad --config /tmp/ecohmem_ci_bad_config2.ini"; do
  set +e
  build/tools/ecohmem-lint ${bad_cfg%%|*} >/tmp/ecohmem_ci_lint_msg.txt 2>&1
  lint_rc=$?
  build/tools/${bad_cfg#*|} >/dev/null 2>/tmp/ecohmem_ci_load_msg.txt
  load_rc=$?
  set -e
  if [ "$lint_rc" -ne 1 ] || [ "$load_rc" -ne 1 ]; then
    echo "$bad_cfg: lint exited $lint_rc, loader exited $load_rc, want 1 and 1" >&2; exit 1
  fi
  load_msg=$(sed -n 's/^error: //p' /tmp/ecohmem_ci_load_msg.txt)
  if [ -z "$load_msg" ] || ! grep -qF ": $load_msg" /tmp/ecohmem_ci_lint_msg.txt; then
    echo "$bad_cfg: lint does not report the loader's message '$load_msg'" >&2; exit 1
  fi
done

# A failed output write is a runtime error (exit 1), never a silent
# success: /dev/full accepts the open and fails the write at flush.
for full_out in "ecohmem-advisor --trace /tmp/ecohmem_ci_v3.trc --out /dev/full" \
                "ecohmem-advisor --trace /tmp/ecohmem_ci_v3.trc --out /tmp/ecohmem_ci_full.txt --csv /dev/full" \
                "ecohmem-timeline --trace /tmp/ecohmem_ci_v3.trc --out /dev/full" \
                "ecohmem-timeline --app minife --out /dev/full"; do
  set +e
  build/tools/$full_out >/dev/null 2>&1
  full_rc=$?
  set -e
  if [ "$full_rc" -ne 1 ]; then
    echo "$full_out exited $full_rc, want 1" >&2; exit 1
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
