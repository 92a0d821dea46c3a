#pragma once

/// \file harness.hpp
/// Measurement plumbing shared by the perfbench workloads: wall-clock
/// samples with quartiles, the span recorder of traced runs, and the
/// named metric table every run prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return ms_between(start, Clock::now());
}

/// Wall time of a fixed reference computation that shares no code with
/// ecohmem: hash-table inserts and lookups, a sort and random updates of
/// a 16 MiB array, the mix of the workloads' own inner loops. The runner
/// times it around every op and set-up to follow the host's speed.
[[nodiscard]] double reference_ms();

/// The reference computation's median time on the host the bounds in
/// BENCHMARK.json were set on (4-vCPU Xeon virtual machine). A time
/// scaled by kReferenceMs / reference_ms() reads as it would have there.
inline constexpr double kReferenceMs = 3.0;

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The highest order statistic with at least ten samples above it, and
/// the percentile it sits at; the median when there are fewer than 21.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
};
[[nodiscard]] Tail tail_of(std::vector<double> values);

/// "p10 11.7 p50 12.3 [q1 11.9, q3 12.8] n=40" — the summary line format.
[[nodiscard]] std::string describe(const std::vector<double>& values);

/// One named measurement of a run, printed as {"value": v, "unit": u}.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// ---------------------------------------------------------------- spans

/// One recorded span: a call into a layer's public function, made from
/// the benchmark's own code. `parent` indexes the enclosing span (-1 at
/// the top); `op` groups the spans of one op. A wait span is time the
/// caller spent blocked on another party (backoff, joins), accounted as
/// the layer's waiting time rather than its busy time.
struct SpanRecord {
  std::string layer;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::int64_t op = -1;
  bool wait = false;
  bool helper = false;  ///< opened on a helper thread of the op
};

/// In-memory span store. Disabled (the default) every call is a branch
/// on one flag; enabled, spans append to a vector that is written out
/// when the run ends. Spans from several threads are supported: each
/// thread keeps its own current-span slot, and a thread started inside
/// an op adopts that op's span as its parent via `adopt`.
class Tracer {
 public:
  void enable(bool on);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and makes it the calling thread's current span.
  int open(const char* layer, const char* name, bool wait);
  void close(int id);

  /// Begins op `op` (its root span is layer "op"); returns the root id.
  int begin_op(std::int64_t op);

  /// Makes `parent` the calling thread's current span and marks the
  /// thread as an op helper: its spans run beside the op's own, so they
  /// count toward the layers but not toward the op's span coverage.
  void adopt(int parent);
  [[nodiscard]] int current() const;

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::int64_t op_ = -1;
};

Tracer& tracer();

/// RAII span around one call into `layer`.
class Span {
 public:
  Span(const char* layer, const char* name, bool wait = false)
      : id_(tracer().enabled() ? tracer().open(layer, name, wait) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

/// The layers of this repository the benchmark reports on, in pipeline
/// order.
[[nodiscard]] const std::vector<std::string>& layer_names();

/// The spans of one op: indices [first, last) of `Tracer::spans()`,
/// `first` being the op's root. Spans recorded after the root closed
/// (isolated layer passes) belong to the op too, outside its root.
struct OpSpans {
  const std::vector<SpanRecord>* spans = nullptr;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Per-layer totals over the spans inside one op's root: call count,
/// busy time (outermost spans of the layer), self time (busy minus the
/// part its child spans of other layers cover) and waiting time (wait
/// spans).
struct LayerTotals {
  double calls = 0.0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
  double wait_ms = 0.0;
};
[[nodiscard]] std::map<std::string, LayerTotals> layer_totals(const OpSpans& op);

/// Share of the op's root span covered by its direct children opened on
/// the op's own thread.
[[nodiscard]] double span_coverage(const OpSpans& op);

/// Sum of the durations of the op's `layer`/`name` spans.
[[nodiscard]] double span_ms(const OpSpans& op, const std::string& layer, const std::string& name);

/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
