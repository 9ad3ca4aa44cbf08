#ifndef LAWSDB_COMMON_TRACE_H_
#define LAWSDB_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace laws {

/// Scoped-span tracing: RAII timers over the engine's pipeline stages
/// (executor operators, hybrid AQP arbitration, grouped fitting phases,
/// persistence). A span is recorded only under a thread-local TraceSink,
/// installed per operation by EXPLAIN ANALYZE: spans append
/// name/detail/rows/time records that render as the per-stage plan tree.
///
/// Without a sink a ScopedSpan costs one thread-local read — no clock
/// call, no allocation — which is what keeps instrumentation overhead on
/// the hot pipeline under the 2% budget (DESIGN.md §10).

/// One finished span. `name` must be a string literal (stored as a
/// pointer); `detail` is optional free text (expression, decision).
struct SpanRecord {
  const char* name = "";
  std::string detail;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  bool has_rows = false;
  double micros = 0.0;
  int depth = 0;        // nesting depth at entry, for tree rendering
  size_t sequence = 0;  // entry order
};

/// Collects the spans of one traced operation. Construction installs the
/// sink as the calling thread's current sink (stacking over any previous
/// one); destruction restores the previous sink. Not thread-safe: one
/// sink belongs to one thread. Spans opened on *other* threads (e.g.
/// inside ParallelFor workers) do not reach the sink — per-phase spans
/// around parallel regions are opened on the calling thread instead.
class TraceSink {
 public:
  TraceSink();
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Renders the span tree: indentation by depth, one line per span with
  /// rows in/out (when set) and wall time.
  std::string Render() const;

  /// The calling thread's innermost sink, or nullptr.
  static TraceSink* Current();

 private:
  friend class ScopedSpan;
  std::vector<SpanRecord> spans_;
  int depth_ = 0;
  TraceSink* prev_ = nullptr;
};

/// RAII span. Opens at construction, records at destruction. All methods
/// are no-ops when the span is inactive (no sink), so call sites need no
/// branching.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches input/output cardinality shown by EXPLAIN ANALYZE.
  void SetRows(uint64_t rows_in, uint64_t rows_out);
  /// Attaches free-text detail (predicate text, decision, path).
  void SetDetail(std::string detail);
  /// Ends the span now (for phases that finish mid-scope); destruction
  /// after End() is a no-op, as are further SetRows/SetDetail calls.
  void End();

  bool active() const { return sink_ != nullptr; }

 private:
  using Clock = std::chrono::steady_clock;
  TraceSink* sink_ = nullptr;  // sink at entry; nullptr once ended
  size_t slot_ = 0;            // index into sink_->spans_
  Clock::time_point start_{};
};

}  // namespace laws

#endif  // LAWSDB_COMMON_TRACE_H_
