#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// One timed call into a program module, recorded from the benchmark side.
struct Span {
  const char* name = "";  // static string: "<module>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into Tracer::spans(); -1 for a root
  uint64_t op = 0;      // operation id; 0 for set-up work
};

/// In-memory span recorder for the traced run. Spans nest by call order on
/// the single client thread; nothing is recorded while disabled, so the
/// untraced runs pay one branch per call site.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(uint64_t op) { op_ = op; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int32_t Begin(const char* name);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  double Micros(int32_t id) const;
  /// Duration minus the part of it covered by the span's children.
  double SelfMicros(int32_t id) const;

  /// Writes every span as JSON lines to `path`.
  laws::Status Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::vector<std::vector<int32_t>> children_;
};

/// RAII span; a no-op while the tracer is disabled.
class TraceScope {
 public:
  TraceScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~TraceScope() { tracer_->End(id_); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
