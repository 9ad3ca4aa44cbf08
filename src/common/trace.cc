#include "common/trace.h"

#include <cstdio>

namespace laws {
namespace {

thread_local TraceSink* t_current_sink = nullptr;

}  // namespace

TraceSink::TraceSink() : prev_(t_current_sink) { t_current_sink = this; }

TraceSink::~TraceSink() { t_current_sink = prev_; }

TraceSink* TraceSink::Current() { return t_current_sink; }

std::string TraceSink::Render() const {
  std::string out;
  char buf[160];
  for (const SpanRecord& s : spans_) {
    out.append(static_cast<size_t>(s.depth) * 2, ' ');
    out += s.name;
    if (!s.detail.empty()) {
      out += '(';
      out += s.detail;
      out += ')';
    }
    if (s.has_rows) {
      std::snprintf(buf, sizeof(buf), "  rows=%llu->%llu",
                    static_cast<unsigned long long>(s.rows_in),
                    static_cast<unsigned long long>(s.rows_out));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "  time=%.3f ms", s.micros / 1000.0);
    out += buf;
    out += '\n';
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* name) : sink_(t_current_sink) {
  if (sink_ == nullptr) return;
  slot_ = sink_->spans_.size();
  SpanRecord rec;
  rec.name = name;
  rec.depth = sink_->depth_;
  rec.sequence = slot_;
  sink_->spans_.push_back(std::move(rec));
  ++sink_->depth_;
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() { End(); }

void ScopedSpan::End() {
  if (sink_ == nullptr) return;
  sink_->spans_[slot_].micros =
      std::chrono::duration<double, std::micro>(Clock::now() - start_)
          .count();
  --sink_->depth_;
  sink_ = nullptr;
}

void ScopedSpan::SetRows(uint64_t rows_in, uint64_t rows_out) {
  if (sink_ == nullptr) return;
  SpanRecord& rec = sink_->spans_[slot_];
  rec.rows_in = rows_in;
  rec.rows_out = rows_out;
  rec.has_rows = true;
}

void ScopedSpan::SetDetail(std::string detail) {
  if (sink_ == nullptr) return;
  sink_->spans_[slot_].detail = std::move(detail);
}

}  // namespace laws
