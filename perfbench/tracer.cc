#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int32_t Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const auto id = static_cast<int32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  children_.emplace_back();
  if (span.parent >= 0) children_[static_cast<size_t>(span.parent)].push_back(id);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close in LIFO order on the single client thread.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::Micros(int32_t id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
}

double Tracer::SelfMicros(int32_t id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (int32_t c : children_[static_cast<size_t>(id)]) {
    const Span& child = spans_[static_cast<size_t>(c)];
    covered.emplace_back(std::max(child.start_ns, s.start_ns),
                         std::min(child.end_ns, s.end_ns));
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t reach = s.start_ns;
  for (const auto& [lo, hi] : covered) {
    const int64_t from = std::max(lo, reach);
    if (hi > from) {
      union_ns += hi - from;
      reach = hi;
    }
  }
  return static_cast<double>(s.end_ns - s.start_ns - union_ns) / 1e3;
}

laws::Status Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return laws::Status::IOError("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"op\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0 ? laws::Status::OK()
                             : laws::Status::IOError("cannot close " + path);
}

}  // namespace perfbench
