#include "driver.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "stats.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A phase may run past its length, to the end of the current round of the
/// mix and until every reported percentile has enough samples, up to this
/// multiple of the length.
constexpr double kMaxStretch = 3.0;

/// Set-up pauses per run: one before the first phase, the rest spread
/// evenly through it at round boundaries, so that the median set-up is not
/// set by whatever the host was doing during a single second.
constexpr int kSetupPauses = 7;

/// Each pause repeats the set-up until it has taken this long, so that a
/// short set-up still gives its median many samples.
constexpr double kMinPauseSeconds = 0.2;

/// The host probe runs at the first operation boundary after this long.
constexpr double kProbeEverySeconds = 0.02;
/// An operation counts as run on a quiet host when the probes on both
/// sides of it read at most (1 + kProbeSlack) times the
/// kProbeReferenceQuantile of all the phase's probes.
constexpr double kProbeReferenceQuantile = 0.1;
constexpr double kProbeSlack = 0.1;

/// Keeps the probe loop from being optimized away.
volatile uint64_t probe_sink = 0;

/// A fixed loop over 16 KB of the probe's own memory, about 50 us. It
/// reads no program state. On a shared host, other tenants' load on the
/// core slows it and the program's reads together, by up to about 2x for
/// stretches of seconds to minutes, while a plain dependent-multiply loop
/// barely moves. Returns the loop's time in microseconds.
double ProbeOnce() {
  static std::vector<uint32_t> words = [] {
    std::vector<uint32_t> w(4096);
    for (size_t i = 0; i < w.size(); ++i) w[i] = static_cast<uint32_t>(i);
    return w;
  }();
  const auto start = Clock::now();
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (uint64_t round = 1; round <= 40; ++round) {
    for (size_t i = 0; i < words.size(); i += 4) {
      s0 += words[i] * round;
      s1 += words[i + 1] ^ s0;
      s2 += words[i + 2] + (s1 >> 3);
      s3 += words[i + 3] * s2;
    }
  }
  probe_sink = s0 + s1 + s2 + s3;
  return SecondsSince(start) * 1e6;
}

/// The probe readings of a run, in time order. Each timed operation
/// records the index of the last reading before it; the next reading
/// follows it.
class HostProbe {
 public:
  /// Takes a reading if kProbeEverySeconds have passed since the last one,
  /// or always with `force`. Returns the index of the latest reading.
  uint32_t Tick(bool force) {
    if (force || values_.empty() ||
        SecondsSince(last_) >= kProbeEverySeconds) {
      values_.push_back(ProbeOnce());
      last_ = Clock::now();
    }
    return static_cast<uint32_t>(values_.size() - 1);
  }
  /// Readings at or below this mark a quiet host.
  double Gate() const {
    return Quantile(values_, kProbeReferenceQuantile) * (1.0 + kProbeSlack);
  }
  /// Whether what ran after reading `before`, and before the next
  /// reading, ran on a quiet host.
  bool Quiet(uint32_t before, double gate) const {
    const size_t after = std::min<size_t>(before + 1, values_.size() - 1);
    return std::max(values_[before], values_[after]) <= gate;
  }
  size_t size() const { return values_.size(); }

 private:
  std::vector<double> values_;
  Clock::time_point last_;
};

const char* const kScanTemplates[] = {"band_count", "source_rows",
                                      "band_group_avg", "bright_sources",
                                      "band_topk"};

/// Program counters the per-layer metrics read, as deltas over the traced
/// phase. One client means no other session adds to them.
const char* const kCounters[] = {
    "expr.batches",
    "scan.index_builds",
    "scan.blocks_pruned",
    "scan.blocks_total",
    "scan.encoded_agg",
    "aqp.hybrid.model_hit",
    "aqp.hybrid.exact_fallback",
    "aqp.hybrid.fallback.no_model",
    "aqp.hybrid.fallback.low_quality",
    "aqp.hybrid.fallback.drift",
    "aqp.hybrid.fallback.count_star",
    "learn.harvest.rows",
    "learn.promoted",
    "learn.refined",
    "persist.save_bytes",
};

std::map<std::string, uint64_t> ReadCounters() {
  std::map<std::string, uint64_t> values;
  for (const char* name : kCounters) {
    values[name] = laws::MetricsRegistry::Global().GetCounter(name)->value();
  }
  return values;
}

laws::MetricHistogram* GovernorPeak() {
  return laws::MetricsRegistry::Global().GetHistogram("governor.peak_bytes");
}

/// Which percentile guard a phase enforces.
enum class Guard { kNone, kEndToEnd, kPerLayer };

struct Phase {
  std::vector<OpResult> ops;
  std::vector<uint32_t> probe_before;  // per op: HostProbe reading index
  std::map<std::string, uint64_t> counters;  // deltas over the phase
  double governor_peak_p95_bytes = 0.0;
};

/// The sample series each reported percentile is taken over, with the
/// highest quantile reported from it.
struct Demand {
  std::string series;
  double q;
};

std::vector<Demand> DemandsOf(const OpResult& op, Guard guard) {
  std::vector<Demand> out;
  if (op.error || guard == Guard::kNone) return out;
  if (guard == Guard::kEndToEnd) {
    if (op.cls == OpClass::kRead) out.push_back({"read", 0.95});
    return out;
  }
  switch (op.cls) {
    case OpClass::kRead:
      out.push_back({"serve.read_overhead", 0.5});
      if (op.parse_span >= 0) out.push_back({"query.parse", 0.5});
      if (op.exec_span >= 0) {
        out.push_back({std::string("query.exec.") + op.tmpl, 0.5});
      }
      if (op.model) {
        out.push_back({std::strcmp(op.tmpl, "band_avg") == 0 ? "aqp.grid"
                                                             : "aqp.model",
                       0.5});
        out.push_back({"aqp.rel_bound", 0.5});
      } else if (op.hybrid) {
        out.push_back({"aqp.fallback", 0.5});
      }
      break;
    case OpClass::kIngest:
      out.push_back({"serve.ingest", 0.95});
      break;
    case OpClass::kMaintain:
      out.push_back({"learn.maintain", 0.5});
      break;
    case OpClass::kCheckpoint:
      out.push_back({"core.checkpoint", 0.5});
      break;
    case OpClass::kRestore:
      out.push_back({"core.restore", 0.5});
      break;
  }
  return out;
}

struct SeriesCount {
  size_t n = 0;
  double q = 0.0;
};

/// The first series that has samples but too few for its percentile.
std::string Shortfall(const std::map<std::string, SeriesCount>& series) {
  for (const auto& [name, s] : series) {
    if (s.n > 0 && !Supports(s.n, s.q)) {
      return name + " has " + std::to_string(s.n) + " samples, p" +
             std::to_string(static_cast<int>(s.q * 100)) + " needs " +
             std::to_string(SamplesNeeded(s.q));
    }
  }
  return "";
}

/// One set-up pause: set-ups back to back until kMinPauseSeconds have
/// passed. Their spans are kept when `traced`.
laws::Status SetupPause(Workload* workload, Tracer* tracer, bool traced,
                        std::vector<double>* setup_seconds) {
  const bool was = tracer->enabled();
  tracer->set_enabled(traced);
  tracer->set_op(0);
  const auto start = Clock::now();
  laws::Status status = laws::Status::OK();
  do {
    double seconds = 0.0;
    status = workload->Setup(&seconds);
    setup_seconds->push_back(seconds);
  } while (status.ok() && SecondsSince(start) < kMinPauseSeconds);
  tracer->set_enabled(was);
  return status;
}

/// Reads that ran on a quiet host, by the probe readings so far.
size_t QuietReads(const Phase& phase, const HostProbe& probe) {
  const double gate = probe.Gate();
  size_t n = 0;
  for (size_t i = 0; i < phase.ops.size(); ++i) {
    const OpResult& op = phase.ops[i];
    if (op.cls == OpClass::kRead && !op.error &&
        probe.Quiet(phase.probe_before[i], gate)) {
      ++n;
    }
  }
  return n;
}

/// Runs operations for `seconds` of measured time. When `setups` is given,
/// kSetupPauses - 1 more set-up pauses run spread through the phase; the
/// clock stops while they run. With `probe`, the host probe is read
/// between operations (outside their timers) and the phase also runs until
/// the reads on a quiet host support read_p95_ms.
laws::Status RunPhase(Workload* workload, Tracer* tracer, double seconds,
                      bool traced, Guard guard, uint64_t* op_id,
                      std::vector<double>* setups, bool trace_setups,
                      HostProbe* probe, Phase* phase) {
  const std::map<std::string, uint64_t> before = ReadCounters();
  GovernorPeak()->Reset();
  std::map<std::string, SeriesCount> series;
  tracer->set_enabled(traced);
  const auto start = Clock::now();
  double paused = 0.0;  // set-up and probe time, not part of the phase
  int mid_run_setups = 0;
  uint32_t reading = 0;
  if (probe != nullptr) reading = probe->Tick(true);
  // Once the phase could end, the quiet reads are counted at most every
  // quarter second, each time after a fresh reading, so that the count
  // that ends the phase is the one its figures are taken over.
  auto next_count = start;
  auto enough_quiet = [&] {
    if (probe == nullptr) return true;
    if (Clock::now() < next_count) return false;
    const auto probe_start = Clock::now();
    reading = probe->Tick(true);
    paused += SecondsSince(probe_start);
    next_count = Clock::now() + std::chrono::milliseconds(250);
    return Supports(QuietReads(*phase, *probe), 0.95);
  };
  while (true) {
    const double elapsed = SecondsSince(start) - paused;
    if (setups != nullptr && mid_run_setups < kSetupPauses - 1 &&
        workload->AtBoundary() &&
        elapsed >= seconds * (mid_run_setups + 1) / kSetupPauses) {
      const auto setup_start = Clock::now();
      LAWS_RETURN_IF_ERROR(
          SetupPause(workload, tracer, trace_setups, setups));
      ++mid_run_setups;
      paused += SecondsSince(setup_start);
      continue;
    }
    if (elapsed >= seconds && workload->AtBoundary() &&
        Shortfall(series).empty() && enough_quiet()) {
      break;
    }
    if (elapsed >= seconds * kMaxStretch) {
      if (probe != nullptr) probe->Tick(true);
      break;
    }
    OpResult op;
    tracer->set_op(++*op_id);
    LAWS_RETURN_IF_ERROR(workload->RunNext(&op));
    for (const Demand& d : DemandsOf(op, guard)) {
      SeriesCount& s = series[d.series];
      ++s.n;
      s.q = std::max(s.q, d.q);
    }
    phase->ops.push_back(std::move(op));
    phase->probe_before.push_back(reading);
    if (probe != nullptr) {
      const auto probe_start = Clock::now();
      reading = probe->Tick(false);
      paused += SecondsSince(probe_start);
    }
  }
  tracer->set_enabled(false);
  for (const auto& [name, value] : ReadCounters()) {
    phase->counters[name] = value - before.at(name);
  }
  if (GovernorPeak()->count() > 0) {
    phase->governor_peak_p95_bytes = GovernorPeak()->Quantile(0.95);
  }
  std::string shortfall = Shortfall(series);
  if (shortfall.empty() && probe != nullptr) {
    const size_t quiet = QuietReads(*phase, *probe);
    if (!Supports(quiet, 0.95)) {
      shortfall = "reads on a quiet host has " + std::to_string(quiet) +
                  " samples, p95 needs " + std::to_string(SamplesNeeded(0.95));
    }
  }
  if (!shortfall.empty()) {
    return laws::Status::ResourceExhausted(
        "too few samples to report a percentile: " + shortfall);
  }
  return laws::Status::OK();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Which operations of a phase a figure is taken over; empty keeps all.
using Keep = std::vector<bool>;

bool Kept(const Keep& keep, size_t i) { return keep.empty() || keep[i]; }

/// Completed operations per second of time inside program calls. With a
/// `keep` subset, each operation kind (class and template) is timed by the
/// mean of its kept operations and weighted by its count in the whole
/// phase, so the subset does not shift the mix; a kind with fewer than
/// kMinKeptPerKind kept operations is timed by all of its operations.
constexpr size_t kMinKeptPerKind = 5;

double OpsPerSecond(const Phase& phase, const Keep& keep = {}) {
  struct Kind {
    size_t n = 0, kept = 0;
    double seconds = 0.0, kept_seconds = 0.0;
  };
  std::map<std::pair<int, std::string>, Kind> kinds;
  size_t completed = 0;
  for (size_t i = 0; i < phase.ops.size(); ++i) {
    const OpResult& op = phase.ops[i];
    Kind& k = kinds[{static_cast<int>(op.cls), op.tmpl}];
    ++k.n;
    k.seconds += op.seconds;
    if (Kept(keep, i)) {
      ++k.kept;
      k.kept_seconds += op.seconds;
    }
    if (!op.error) ++completed;
  }
  double busy = 0.0;
  for (const auto& [name, k] : kinds) {
    busy += k.kept >= kMinKeptPerKind || k.kept == k.n
                ? k.n * (k.kept_seconds / k.kept)
                : k.seconds;
  }
  return Ratio(static_cast<double>(completed), busy);
}

std::vector<double> Millis(const Phase& phase, OpClass cls,
                           const char* tmpl = nullptr, const Keep& keep = {}) {
  std::vector<double> out;
  for (size_t i = 0; i < phase.ops.size(); ++i) {
    const OpResult& op = phase.ops[i];
    if (op.cls != cls || op.error || !Kept(keep, i)) continue;
    if (tmpl != nullptr && std::strcmp(op.tmpl, tmpl) != 0) continue;
    out.push_back(op.seconds * 1e3);
  }
  return out;
}

/// Readable per-class table: sample count next to each percentile, and a
/// percentile only where the samples support it.
void PrintClasses(const Phase& phase, const std::vector<const char*>& templates,
                  const Keep& keep, std::FILE* log) {
  std::fprintf(log, "  %-10s %-15s %7s %7s %7s %11s %11s\n", "class",
               "template", "n", "failed", "oob", "p50_ms", "p95_ms");
  auto row = [&](OpClass cls, const char* tmpl) {
    const std::vector<double> ms = Millis(phase, cls, tmpl, keep);
    size_t failed = 0;
    size_t out_of_bound = 0;
    size_t attempted = 0;
    for (size_t i = 0; i < phase.ops.size(); ++i) {
      const OpResult& op = phase.ops[i];
      if (op.cls != cls || !Kept(keep, i)) continue;
      if (tmpl != nullptr && std::strcmp(op.tmpl, tmpl) != 0) continue;
      ++attempted;
      if (op.error || op.wrong) ++failed;
      if (op.out_of_bound) ++out_of_bound;
    }
    if (attempted == 0) return;
    char p50[32] = "-";
    char p95[32] = "-";
    if (Supports(ms.size(), 0.5)) {
      std::snprintf(p50, sizeof p50, "%.4f", Quantile(ms, 0.5));
    }
    if (Supports(ms.size(), 0.95)) {
      std::snprintf(p95, sizeof p95, "%.4f", Quantile(ms, 0.95));
    }
    std::fprintf(log, "  %-10s %-15s %7zu %7zu %7zu %11s %11s\n",
                 OpClassName(cls), tmpl == nullptr ? "(all)" : tmpl, ms.size(),
                 failed, out_of_bound, p50, p95);
  };
  for (int c = 0; c < kNumOpClasses; ++c) {
    const auto cls = static_cast<OpClass>(c);
    row(cls, nullptr);
    if (cls == OpClass::kRead) {
      for (const char* t : templates) row(cls, t);
    }
  }
}

/// The first few failed and out-of-bound operations.
void PrintFailures(const Phase& phase, std::FILE* log) {
  size_t shown = 0;
  for (const OpResult& op : phase.ops) {
    if (!(op.error || op.wrong || op.out_of_bound)) continue;
    if (shown++ == 5) break;
    std::fprintf(log, "  %s %s/%s%s%s: %s\n",
                 op.error || op.wrong ? "failed" : "out of bound",
                 OpClassName(op.cls), op.tmpl, op.sql.empty() ? "" : " ",
                 op.sql.c_str(), op.detail.c_str());
  }
}

/// End-to-end metrics (untraced runs) and per-layer metrics (traced runs),
/// reported by every workload. A per-layer metric of a layer a workload
/// gives no work reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"read_p50_ms", "ms"},
      {"read_p95_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"in_bound_ratio", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"serve.read_overhead_us", "us"},
      {"serve.ingest_p50_ms", "ms"},
      {"serve.ingest_p95_ms", "ms"},
      {"query.parse_us", "us"},
      {"query.exec_ms.band_count", "ms"},
      {"query.exec_ms.source_rows", "ms"},
      {"query.exec_ms.band_group_avg", "ms"},
      {"query.exec_ms.bright_sources", "ms"},
      {"query.exec_ms.band_topk", "ms"},
      {"query.expr_batches_per_scan", "count"},
      {"compress.index_builds_per_read", "count"},
      {"compress.blocks_pruned_ratio", "ratio"},
      {"compress.encoded_agg_ratio", "ratio"},
      {"aqp.model_us", "us"},
      {"aqp.grid_ms", "ms"},
      {"aqp.fallback_ms", "ms"},
      {"aqp.model_hit_ratio", "ratio"},
      {"aqp.fallback.no_model", "count"},
      {"aqp.fallback.low_quality", "count"},
      {"aqp.fallback.drift", "count"},
      {"aqp.fallback.count_star", "count"},
      {"aqp.bound_violation_ratio", "ratio"},
      {"aqp.rel_bound_p50", "ratio"},
      {"model.fit_ms", "ms"},
      {"model.refit_ms", "ms"},
      {"learn.maintain_p50_ms", "ms"},
      {"learn.tick_ms", "ms"},
      {"learn.harvest_rows_per_fallback", "count"},
      {"learn.promoted", "count"},
      {"learn.refined", "count"},
      {"core.checkpoint_p50_ms", "ms"},
      {"core.restore_p50_ms", "ms"},
      {"core.image_bytes_ratio", "ratio"},
      {"core.save_bytes_per_row", "B"},
      {"storage.create_ms", "ms"},
      {"common.governor_peak_mb", "MB"},
      {"samples.read", "count"},
      {"samples.ingest", "count"},
      {"samples.maintain", "count"},
      {"samples.checkpoint", "count"},
      {"samples.restore", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

class MetricLine {
 public:
  void Add(const char* name, const char* unit, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += std::string("\"") + name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + unit + "\"}";
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Per-layer metrics of the traced phase; zero where the workload gives a
/// layer no work.
void PerLayer(const Phase& traced, double untraced_ops_per_s,
              const Tracer& tracer, MetricLine* line) {
  std::vector<double> overhead_us, parse_us, model_us, grid_ms, fallback_ms,
      rel_bound, refit_ms, tick_ms, image_ratio;
  std::map<std::string, std::vector<double>> exec_ms;
  size_t reads = 0, exact_scans = 0, model_answers = 0, violations = 0;
  uint64_t rows_saved = 0;
  size_t count[kNumOpClasses] = {};
  for (const OpResult& op : traced.ops) {
    ++count[static_cast<int>(op.cls)];
    if (op.error) continue;
    if (op.refit_span >= 0) refit_ms.push_back(tracer.Micros(op.refit_span) / 1e3);
    if (op.tick_span >= 0) tick_ms.push_back(tracer.Micros(op.tick_span) / 1e3);
    if (op.cls == OpClass::kCheckpoint) {
      rows_saved += op.rows_saved;
      image_ratio.push_back(
          Ratio(static_cast<double>(op.image_bytes), 24.0 * op.rows_saved));
    }
    if (op.cls != OpClass::kRead) continue;
    ++reads;
    if (op.exact_scan) ++exact_scans;
    if (op.read_span >= 0) overhead_us.push_back(tracer.SelfMicros(op.read_span));
    if (op.parse_span >= 0) parse_us.push_back(tracer.Micros(op.parse_span));
    if (op.exec_span >= 0) {
      exec_ms[op.tmpl].push_back(tracer.Micros(op.exec_span) / 1e3);
    }
    if (op.model) {
      ++model_answers;
      if (op.out_of_bound) ++violations;
      rel_bound.push_back(op.rel_bound);
      if (std::strcmp(op.tmpl, "band_avg") == 0) {
        grid_ms.push_back(tracer.Micros(op.body_span) / 1e3);
      } else {
        model_us.push_back(tracer.Micros(op.body_span));
      }
    } else if (op.hybrid) {
      fallback_ms.push_back(tracer.Micros(op.body_span) / 1e3);
    }
  }
  std::vector<double> create_ms, fit_ms;
  for (const Span& s : tracer.spans()) {
    if (s.op != 0) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (std::strcmp(s.name, "storage.CreateTable") == 0) create_ms.push_back(ms);
    if (std::strcmp(s.name, "model.Fit") == 0) fit_ms.push_back(ms);
  }
  const auto& c = traced.counters;
  auto counter = [&](const char* name) {
    return static_cast<double>(c.at(name));
  };
  const std::vector<double> ingest_ms = Millis(traced, OpClass::kIngest);
  double traced_ops_per_s = OpsPerSecond(traced);

  std::map<std::string, double> v;
  v["serve.read_overhead_us"] = Median(overhead_us);
  v["serve.ingest_p50_ms"] = Quantile(ingest_ms, 0.5);
  v["serve.ingest_p95_ms"] = Quantile(ingest_ms, 0.95);
  v["query.parse_us"] = Median(parse_us);
  for (const char* t : kScanTemplates) {
    v[std::string("query.exec_ms.") + t] = Median(exec_ms[t]);
  }
  v["query.expr_batches_per_scan"] =
      Ratio(counter("expr.batches"), static_cast<double>(exact_scans));
  v["compress.index_builds_per_read"] =
      Ratio(counter("scan.index_builds"), static_cast<double>(reads));
  v["compress.blocks_pruned_ratio"] =
      Ratio(counter("scan.blocks_pruned"), counter("scan.blocks_total"));
  v["compress.encoded_agg_ratio"] =
      Ratio(counter("scan.encoded_agg"), static_cast<double>(exact_scans));
  v["aqp.model_us"] = Median(model_us);
  v["aqp.grid_ms"] = Median(grid_ms);
  v["aqp.fallback_ms"] = Median(fallback_ms);
  v["aqp.model_hit_ratio"] =
      Ratio(counter("aqp.hybrid.model_hit"),
            counter("aqp.hybrid.model_hit") +
                counter("aqp.hybrid.exact_fallback"));
  v["aqp.fallback.no_model"] = counter("aqp.hybrid.fallback.no_model");
  v["aqp.fallback.low_quality"] = counter("aqp.hybrid.fallback.low_quality");
  v["aqp.fallback.drift"] = counter("aqp.hybrid.fallback.drift");
  v["aqp.fallback.count_star"] = counter("aqp.hybrid.fallback.count_star");
  v["aqp.bound_violation_ratio"] = Ratio(static_cast<double>(violations),
                                         static_cast<double>(model_answers));
  v["aqp.rel_bound_p50"] = Median(rel_bound);
  v["model.fit_ms"] = Median(fit_ms);
  v["model.refit_ms"] = Median(refit_ms);
  v["learn.maintain_p50_ms"] = Median(Millis(traced, OpClass::kMaintain));
  v["learn.tick_ms"] = Median(tick_ms);
  v["learn.harvest_rows_per_fallback"] =
      Ratio(counter("learn.harvest.rows"), counter("aqp.hybrid.exact_fallback"));
  v["learn.promoted"] = counter("learn.promoted");
  v["learn.refined"] = counter("learn.refined");
  v["core.checkpoint_p50_ms"] = Median(Millis(traced, OpClass::kCheckpoint));
  v["core.restore_p50_ms"] = Median(Millis(traced, OpClass::kRestore));
  v["core.image_bytes_ratio"] = Median(image_ratio);
  v["core.save_bytes_per_row"] =
      Ratio(counter("persist.save_bytes"), static_cast<double>(rows_saved));
  v["storage.create_ms"] = Median(create_ms);
  v["common.governor_peak_mb"] =
      traced.governor_peak_p95_bytes / (1024.0 * 1024.0);
  for (int k = 0; k < kNumOpClasses; ++k) {
    v[std::string("samples.") + OpClassName(static_cast<OpClass>(k))] =
        static_cast<double>(count[k]);
  }
  v["trace.overhead_ratio"] = Ratio(traced_ops_per_s, untraced_ops_per_s);

  for (const MetricSpec& m : PerLayerMetrics()) {
    line->Add(m.name, m.unit, v.at(m.name));
  }
}

/// Names of the LAWS_* variables set in the environment. The program reads
/// its knobs from them, so a run refuses to start while any is set.
std::vector<std::string> LawsEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "LAWS_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                           : static_cast<size_t>(eq - *e));
    }
  }
  return names;
}

}  // namespace

laws::Result<std::string> RunBenchmark(const RunConfig& config,
                                       std::FILE* log) {
  const std::vector<std::string> env = LawsEnvironment();
  if (!env.empty()) {
    std::string names;
    for (const std::string& n : env) names += " " + n;
    return laws::Status::InvalidArgument(
        "refusing to run with program knobs set in the environment:" + names);
  }
  if (!(config.seconds > 0.0)) {
    return laws::Status::InvalidArgument("seconds must be positive");
  }
  // One client thread and a one-lane pool: nothing parallel is measured.
  laws::ThreadPool::SetGlobalThreadCount(1);

  Tracer tracer;
  WorkloadContext context;
  context.seed = config.seed;
  context.work_dir = config.work_dir;
  context.tracer = &tracer;
  LAWS_ASSIGN_OR_RETURN(std::unique_ptr<Workload> workload,
                        MakeWorkload(config.workload, context));
  std::fprintf(log, "workload %s seed %llu seconds %g trace %d\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               config.trace ? 1 : 0);
  const auto prepare_start = Clock::now();
  LAWS_RETURN_IF_ERROR(workload->Prepare());
  std::fprintf(log, "generated rows and reference in %.3f s\n",
               SecondsSince(prepare_start));
  // peak_rss_mb counts the program's memory: the peak above what the
  // benchmark's own copies of the rows hold before the first set-up.
  const double base_rss_mb = ResetPeakRss();
  std::fprintf(log, "benchmark-side memory %.1f MB\n", base_rss_mb);

  std::vector<double> setup_seconds;
  LAWS_RETURN_IF_ERROR(
      SetupPause(workload.get(), &tracer, config.trace, &setup_seconds));
  uint64_t op_id = 0;
  Phase untraced;
  Phase traced;
  // End-to-end timings keep what ran on a quiet host.
  HostProbe probe;
  const bool gated = !config.trace;
  LAWS_RETURN_IF_ERROR(RunPhase(
      workload.get(), &tracer,
      config.trace ? config.seconds / 2 : config.seconds, false,
      config.trace ? Guard::kNone : Guard::kEndToEnd, &op_id, &setup_seconds,
      config.trace, gated ? &probe : nullptr, &untraced));
  if (config.trace) {
    LAWS_RETURN_IF_ERROR(RunPhase(workload.get(), &tracer, config.seconds,
                                  true, Guard::kPerLayer, &op_id, nullptr,
                                  false, nullptr, &traced));
  }
  std::fprintf(log, "setup_s of %zu set-ups:", setup_seconds.size());
  for (double s : setup_seconds) std::fprintf(log, " %.4f", s);
  std::fprintf(log, "\n");

  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  for (const Phase* phase : {&untraced, &traced}) {
    for (const OpResult& op : phase->ops) {
      ++attempted;
      if (op.error || op.wrong) ++failed;
      if (op.incorrect) correct = false;
    }
  }
  // in_bound_ratio: answers within their stated bound (an exact answer's
  // bound is zero) over all answers of the untraced phase.
  size_t answers = 0;
  size_t in_bound = 0;
  for (const OpResult& op : untraced.ops) {
    if (op.cls != OpClass::kRead || op.error) continue;
    ++answers;
    if (!op.wrong && !op.out_of_bound) ++in_bound;
  }
  Keep quiet;
  if (gated) {
    const double gate = probe.Gate();
    for (uint32_t before : untraced.probe_before) {
      quiet.push_back(probe.Quiet(before, gate));
    }
  }
  const std::vector<const char*> templates = workload->Templates();
  std::fprintf(log, "untraced phase:\n");
  PrintClasses(untraced, templates, {}, log);
  PrintFailures(untraced, log);
  if (gated) {
    const size_t kept = static_cast<size_t>(
        std::count(quiet.begin(), quiet.end(), true));
    std::fprintf(log,
                 "quiet host: %zu probe readings, gate %.1f us; %zu of %zu "
                 "operations kept\n",
                 probe.size(), probe.Gate(), kept, quiet.size());
    PrintClasses(untraced, templates, quiet, log);
    std::fprintf(log, "  ops_per_s all %.6g quiet %.6g\n",
                 OpsPerSecond(untraced), OpsPerSecond(untraced, quiet));
  }
  if (config.trace) {
    std::fprintf(log, "traced phase:\n");
    PrintClasses(traced, templates, {}, log);
    PrintFailures(traced, log);
  }
  std::fprintf(log, "attempted %zu failed %zu out-of-bound %zu correct %s\n",
               attempted, failed, answers - in_bound,
               correct ? "true" : "false");

  MetricLine metrics;
  if (config.trace) {
    PerLayer(traced, OpsPerSecond(untraced), tracer, &metrics);
    const std::string path = config.work_dir + "/trace-" + config.workload +
                             "-" + std::to_string(config.seed) + ".jsonl";
    LAWS_RETURN_IF_ERROR(tracer.Write(path));
    std::fprintf(log, "spans written to %s\n", path.c_str());
  } else {
    const std::vector<double> read_ms =
        Millis(untraced, OpClass::kRead, nullptr, quiet);
    const std::map<std::string, double> v = {
        {"setup_s", Median(setup_seconds)},
        {"ops_per_s", OpsPerSecond(untraced, quiet)},
        {"read_p50_ms", Quantile(read_ms, 0.5)},
        {"read_p95_ms", Quantile(read_ms, 0.95)},
        {"peak_rss_mb", PeakRssMb() - base_rss_mb},
        {"in_bound_ratio", Ratio(static_cast<double>(in_bound),
                                 static_cast<double>(answers))},
    };
    for (const MetricSpec& m : EndToEndMetrics()) {
      metrics.Add(m.name, m.unit, v.at(m.name));
    }
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.Json() + "}";
}

}  // namespace perfbench
