#include "workloads.h"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <optional>

#include "aqp/domain.h"
#include "common/trace.h"
#include "core/persistence.h"
#include "learn/learner.h"
#include "learn/loop.h"
#include "lofar/generator.h"
#include "query/executor.h"
#include "query/parser.h"
#include "reference.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr const char* kTable = "measurements";

/// SplitMix64: the operation sequence's own generator, so the sequence
/// depends on the seed alone and not on the program under test.
class SeqRng {
 public:
  explicit SeqRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); the modulo bias is below 2^-40 for every n used.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Deals template indexes from shuffled decks that hold every template in
/// exact proportion to its weight, so each whole deck has the same mix and
/// a run's percentiles do not move with the luck of the draw.
class Deck {
 public:
  explicit Deck(const std::vector<int>& weights) {
    int unit = 0;
    for (int w : weights) unit = std::gcd(unit, w);
    for (size_t t = 0; t < weights.size(); ++t) {
      cards_.insert(cards_.end(), static_cast<size_t>(weights[t] / unit), t);
    }
    pos_ = cards_.size();
  }

  size_t Deal(SeqRng* rng) {
    if (pos_ == cards_.size()) {
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng->Below(i + 1)]);
      }
      pos_ = 0;
    }
    return cards_[pos_++];
  }
  /// True when the next card starts a new deck.
  bool at_start() const { return pos_ == cards_.size(); }

 private:
  std::vector<size_t> cards_;
  size_t pos_ = 0;
};

/// A decimal constant with three places, e.g. 0.125: short enough that the
/// SQL text and the reference parse to the same double.
std::string Milli(uint64_t milli) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, milli / 1000,
                milli % 1000);
  return buf;
}

double ParseDouble(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// One read of the sequence with its expected answer.
struct ReadSpec {
  size_t tmpl = 0;
  std::string sql;
  Expected expected;
  /// The expected scalar, against which model answers are judged.
  double reference = 0.0;
};

ReadSpec Scalar(size_t tmpl, std::string sql, laws::Value value) {
  ReadSpec spec;
  spec.tmpl = tmpl;
  spec.sql = std::move(sql);
  spec.reference = *value.AsDouble();
  spec.expected.rows = {{std::move(value)}};
  return spec;
}

std::string Render(const laws::Table& table) {
  std::string out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      out += table.GetValue(r, c).ToString();
      out += c + 1 < table.num_columns() ? "," : ";";
    }
  }
  return out;
}

void CheckExact(const laws::Result<laws::Table>& result, const ReadSpec& spec,
                bool record, OpResult* out) {
  if (!result.ok()) {
    out->error = true;
    out->detail = result.status().ToString();
    return;
  }
  if (record) out->answer = Render(*result);
  const std::string diff = CompareExact(*result, spec.expected);
  if (!diff.empty()) {
    out->wrong = true;
    out->incorrect = true;
    out->detail = diff;
  }
}

void CheckHybrid(const laws::Result<laws::HybridAnswer>& result,
                 const ReadSpec& spec, bool record, OpResult* out) {
  if (!result.ok()) {
    out->error = true;
    out->detail = result.status().ToString();
    return;
  }
  if (record) {
    char bound[32];
    std::snprintf(bound, sizeof bound, "%.17g", result->error_bound);
    out->answer = result->method + " +/-" + bound + ": " + Render(result->table);
  }
  if (!result->approximate) {
    const std::string diff = CompareExact(result->table, spec.expected);
    if (!diff.empty()) {
      out->wrong = true;
      out->incorrect = true;
      out->detail = diff;
    }
    return;
  }
  const double bound = result->error_bound;
  out->rel_bound = bound / std::fabs(spec.reference);
  const laws::Result<double> got = ScalarOf(result->table);
  if (!got.ok()) {
    out->wrong = true;
    out->detail = got.status().ToString();
    return;
  }
  if (!(std::fabs(*got - spec.reference) <= bound)) {
    out->out_of_bound = true;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s answered %.9g, reference %.9g, bound %.3g",
                  result->method.c_str(), *got, spec.reference, bound);
    out->detail = buf;
  }
}

/// Shared by the three workloads: LOFAR rows generated from the seed with
/// zero band jitter, the reference copy, and a server built from scratch
/// at every set-up.
class LofarWorkload : public Workload {
 public:
  LofarWorkload(const WorkloadContext& context, Scale defaults, bool fit,
                const std::vector<int>& weights)
      : context_(context),
        scale_{context.scale.rows ? context.scale.rows : defaults.rows,
               context.scale.sources ? context.scale.sources
                                     : defaults.sources,
               context.scale.heldout_rows ? context.scale.heldout_rows
                                          : defaults.heldout_rows},
        fit_(fit),
        rng_(context.seed ^ 0x6f70735f73657121ULL),
        deck_(weights) {}

  laws::Status Prepare() override {
    laws::LofarConfig config;
    config.num_sources = scale_.sources;
    config.num_rows = scale_.rows + scale_.heldout_rows;
    config.band_jitter = 0.0;
    config.seed = context_.seed;
    // The generated dataset is dropped at the end of Prepare. The benchmark
    // keeps the base table, the reference and archive_ingest's batches.
    LAWS_ASSIGN_OR_RETURN(laws::LofarDataset data, laws::GenerateLofar(config));
    laws::Table& observations = data.observations;
    LAWS_ASSIGN_OR_RETURN(
        ReferenceArchive ref,
        ReferenceArchive::FromTable(observations, scale_.sources, 0,
                                    scale_.rows));
    base_ref_.emplace(std::move(ref));
    LAWS_RETURN_IF_ERROR(PrepareWorkload(observations));
    if (scale_.heldout_rows == 0) {
      base_table_ = std::make_unique<laws::Table>(std::move(observations));
    } else {
      std::vector<uint32_t> rows(scale_.rows);
      for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<uint32_t>(r);
      base_table_ =
          std::make_unique<laws::Table>(observations.GatherRows(rows));
    }
    return laws::Status::OK();
  }

  laws::Status Setup(double* seconds) override {
    ResetServer();
    // The hand-over copy is made before the clock starts.
    laws::Table rows = *base_table_;
    Tracer* tracer = context_.tracer;
    const auto start = Clock::now();
    server_ = std::make_unique<laws::Server>(Options());
    LAWS_ASSIGN_OR_RETURN(session_, server_->Connect("perfbench"));
    {
      TraceScope span(tracer, "storage.CreateTable");
      LAWS_RETURN_IF_ERROR(session_->CreateTable(kTable, std::move(rows)));
    }
    if (fit_) {
      laws::FitRequest request;
      request.table = kTable;
      request.model_source = "power_law";
      request.input_columns = {"wavelength"};
      request.output_column = "intensity";
      request.group_column = "source";
      {
        TraceScope span(tracer, "model.Fit");
        LAWS_RETURN_IF_ERROR(session_->Fit(request).status());
      }
      LAWS_RETURN_IF_ERROR(session_->RegisterDomain(
          kTable, "wavelength",
          laws::ColumnDomain::Explicit(
              std::vector<double>(std::begin(kBands), std::end(kBands)))));
    }
    // One warm-up read per template, with constants from their own stream
    // so the measured sequence does not depend on the number of set-ups.
    SeqRng warm(context_.seed ^ 0x7761726d75707321ULL);
    for (size_t t = 0; t < Templates().size(); ++t) {
      OpResult scratch;
      const ReadSpec spec = MakeRead(&warm, t);
      RunRead(spec, &scratch);
      if (scratch.error || scratch.incorrect) {
        return laws::Status::Internal(std::string("warm-up ") +
                                      Templates()[t] + ": " + scratch.detail);
      }
    }
    *seconds = SecondsSince(start);
    return AfterSetup();
  }

 protected:
  /// Workload-specific preparation over the generated rows.
  virtual laws::Status PrepareWorkload(const laws::Table& /*observations*/) {
    return laws::Status::OK();
  }
  virtual laws::Status AfterSetup() { return laws::Status::OK(); }
  virtual void ResetServer() {
    session_.reset();
    server_.reset();
  }
  /// Explicit options: nothing is read from the environment.
  virtual laws::ServerOptions Options() {
    laws::ServerOptions options;
    options.max_inflight_queries = 1;
    options.queue_timeout_micros = 10'000'000;
    options.max_sessions = 0;
    options.default_limits = laws::ResourceLimits{};
    options.hybrid = laws::HybridOptions{};
    return options;
  }
  virtual ReadSpec MakeRead(SeqRng* rng, size_t tmpl) = 0;

  void RunRead(const ReadSpec& spec, OpResult* out) {
    out->cls = OpClass::kRead;
    out->tmpl = Templates()[spec.tmpl];
    out->sql = spec.sql;
    // Reads go through the hybrid engine when the workload has a model.
    if (fit_) {
      const auto result = HybridRead(session_.get(), server_->options().hybrid,
                                     spec.sql, context_.tracer, out);
      CheckHybrid(result, spec, context_.record_answers, out);
    } else {
      const auto result =
          ExactRead(session_.get(), spec.sql, context_.tracer, out);
      CheckExact(result, spec, context_.record_answers, out);
    }
  }

  laws::Status RunNextRead(OpResult* out) {
    RunRead(MakeRead(&rng_, deck_.Deal(&rng_)), out);
    return laws::Status::OK();
  }

  /// A band `source` has rows in.
  static int BandOf(SeqRng* rng, const ReferenceArchive& ref,
                    int64_t source) {
    int present[kNumBands];
    int n = 0;
    for (int b = 0; b < kNumBands; ++b) {
      if (ref.SourceBand(source, b).count > 0) present[n++] = b;
    }
    return present[rng->Below(static_cast<uint64_t>(n))];
  }

  WorkloadContext context_;
  Scale scale_;
  bool fit_;
  SeqRng rng_;
  Deck deck_;
  std::unique_ptr<laws::Table> base_table_;
  std::optional<ReferenceArchive> base_ref_;
  std::unique_ptr<laws::Server> server_;
  std::shared_ptr<laws::ClientSession> session_;
};

/// Per-source reads answered from the captured law, with the SQL shared by
/// model_serving and archive_ingest.
ReadSpec SourceRead(size_t tmpl, const char* agg, int64_t source,
                    const char* band_sql, const Cell& cell) {
  std::string sql = std::string("SELECT ") + agg +
                    "(intensity) FROM measurements WHERE source = " +
                    std::to_string(source);
  if (band_sql != nullptr) sql += std::string(" AND wavelength = ") + band_sql;
  const std::string a = agg;
  if (a == "COUNT") return Scalar(tmpl, sql, laws::Value::Int64(cell.count));
  const double v = a == "AVG"   ? cell.Avg()
                   : a == "MIN" ? cell.min
                   : a == "MAX" ? cell.max
                                : cell.sum;
  return Scalar(tmpl, sql, laws::Value::Double(v));
}

// ---------------------------------------------------------------------------
// archive_scan: exact SQL over a quarter of the paper-size archive, no
// model. At the full size, scans take 20-300 ms and a run holds a few
// hundred, too few for the quiet-host share of them to support a p95.

class ArchiveScan : public LofarWorkload {
 public:
  explicit ArchiveScan(const WorkloadContext& context)
      : LofarWorkload(context, Scale{363'206, 8'923, 0}, /*fit=*/false,
                      {30, 30, 20, 10, 10}) {}

  std::vector<const char*> Templates() const override {
    return {"band_count", "source_rows", "band_group_avg", "bright_sources",
            "band_topk"};
  }
  laws::Status RunNext(OpResult* out) override { return RunNextRead(out); }
  bool AtBoundary() const override { return deck_.at_start(); }

 protected:
  laws::Status PrepareWorkload(const laws::Table& /*observations*/) override {
    base_ref_->BuildScanIndexes();
    return laws::Status::OK();
  }

  ReadSpec MakeRead(SeqRng* rng, size_t tmpl) override {
    const ReferenceArchive& ref = *base_ref_;
    const auto sources = static_cast<int64_t>(ref.num_sources());
    ReadSpec spec;
    spec.tmpl = tmpl;
    switch (tmpl) {
      case 0: {  // band_count
        const int b = static_cast<int>(rng->Below(kNumBands));
        const std::string t = Milli(50 + rng->Below(451));
        spec.sql = std::string("SELECT COUNT(*) FROM measurements WHERE "
                               "wavelength = ") +
                   kBandSql[b] + " AND intensity > " + t;
        spec.expected.rows = {
            {laws::Value::Int64(ref.CountAbove(b, ParseDouble(t)))}};
        break;
      }
      case 1: {  // source_rows
        const int64_t s = 1 + static_cast<int64_t>(rng->Below(
                                  static_cast<uint64_t>(sources)));
        spec.sql =
            "SELECT wavelength, intensity FROM measurements WHERE source = " +
            std::to_string(s);
        for (uint32_t r : ref.RowsOf(s)) {
          spec.expected.rows.push_back(
              {laws::Value::Double(kBands[ref.band_at(r)]),
               laws::Value::Double(ref.intensity_at(r))});
        }
        break;
      }
      case 2: {  // band_group_avg
        const int64_t cut = static_cast<int64_t>(
            rng->Below(static_cast<uint64_t>(sources / 10 + 1)));
        spec.sql =
            "SELECT wavelength, AVG(intensity) FROM measurements WHERE "
            "source > " +
            std::to_string(cut) + " GROUP BY wavelength";
        for (int b = 0; b < kNumBands; ++b) {
          const Cell c = ref.BandAboveSource(b, cut);
          if (c.count == 0) continue;
          spec.expected.rows.push_back(
              {laws::Value::Double(kBands[b]), laws::Value::Double(c.Avg())});
        }
        break;
      }
      case 3: {  // bright_sources: the paper's per-source selection
        const int b = static_cast<int>(rng->Below(kNumBands));
        const std::string t = Milli(800 + rng->Below(801));
        const double threshold = ParseDouble(t);
        spec.sql = std::string("SELECT source, AVG(intensity) FROM "
                               "measurements WHERE wavelength = ") +
                   kBandSql[b] +
                   " GROUP BY source HAVING AVG(intensity) > " + t;
        for (int64_t s = 1; s <= sources; ++s) {
          const Cell& c = ref.SourceBand(s, b);
          if (c.count > 0 && c.Avg() > threshold) {
            spec.expected.rows.push_back(
                {laws::Value::Int64(s), laws::Value::Double(c.Avg())});
          }
        }
        break;
      }
      default: {  // band_topk
        const int b = static_cast<int>(rng->Below(kNumBands));
        spec.sql = std::string("SELECT source, intensity FROM measurements "
                               "WHERE wavelength = ") +
                   kBandSql[b] + " ORDER BY intensity DESC LIMIT " +
                   std::to_string(ReferenceArchive::kTopRows);
        spec.expected.ordered = true;
        for (uint32_t r : ref.TopRows(b)) {
          spec.expected.rows.push_back(
              {laws::Value::Int64(ref.source_at(r)),
               laws::Value::Double(ref.intensity_at(r))});
        }
        break;
      }
    }
    return spec;
  }
};

// ---------------------------------------------------------------------------
// model_serving: the paper's answer-from-the-law path, no writes.

class ModelServing : public LofarWorkload {
 public:
  explicit ModelServing(const WorkloadContext& context)
      : LofarWorkload(context, Scale{1'452'824, 35'692, 0}, /*fit=*/true,
                      {25, 25, 10, 10, 10, 10, 10}) {}

  std::vector<const char*> Templates() const override {
    return {"point", "avg", "min", "max", "sum", "count", "band_avg"};
  }
  laws::Status RunNext(OpResult* out) override { return RunNextRead(out); }
  bool AtBoundary() const override { return deck_.at_start(); }

 protected:
  ReadSpec MakeRead(SeqRng* rng, size_t tmpl) override {
    const ReferenceArchive& ref = *base_ref_;
    static const char* const kAgg[] = {"AVG", "AVG", "MIN", "MAX", "SUM",
                                       "COUNT"};
    if (tmpl == 6) {  // band_avg: AVG over one band across every source
      const int b = static_cast<int>(rng->Below(kNumBands));
      return Scalar(tmpl,
                    std::string("SELECT AVG(intensity) FROM measurements "
                                "WHERE wavelength = ") +
                        kBandSql[b],
                    laws::Value::Double(ref.Band(b).Avg()));
    }
    const int64_t s =
        1 + static_cast<int64_t>(rng->Below(ref.num_sources()));
    if (tmpl == 0) {  // point: the law's value at one band
      const int b = BandOf(rng, ref, s);
      return SourceRead(tmpl, "AVG", s, kBandSql[b], ref.SourceBand(s, b));
    }
    return SourceRead(tmpl, kAgg[tmpl], s, nullptr, ref.Source(s));
  }
};

// ---------------------------------------------------------------------------
// archive_ingest: held-out rows arrive in batches next to per-source reads,
// with refits, learning ticks, checkpoints and restores.

class ArchiveIngest : public LofarWorkload {
 public:
  static constexpr size_t kBatchRows = 256;
  static constexpr size_t kBatchesPerCycle = 32;
  static constexpr size_t kMaintainEvery = 8;
  static constexpr size_t kReadsPerBatch = 4;

  // Reads after a batch are 3 point and 1 avg. A point read takes about
  // twice as long as an avg read, so with this share read_p50_ms lies
  // inside the point reads rather than between the two.
  explicit ArchiveIngest(const WorkloadContext& context)
      : LofarWorkload(context, Scale{200'000, 5'000, 32'768}, /*fit=*/true,
                      {75, 25}) {
    for (size_t b = 0; b < kBatchesPerCycle; ++b) {
      steps_.push_back(OpClass::kIngest);
      if ((b + 1) % kMaintainEvery == 0) steps_.push_back(OpClass::kMaintain);
      for (size_t r = 0; r < kReadsPerBatch; ++r) {
        steps_.push_back(OpClass::kRead);
      }
    }
    steps_.push_back(OpClass::kCheckpoint);
    steps_.push_back(OpClass::kRestore);
    image_path_ = context.work_dir + "/checkpoint.lwdb";
  }

  ~ArchiveIngest() override {
    loop_.reset();
    LofarWorkload::ResetServer();
    learner_.reset();
    std::error_code ignored;
    std::filesystem::remove(image_path_, ignored);
  }

  std::vector<const char*> Templates() const override {
    return {"point", "avg"};
  }
  bool AtBoundary() const override { return pos_ == 0; }

  laws::Status RunNext(OpResult* out) override {
    const OpClass step = steps_[pos_];
    laws::Status status = laws::Status::OK();
    switch (step) {
      case OpClass::kIngest:
        status = Ingest(out);
        break;
      case OpClass::kMaintain:
        status = Maintain(out);
        break;
      case OpClass::kRead:
        status = RunNextRead(out);
        break;
      case OpClass::kCheckpoint:
        status = Checkpoint(out);
        break;
      case OpClass::kRestore:
        status = Restore(out);
        break;
    }
    if (++pos_ == steps_.size()) {
      pos_ = 0;
      ++cycle_;
      batch_in_cycle_ = 0;
      LAWS_RETURN_IF_ERROR(Rebase());
    }
    return status;
  }

 protected:
  laws::Status PrepareWorkload(const laws::Table& observations) override {
    const size_t first = scale_.rows;
    const size_t batches = scale_.heldout_rows / kBatchRows;
    if (batches == 0) {
      return laws::Status::InvalidArgument("fewer held-out rows than a batch");
    }
    LAWS_ASSIGN_OR_RETURN(
        ReferenceArchive pool,
        ReferenceArchive::FromTable(observations, scale_.sources, first,
                                    first + batches * kBatchRows));
    pool_.emplace(std::move(pool));
    for (size_t b = 0; b < batches; ++b) {
      std::vector<uint32_t> rows(kBatchRows);
      for (size_t i = 0; i < kBatchRows; ++i) {
        rows[i] = static_cast<uint32_t>(first + b * kBatchRows + i);
      }
      batches_.push_back(observations.GatherRows(rows));
    }
    return laws::Status::OK();
  }

  void ResetServer() override {
    loop_.reset();
    LofarWorkload::ResetServer();
    learner_.reset();
    live_.emplace(*base_ref_);
    last_batch_ = -1;
  }

  laws::ServerOptions Options() override {
    laws::LearnerOptions learn;
    learn.enabled = true;
    learner_ = std::make_unique<laws::Learner>(learn);
    laws::ServerOptions options = LofarWorkload::Options();
    options.hybrid.learner = learner_.get();
    return options;
  }

  laws::Status AfterSetup() override {
    // The loop is driven by TickNow only; its background ticks never start.
    loop_ = std::make_unique<laws::LearningLoop>(&server_->snapshots(),
                                                 learner_.get());
    const laws::SnapshotPtr snap = session_->PinSnapshot();
    base_tables_ = snap->tables.Clone();
    base_models_ = snap->models.Clone();
    // Set-ups run only at cycle boundaries. cycle_ carries on, so which
    // batches arrive does not depend on when the set-ups ran.
    models_ = base_models_.size();
    return laws::Status::OK();
  }

  ReadSpec MakeRead(SeqRng* rng, size_t tmpl) override {
    const ReferenceArchive& ref = *live_;
    // Reads look at a source that has just received rows; warm-ups, before
    // any batch, at a uniformly drawn one.
    const int64_t s =
        last_batch_ < 0
            ? 1 + static_cast<int64_t>(rng->Below(ref.num_sources()))
            : pool_->source_at(static_cast<size_t>(last_batch_) * kBatchRows +
                               rng->Below(kBatchRows));
    if (tmpl == 0) {
      const int b = BandOf(rng, ref, s);
      return SourceRead(tmpl, "AVG", s, kBandSql[b], ref.SourceBand(s, b));
    }
    return SourceRead(tmpl, "AVG", s, nullptr, ref.Source(s));
  }

 private:
  laws::Status Ingest(OpResult* out) {
    out->cls = OpClass::kIngest;
    out->tmpl = "ingest";
    const size_t batch =
        (cycle_ * kBatchesPerCycle + batch_in_cycle_) % batches_.size();
    ++batch_in_cycle_;
    TraceScope span(context_.tracer, "serve.Ingest");
    const auto start = Clock::now();
    const laws::Status status = session_->Ingest(kTable, batches_[batch]);
    out->seconds = SecondsSince(start);
    if (!status.ok()) {
      out->error = true;
      out->detail = status.ToString();
      return laws::Status::OK();
    }
    for (size_t i = 0; i < kBatchRows; ++i) {
      const size_t row = batch * kBatchRows + i;
      live_->Append(pool_->source_at(row), pool_->band_at(row),
                    pool_->intensity_at(row));
    }
    last_batch_ = static_cast<int64_t>(batch);
    return laws::Status::OK();
  }

  laws::Status Maintain(OpResult* out) {
    out->cls = OpClass::kMaintain;
    out->tmpl = "maintain";
    laws::Status status = laws::Status::OK();
    {
      TraceScope span(context_.tracer, "serve.RefitStale");
      out->refit_span = span.id();
      const auto start = Clock::now();
      status = session_->RefitStale().status();
      out->seconds += SecondsSince(start);
    }
    if (status.ok()) {
      TraceScope span(context_.tracer, "learn.TickNow");
      out->tick_span = span.id();
      const auto start = Clock::now();
      const laws::Result<laws::LearnTickReport> tick = loop_->TickNow();
      out->seconds += SecondsSince(start);
      if (tick.ok()) {
        models_ += tick->promoted;
        models_ -= tick->evicted;
      }
      status = tick.status();
    }
    if (!status.ok()) {
      out->error = true;
      out->detail = status.ToString();
    }
    return laws::Status::OK();
  }

  laws::Status Checkpoint(OpResult* out) {
    out->cls = OpClass::kCheckpoint;
    out->tmpl = "checkpoint";
    const laws::SnapshotPtr snap = session_->PinSnapshot();
    LAWS_ASSIGN_OR_RETURN(laws::TablePtr table, snap->tables.Get(kTable));
    laws::Status status = laws::Status::OK();
    {
      TraceScope span(context_.tracer, "core.SaveDatabase");
      const auto start = Clock::now();
      status = laws::SaveDatabase(snap->tables, snap->models, image_path_);
      out->seconds = SecondsSince(start);
    }
    checkpoint_ok_ = status.ok();
    if (!status.ok()) {
      out->error = true;
      out->detail = status.ToString();
      return laws::Status::OK();
    }
    out->rows_saved = table->num_rows();
    out->image_bytes = std::filesystem::file_size(image_path_);
    // The acknowledged state the image must reproduce.
    saved_rows_ = live_->rows();
    saved_checksum_ = live_->intensity_checksum();
    saved_models_ = models_;
    return laws::Status::OK();
  }

  laws::Status Restore(OpResult* out) {
    out->cls = OpClass::kRestore;
    out->tmpl = "restore";
    if (!checkpoint_ok_) {
      out->error = true;
      out->detail = "no checkpoint to restore";
      return laws::Status::OK();
    }
    laws::Catalog tables;
    laws::ModelCatalog models;
    laws::Status status = laws::Status::OK();
    {
      TraceScope span(context_.tracer, "core.LoadDatabase");
      const auto start = Clock::now();
      status = laws::LoadDatabase(image_path_, &tables, &models);
      out->seconds = SecondsSince(start);
    }
    if (!status.ok()) {
      out->error = true;
      out->incorrect = true;
      out->detail = "restore failed: " + status.ToString();
      return laws::Status::OK();
    }
    const laws::Result<laws::TablePtr> table = tables.Get(kTable);
    std::string problem;
    if (!table.ok()) {
      problem = table.status().ToString();
    } else {
      const laws::Result<const laws::Column*> intensity =
          (*table)->ColumnByName("intensity");
      uint64_t checksum = 0;
      if (intensity.ok()) {
        for (size_t r = 0; r < (*table)->num_rows(); ++r) {
          checksum += BitsOf((*intensity)->DoubleAt(r));
        }
      }
      if ((*table)->num_rows() != saved_rows_) {
        problem = "restored " + std::to_string((*table)->num_rows()) +
                  " rows, acknowledged " + std::to_string(saved_rows_);
      } else if (models.size() != saved_models_) {
        problem = "restored " + std::to_string(models.size()) +
                  " models, expected " + std::to_string(saved_models_);
      } else if (!intensity.ok() || checksum != saved_checksum_) {
        problem = "restored intensities differ from the acknowledged rows";
      }
    }
    if (!problem.empty()) {
      out->wrong = true;
      out->incorrect = true;
      out->detail = problem;
    }
    return laws::Status::OK();
  }

  /// Puts the base database back so every cycle sees the same table sizes
  /// (not timed).
  laws::Status Rebase() {
    LAWS_RETURN_IF_ERROR(
        session_->ReplaceDatabase(base_tables_.Clone(), base_models_.Clone()));
    live_.emplace(*base_ref_);
    models_ = base_models_.size();
    last_batch_ = -1;
    return laws::Status::OK();
  }

  std::vector<OpClass> steps_;
  size_t pos_ = 0;
  size_t cycle_ = 0;
  size_t batch_in_cycle_ = 0;
  int64_t last_batch_ = -1;
  std::optional<ReferenceArchive> pool_;
  std::vector<laws::Table> batches_;
  std::optional<ReferenceArchive> live_;
  size_t models_ = 0;
  std::unique_ptr<laws::Learner> learner_;
  std::unique_ptr<laws::LearningLoop> loop_;
  laws::Catalog base_tables_;
  laws::ModelCatalog base_models_;
  std::string image_path_;
  bool checkpoint_ok_ = false;
  size_t saved_rows_ = 0;
  uint64_t saved_checksum_ = 0;
  size_t saved_models_ = 0;
};

}  // namespace

const char* OpClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kRead:
      return "read";
    case OpClass::kIngest:
      return "ingest";
    case OpClass::kMaintain:
      return "maintain";
    case OpClass::kCheckpoint:
      return "checkpoint";
    case OpClass::kRestore:
      return "restore";
  }
  return "?";
}

std::vector<std::string> WorkloadNames() {
  return {"archive_scan", "model_serving", "archive_ingest"};
}

laws::Result<std::unique_ptr<Workload>> MakeWorkload(
    const std::string& name, const WorkloadContext& context) {
  if (context.tracer == nullptr) {
    return laws::Status::InvalidArgument("a workload needs a tracer");
  }
  std::unique_ptr<Workload> workload;
  if (name == "archive_scan") {
    workload = std::make_unique<ArchiveScan>(context);
  } else if (name == "model_serving") {
    workload = std::make_unique<ModelServing>(context);
  } else if (name == "archive_ingest") {
    workload = std::make_unique<ArchiveIngest>(context);
  } else {
    return laws::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return workload;
}

laws::Result<laws::Table> ExactRead(laws::ClientSession* session,
                                    const std::string& sql, Tracer* tracer,
                                    OpResult* out) {
  out->exact_scan = true;
  const auto start = Clock::now();
  laws::Result<laws::Table> result = [&]() -> laws::Result<laws::Table> {
    if (!tracer->enabled()) return session->ExecuteSql(sql);
    TraceScope read(tracer, "serve.ExecuteRead");
    out->read_span = read.id();
    return session->ExecuteRead(
        [&](const laws::DatabaseSnapshot& db) -> laws::Result<laws::Table> {
          TraceScope body(tracer, "query.ExecuteQuery");
          out->body_span = body.id();
          laws::SelectStatement stmt;
          {
            TraceScope parse(tracer, "query.ParseSelect");
            out->parse_span = parse.id();
            laws::ScopedSpan span("Parse");
            LAWS_ASSIGN_OR_RETURN(stmt, laws::ParseSelect(sql));
          }
          TraceScope exec(tracer, "query.ExecuteSelect");
          out->exec_span = exec.id();
          return laws::ExecuteSelect(db.tables, stmt);
        });
  }();
  out->seconds += SecondsSince(start);
  out->method = "exact";
  return result;
}

laws::Result<laws::HybridAnswer> HybridRead(laws::ClientSession* session,
                                            const laws::HybridOptions& options,
                                            const std::string& sql,
                                            Tracer* tracer, OpResult* out) {
  out->hybrid = true;
  const auto start = Clock::now();
  laws::Result<laws::HybridAnswer> result =
      [&]() -> laws::Result<laws::HybridAnswer> {
    if (!tracer->enabled()) return session->ExecuteHybrid(sql);
    TraceScope read(tracer, "serve.ExecuteRead");
    out->read_span = read.id();
    laws::HybridAnswer answer;
    const laws::Result<laws::Table> rows = session->ExecuteRead(
        [&](const laws::DatabaseSnapshot& db) -> laws::Result<laws::Table> {
          TraceScope body(tracer, "aqp.HybridQueryEngine.Execute");
          out->body_span = body.id();
          laws::ModelQueryEngine aqp(&db.tables, &db.models, &db.domains);
          laws::HybridQueryEngine hybrid(&db.tables, &aqp, options);
          LAWS_ASSIGN_OR_RETURN(answer, hybrid.Execute(sql));
          return answer.table;  // ExecuteRead counts the rows it returns
        });
    if (!rows.ok()) return rows.status();
    return answer;
  }();
  out->seconds += SecondsSince(start);
  if (result.ok()) {
    out->method = result->method;
    out->model = result->approximate;
    out->exact_scan = !result->approximate;
  }
  return result;
}

}  // namespace perfbench
