#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aqp/hybrid.h"
#include "common/result.h"
#include "serve/server.h"
#include "tracer.h"

namespace perfbench {

/// The user actions a workload issues; each is timed as its own class.
enum class OpClass { kRead, kIngest, kMaintain, kCheckpoint, kRestore };
constexpr int kNumOpClasses = 5;
const char* OpClassName(OpClass cls);

/// Everything the driver learns from one operation.
struct OpResult {
  OpClass cls = OpClass::kRead;
  const char* tmpl = "";
  std::string sql;  // reads only
  /// Time spent inside program calls; benchmark-side work is excluded.
  double seconds = 0.0;
  /// A program call returned an error.
  bool error = false;
  /// The answer missed its reference: an exact answer that differs, or a
  /// model answer that is not a single number.
  bool wrong = false;
  /// A model answer lies farther from the reference than the bound it
  /// reports. Counted by in_bound_ratio and aqp.bound_violation_ratio, not
  /// as a failed operation.
  bool out_of_bound = false;
  /// An answer the program gave as exact, or a restore, disagreed with the
  /// benchmark's record. Makes the whole run incorrect.
  bool incorrect = false;
  std::string detail;  // what went wrong, for the log
  /// Rendered answer, filled only when the context asks for it (tests).
  std::string answer;

  // Reads.
  bool hybrid = false;      // went through the hybrid engine
  std::string method;       // answering method: "exact", "model-point", ...
  bool model = false;       // answered from a captured model
  bool exact_scan = false;  // ran the exact executor
  double rel_bound = 0.0;   // model answers: reported bound / |reference|

  // Spans of the traced run (-1 when untraced).
  int32_t read_span = -1;  // ClientSession::ExecuteRead
  int32_t body_span = -1;  // the read body ExecuteRead runs
  int32_t parse_span = -1;
  int32_t exec_span = -1;
  int32_t refit_span = -1;
  int32_t tick_span = -1;

  // Checkpoints.
  uint64_t rows_saved = 0;
  uint64_t image_bytes = 0;
};

/// Generated data size. Zero fields take the workload's defaults.
struct Scale {
  size_t rows = 0;
  size_t sources = 0;
  /// archive_ingest: held-out rows that arrive as batches.
  size_t heldout_rows = 0;
};

struct WorkloadContext {
  uint64_t seed = 1;
  /// Directory for checkpoint images.
  std::string work_dir = ".";
  /// Spans are recorded while the tracer is enabled.
  Tracer* tracer = nullptr;
  /// Fill OpResult::answer (determinism tests).
  bool record_answers = false;
  Scale scale;
};

/// One benchmark workload: a database, a fixed operation sequence drawn
/// from the seed, and the expected answer of every operation.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the rows and the reference copy; not timed.
  virtual laws::Status Prepare() = 0;
  /// Builds a fresh server holding the database and warms one read per
  /// template. `seconds` receives the time from handing over the
  /// generated rows to the end of the warm-ups.
  virtual laws::Status Setup(double* seconds) = 0;
  /// Runs the next operation of the fixed sequence. A non-OK status means
  /// the benchmark itself could not continue.
  virtual laws::Status RunNext(OpResult* out) = 0;
  /// True when the next operation starts a new round of the workload's mix
  /// (a deck of reads, or an ingest cycle). Runs end on a boundary so that
  /// every run holds whole rounds.
  virtual bool AtBoundary() const = 0;
  /// Read templates, in report order.
  virtual std::vector<const char*> Templates() const = 0;
};

std::vector<std::string> WorkloadNames();
laws::Result<std::unique_ptr<Workload>> MakeWorkload(
    const std::string& name, const WorkloadContext& context);

/// Exact SQL read. Untraced: ClientSession::ExecuteSql. Traced: the same
/// body through ClientSession::ExecuteRead with ParseSelect and
/// ExecuteSelect as child spans.
laws::Result<laws::Table> ExactRead(laws::ClientSession* session,
                                    const std::string& sql, Tracer* tracer,
                                    OpResult* out);

/// Hybrid read. Untraced: ClientSession::ExecuteHybrid. Traced: the same
/// body (ModelQueryEngine + HybridQueryEngine on the pinned snapshot)
/// through ClientSession::ExecuteRead.
laws::Result<laws::HybridAnswer> HybridRead(laws::ClientSession* session,
                                            const laws::HybridOptions& options,
                                            const std::string& sql,
                                            Tracer* tracer, OpResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
