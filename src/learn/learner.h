#ifndef LAWSDB_LEARN_LEARNER_H_
#define LAWSDB_LEARN_LEARNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/model_catalog.h"
#include "core/session.h"
#include "learn/observer.h"
#include "model/incremental.h"
#include "query/ast.h"
#include "storage/catalog.h"

namespace laws {

/// Knobs for the database-learning loop (Park et al.'s "Database
/// Learning" direction, ROADMAP item 4): how aggressively exact-scan
/// traffic is converted into model candidates, when candidates graduate
/// into the catalog, and when served models are drift-flagged or evicted.
/// Every field has a LAWS_LEARN_* env override (see FromEnv and the
/// README knob table).
struct LearnerOptions {
  /// Master switch (LAWS_LEARNING). Off ⇒ every hook is a no-op and the
  /// hybrid engine pays one virtual call per exact fallback, nothing
  /// else.
  bool enabled = false;

  /// Harvest budget per exact scan: at most this many new rows are
  /// folded per candidate per query (LAWS_LEARN_SCAN_ROWS). Keeps the
  /// by-product cost of one query bounded regardless of table size.
  size_t max_rows_per_scan = 4096;

  /// At most this many (x, y) column pairs are tracked per scan — the
  /// first referenced numeric columns win (LAWS_LEARN_SCAN_PAIRS).
  size_t max_pairs_per_scan = 4;

  /// Cap on concurrently tracked candidates; new pairs beyond it are
  /// ignored until candidates graduate or reset
  /// (LAWS_LEARN_MAX_CANDIDATES).
  size_t max_candidates = 64;

  /// A candidate needs at least this many folded observations before
  /// promotion is attempted (LAWS_LEARN_MIN_OBS).
  size_t min_observations = 48;

  /// Minimum adjusted R² for a harvested candidate to enter the catalog
  /// — the same "judge the quality" gate Fit applies, tightened because
  /// harvested models were never explicitly requested.
  double min_promote_quality = 0.90;

  /// A promoted/adopted model is re-solved (refined) only after this
  /// many additional harvested rows, so a hot query loop does not
  /// re-solve per query.
  size_t refine_min_new_rows = 64;

  /// Drift gate: flag a model when the mean residual of fresh rows sits
  /// more than drift_z standard errors from zero (LAWS_LEARN_DRIFT_Z),
  /// or the KS normality p-value of fresh residuals drops below
  /// drift_ks_p, or Durbin-Watson shows extreme serial correlation.
  double drift_z = 4.0;
  double drift_ks_p = 1e-4;
  /// Fresh rows needed before a drift verdict is attempted.
  size_t drift_min_rows = 32;

  /// Catalog cap for eviction; 0 = never evict (LAWS_LEARN_MAX_MODELS).
  size_t max_models = 0;
  /// A model must have been arbitrated at least this often before its
  /// hit rate can evict it — fresh models get a grace period.
  size_t evict_min_opportunities = 32;

  static LearnerOptions FromEnv();
};

/// What one maintenance pass (Learner::Apply) changed in the catalog.
struct LearnTickReport {
  size_t promoted = 0;        // new models harvested from traffic
  size_t refined = 0;         // existing models re-solved with more rows
  size_t refine_rejected = 0; // re-solve discarded (interval not tighter)
  size_t refits = 0;          // drift-flagged models refit from the table
  size_t refit_failed = 0;    // drift refits that errored (flag kept)
  size_t evicted = 0;         // models dropped by the hit-rate policy

  bool did_work() const {
    return promoted + refined + refits + evicted > 0;
  }
  std::string Summary() const;
};

/// The database-learning loop's stateful half: every exact-scan fallback
/// feeds scanned rows through mergeable OLS sufficient statistics
/// (model/incremental.h) to grow candidate models, residual tests flag
/// served models whose law the fresh data contradicts, and Apply()
/// publishes the resulting promotions/refinements/refits/evictions into
/// a ModelCatalog — under the serving layer, inside one snapshot commit.
///
/// Thread-safety: all methods are safe to call concurrently. Row
/// accumulation runs outside the mutex into a scan-local accumulator and
/// merges under the mutex, so N sessions harvesting in parallel contend
/// only on the merge.
class Learner : public LearningObserver {
 public:
  explicit Learner(LearnerOptions options = LearnerOptions::FromEnv());
  ~Learner() override = default;

  Learner(const Learner&) = delete;
  Learner& operator=(const Learner&) = delete;

  // ---- LearningObserver (hybrid-engine hooks) ----
  bool enabled() const override {
    return enabled_.load(std::memory_order_acquire);
  }
  void OnExactScan(const SelectStatement& stmt, const Catalog& data,
                   const ModelCatalog& models) override;
  bool RejectModel(uint64_t model_id, std::string* why) override;
  void OnDecision(const std::string& table, uint64_t hit_model_id,
                  const ModelCatalog& models) override;

  // ---- Lifecycle / maintenance ----

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_release); }

  /// One maintenance pass: promote ready candidates, refine adopted
  /// models (only when the refreshed prediction interval is no wider —
  /// intervals may tighten, never lie), refit drift-flagged models
  /// against the current table contents, and apply the eviction policy.
  /// `data`/`models` are the writable copies inside a snapshot commit
  /// (or the process catalogs in standalone use); ids stay stable across
  /// refinements and refits.
  LearnTickReport Apply(const Catalog& data, ModelCatalog* models);

  /// True when Apply() has something to do (ready candidate or pending
  /// drift refit) — the loop's scheduling predicate.
  bool HasPendingWork() const;

  /// Invoked (outside the learner mutex) whenever new pending work
  /// appears; the learning loop points this at its scheduler.
  void SetWorkSignal(std::function<void()> signal);

  /// Self-check for the differential harness: re-accumulates every
  /// untainted candidate's rows in a single Add()-only pass (no Merge)
  /// and compares sufficient statistics entrywise against the merged
  /// accumulator. Returns "" on agreement, else a description of the
  /// first mismatch — this is what the planted merge mutant trips.
  std::string VerifyCandidatesAgainstBatch(const Catalog& data,
                                           double tolerance) const;

  /// One-line shell status ("learning status").
  std::string StatusString() const;

  size_t num_candidates() const;
  size_t num_drifted() const;
  const LearnerOptions& options() const { return options_; }

 private:
  struct Candidate {
    std::string table;
    std::string x_column;
    std::string y_column;
    std::string model_source;
    IncrementalOls acc;
    /// Rows [0, seen_rows) of the table have been offered to `acc`
    /// (filtered rows excluded); the reservation that makes repeated
    /// scans of unchanged data harvest nothing twice.
    size_t seen_rows = 0;
    uint64_t seen_version = 0;
    /// Bumped each time the accumulator restarts from scratch. A harvest
    /// merges its rows only into the lineage it reserved them from; a
    /// later version of the same append-only table keeps the lineage.
    uint64_t lineage = 0;
    /// acc.count() at the last Apply attempt; gates re-solving.
    size_t solved_count = 0;
    /// Catalog id once promoted/adopted; 0 while still a candidate.
    uint64_t model_id = 0;
    /// Set when a governor-aborted harvest lost rows: the accumulator
    /// no longer equals "all usable rows in [0, seen_rows)", so the
    /// batch self-check must skip it.
    bool tainted = false;

    Candidate(std::string t, std::string x, std::string y, std::string src,
              IncrementalOls a)
        : table(std::move(t)),
          x_column(std::move(x)),
          y_column(std::move(y)),
          model_source(std::move(src)),
          acc(std::move(a)) {}
  };

  struct ModelStats {
    uint64_t hits = 0;
    uint64_t opportunities = 0;
    /// data_version at the last drift check (skip re-checking until the
    /// table moves again).
    uint64_t drift_checked_version = 0;
    bool drifted = false;
  };

  void HarvestPairs(const SelectStatement& stmt, const Table& table,
                    const std::string& table_name);
  void CheckDrift(const Table& table, const ModelCatalog& models,
                  const std::string& table_name);
  void SignalIfPending();

  const LearnerOptions options_;
  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;
  std::map<std::string, Candidate> candidates_;  // keyed table|x|y|source
  std::map<uint64_t, ModelStats> model_stats_;
  std::function<void()> work_signal_;
};

}  // namespace laws

#endif  // LAWSDB_LEARN_LEARNER_H_
