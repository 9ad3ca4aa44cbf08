#ifndef LAWSDB_MODEL_GROUPED_FIT_H_
#define LAWSDB_MODEL_GROUPED_FIT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "model/fit.h"
#include "storage/table.h"

namespace laws {

/// Describes a per-group fit over a table, the paper's §2 workload: fit
/// I = p * nu^alpha for every LOFAR source. The group column must be INT64
/// (source ids, SKUs, sensor ids, ...).
struct GroupedFitSpec {
  std::string group_column;
  std::vector<std::string> input_columns;
  std::string output_column;
  FitOptions fit_options;
  /// Groups with fewer usable observations than max(num_parameters + 1,
  /// min_observations) are skipped (counted in skipped_too_few).
  size_t min_observations = 0;
};

/// Fit result for one group.
struct GroupFitResult {
  int64_t group_key = 0;
  FitOutput fit;
};

/// All per-group fits plus bookkeeping about groups that could not be
/// fitted.
struct GroupedFitOutput {
  std::vector<GroupFitResult> groups;
  /// Groups skipped for having too few observations.
  size_t skipped_too_few = 0;
  /// Groups whose fit returned an error (singular/diverged).
  size_t failed = 0;
  /// Total rows consumed from the source table.
  size_t rows_processed = 0;
};

/// Runs the grouped fit. Rows with NULL in any referenced column are
/// ignored. Groups are returned sorted by key.
Result<GroupedFitOutput> FitGrouped(const Model& model, const Table& table,
                                    const GroupedFitSpec& spec);

/// Materializes the grouped-fit output as a parameter table — the paper's
/// Table 1 right-hand side. Schema: [<group_name> INT64, <one DOUBLE column
/// per model parameter>, residual_se DOUBLE, r_squared DOUBLE, n_obs INT64],
/// one row per fitted group in ascending key order.
Result<Table> GroupedFitToTable(const Model& model,
                                const GroupedFitOutput& fits,
                                const std::string& group_name);

/// Read-only keyed view of a parameter table in the GroupedFitToTable
/// layout, and the layout's only reader. It reads the columns in place
/// (copies nothing) and lives as long as the viewed table. Keys ascend,
/// so Find and KeyRange are binary searches. An ungrouped fit is viewed
/// as one group with key 0.
class ParameterView {
 public:
  /// Checks in O(1) that `table` has the layout for a
  /// `num_parameters`-parameter model: column count, types, trailing
  /// names, no NULLs. Key order is CheckKeysAscending's job.
  static Result<ParameterView> Of(const Table& table, size_t num_parameters);
  /// Views an ungrouped fit as group 0. Like a table view it copies
  /// nothing: `parameters` and `quality` must outlive the view.
  static Result<ParameterView> Single(const Vector& parameters,
                                      const FitQuality& quality,
                                      size_t num_parameters);

  size_t size() const { return size_; }
  int64_t key(size_t i) const { return keys_[i]; }
  /// Writes group i's parameters into `out`, resizing it.
  void Params(size_t i, Vector* out) const;
  double residual_se(size_t i) const { return rse_[i]; }
  double r_squared(size_t i) const { return r2_[i]; }
  size_t n_obs(size_t i) const {
    return n_obs_ == nullptr ? single_n_obs_ : static_cast<size_t>(n_obs_[i]);
  }

  /// Row of `key`, or size() when the key has no parameters.
  size_t Find(int64_t key) const;
  /// Rows [first, last) whose key, as a double, lies in [lo, hi].
  std::pair<size_t, size_t> KeyRange(double lo, double hi) const;
  /// O(n) check that keys strictly ascend, as Find and KeyRange assume.
  /// GroupedFitToTable guarantees it; loaded images are checked.
  Status CheckKeysAscending() const;

 private:
  size_t size_ = 0;
  const int64_t* keys_ = nullptr;
  std::vector<const double*> params_;  // one column per parameter
  const double* rse_ = nullptr;
  const double* r2_ = nullptr;
  const int64_t* n_obs_ = nullptr;  // nullptr: single_n_obs_
  size_t single_n_obs_ = 0;
};

}  // namespace laws

#endif  // LAWSDB_MODEL_GROUPED_FIT_H_
