#ifndef LAWSDB_QUERY_EXECUTOR_H_
#define LAWSDB_QUERY_EXECUTOR_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "query/ast.h"
#include "storage/catalog.h"

namespace laws {

/// Executes a parsed SELECT against the catalog. This is the *exact* query
/// path: full scans, filters, hash aggregation. The approximate path
/// (laws::aqp) answers the same statements from captured models instead.
Result<Table> ExecuteSelect(const Catalog& catalog,
                            const SelectStatement& stmt);

/// Parses and executes SQL text.
Result<Table> ExecuteQuery(const Catalog& catalog, const std::string& sql);

/// Executes a SELECT against an explicit table (ignores the FROM name).
/// Used by the AQP layer to run rewritten plans over reconstructed data.
Result<Table> ExecuteSelectOnTable(const Table& table,
                                   const SelectStatement& stmt);

/// Three-way comparison defining the total order used by ORDER BY:
/// numbers (int64/double/bool, compared as doubles) < NaN < strings <
/// NULL, ascending. Every NaN compares equal to every other NaN, so the
/// order is a valid strict weak ordering even over NaN-bearing keys
/// (std::stable_sort requires this; the previous comparator returned the
/// same sign for NaN compared in either direction, which is UB).
///
/// A number-vs-string pair has no meaningful order; it is still ranked
/// deterministically (numbers first) to keep the comparator total, and
/// reported through `incomparable` (set to true, never cleared) so
/// callers can surface a type error instead of silently sorting — per-
/// column typing makes this unreachable from SQL today, but the executor
/// sorts Values, not columns, so the comparator must stay defensive.
int CompareOrderValues(const Value& a, const Value& b,
                       bool* incomparable = nullptr);

/// Renders the execution plan for a statement as indented text, one
/// operator per line, innermost (scan) last — a minimal EXPLAIN for
/// diagnostics and tests.
Result<std::string> ExplainSelect(const Catalog& catalog,
                                  const SelectStatement& stmt);
Result<std::string> ExplainQuery(const Catalog& catalog,
                                 const std::string& sql);

/// EXPLAIN ANALYZE over the exact engine: actually executes the query
/// under a TraceSink and renders the measured per-stage plan tree — each
/// operator with rows in/out and wall time — followed by a result-
/// cardinality/total-time line. The hybrid (model-vs-exact) variant lives
/// on HybridQueryEngine::ExplainAnalyze, which adds the arbitration
/// decision to the tree.
Result<std::string> ExplainAnalyzeQuery(const Catalog& catalog,
                                        const std::string& sql);

/// The query-level `expr:` and `scan:` lines of EXPLAIN ANALYZE, shared
/// by the exact and hybrid renderers. The expr.* and scan.* counters are
/// process-global, so construction snapshots them and Render() prints the
/// deltas since:
///   expr: compiled=N batches=N
///   scan: blocks=N pruned=N runs_skipped=N encoded_agg=N
/// blocks counts the blocks a WHERE filter visited through a table's
/// block index; blocks=0 on a filtered query means it decoded every row.
class ExplainCounterDiff {
 public:
  ExplainCounterDiff();
  std::string Render() const;

 private:
  uint64_t compiled_;
  uint64_t batches_;
  uint64_t blocks_;
  uint64_t pruned_;
  uint64_t run_skips_;
  uint64_t enc_agg_;
};

}  // namespace laws

#endif  // LAWSDB_QUERY_EXECUTOR_H_
