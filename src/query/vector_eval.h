#ifndef LAWSDB_QUERY_VECTOR_EVAL_H_
#define LAWSDB_QUERY_VECTOR_EVAL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/bytecode.h"
#include "storage/table.h"

namespace laws {

/// Batch register machine executing CompiledExpr programs (bytecode.h)
/// over column batches of kExprBatchSize values, with null validity
/// carried as one byte per lane alongside each register. All register
/// storage lives in the evaluator and is reused across batches, runs and
/// queries — the steady state performs zero allocations per batch.
///
/// EvaluateExpr / FilterRows below are the executor's expression entry
/// points: compile once (raising every static diagnostic), then run
/// batched. They are the only expression evaluator; the reference oracle
/// (src/testing) checks them bit for bit.

/// Batch width. 1–4K is the classic vectorized-execution sweet spot
/// (registers stay in L1/L2, amortizes dispatch ~1000×); tests use small
/// widths to exercise batch-boundary handling.
inline constexpr size_t kExprBatchSize = 1024;

class BatchEvaluator {
 public:
  explicit BatchEvaluator(size_t batch_size = kExprBatchSize);

  /// Executes `program` over every row of `table`, materializing the
  /// result column (type = program.result_type). Errors are the
  /// data-dependent numeric ones ("division by zero", ...).
  Result<Column> Run(const CompiledExpr& program, const Table& table);

  /// Filter fast path: returns the indices of rows where the BOOL
  /// `program` is TRUE (NULL/FALSE excluded) without ever materializing
  /// the mask column. A non-BOOL program is a TypeMismatch.
  Result<std::vector<uint32_t>> RunFilter(const CompiledExpr& program,
                                          const Table& table);

  /// Runs a column-free `program` on a single lane and boxes the result
  /// (NULL included) — the constant-folding primitive. Bumps no counter.
  Result<Value> RunScalar(const CompiledExpr& program);

 private:
  /// One register: typed lanes plus a 1-byte-per-lane null mask (1 =
  /// NULL, matching GatherNumericMasked). `has_nulls` lets ops take a
  /// dense loop that skips mask reads when no lane is NULL. String lanes
  /// view the column dictionary or the constant pool; they are valid
  /// only for the run that wrote them.
  struct Slot {
    std::vector<double> f64;
    std::vector<int64_t> i64;
    std::vector<uint8_t> b8;
    std::vector<std::string_view> str;
    std::vector<uint8_t> null8;
    bool has_nulls = false;
  };

  /// Sizes the registers `program` needs to the batch width.
  void Provision(const CompiledExpr& program);

  Status RunBatch(const CompiledExpr& program, const Table& table,
                  size_t base, size_t n);

  size_t batch_size_;
  std::vector<Slot> slots_;
};

/// Evaluates a scalar expression (no aggregates) over every row of
/// `table`, producing a column of table.num_rows() values. SQL NULL
/// semantics: NULL propagates through arithmetic/comparisons; AND/OR use
/// three-valued logic. A bare column reference returns a copy of the
/// column itself; anything else compiles and runs batched. Bumps the
/// `expr.compiled` / `expr.batches` counters and the `expr.compile_micros`
/// histogram. When `disassembly` is non-null it receives the compiled
/// program dump (for EXPLAIN ANALYZE), or stays empty if nothing compiled.
Result<Column> EvaluateExpr(const Expr& expr, const Table& table,
                            std::string* disassembly = nullptr);

/// Evaluates a boolean predicate over the table and returns the indices of
/// rows where it is TRUE (NULL and FALSE rows are excluded). A predicate
/// that is not BOOL is a TypeMismatch raised before any row is read.
Result<std::vector<uint32_t>> FilterRows(const Expr& predicate,
                                         const Table& table,
                                         std::string* disassembly = nullptr);

}  // namespace laws

#endif  // LAWSDB_QUERY_VECTOR_EVAL_H_
