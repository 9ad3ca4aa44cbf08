#ifndef LAWSDB_COMPRESS_BLOCK_STORE_H_
#define LAWSDB_COMPRESS_BLOCK_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/table.h"

namespace laws {

/// Block-partitioned acceleration index for compressed-domain scans
/// (DESIGN.md §14). Columns are split into fixed-size row blocks; each
/// block of each numeric column carries a zone map (min/max over the
/// values *as the comparison engine sees them* — coerced to double —
/// plus NULL/NaN tallies and shape flags) and, when beneficial, an RLE
/// run view formed by bit-pattern equality. The plain `Table` columns
/// remain the source of truth: the index only licenses skipping or
/// batching work, so a stale or missing index is always just a slower
/// scan, never a different answer. Each table version owns its index
/// (Table::block_index), so the index is freed with the table.

/// Per-block, per-column statistics. `min`/`max` cover the comparable
/// values (non-NULL, non-NaN) after the engine's double coercion, which
/// is exactly the space every SQL comparison is evaluated in — int64 →
/// double casting is monotone, so interval tests against a double
/// literal are sound even past the 2^53 integer horizon. NaNs are
/// tallied separately (§11: NaN compares as "greater" through the
/// three-way compare, so it satisfies !=, >, >= and fails =, <, <=);
/// NULLs never satisfy a predicate. -0.0 needs no special casing here
/// because IEEE == and < treat it as equal to +0.0, so either sign is a
/// valid interval endpoint.
struct ZoneMap {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  uint32_t rows = 0;
  uint32_t null_count = 0;
  uint32_t nan_count = 0;
  /// Every comparable value is an integer with |v| <= 2^53 (exactly
  /// representable). The license for run-weighted SUM/AVG: when all
  /// blocks are integral and the summed magnitude bound stays under
  /// 2^53, floating-point summation is exact and therefore
  /// order-insensitive — any association is bit-identical to the
  /// row-order sweep.
  bool all_integral = true;
  /// All rows share one bit pattern and null flag (constant block).
  bool is_constant = false;
  /// Comparable values are non-decreasing in row order (informational;
  /// set only when the block has no NULLs/NaNs).
  bool sorted_asc = false;

  uint32_t comparable_count() const { return rows - null_count - nan_count; }
};

/// One RLE run inside a block: rows [start, start+len) all carry the
/// same coerced-double bit pattern (`value`) and null flag. Bit-pattern
/// equality (not ==) keeps -0.0 vs +0.0 and distinct NaN payloads in
/// separate runs, so a run value is a faithful representative of every
/// row in the run under both comparison and output-identity semantics.
struct EncodedRun {
  uint32_t start = 0;  // row offset within the block
  uint32_t len = 0;
  double value = 0.0;  // coerced; unspecified when is_null
  bool is_null = false;
};

/// Index data for one column: one zone map per block, plus an optional
/// run view per block (empty vector = runs not beneficial, read the
/// plain column). Strings are not indexed (`usable` = false) — string
/// predicates are declined by the scan planner anyway.
struct ColumnBlockIndex {
  bool usable = false;
  std::vector<ZoneMap> zones;
  std::vector<std::vector<EncodedRun>> runs;
};

struct BlockIndex {
  size_t block_rows = 0;
  size_t num_rows = 0;
  size_t num_blocks = 0;
  uint64_t data_version = 0;
  std::vector<ColumnBlockIndex> columns;

  size_t BlockStart(size_t b) const { return b * block_rows; }
  size_t BlockLength(size_t b) const {
    const size_t start = BlockStart(b);
    return start >= num_rows ? 0 : std::min(block_rows, num_rows - start);
  }
};

/// Rows per block of the index ExecuteSelect attaches to a base table.
/// Tests and the differential harness attach smaller-block indexes with
/// BuildBlockIndex so tiny tables still span several blocks.
inline constexpr size_t kDefaultBlockRows = 4096;

/// Builds a block index for `table` at `block_rows` (> 0) rows per block.
/// Attach it with Table::set_block_index.
std::shared_ptr<const BlockIndex> BuildBlockIndex(const Table& table,
                                                  size_t block_rows);

/// The index attached to `table` if it still describes the table's rows
/// (same data_version and row count); nullptr when none is attached or a
/// mutation has made it stale.
std::shared_ptr<const BlockIndex> CurrentBlockIndex(const Table& table);

}  // namespace laws

#endif  // LAWSDB_COMPRESS_BLOCK_STORE_H_
