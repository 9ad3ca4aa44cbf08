#ifndef LAWSDB_QUERY_COMPRESSED_SCAN_H_
#define LAWSDB_QUERY_COMPRESSED_SCAN_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "query/agg_state.h"
#include "query/ast.h"
#include "storage/table.h"

namespace laws {

/// Compressed-domain scan planner (DESIGN.md §14). Filters and global
/// aggregates are attempted directly on the block index built by
/// compress/block_store: zone maps prune whole blocks, RLE runs are
/// evaluated once per run, and SUM/COUNT/MIN/MAX/AVG fold zone
/// statistics without touching rows. Every entry point either produces a
/// result bit-identical to the decode-then-evaluate path or declines
/// (returns nullopt) so the caller falls back — never a third outcome.
/// A table with no current index (Table::block_index) always declines:
/// decoding is simply what a scan does without one.

/// Per-scan statistics for EXPLAIN ANALYZE span details (the process-wide
/// scan.* counters are bumped internally).
struct ScanStats {
  size_t blocks_total = 0;
  size_t blocks_pruned = 0;   // zone map proved no row can pass
  size_t blocks_taken = 0;    // zone map proved every row passes
  size_t rows_run_skipped = 0;  // rows decided by a run-mate's evaluation

  std::string Describe() const;
};

/// Attempts to evaluate WHERE predicate `pred` over `table` in the
/// compressed domain. Returns the selected row indices (ascending) —
/// bit-identical to FilterRows on the same inputs — or nullopt when:
///  - the table has no current block index (none attached, or a
///    mutation since made it stale);
///  - the predicate falls outside the conservative class (anything that
///    could raise a column-level type error, touch strings, or evaluate
///    arithmetic: those shapes keep their existing error behavior on the
///    decode path);
///  - the zone maps neither prune nor fully take any block and no
///    referenced column has a run view (the per-row scalar walk would
///    only duplicate the bytecode VM's work, slower).
std::optional<std::vector<uint32_t>> CompressedFilterRows(
    const Expr& pred, const Table& table, ScanStats* stats);

/// Attempts a global (no GROUP BY) aggregation over `table` entirely from
/// zone statistics and run views. `slots` are the unique aggregate calls
/// in statement order. Supported: COUNT(*)/COUNT/MIN/MAX over numeric
/// column refs unconditionally, SUM/AVG additionally gated on an
/// exactness proof (all blocks integral, total magnitude under 2^53, no
/// NaNs) so the fold is bit-identical to the row sweep in any order.
/// Returns one finalized-compatible AggState per slot, or nullopt to
/// decline (no current index, unsupported shape, exactness unproven).
std::optional<std::vector<AggState>> EncodedGlobalAggregate(
    const Table& table, const std::vector<const Expr*>& slots);

}  // namespace laws

#endif  // LAWSDB_QUERY_COMPRESSED_SCAN_H_
