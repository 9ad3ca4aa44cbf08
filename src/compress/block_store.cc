#include "compress/block_store.h"

#include <cmath>
#include <cstring>

#include "common/metrics.h"

namespace laws {
namespace {

constexpr double kExactIntBound = 9007199254740992.0;  // 2^53

Counter* IndexBuildCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("scan.index_builds");
  return c;
}

bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

/// Coerces row r of a numeric column to the comparison engine's double
/// space (int64 -> cast, bool -> 0/1). Caller guarantees non-NULL.
double CoercedAt(const Column& col, size_t r) {
  switch (col.type()) {
    case DataType::kInt64:
      return static_cast<double>(col.int64_data()[r]);
    case DataType::kDouble:
      return col.double_data()[r];
    case DataType::kBool:
      return col.bool_data()[r] ? 1.0 : 0.0;
    default:
      return 0.0;  // unreachable: strings are not indexed
  }
}

ColumnBlockIndex BuildColumnIndex(const Column& col, size_t num_rows,
                                  size_t block_rows, size_t num_blocks) {
  ColumnBlockIndex out;
  if (col.type() == DataType::kString) return out;  // usable = false
  out.usable = true;
  out.zones.resize(num_blocks);
  out.runs.resize(num_blocks);

  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t start = b * block_rows;
    const size_t len = std::min(block_rows, num_rows - start);
    ZoneMap& zone = out.zones[b];
    zone.rows = static_cast<uint32_t>(len);

    std::vector<EncodedRun> runs;
    double prev_value = 0.0;
    bool prev_null = false;
    bool sorted = true;
    double prev_comparable = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < len; ++i) {
      const size_t r = start + i;
      const bool is_null = col.IsNull(r);
      const double v = is_null ? 0.0 : CoercedAt(col, r);
      if (is_null) {
        ++zone.null_count;
      } else if (std::isnan(v)) {
        ++zone.nan_count;
      } else {
        if (v < zone.min) zone.min = v;
        if (v > zone.max) zone.max = v;
        if (zone.all_integral &&
            (std::trunc(v) != v || std::fabs(v) > kExactIntBound)) {
          zone.all_integral = false;
        }
        if (v < prev_comparable) sorted = false;
        prev_comparable = v;
      }
      if (!runs.empty() && is_null == prev_null &&
          (is_null || SameBits(v, prev_value))) {
        ++runs.back().len;
      } else {
        runs.push_back({static_cast<uint32_t>(i), 1, v, is_null});
        prev_value = v;
        prev_null = is_null;
      }
    }
    if (zone.comparable_count() == 0) zone.all_integral = false;
    zone.is_constant = (len > 0 && runs.size() == 1);
    zone.sorted_asc = sorted && zone.null_count == 0 && zone.nan_count == 0;
#ifdef LAWS_TESTING_INJECT_BUG
    // Planted mutant for the mutation smoke test: shrink the zone max by
    // one ulp, so a predicate sitting exactly on the block maximum is
    // misclassified as unsatisfiable and the block is wrongly pruned.
    if (zone.comparable_count() > 0) {
      zone.max = std::nextafter(zone.max,
                                -std::numeric_limits<double>::infinity());
    }
#endif
    // Keep the run view only when it actually batches work: at least two
    // rows per run on average. Otherwise the per-run bookkeeping costs
    // more than per-row evaluation.
    if (len > 0 && runs.size() * 2 <= len) out.runs[b] = std::move(runs);
  }
  return out;
}

}  // namespace

std::shared_ptr<const BlockIndex> BuildBlockIndex(const Table& table,
                                                  size_t block_rows) {
  auto index = std::make_shared<BlockIndex>();
  index->block_rows = block_rows;
  index->num_rows = table.num_rows();
  index->num_blocks =
      (index->num_rows + index->block_rows - 1) / index->block_rows;
  index->data_version = table.data_version();
  index->columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    index->columns.push_back(BuildColumnIndex(
        table.column(c), index->num_rows, index->block_rows,
        index->num_blocks));
  }
  IndexBuildCounter()->Add();
  return index;
}

std::shared_ptr<const BlockIndex> CurrentBlockIndex(const Table& table) {
  std::shared_ptr<const BlockIndex> index = table.block_index();
  if (index == nullptr || index->data_version != table.data_version() ||
      index->num_rows != table.num_rows()) {
    return nullptr;
  }
  return index;
}

}  // namespace laws
