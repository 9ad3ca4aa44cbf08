#ifndef LAWSDB_STORAGE_TABLE_H_
#define LAWSDB_STORAGE_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace laws {

struct BlockIndex;  // compress/block_store.h

/// An in-memory columnar table. Mutations bump a data version counter that
/// the model-capture layer (laws::core) uses to detect stale fits — the
/// paper's "Data or model changes" challenge.
class Table {
 public:
  explicit Table(Schema schema);

  /// Builds a table from pre-populated columns; all columns must match the
  /// schema types and have equal length.
  static Result<Table> FromColumns(Schema schema, std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Direct mutable access for bulk loaders; call SyncRowCount() afterwards
  /// to re-validate lengths and publish the new row count.
  Column* mutable_column(size_t i) { return &columns_[i]; }

  /// Column lookup by (case-insensitive) name.
  Result<const Column*> ColumnByName(std::string_view name) const;

  /// Appends one row; `values.size()` must equal the column count.
  Status AppendRow(const std::vector<Value>& values);

  /// Re-checks that all columns have equal length after bulk loading via
  /// mutable_column(), then publishes that length as the row count.
  Status SyncRowCount();

  /// Boxed cell access (slow path).
  Value GetValue(size_t row, size_t col) const {
    return columns_[col].GetValue(row);
  }

  /// New table with the rows at `indices`, in order.
  Table GatherRows(const std::vector<uint32_t>& indices) const;

  /// Monotonic counter incremented by every mutation.
  uint64_t data_version() const { return data_version_; }

  /// The compressed-scan block index attached to this table, or nullptr.
  /// It is derived data: whoever reads it checks its data_version and row
  /// count against the table's (CurrentBlockIndex in compress/block_store.h),
  /// so an index left behind by a mutation is ignored, never misread.
  /// Copies and moves of a Table start with no index. Safe to call from
  /// concurrent readers of one shared table; the last store wins.
  std::shared_ptr<const BlockIndex> block_index() const {
    return block_index_.Load();
  }
  void set_block_index(std::shared_ptr<const BlockIndex> index) {
    block_index_.Store(std::move(index));
  }

  /// Total columnar heap footprint in bytes.
  size_t MemoryBytes() const;

  /// Pretty-prints up to `max_rows` rows with a header (for examples/CLIs).
  std::string ToString(size_t max_rows = 10) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  uint64_t data_version_ = 0;

  /// Holds the index under a mutex. (GCC 12's std::atomic<std::shared_ptr>
  /// releases its lock bit with relaxed ordering on load, which TSan
  /// reports as a race against the next store.) Copying or assigning a
  /// slot empties the target, so an index never outlives the rows it was
  /// built from.
  class BlockIndexSlot {
   public:
    BlockIndexSlot() = default;
    BlockIndexSlot(const BlockIndexSlot&) {}
    BlockIndexSlot& operator=(const BlockIndexSlot&) {
      Store(nullptr);
      return *this;
    }
    std::shared_ptr<const BlockIndex> Load() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return index_;
    }
    void Store(std::shared_ptr<const BlockIndex> index) {
      std::lock_guard<std::mutex> lock(mutex_);
      index_.swap(index);  // the old index is released after unlocking
    }

   private:
    mutable std::mutex mutex_;
    std::shared_ptr<const BlockIndex> index_;
  };
  BlockIndexSlot block_index_;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace laws

#endif  // LAWSDB_STORAGE_TABLE_H_
