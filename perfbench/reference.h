#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"
#include "storage/types.h"

namespace perfbench {

constexpr int kNumBands = 4;
/// The LOFAR bands. Data is generated with zero in-band jitter, so every
/// stored wavelength equals one of these bit for bit and an equality
/// predicate written as kBandSql selects exactly that band.
extern const double kBands[kNumBands];
extern const char* const kBandSql[kNumBands];

/// Aggregates over one group of rows, accumulated in row order.
struct Cell {
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
  }
  double Avg() const { return sum / static_cast<double>(count); }
};

/// The benchmark's own copy of the measurements rows. Every expected answer
/// is computed from it, never from the program under test.
class ReferenceArchive {
 public:
  explicit ReferenceArchive(size_t num_sources);

  /// Copies rows [begin, end) of a generated measurements table. Fails if a
  /// wavelength is not exactly one of the bands.
  static laws::Result<ReferenceArchive> FromTable(const laws::Table& table,
                                                  size_t num_sources,
                                                  size_t begin, size_t end);

  /// Appends one acknowledged row; `source` is 1-based.
  void Append(int64_t source, int band, double intensity);

  size_t rows() const { return source_.size(); }
  size_t num_sources() const { return num_sources_; }
  int64_t source_at(size_t row) const { return source_[row]; }
  int band_at(size_t row) const { return band_[row]; }
  double intensity_at(size_t row) const { return intensity_[row]; }

  const Cell& Source(int64_t source) const {
    return by_source_[static_cast<size_t>(source - 1)];
  }
  const Cell& SourceBand(int64_t source, int band) const {
    return by_source_band_[static_cast<size_t>(source - 1) * kNumBands +
                           static_cast<size_t>(band)];
  }
  const Cell& Band(int band) const {
    return by_band_[static_cast<size_t>(band)];
  }

  /// Order-independent checksum: the wrapping sum of every intensity's bits.
  uint64_t intensity_checksum() const { return checksum_; }

  /// Builds the indexes the static scan templates read. They are not kept
  /// current by Append.
  void BuildScanIndexes();
  /// Rows of `band` with intensity strictly above `threshold`.
  int64_t CountAbove(int band, double threshold) const;
  /// Row ids of `source`, in table order.
  std::vector<uint32_t> RowsOf(int64_t source) const;
  /// The k rows of `band` with the highest intensity, highest first, ties
  /// in table order.
  const std::vector<uint32_t>& TopRows(int band) const {
    return top_rows_[static_cast<size_t>(band)];
  }
  static constexpr size_t kTopRows = 100;
  /// Aggregate of `band` over the sources numbered above `source_cut`.
  Cell BandAboveSource(int band, int64_t source_cut) const;

 private:
  size_t num_sources_;
  std::vector<int64_t> source_;
  std::vector<int8_t> band_;
  std::vector<double> intensity_;
  std::vector<Cell> by_source_;
  std::vector<Cell> by_source_band_;
  std::vector<Cell> by_band_;
  uint64_t checksum_ = 0;

  // Scan indexes.
  std::vector<uint32_t> source_offsets_;
  std::vector<uint32_t> source_rows_;
  std::vector<std::vector<double>> band_sorted_;
  std::vector<std::vector<uint32_t>> top_rows_;
  // Per band, prefix over sources 1..s of count and sum.
  std::vector<std::vector<int64_t>> prefix_count_;
  std::vector<std::vector<double>> prefix_sum_;
};

/// One expected result: rows of values, compared in order or as a multiset.
struct Expected {
  std::vector<std::vector<laws::Value>> rows;
  bool ordered = false;
};

/// Compares a result table with an expected one: integers exactly, doubles
/// within 1e-9 relative. Returns "" on a match, else what differs.
std::string CompareExact(const laws::Table& got, const Expected& want);

/// The numeric value in the last column of the single result row.
laws::Result<double> ScalarOf(const laws::Table& table);

/// Exact-equality test with 1e-9 relative tolerance.
bool NearlyEqual(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
