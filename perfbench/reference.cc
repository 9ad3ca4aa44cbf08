#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

namespace perfbench {

const double kBands[kNumBands] = {0.12, 0.15, 0.16, 0.18};
const char* const kBandSql[kNumBands] = {"0.12", "0.15", "0.16", "0.18"};

ReferenceArchive::ReferenceArchive(size_t num_sources)
    : num_sources_(num_sources),
      by_source_(num_sources),
      by_source_band_(num_sources * kNumBands),
      by_band_(kNumBands) {}

laws::Result<ReferenceArchive> ReferenceArchive::FromTable(
    const laws::Table& table, size_t num_sources, size_t begin, size_t end) {
  LAWS_ASSIGN_OR_RETURN(const laws::Column* source, table.ColumnByName("source"));
  LAWS_ASSIGN_OR_RETURN(const laws::Column* wavelength,
                        table.ColumnByName("wavelength"));
  LAWS_ASSIGN_OR_RETURN(const laws::Column* intensity,
                        table.ColumnByName("intensity"));
  ReferenceArchive ref(num_sources);
  ref.source_.reserve(end - begin);
  ref.band_.reserve(end - begin);
  ref.intensity_.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    const double* hit =
        std::find(std::begin(kBands), std::end(kBands), wavelength->DoubleAt(r));
    const int64_t s = source->Int64At(r);
    if (hit == std::end(kBands) || s < 1 ||
        static_cast<size_t>(s) > num_sources) {
      return laws::Status::InvalidArgument(
          "row " + std::to_string(r) + " is outside the generated layout");
    }
    ref.Append(s, static_cast<int>(hit - kBands), intensity->DoubleAt(r));
  }
  return ref;
}

void ReferenceArchive::Append(int64_t source, int band, double intensity) {
  source_.push_back(source);
  band_.push_back(static_cast<int8_t>(band));
  intensity_.push_back(intensity);
  by_source_[static_cast<size_t>(source - 1)].Add(intensity);
  by_source_band_[static_cast<size_t>(source - 1) * kNumBands +
                  static_cast<size_t>(band)]
      .Add(intensity);
  by_band_[static_cast<size_t>(band)].Add(intensity);
  uint64_t bits = 0;
  std::memcpy(&bits, &intensity, sizeof bits);
  checksum_ += bits;
}

void ReferenceArchive::BuildScanIndexes() {
  const size_t n = rows();
  source_offsets_.assign(num_sources_ + 1, 0);
  for (int64_t s : source_) ++source_offsets_[static_cast<size_t>(s)];
  std::partial_sum(source_offsets_.begin(), source_offsets_.end(),
                   source_offsets_.begin());
  source_rows_.assign(n, 0);
  std::vector<uint32_t> cursor(source_offsets_.begin(),
                               source_offsets_.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    source_rows_[cursor[static_cast<size_t>(source_[r] - 1)]++] =
        static_cast<uint32_t>(r);
  }

  band_sorted_.assign(kNumBands, {});
  top_rows_.assign(kNumBands, {});
  std::vector<std::vector<uint32_t>> band_rows(kNumBands);
  for (size_t r = 0; r < n; ++r) {
    band_sorted_[static_cast<size_t>(band_[r])].push_back(intensity_[r]);
    band_rows[static_cast<size_t>(band_[r])].push_back(static_cast<uint32_t>(r));
  }
  for (int b = 0; b < kNumBands; ++b) {
    auto& sorted = band_sorted_[static_cast<size_t>(b)];
    std::sort(sorted.begin(), sorted.end());
    auto& rows_b = band_rows[static_cast<size_t>(b)];
    const size_t k = std::min(kTopRows, rows_b.size());
    std::partial_sort(rows_b.begin(), rows_b.begin() + static_cast<long>(k),
                      rows_b.end(), [&](uint32_t x, uint32_t y) {
                        if (intensity_[x] != intensity_[y]) {
                          return intensity_[x] > intensity_[y];
                        }
                        return x < y;
                      });
    top_rows_[static_cast<size_t>(b)].assign(
        rows_b.begin(), rows_b.begin() + static_cast<long>(k));
  }

  prefix_count_.assign(kNumBands, std::vector<int64_t>(num_sources_ + 1, 0));
  prefix_sum_.assign(kNumBands, std::vector<double>(num_sources_ + 1, 0.0));
  for (int b = 0; b < kNumBands; ++b) {
    for (size_t s = 1; s <= num_sources_; ++s) {
      const Cell& c = SourceBand(static_cast<int64_t>(s), b);
      prefix_count_[static_cast<size_t>(b)][s] =
          prefix_count_[static_cast<size_t>(b)][s - 1] + c.count;
      prefix_sum_[static_cast<size_t>(b)][s] =
          prefix_sum_[static_cast<size_t>(b)][s - 1] + c.sum;
    }
  }
}

int64_t ReferenceArchive::CountAbove(int band, double threshold) const {
  const auto& sorted = band_sorted_[static_cast<size_t>(band)];
  return static_cast<int64_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), threshold));
}

std::vector<uint32_t> ReferenceArchive::RowsOf(int64_t source) const {
  const auto s = static_cast<size_t>(source);
  return {source_rows_.begin() + source_offsets_[s - 1],
          source_rows_.begin() + source_offsets_[s]};
}

Cell ReferenceArchive::BandAboveSource(int band, int64_t source_cut) const {
  const auto b = static_cast<size_t>(band);
  const auto cut = static_cast<size_t>(source_cut);
  Cell c;
  c.count = prefix_count_[b][num_sources_] - prefix_count_[b][cut];
  c.sum = prefix_sum_[b][num_sources_] - prefix_sum_[b][cut];
  return c;
}

bool NearlyEqual(double a, double b) {
  if (a == b) return true;
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

namespace {

bool ValueEquals(const laws::Value& got, const laws::Value& want) {
  if (want.is_int64()) return got.is_int64() && got.int64() == want.int64();
  if (want.is_double()) return got.is_double() && NearlyEqual(got.dbl(), want.dbl());
  return got == want;
}

double SortKey(const laws::Value& v) {
  auto d = v.AsDouble();
  return d.ok() ? *d : std::numeric_limits<double>::quiet_NaN();
}

bool RowLess(const std::vector<laws::Value>& a,
             const std::vector<laws::Value>& b) {
  for (size_t c = 0; c < std::min(a.size(), b.size()); ++c) {
    const double x = SortKey(a[c]);
    const double y = SortKey(b[c]);
    if (x != y) return x < y;
  }
  return a.size() < b.size();
}

}  // namespace

std::string CompareExact(const laws::Table& got, const Expected& want) {
  if (got.num_rows() != want.rows.size()) {
    return "expected " + std::to_string(want.rows.size()) + " rows, got " +
           std::to_string(got.num_rows());
  }
  std::vector<std::vector<laws::Value>> rows(got.num_rows());
  for (size_t r = 0; r < got.num_rows(); ++r) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      rows[r].push_back(got.GetValue(r, c));
    }
  }
  std::vector<std::vector<laws::Value>> expected = want.rows;
  if (!want.ordered) {
    std::sort(rows.begin(), rows.end(), RowLess);
    std::sort(expected.begin(), expected.end(), RowLess);
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != expected[r].size()) {
      return "row " + std::to_string(r) + " has " +
             std::to_string(rows[r].size()) + " columns, expected " +
             std::to_string(expected[r].size());
    }
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (!ValueEquals(rows[r][c], expected[r][c])) {
        return "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": got " + rows[r][c].ToString() + ", expected " +
               expected[r][c].ToString();
      }
    }
  }
  return "";
}

laws::Result<double> ScalarOf(const laws::Table& table) {
  if (table.num_rows() != 1 || table.num_columns() == 0) {
    return laws::Status::InvalidArgument(
        "expected one result row, got " + std::to_string(table.num_rows()));
  }
  return table.GetValue(0, table.num_columns() - 1).AsDouble();
}

}  // namespace perfbench
