// Expression engine micro-benchmark: the compiled bytecode VM
// (DESIGN.md §13) on 1M-row salted tables.
//
// Three shapes, each the hot inner loop of one executor stage:
//   filter     WHERE predicate -> selected row indices
//   project    arithmetic SELECT item -> output column
//   aggregate  full GROUP BY pipeline (keys + agg args through the VM)
//
// Filter and project results are checked row by row against a plain C++
// loop over the same columns (bit-identical: the build uses strict ISO
// floating point, no contraction). Each case records `bytecode_seconds`
// (best of 5) in the JSON; `tools/bench_compare.py --metric
// bytecode_seconds` against BENCH_expr_bytecode.json holds it to the
// repo's 10% regression rule.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/vector_eval.h"
#include "storage/table.h"

namespace {

using namespace laws;
using namespace laws::bench;

// Small deterministic generator (splitmix64) so the table is "salted":
// irregular values, no accidental patterns an engine could special-case.
uint64_t Mix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double MixDouble(uint64_t& state) {
  return static_cast<double>(Mix(state) >> 11) * 0x1.0p-53;  // [0, 1)
}

Table MakeSaltedTable(size_t rows) {
  uint64_t seed = 0xB17EC0DEull;
  Column da(DataType::kDouble, /*nullable=*/true);    // ~3% NULL
  Column db(DataType::kDouble, /*nullable=*/false);
  Column ia(DataType::kInt64, /*nullable=*/false);
  Column g(DataType::kInt64, /*nullable=*/false);
  std::vector<double> da_v(rows), db_v(rows);
  std::vector<uint8_t> da_null(rows);
  std::vector<int64_t> ia_v(rows), g_v(rows);
  for (size_t i = 0; i < rows; ++i) {
    da_null[i] = (Mix(seed) % 100 < 3) ? 1 : 0;
    da_v[i] = MixDouble(seed) * 200.0 - 100.0;
    db_v[i] = MixDouble(seed) * 50.0 + 1.0;  // > 0, safe under ln()
    ia_v[i] = static_cast<int64_t>(Mix(seed) % 10'000) - 5'000;
    g_v[i] = static_cast<int64_t>(Mix(seed) % 64);
  }
  da.AppendDoubleBatch(da_v.data(), da_null.data(), rows);
  db.AppendDoubleBatch(db_v.data(), nullptr, rows);
  ia.AppendInt64Batch(ia_v.data(), nullptr, rows);
  g.AppendInt64Batch(g_v.data(), nullptr, rows);
  Schema schema({Field{"da", DataType::kDouble, true},
                 Field{"db", DataType::kDouble, false},
                 Field{"ia", DataType::kInt64, false},
                 Field{"g", DataType::kInt64, false}});
  std::vector<Column> cols;
  cols.push_back(std::move(da));
  cols.push_back(std::move(db));
  cols.push_back(std::move(ia));
  cols.push_back(std::move(g));
  return Unwrap(Table::FromColumns(std::move(schema), std::move(cols)),
                "build table");
}

const Expr* WhereOf(const SelectStatement& stmt) { return stmt.where.get(); }

// Best-of-reps wall time for one thunk (min absorbs scheduler noise on
// the shared CI box).
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

bool SameDoubleBits(double a, double b) {
  // Bit-identity, except every NaN is one class (matches the differential
  // harness's TablesEquivalent contract).
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  uint64_t ba, bb;
  std::memcpy(&ba, &a, 8);
  std::memcpy(&bb, &b, 8);
  return ba == bb;
}

}  // namespace

int main(int argc, char** argv) {
  Banner("Expression engine: compiled bytecode VM",
         "absolute bytecode_seconds per case, held to 10% by "
         "bench_compare.py");

  size_t rows = 1'000'000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0) {
      rows = static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  const int reps = 5;

  std::printf("salted table: %zu rows (da: double ~3%% NULL, db: double, "
              "ia/g: int64)\n\n", rows);
  const Table table = MakeSaltedTable(rows);
  const Column& da = table.column(0);
  const Column& db = table.column(1);
  const Column& ia = table.column(2);
  ThreadPool::SetGlobalThreadCount(1);  // the VM runs per thread

  JsonReport json(JsonPathFromArgs(argc, argv));
  auto record = [&](const char* name, double seconds) {
    std::printf("%-10s %10.4f s\n", name, seconds);
    json.Begin(std::string("expr_bytecode_") + name);
    json.Field("rows", rows);
    ThreadSweepFields(json, 1);
    json.Field("bytecode_seconds", seconds);
  };

  // --- filter: WHERE predicate over all rows -> selected indices --------
  {
    auto stmt = Unwrap(ParseSelect(
        "SELECT da FROM t WHERE da * 0.5 + db > ia / 3.0 AND da < 90.0"),
        "parse filter");
    const Expr& pred = *WhereOf(stmt);
    std::vector<uint32_t> sel;
    const double bc = BestSeconds(reps, [&] {
      sel = Unwrap(FilterRows(pred, table), "filter");
    });
    std::vector<uint32_t> want;
    for (size_t i = 0; i < rows; ++i) {
      if (da.IsNull(i)) continue;  // NULL AND x is never TRUE here
      const double a = da.DoubleAt(i);
      if (a * 0.5 + db.DoubleAt(i) >
              static_cast<double>(ia.Int64At(i)) / 3.0 &&
          a < 90.0) {
        want.push_back(static_cast<uint32_t>(i));
      }
    }
    if (sel != want) {
      std::fprintf(stderr, "FATAL: filter selected %zu rows, the reference "
                   "loop %zu\n", sel.size(), want.size());
      return 1;
    }
    record("filter", bc);
  }

  // --- project: arithmetic SELECT item -> output column -----------------
  {
    auto stmt = Unwrap(ParseSelect(
        "SELECT da * da + db * db - 2.0 * da * db + ln(db) + abs(da) "
        "FROM t"), "parse project");
    const Expr& item = *stmt.select_list[0].expr;
    Column col(DataType::kDouble);
    const double bc = BestSeconds(reps, [&] {
      col = Unwrap(EvaluateExpr(item, table), "project");
    });
    for (size_t i = 0; i < rows; ++i) {
      bool same = col.IsNull(i) == da.IsNull(i);
      if (same && !da.IsNull(i)) {
        const double a = da.DoubleAt(i), b = db.DoubleAt(i);
        same = SameDoubleBits(
            col.DoubleAt(i),
            a * a + b * b - 2.0 * a * b + std::log(b) + std::fabs(a));
      }
      if (!same) {
        std::fprintf(stderr, "FATAL: project row %zu differs from the "
                     "reference loop\n", i);
        return 1;
      }
    }
    record("project", bc);
  }

  // --- aggregate: full GROUP BY pipeline through the executor -----------
  {
    auto stmt = Unwrap(ParseSelect(
        "SELECT g, SUM(da * db + 1.5), COUNT(*) FROM t GROUP BY g "
        "ORDER BY g"), "parse aggregate");
    Table out{Schema{}};
    const double bc = BestSeconds(reps, [&] {
      out = Unwrap(ExecuteSelectOnTable(table, stmt), "aggregate");
    });
    int64_t counted = 0;
    for (size_t r = 0; r < out.num_rows(); ++r) {
      counted += out.column(2).Int64At(r);
    }
    if (rows >= 64 * 1024 &&
        (out.num_rows() != 64 || counted != static_cast<int64_t>(rows))) {
      std::fprintf(stderr, "FATAL: aggregate produced %zu groups over "
                   "%" PRId64 " rows\n", out.num_rows(), counted);
      return 1;
    }
    record("aggregate", bc);
  }

  MetricsFields(json);
  json.Flush();
  ThreadPool::SetGlobalThreadCount(0);
  std::printf("\nSHAPE OK: filter and project match the reference loops; "
              "compare bytecode_seconds with tools/bench_compare.py\n");
  return 0;
}
