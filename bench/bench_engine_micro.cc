// Substrate micro-benchmarks: raw throughput of the query engine's core
// operators (scan+filter, hash aggregation, hash join, expression
// evaluation). Not a paper experiment — these calibrate the exact-path
// numbers every other bench compares against, so regressions here would
// silently distort the reproduction's speedup claims.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/random.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/vector_eval.h"
#include "storage/catalog.h"

namespace {

using namespace laws;

const Catalog& FixtureCatalog() {
  static Catalog* catalog = [] {
    auto* cat = new Catalog();
    Rng rng(1);
    auto fact = std::make_shared<Table>(
        Schema({Field{"k", DataType::kInt64, false},
                Field{"grp", DataType::kInt64, false},
                Field{"x", DataType::kDouble, false}}));
    Column* k = fact->mutable_column(0);
    Column* g = fact->mutable_column(1);
    Column* x = fact->mutable_column(2);
    for (int64_t i = 0; i < 1'000'000; ++i) {
      k->AppendInt64(i);
      g->AppendInt64(i % 1000);
      x->AppendDouble(rng.Normal(0, 10));
    }
    (void)fact->SyncRowCount();
    cat->RegisterOrReplace("fact", fact);

    auto dim = std::make_shared<Table>(
        Schema({Field{"grp", DataType::kInt64, false},
                Field{"w", DataType::kDouble, false}}));
    for (int64_t i = 0; i < 1000; ++i) {
      (void)dim->AppendRow({Value::Int64(i), Value::Double(i * 0.5)});
    }
    cat->RegisterOrReplace("dim", dim);
    return cat;
  }();
  return *catalog;
}

void BM_ScanFilter(benchmark::State& state) {
  const Catalog& cat = FixtureCatalog();
  for (auto _ : state) {
    auto r = ExecuteQuery(cat, "SELECT COUNT(*) FROM fact WHERE x > 5.0");
    if (!r.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_ScanFilter)->Unit(benchmark::kMillisecond);

void BM_ExpressionEvaluation(benchmark::State& state) {
  const Catalog& cat = FixtureCatalog();
  auto table = *cat.Get("fact");
  auto expr = ParseExpression("x * 2.0 + 1.0");
  for (auto _ : state) {
    auto col = EvaluateExpr(**expr, *table);
    if (!col.ok()) state.SkipWithError("eval failed");
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_ExpressionEvaluation)->Unit(benchmark::kMillisecond);

void BM_HashAggregate(benchmark::State& state) {
  const Catalog& cat = FixtureCatalog();
  for (auto _ : state) {
    auto r = ExecuteQuery(
        cat, "SELECT grp, SUM(x), COUNT(*) FROM fact GROUP BY grp");
    if (!r.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_HashAggregate)->Unit(benchmark::kMillisecond);

void BM_HashJoin(benchmark::State& state) {
  const Catalog& cat = FixtureCatalog();
  for (auto _ : state) {
    auto r = ExecuteQuery(
        cat,
        "SELECT SUM(x * w) FROM fact JOIN dim ON grp = grp");
    if (!r.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_HashJoin)->Unit(benchmark::kMillisecond);

void BM_SortLimit(benchmark::State& state) {
  const Catalog& cat = FixtureCatalog();
  for (auto _ : state) {
    auto r = ExecuteQuery(
        cat, "SELECT k FROM fact WHERE x > 25.0 ORDER BY x DESC LIMIT 10");
    if (!r.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SortLimit)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
