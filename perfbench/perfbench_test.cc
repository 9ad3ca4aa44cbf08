// The benchmark's own tests: a seed fixes the operation sequence and its
// answers, the traced decomposition answers exactly like the plain calls,
// and a run refuses to start while program knobs are set.

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver.h"
#include "reference.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Small data so every workload runs in well under a second; 200 ops take
/// archive_ingest through a whole cycle, checkpoint, restore and rebase
/// included. Its 5 held-out batches do not divide the 32 of a cycle, so
/// the second cycle starts on another batch than the first.
constexpr size_t kOps = 200;

std::string WorkDir() {
  const std::string dir = "perfbench_test_work";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs kOps operations. With `setups_between_rounds`, a set-up also runs
/// at every round boundary after the first operation, as the driver's
/// mid-run set-ups do.
std::vector<OpResult> RunOps(const std::string& name, uint64_t seed,
                             bool traced, bool setups_between_rounds = false) {
  Tracer tracer;
  WorkloadContext context;
  context.seed = seed;
  context.work_dir = WorkDir();
  context.tracer = &tracer;
  context.record_answers = true;
  context.scale = Scale{4'000, 100, 1'280};
  auto workload = MakeWorkload(name, context);
  EXPECT_TRUE(workload.ok());
  if (!workload.ok()) return {};
  EXPECT_TRUE((*workload)->Prepare().ok());
  double seconds = 0.0;
  EXPECT_TRUE((*workload)->Setup(&seconds).ok());
  tracer.set_enabled(traced);
  std::vector<OpResult> ops(kOps);
  size_t setups = 0;
  for (size_t i = 0; i < kOps; ++i) {
    if (setups_between_rounds && i > 0 && (*workload)->AtBoundary()) {
      EXPECT_TRUE((*workload)->Setup(&seconds).ok());
      ++setups;
    }
    tracer.set_op(i + 1);
    EXPECT_TRUE((*workload)->RunNext(&ops[i]).ok());
  }
  if (setups_between_rounds) {
    EXPECT_GT(setups, 0u);
  }
  return ops;
}

class PerWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(PerWorkload, SameSeedGivesSameSequenceAndAnswers) {
  const std::vector<OpResult> a = RunOps(GetParam(), 7, false);
  const std::vector<OpResult> b = RunOps(GetParam(), 7, false);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cls, b[i].cls) << i;
    EXPECT_EQ(a[i].sql, b[i].sql) << i;
    EXPECT_EQ(a[i].answer, b[i].answer) << i;
    EXPECT_FALSE(a[i].error) << i << " " << a[i].detail;
    EXPECT_FALSE(a[i].incorrect) << i << " " << a[i].detail;
  }
}

TEST_P(PerWorkload, SetUpsBetweenRoundsLeaveTheSequenceUnchanged) {
  const std::vector<OpResult> a = RunOps(GetParam(), 7, false);
  const std::vector<OpResult> b = RunOps(GetParam(), 7, false, true);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cls, b[i].cls) << i;
    EXPECT_EQ(a[i].sql, b[i].sql) << i;
    EXPECT_FALSE(b[i].error) << i << " " << b[i].detail;
    EXPECT_FALSE(b[i].incorrect) << i << " " << b[i].detail;
  }
}

TEST_P(PerWorkload, DifferentSeedsGiveDifferentConstants) {
  const std::vector<OpResult> a = RunOps(GetParam(), 7, false);
  const std::vector<OpResult> b = RunOps(GetParam(), 8, false);
  size_t differing = 0;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (!a[i].sql.empty() && a[i].sql != b[i].sql) ++differing;
  }
  EXPECT_GT(differing, kOps / 4);
}

TEST_P(PerWorkload, TracedDecompositionAnswersLikeThePlainCalls) {
  const std::vector<OpResult> plain = RunOps(GetParam(), 11, false);
  const std::vector<OpResult> traced = RunOps(GetParam(), 11, true);
  ASSERT_EQ(plain.size(), traced.size());
  size_t reads = 0;
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].sql, traced[i].sql) << i;
    EXPECT_EQ(plain[i].method, traced[i].method) << i;
    EXPECT_EQ(plain[i].answer, traced[i].answer) << i;
    EXPECT_EQ(plain[i].error, traced[i].error) << i;
    if (traced[i].cls == OpClass::kRead) {
      ++reads;
      EXPECT_GE(traced[i].read_span, 0) << i;
      EXPECT_GE(traced[i].body_span, 0) << i;
      EXPECT_LT(plain[i].read_span, 0) << i;
    }
  }
  EXPECT_GT(reads, 0u);
}

TEST(PerfbenchTest, OutOfBoundModelAnswersAreCountedNotFailed) {
  // Model answers farther from the reference than their own bound, such as
  // SUM answered from the model grid (ROADMAP item 1a), are flagged
  // out_of_bound; they are not failures.
  for (const OpResult& op : RunOps("model_serving", 7, false)) {
    EXPECT_FALSE(op.error || op.wrong) << op.sql << " " << op.detail;
    if (op.out_of_bound) {
      EXPECT_TRUE(op.model) << op.sql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PerWorkload,
                         ::testing::ValuesIn(WorkloadNames()));

TEST(PerfbenchTest, RefusesToRunWithProgramKnobsSet) {
  ASSERT_EQ(setenv("LAWS_THREADS", "2", 1), 0);
  RunConfig config;
  config.workload = "model_serving";
  config.seconds = 1;
  const laws::Result<std::string> result = RunBenchmark(config, stderr);
  unsetenv("LAWS_THREADS");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("LAWS_THREADS"), std::string::npos);
}

TEST(PerfbenchTest, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(Supports(199, 0.95));
  EXPECT_TRUE(Supports(200, 0.95));
  EXPECT_EQ(SamplesNeeded(0.5), 20u);
  EXPECT_EQ(SamplesNeeded(0.95), 200u);
}

TEST(PerfbenchTest, ExactCheckCatchesADifferentAnswer) {
  laws::Table table(laws::Schema({laws::Field{"n", laws::DataType::kInt64, false},
                                  laws::Field{"x", laws::DataType::kDouble, false}}));
  ASSERT_TRUE(table.AppendRow({laws::Value::Int64(3), laws::Value::Double(1.5)}).ok());
  Expected want;
  want.rows = {{laws::Value::Int64(3), laws::Value::Double(1.5 * (1 + 1e-12))}};
  EXPECT_EQ(CompareExact(table, want), "");
  want.rows = {{laws::Value::Int64(3), laws::Value::Double(1.5 * (1 + 1e-8))}};
  EXPECT_NE(CompareExact(table, want), "");
  want.rows = {{laws::Value::Int64(4), laws::Value::Double(1.5)}};
  EXPECT_NE(CompareExact(table, want), "");
}

}  // namespace
}  // namespace perfbench
