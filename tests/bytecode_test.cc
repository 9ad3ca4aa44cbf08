// Unit tests for the expression compiler and VM (DESIGN.md §13): golden
// programs out of the compiler, constant folding / CSE / type
// specialization, compile-time diagnostics, string lanes, §11 semantics
// checked bit for bit against the reference oracle, and the
// batch/scratch mechanics of the VM.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "query/bytecode.h"
#include "query/parser.h"
#include "query/vector_eval.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "testing/reference_oracle.h"

namespace laws {
namespace {

Schema TestSchema() {
  return Schema({Field{"ia", DataType::kInt64, true},
                 Field{"ib", DataType::kInt64, true},
                 Field{"da", DataType::kDouble, true},
                 Field{"db", DataType::kDouble, true},
                 Field{"ba", DataType::kBool, true},
                 Field{"sa", DataType::kString, true}});
}

// Parses the expression of `SELECT <expr> FROM t` (the select list is the
// only place aggregates parse, so every test expression goes through it).
std::unique_ptr<Expr> ParseExpr(const std::string& text) {
  auto stmt = ParseSelect("SELECT " + text + " FROM t");
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status().ToString();
  if (!stmt.ok()) return nullptr;
  return std::move(stmt->select_list[0].expr);
}

Result<CompiledExpr> Compile(const std::string& text) {
  auto expr = ParseExpr(text);
  if (expr == nullptr) return Status::InvalidArgument("unparsable");
  return CompileExpr(*expr, TestSchema());
}

Table SmallTable() {
  Table t{TestSchema()};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto row = [&](Value ia, Value ib, Value da, Value db, Value ba) {
    EXPECT_TRUE(
        t.AppendRow({std::move(ia), std::move(ib), std::move(da),
                     std::move(db), std::move(ba), Value::String("s")})
            .ok());
  };
  row(Value::Int64(1), Value::Int64(10), Value::Double(1.5),
      Value::Double(2.0), Value::Bool(true));
  row(Value::Int64(-7), Value::Int64(3), Value::Double(-0.0),
      Value::Double(0.5), Value::Bool(false));
  row(Value::Null(), Value::Int64(5), Value::Double(nan),
      Value::Double(-3.25), Value::Null());
  row(Value::Int64(9007199254740993LL),  // 2^53 + 1: comparison horizon
      Value::Int64(9007199254740992LL), Value::Double(9007199254740992.0),
      Value::Double(100.0), Value::Bool(true));
  row(Value::Int64(0), Value::Null(), Value::Null(), Value::Double(0.25),
      Value::Bool(false));
  return t;
}

// String-heavy fixture: NULLs, empty strings, shared and distinct values.
Table StringTable() {
  Table t{Schema({Field{"sa", DataType::kString, true},
                  Field{"sb", DataType::kString, true},
                  Field{"ia", DataType::kInt64, true}})};
  auto row = [&](Value sa, Value sb, int64_t ia) {
    EXPECT_TRUE(
        t.AppendRow({std::move(sa), std::move(sb), Value::Int64(ia)}).ok());
  };
  row(Value::String("apple"), Value::String("apple"), 1);
  row(Value::String(""), Value::String("b"), 2);
  row(Value::Null(), Value::String("x"), 3);
  row(Value::String("zeta"), Value::Null(), 4);
  row(Value::String(""), Value::String(""), 5);
  row(Value::String("b"), Value::String("apple"), 6);
  row(Value::Null(), Value::Null(), 7);
  return t;
}

bool SameCell(const Column& c, size_t i, const Value& want) {
  if (c.IsNull(i) || want.is_null()) return c.IsNull(i) && want.is_null();
  switch (c.type()) {
    case DataType::kDouble: {
      const double a = c.DoubleAt(i), b = *want.AsDouble();
      if (std::isnan(a) || std::isnan(b)) {
        return std::isnan(a) && std::isnan(b);
      }
      uint64_t ba, bb;
      std::memcpy(&ba, &a, 8);
      std::memcpy(&bb, &b, 8);
      return ba == bb;
    }
    case DataType::kInt64:
      return want.is_int64() && c.Int64At(i) == want.int64();
    case DataType::kBool:
      return want.is_bool() && c.BoolAt(i) == want.boolean();
    case DataType::kString:
      return want.is_string() && c.StringAt(i) == want.str();
  }
  return false;
}

// The VM over `table` (at `batch_size`) must agree with the reference
// oracle's `SELECT <text> FROM t` bit-for-bit — type, NULL-ness, value
// bits (NaNs one class) — or both must raise an error with the same code.
void ExpectParity(const std::string& text, const Table& table,
                  size_t batch_size = kExprBatchSize) {
  auto stmt = ParseSelect("SELECT " + text + " FROM t");
  ASSERT_TRUE(stmt.ok()) << text << ": " << stmt.status().ToString();
  Catalog catalog;
  ASSERT_TRUE(
      catalog.Register("t", std::make_shared<Table>(table)).ok());
  const testing::OracleResult oracle =
      testing::OracleExecuteSelect(catalog, *stmt);

  Result<Column> vm = [&]() -> Result<Column> {
    LAWS_ASSIGN_OR_RETURN(
        CompiledExpr program,
        CompileExpr(*stmt->select_list[0].expr, table.schema()));
    BatchEvaluator eval(batch_size);
    return eval.Run(program, table);
  }();
  ASSERT_EQ(oracle.status.ok(), vm.ok())
      << text << " @" << batch_size << ": oracle "
      << (oracle.status.ok() ? "ok" : oracle.status.ToString()) << " vs VM "
      << (vm.ok() ? "ok" : vm.status().ToString());
  if (!vm.ok()) {
    EXPECT_EQ(oracle.status.code(), vm.status().code())
        << text << ": " << oracle.status.ToString() << " vs "
        << vm.status().ToString();
    return;
  }
  ASSERT_EQ(oracle.table.num_columns(), 1u) << text;
  ASSERT_EQ(oracle.table.schema().field(0).type, vm->type()) << text;
  ASSERT_EQ(oracle.table.num_rows(), vm->size()) << text;
  for (size_t i = 0; i < vm->size(); ++i) {
    const Value want = oracle.table.GetValue(i, 0);
    EXPECT_TRUE(SameCell(*vm, i, want))
        << text << " @" << batch_size << " row " << i << ": oracle "
        << want.ToString() << " vs VM " << vm->GetValue(i).ToString();
  }
}

// --- Golden programs ------------------------------------------------------

TEST(BytecodeCompilerTest, GoldenIntAdd) {
  auto p = Compile("ia + 1");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.i64(ia); s1=const.i64(1); s1=add.i64(s0,s1)");
  EXPECT_EQ(p->result_type, DataType::kInt64);
  EXPECT_EQ(p->num_slots, 2);
}

TEST(BytecodeCompilerTest, GoldenMixedPromotesToDouble) {
  auto p = Compile("ia * da");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.i64(ia); s1=loadcol.f64(da); s0=cast.i64.f64(s0); "
            "s1=mul.f64(s0,s1)");
  EXPECT_EQ(p->result_type, DataType::kDouble);
}

TEST(BytecodeCompilerTest, GoldenComparisonIsDoubleTyped) {
  // §11: every numeric comparison goes through double coercion, even
  // int64-vs-int64 (the 2^53 horizon is intentional, shared semantics).
  auto p = Compile("ia < ib");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.i64(ia); s1=loadcol.i64(ib); s0=cast.i64.f64(s0); "
            "s1=cast.i64.f64(s1); s1=cmplt.f64(s0,s1)");
  EXPECT_EQ(p->result_type, DataType::kBool);
}

TEST(BytecodeCompilerTest, GoldenStringLanes) {
  auto p = Compile("coalesce(sa, 'none') = 'x'");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.str(sa); s1=const.str(none); "
            "s1=coalesce.str(s0,s1); s0=const.str(x); s0=cmpeq.str(s1,s0)");
  EXPECT_EQ(p->result_type, DataType::kBool);
}

// --- Constant folding and CSE ---------------------------------------------

TEST(BytecodeCompilerTest, ConstantSubtreeFoldsToOneLoad) {
  auto p = Compile("da + (1 + 2 * 3)");
  ASSERT_TRUE(p.ok());
  // The column-free subtree becomes a single constant instruction.
  size_t consts = 0;
  for (const auto& ins : p->code) {
    consts += ins.op == OpCode::kConstI64 || ins.op == OpCode::kConstF64;
  }
  EXPECT_EQ(consts, 1u) << p->ToString();
  EXPECT_EQ(p->constants.size(), 1u);
  EXPECT_TRUE(p->constants[0].is_int64());
  EXPECT_EQ(p->constants[0].int64(), 7);
}

TEST(BytecodeCompilerTest, StringConstantSubtreeFolds) {
  auto p = Compile("CASE WHEN 1 < 2 THEN 'lo' ELSE 'hi' END");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->ToString(), "s0=const.str(lo)");
  EXPECT_EQ(p->result_type, DataType::kString);
}

TEST(BytecodeCompilerTest, FoldTimeErrorVetoesTheFold) {
  // Folding 1/0 at compile time would raise on tables no row of which
  // ever evaluates it; the compiler must leave the division in the
  // program instead.
  auto p = Compile("da + 1 / 0");
  ASSERT_TRUE(p.ok());
  bool has_div = false;
  for (const auto& ins : p->code) has_div |= ins.op == OpCode::kDivF64;
  EXPECT_TRUE(has_div) << p->ToString();
}

TEST(BytecodeCompilerTest, DivisionByZeroErrorsOnlyWhenRowsFlow) {
  auto expr = ParseExpr("1 / 0");
  ASSERT_NE(expr, nullptr);
  Table empty{TestSchema()};
  Result<Column> none = EvaluateExpr(*expr, empty);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->size(), 0u);
  Table one{Schema({Field{"x", DataType::kInt64, true}})};
  ASSERT_TRUE(one.AppendRow({Value::Int64(1)}).ok());
  Result<Column> r = EvaluateExpr(*expr, one);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNumericError);
  EXPECT_EQ(r.status().message(), "division by zero");
}

TEST(BytecodeCompilerTest, SharedSubexpressionCompilesOnce) {
  auto p = Compile("(da * db) + (da * db)");
  ASSERT_TRUE(p.ok());
  size_t muls = 0;
  for (const auto& ins : p->code) muls += ins.op == OpCode::kMulF64;
  EXPECT_EQ(muls, 1u) << p->ToString();
  // Without CSE this is 2 loads + mul twice; with it, the add reads the
  // pinned mul slot for both operands.
  const Instruction& last = p->code.back();
  EXPECT_EQ(last.op, OpCode::kAddF64);
  EXPECT_EQ(last.a, last.b);
}

TEST(BytecodeCompilerTest, NearEqualLiteralsDoNotShareARegister) {
  // Regression (30k-sweep seeds 13278/19263): %.10g renders
  // 1.0000000000001 as "1", so a CSE key built from Expr::ToString()
  // conflated it with the integer literal 1 and rewired the second
  // occurrence onto the first one's register — the comparison then ran
  // against the wrong constant.
  const Table t = SmallTable();
  ExpectParity("((-1.0000000000001 * db) >= coalesce(-1, db, ib))", t);
  ExpectParity(
      "(ba = 1) OR (((ib / 1.0000000000001) >= ib) AND "
      "((ib / 1.0000000000001) <= ib))",
      t);
}

TEST(BytecodeCompilerTest, StringLiteralsCannotForgeACseKey) {
  // Two different argument lists whose literal texts concatenate alike
  // must not share a register.
  const Table t = StringTable();
  ExpectParity("coalesce(sa, 'a,Lsb') = coalesce(sa, 'a', 'b')", t);
}

TEST(BytecodeCompilerTest, LiteralTypeCollisionKeepsCaseInt64) {
  // int64 0 and double 0.0 both print "0"; under a text-keyed CSE the
  // ELSE 0 inherited the double constant's register and type, promoting
  // the CASE to DOUBLE where the typing rules say INT64 (seed 21765).
  const std::string text = "CASE WHEN da >= 0.0 THEN ia ELSE 0 END";
  auto p = Compile(text);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->result_type, DataType::kInt64) << p->ToString();
  ExpectParity(text, SmallTable());
}

// --- Compile-time diagnostics ---------------------------------------------

struct Diagnostic {
  const char* expr;
  StatusCode code;
  const char* message;
};

// Every static error the evaluator raises, with its exact text. Types are
// data-independent, so each must fire identically on an empty table and
// on one with rows — and before any row is read.
const Diagnostic kDiagnostics[] = {
    {"-sa", StatusCode::kTypeMismatch, "cannot negate a string"},
    {"NOT ia", StatusCode::kTypeMismatch, "NOT requires a boolean operand"},
    {"sa + 1", StatusCode::kTypeMismatch, "arithmetic on non-numeric operand"},
    {"sa = 1", StatusCode::kTypeMismatch, "cannot compare string with numeric"},
    // A NULL literal is numeric, so it cannot meet a string either.
    {"sa = NULL", StatusCode::kTypeMismatch,
     "cannot compare string with numeric"},
    {"ba AND ia", StatusCode::kTypeMismatch, "AND/OR require boolean operands"},
    {"sqrt(da, db)", StatusCode::kInvalidArgument, "sqrt() takes one argument"},
    {"abs(ia, ib)", StatusCode::kInvalidArgument, "abs() takes one argument"},
    {"ln(sa)", StatusCode::kTypeMismatch, "ln() requires a numeric argument"},
    {"abs(sa)", StatusCode::kTypeMismatch, "abs() requires a numeric argument"},
    {"pow(da)", StatusCode::kInvalidArgument, "pow() takes two arguments"},
    {"power(sa, 2)", StatusCode::kTypeMismatch,
     "pow() requires numeric arguments"},
    {"coalesce()", StatusCode::kInvalidArgument, "coalesce() needs arguments"},
    {"coalesce(sa, 1)", StatusCode::kTypeMismatch,
     "coalesce() mixes strings and numerics"},
    {"coalesce(NULL, sa)", StatusCode::kTypeMismatch,
     "coalesce() mixes strings and numerics"},
    {"nullif(da)", StatusCode::kInvalidArgument,
     "nullif() takes two arguments"},
    {"nullif(sa, 1)", StatusCode::kTypeMismatch, "nullif() type mismatch"},
    {"nullif(ia, sa)", StatusCode::kTypeMismatch, "nullif() type mismatch"},
    {"frob(nosuchcol)", StatusCode::kInvalidArgument, "unknown function: frob"},
    {"CASE WHEN ia THEN 1 END", StatusCode::kTypeMismatch,
     "CASE WHEN condition is not boolean"},
    {"CASE WHEN ba THEN sa ELSE 1 END", StatusCode::kTypeMismatch,
     "CASE mixes strings and numerics"},
    {"nosuchcol + 1", StatusCode::kNotFound, "no field named 'nosuchcol'"},
    {"SUM(ia)", StatusCode::kInvalidArgument,
     "aggregate in scalar context (missing GROUP BY handling?)"},
    // Left-to-right: the first offending node names the error, and a
    // static error wins over a data error anywhere in the tree.
    {"nosuchcol + -sa", StatusCode::kNotFound, "no field named 'nosuchcol'"},
    {"(1 / (ia - ia)) + sa", StatusCode::kTypeMismatch,
     "arithmetic on non-numeric operand"},
};

Table ThreeRowTable() {
  Table t{TestSchema()};
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(t.AppendRow({Value::Int64(i), Value::Int64(2 * i),
                             Value::Double(0.5 * static_cast<double>(i)),
                             Value::Null(), Value::Bool(i % 2 == 0),
                             Value::String(std::to_string(i))})
                    .ok());
  }
  return t;
}

TEST(BytecodeDiagnosticsTest, EveryStaticErrorIsRaisedAtCompileTime) {
  const Table empty{TestSchema()};
  const Table three = ThreeRowTable();
  for (const Diagnostic& d : kDiagnostics) {
    auto expr = ParseExpr(d.expr);
    ASSERT_NE(expr, nullptr) << d.expr;
    Result<CompiledExpr> compiled = CompileExpr(*expr, TestSchema());
    ASSERT_FALSE(compiled.ok()) << d.expr << " compiled";
    EXPECT_EQ(compiled.status().code(), d.code) << d.expr;
    EXPECT_EQ(compiled.status().message(), d.message) << d.expr;
    for (const Table* t : {&empty, &three}) {
      Result<Column> r = EvaluateExpr(*expr, *t);
      ASSERT_FALSE(r.ok()) << d.expr << " on " << t->num_rows() << " rows";
      EXPECT_EQ(r.status().code(), d.code) << d.expr;
      EXPECT_EQ(r.status().message(), d.message)
          << d.expr << " on " << t->num_rows() << " rows";
    }
  }
}

TEST(BytecodeDiagnosticsTest, NonBooleanPredicateIsRejectedBeforeRows) {
  const Table empty{TestSchema()};
  const Table three = ThreeRowTable();
  // The second predicate would divide by zero on every row; the static
  // type error still wins.
  for (const char* text : {"da + db", "sa", "1 / (ia - ia)"}) {
    auto expr = ParseExpr(text);
    ASSERT_NE(expr, nullptr);
    for (const Table* t : {&empty, &three}) {
      Result<std::vector<uint32_t>> r = FilterRows(*expr, *t);
      ASSERT_FALSE(r.ok()) << text;
      EXPECT_EQ(r.status().code(), StatusCode::kTypeMismatch) << text;
      EXPECT_EQ(r.status().message(), "WHERE predicate is not boolean")
          << text;
    }
  }
}

// --- String lanes ---------------------------------------------------------

TEST(BytecodeStringTest, ComparisonsWithNullAndEmptyStrings) {
  const Table t = StringTable();
  for (const char* cmp : {"=", "<>", "<", "<=", ">", ">="}) {
    for (size_t batch : {size_t{1}, size_t{3}, kExprBatchSize}) {
      ExpectParity(std::string("sa ") + cmp + " sb", t, batch);
      ExpectParity(std::string("sa ") + cmp + " ''", t, batch);
      ExpectParity(std::string("'' ") + cmp + " sb", t, batch);
      ExpectParity(std::string("sa ") + cmp + " 'apple'", t, batch);
    }
  }
}

TEST(BytecodeStringTest, CoalesceNullifCaseAcrossBatchBoundaries) {
  const Table t = StringTable();
  for (size_t batch : {size_t{1}, size_t{3}}) {
    ExpectParity("sa", t, batch);
    ExpectParity("'lit'", t, batch);
    ExpectParity("coalesce(sa, sb)", t, batch);
    ExpectParity("coalesce(sa, sb, 'none')", t, batch);
    ExpectParity("coalesce(sa, '')", t, batch);
    ExpectParity("nullif(sa, sb)", t, batch);
    ExpectParity("nullif(sa, '')", t, batch);
    ExpectParity("CASE WHEN ia > 3 THEN sa ELSE sb END", t, batch);
    ExpectParity("CASE WHEN sa < sb THEN sa WHEN ia = 5 THEN 'five' END", t,
                 batch);
    ExpectParity("CASE WHEN sa = '' THEN 'empty' ELSE coalesce(sa, '?') END",
                 t, batch);
    ExpectParity("coalesce(nullif(sa, 'zeta'), sb) >= 'b'", t, batch);
  }
}

TEST(BytecodeStringTest, BareColumnReferenceReturnsTheColumn) {
  const Table t = StringTable();
  auto expr = ParseExpr("sa");
  ASSERT_NE(expr, nullptr);
  std::string disasm = "unset";
  Result<Column> r = EvaluateExpr(*expr, t, &disasm);
  ASSERT_TRUE(r.ok());
  // Nothing compiles: the column is copied, dictionary and all.
  EXPECT_EQ(disasm, "");
  EXPECT_EQ(r->dictionary(), t.column(0).dictionary());
  EXPECT_EQ(r->string_codes(), t.column(0).string_codes());
  EXPECT_EQ(r->null_count(), t.column(0).null_count());
}

TEST(BytecodeStringTest, StaleViewsFromAnEarlierTableAreNeverRead) {
  // The evaluator outlives the first table; its string registers then
  // hold views into freed dictionaries. The second run's NULL lanes must
  // not read them (ASan would flag the use-after-free).
  BatchEvaluator eval(4);
  {
    const Table first = StringTable();
    auto expr = ParseExpr("coalesce(sa, sb, 'none')");
    auto p = CompileExpr(*expr, first.schema());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(eval.Run(*p, first).ok());
  }
  const Table second = StringTable();
  for (const char* text :
       {"nullif(sa, sb) = sb", "CASE WHEN ia > 2 THEN sa END",
        "coalesce(sa, sb) < 'c'"}) {
    auto expr = ParseExpr(text);
    auto p = CompileExpr(*expr, second.schema());
    ASSERT_TRUE(p.ok()) << text;
    Result<Column> r = eval.Run(*p, second);
    ASSERT_TRUE(r.ok()) << text;
  }
}

// --- §11 semantics parity -------------------------------------------------

TEST(BytecodeSemanticsTest, ArithmeticParity) {
  const Table t = SmallTable();
  ExpectParity("ia + ib", t);
  ExpectParity("da * db - ia", t);
  ExpectParity("da / db", t);
  ExpectParity("ia % ib", t);
  ExpectParity("-da", t);
  ExpectParity("-ia", t);
  ExpectParity("abs(ia)", t);
  ExpectParity("abs(da)", t);
  ExpectParity("ln(db)", t);       // negative db rows produce NaN
  ExpectParity("sqrt(da)", t);     // negative/-0.0 rows
  ExpectParity("pow(da, 2)", t);
}

TEST(BytecodeSemanticsTest, NaNComparisonClasses) {
  // The NaN row must land in the oracle's truth bucket: NaN > x and
  // NaN >= x are TRUE, ==/</<= FALSE (three-way compare puts NaN in the
  // "greater" class).
  const Table t = SmallTable();
  for (const char* cmp : {"=", "<>", "<", "<=", ">", ">="}) {
    ExpectParity(std::string("da ") + cmp + " db", t);
    ExpectParity(std::string("da ") + cmp + " 0.0", t);
  }
}

TEST(BytecodeSemanticsTest, SignedZeroSurvives) {
  const Table t = SmallTable();
  // Row 1 has da = -0.0; the bit pattern must round-trip (ExpectParity
  // compares raw bits, not ==).
  ExpectParity("da", t);
  ExpectParity("da * 1.0", t);
  ExpectParity("-da", t);
}

TEST(BytecodeSemanticsTest, CheckedInt64OverflowErrors) {
  Table t{Schema({Field{"ia", DataType::kInt64, true}})};
  ASSERT_TRUE(t.AppendRow({Value::Int64(INT64_MAX)}).ok());
  ExpectParity("ia + 1", t);
  auto expr = ParseExpr("ia + 1");
  Result<Column> r = EvaluateExpr(*expr, t);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "integer overflow in arithmetic");
}

TEST(BytecodeSemanticsTest, Int64MinEdgeCases) {
  Table t{Schema({Field{"ia", DataType::kInt64, true},
                  Field{"ib", DataType::kInt64, true}})};
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(INT64_MIN), Value::Int64(-1)}).ok());
  // INT64_MIN % -1 is defined as 0 (not a trap).
  ExpectParity("ia % ib", t);
  // -INT64_MIN and abs(INT64_MIN) error.
  ExpectParity("-ia", t);
  ExpectParity("abs(ia)", t);
  EXPECT_EQ(EvaluateExpr(*ParseExpr("-ia"), t).status().message(),
            "integer overflow in negation");
  EXPECT_EQ(EvaluateExpr(*ParseExpr("abs(ia)"), t).status().message(),
            "integer overflow in abs()");
}

TEST(BytecodeSemanticsTest, DivisionByZeroSkipsNullLanes) {
  // The divisor is NULL on one row and 0.0 on none; no error may fire
  // for the NULL lane's scratch contents.
  Table t{Schema({Field{"da", DataType::kDouble, true},
                  Field{"db", DataType::kDouble, true}})};
  ASSERT_TRUE(t.AppendRow({Value::Double(1.0), Value::Double(2.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Double(1.0), Value::Null()}).ok());
  ExpectParity("da / db", t);
  ExpectParity("da % db", t);
  // And a real 0.0 divisor on a non-NULL lane errors.
  ASSERT_TRUE(t.AppendRow({Value::Double(1.0), Value::Double(0.0)}).ok());
  ExpectParity("da / db", t);
  EXPECT_EQ(EvaluateExpr(*ParseExpr("da / db"), t).status().message(),
            "division by zero");
}

TEST(BytecodeSemanticsTest, ThreeValuedLogicParity) {
  const Table t = SmallTable();
  ExpectParity("ba AND da > 0", t);
  ExpectParity("ba OR da > 0", t);
  ExpectParity("NOT ba", t);
  ExpectParity("(da > 0 AND db > 0) OR ba", t);
}

TEST(BytecodeSemanticsTest, CaseCoalesceNullifParity) {
  const Table t = SmallTable();
  ExpectParity("CASE WHEN da > 0 THEN ia ELSE ib END", t);
  ExpectParity("CASE WHEN da > 0 THEN 1 WHEN db > 0 THEN 2 END", t);
  ExpectParity("CASE WHEN ba THEN da ELSE ia END", t);  // mixed -> double
  ExpectParity("coalesce(da, db)", t);
  ExpectParity("coalesce(ia, ib)", t);
  ExpectParity("coalesce(da, ia, 0)", t);
  ExpectParity("nullif(ia, 1)", t);
  ExpectParity("nullif(da, db)", t);
}

TEST(BytecodeSemanticsTest, ComparisonHorizonAt2Pow53) {
  // 2^53 + 1 == 2^53 compares TRUE through double coercion — the shared
  // (documented) horizon, not a divergence.
  const Table t = SmallTable();
  ExpectParity("ia = ib", t);
  ExpectParity("ia = da", t);
}

// --- VM mechanics ---------------------------------------------------------

TEST(BytecodeVmTest, TinyBatchesCrossBoundariesCorrectly) {
  // batch_size 3 over 5 rows: 2 batches, the second partial.
  const Table t = SmallTable();
  for (size_t batch : {size_t{1}, size_t{3}}) {
    ExpectParity("da * 2.0 + ia", t, batch);
    ExpectParity("coalesce(da, ia, -1)", t, batch);
    ExpectParity("CASE WHEN ba THEN ia END", t, batch);
  }
}

TEST(BytecodeVmTest, ScratchReuseIsBitIdenticalAcrossRuns) {
  // One evaluator, many runs over different programs and tables: stale
  // scratch from run N must never leak into run N+1.
  const Table t = SmallTable();
  BatchEvaluator eval;
  auto run = [&](const std::string& text) {
    auto expr = ParseExpr(text);
    auto compiled = CompileExpr(*expr, t.schema());
    EXPECT_TRUE(compiled.ok()) << text;
    Result<Column> c = eval.Run(*compiled, t);
    EXPECT_TRUE(c.ok()) << text;
    return std::move(c).value();
  };
  const Column first = run("da + db");
  run("coalesce(da, ia, -1)");  // different program dirties the slots
  run("ia - ib");  // (ia * ib would overflow on the 2^53 row)
  const Column again = run("da + db");
  ASSERT_EQ(first.size(), again.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first.IsNull(i), again.IsNull(i)) << i;
    if (first.IsNull(i)) continue;
    uint64_t ba, bb;
    const double a = first.DoubleAt(i), b = again.DoubleAt(i);
    std::memcpy(&ba, &a, 8);
    std::memcpy(&bb, &b, 8);
    EXPECT_EQ(ba, bb) << i;
  }
}

TEST(BytecodeVmTest, FilterSelectsExactlyTheTrueRows) {
  // RunFilter must select the rows whose materialized mask is TRUE:
  // NULL (row 4: NULL AND TRUE) and FALSE rows drop out.
  const Table t = SmallTable();
  for (const char* text : {"da > 0 AND ia < 100", "ba OR da > 1.0",
                           "sa = 's' AND NOT ba"}) {
    auto expr = ParseExpr(text);
    ASSERT_NE(expr, nullptr);
    Result<std::vector<uint32_t>> rows = FilterRows(*expr, t);
    ASSERT_TRUE(rows.ok()) << text;
    Result<Column> mask = EvaluateExpr(*expr, t);
    ASSERT_TRUE(mask.ok()) << text;
    std::vector<uint32_t> want;
    for (size_t i = 0; i < mask->size(); ++i) {
      if (!mask->IsNull(i) && mask->BoolAt(i)) {
        want.push_back(static_cast<uint32_t>(i));
      }
    }
    EXPECT_EQ(*rows, want) << text;
  }
}

TEST(BytecodeVmTest, DisassemblyNamesTheCompiledProgram) {
  const Table t = SmallTable();
  std::string disasm;
  ASSERT_TRUE(EvaluateExpr(*ParseExpr("da + 1.0"), t, &disasm).ok());
  EXPECT_NE(disasm.find("add.f64"), std::string::npos) << disasm;
  ASSERT_TRUE(FilterRows(*ParseExpr("sa = 's'"), t, &disasm).ok());
  EXPECT_NE(disasm.find("cmpeq.str"), std::string::npos) << disasm;
}

TEST(BytecodeVmTest, FoldingAndConstantsBumpNoCounter) {
  Counter* compiled = MetricsRegistry::Global().GetCounter("expr.compiled");
  Counter* batches = MetricsRegistry::Global().GetCounter("expr.batches");
  const uint64_t compiled0 = compiled->value();
  const uint64_t batches0 = batches->value();
  auto v = EvaluateConstant(*ParseExpr("-(1 + 2) * 4"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int64(), -12);
  ASSERT_TRUE(Compile("da + (1 + 2) * 4 + abs(-3)").ok());
  EXPECT_EQ(compiled->value(), compiled0);
  EXPECT_EQ(batches->value(), batches0);
  // A query-time evaluation counts one compile and one batch per 1024
  // rows.
  ASSERT_TRUE(EvaluateExpr(*ParseExpr("da + (1 + 2)"), SmallTable()).ok());
  EXPECT_EQ(compiled->value(), compiled0 + 1);
  EXPECT_EQ(batches->value(), batches0 + 1);
}

TEST(BytecodeVmTest, EvaluateConstantCoversEveryResultType) {
  EXPECT_TRUE(EvaluateConstant(*ParseExpr("NULL"))->is_null());
  EXPECT_EQ(EvaluateConstant(*ParseExpr("1.5 * 2"))->dbl(), 3.0);
  EXPECT_TRUE(EvaluateConstant(*ParseExpr("1 < 2"))->boolean());
  EXPECT_EQ(EvaluateConstant(*ParseExpr("coalesce(NULL, 7)"))->dbl(), 7.0);
  EXPECT_EQ(EvaluateConstant(*ParseExpr("nullif('a', 'b')"))->str(), "a");
  EXPECT_TRUE(EvaluateConstant(*ParseExpr("nullif(2, 2)"))->is_null());
  EXPECT_EQ(EvaluateConstant(*ParseExpr("1 / 0")).status().message(),
            "division by zero");
  EXPECT_EQ(EvaluateConstant(*ParseExpr("x + 1")).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace laws
