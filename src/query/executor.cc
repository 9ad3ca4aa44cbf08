#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/governor.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "compress/block_store.h"
#include "query/agg_state.h"
#include "query/compressed_scan.h"
#include "query/vector_eval.h"
#include "query/parser.h"

namespace laws {
namespace {

/// Row stride between governor polls inside per-row loops: frequent
/// enough that a canceled query stops within microseconds, sparse enough
/// that the poll (one TLS read + one relaxed load when idle) stays
/// invisible in profiles.
constexpr size_t kGovernorPollStride = 4096;

/// A unique aggregate call discovered in the statement.
struct AggSlot {
  const Expr* node;       // canonical instance
  std::string key;        // ToString identity
  std::string hidden_name;
  bool is_star = false;
};

void CollectAggregates(const Expr& expr, std::vector<AggSlot>* slots) {
  if (expr.kind == ExprKind::kAggregate) {
    const std::string key = expr.ToString();
    for (const AggSlot& s : *slots) {
      if (s.key == key) return;
    }
    AggSlot slot;
    slot.node = &expr;
    slot.key = key;
    slot.hidden_name = "__agg" + std::to_string(slots->size());
    slot.is_star = expr.children[0]->kind == ExprKind::kStar;
    slots->push_back(std::move(slot));
    return;  // aggregates cannot nest
  }
  for (const auto& c : expr.children) CollectAggregates(*c, slots);
}

/// Replaces aggregate nodes and group-key expressions with column refs into
/// the intermediate aggregated table.
std::unique_ptr<Expr> RewriteForAggregated(
    const Expr& expr, const std::vector<AggSlot>& slots,
    const std::vector<std::string>& key_exprs,
    const std::vector<std::string>& key_names) {
  const std::string repr = expr.ToString();
  for (size_t i = 0; i < key_exprs.size(); ++i) {
    if (repr == key_exprs[i]) return Expr::MakeColumnRef(key_names[i]);
  }
  if (expr.kind == ExprKind::kAggregate) {
    for (const AggSlot& s : slots) {
      if (s.key == repr) return Expr::MakeColumnRef(s.hidden_name);
    }
  }
  auto out = expr.Clone();
  for (auto& c : out->children) {
    c = RewriteForAggregated(*c, slots, key_exprs, key_names);
  }
  return out;
}

/// Folds a group-key value into its canonical GROUP BY identity. Doubles
/// need two fixes before text serialization: every NaN bit pattern maps to
/// one key (printf renders the sign bit as "nan" vs "-nan", which would
/// split NaN rows into separate groups), and -0.0 folds into +0.0
/// (== equal values must share a group, but their rendered texts differ).
Value CanonicalGroupValue(Value v) {
  if (v.is_double()) {
    const double d = v.dbl();
    if (std::isnan(d)) return Value::Double(std::numeric_limits<double>::quiet_NaN());
    if (d == 0.0) return Value::Double(0.0);
  }
  return v;
}

/// Appends a canonical, collision-free encoding of `col[row]` to `key`: a
/// one-byte type tag, then a fixed-width payload (length-prefixed for
/// strings). Doubles are canonicalized first — every NaN bit pattern folds
/// to one quiet NaN and -0.0 to +0.0 — and then encoded by bit pattern.
/// The previous text serialization had two collision classes this removes:
/// "%.10g" merged doubles differing past ten significant digits, and the
/// bare '|' separator let strings containing '|' (or the literal "NULL")
/// alias values from adjacent columns.
void AppendCanonicalKey(const Column& col, size_t row, std::string* key) {
  if (col.IsNull(row)) {
    key->push_back('N');
    return;
  }
  switch (col.type()) {
    case DataType::kInt64: {
      const int64_t v = col.Int64At(row);
      key->push_back('i');
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return;
    }
    case DataType::kDouble: {
      double v = col.DoubleAt(row);
      if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
      if (v == 0.0) v = 0.0;  // fold -0.0
      key->push_back('d');
      key->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return;
    }
    case DataType::kBool:
      key->push_back(col.BoolAt(row) ? 'T' : 'F');
      return;
    case DataType::kString: {
      const std::string_view s = col.StringAt(row);
      const uint32_t len = static_cast<uint32_t>(s.size());
      key->push_back('s');
      key->append(reinterpret_cast<const char*>(&len), sizeof(len));
      key->append(s.data(), s.size());
      return;
    }
  }
}

/// Serializes a row's group-key values into a hashable string.
std::string MakeGroupKey(const std::vector<Column>& key_cols, size_t row) {
  std::string key;
  for (const Column& c : key_cols) {
    AppendCanonicalKey(c, row, &key);
  }
  return key;
}

// AggState and AggFinalValue live in query/agg_state.h, shared with the
// encoded run-weighted aggregator (compressed_scan.cc).

Result<Table> Aggregate(const Table& input, const SelectStatement& stmt,
                        const std::vector<AggSlot>& slots,
                        std::vector<std::string>* key_names) {
  // Evaluate group-key expressions. Key and argument columns are the
  // aggregation's big materializations; charge them as they appear.
  ScopedCharge charge;
  std::vector<Column> key_cols;
  key_cols.reserve(stmt.group_by.size());
  for (const auto& g : stmt.group_by) {
    LAWS_GOVERNOR_POLL();
    LAWS_ASSIGN_OR_RETURN(Column c, EvaluateExpr(*g, input));
    LAWS_RETURN_IF_ERROR(charge.Acquire(c.MemoryBytes(), "group keys"));
    key_cols.push_back(std::move(c));
  }
  std::vector<size_t> representative_row;  // first row of each group
  std::vector<std::vector<AggState>> states;
  std::vector<Column> arg_cols;

  // Global aggregations over an indexed base table can often be folded
  // from zone statistics and run views without touching rows (DESIGN.md
  // §14). EncodedGlobalAggregate only answers when the fold is provably
  // bit-identical to the sweep below, so the shortcut is invisible to
  // everything downstream.
  bool encoded = false;
  LAWS_GOVERNOR_POLL();
  if (stmt.group_by.empty()) {
    std::vector<const Expr*> nodes;
    nodes.reserve(slots.size());
    for (const AggSlot& s : slots) nodes.push_back(s.node);
    if (auto enc = EncodedGlobalAggregate(input, nodes)) {
      states.push_back(std::move(*enc));
      representative_row.push_back(0);
      encoded = true;
    }
  }

  if (!encoded) {
    // Evaluate aggregate argument columns (once each).
    arg_cols.reserve(slots.size());
    for (const AggSlot& s : slots) {
      if (s.is_star) {
        arg_cols.emplace_back(DataType::kInt64);  // unused placeholder
        continue;
      }
      LAWS_GOVERNOR_POLL();
      LAWS_ASSIGN_OR_RETURN(Column c,
                            EvaluateExpr(*s.node->children[0], input));
      // SUM/AVG/VARIANCE/STDDEV over a string argument is a planning-time
      // type error, not a data-dependent one (the old behavior errored only
      // when some group actually held a non-null string).
      const AggregateFunc func = s.node->aggregate_func;
      if (c.type() == DataType::kString &&
          (func == AggregateFunc::kSum || func == AggregateFunc::kAvg ||
           func == AggregateFunc::kVariance ||
           func == AggregateFunc::kStddev)) {
        return Status::TypeMismatch(std::string(AggregateFuncToString(func)) +
                                    "() requires a numeric argument");
      }
      LAWS_RETURN_IF_ERROR(
          charge.Acquire(c.MemoryBytes(), "aggregate arguments"));
      arg_cols.push_back(std::move(c));
    }

    // Pass 1: hash rows into groups. Only the key columns are touched here;
    // each row records its group ordinal for the columnar update pass.
    std::unordered_map<std::string, size_t> group_index;
    const size_t n = input.num_rows();
    LAWS_RETURN_IF_ERROR(
        charge.Acquire(n * sizeof(uint32_t), "group-of vector"));
    std::vector<uint32_t> group_of(n);
    for (size_t row = 0; row < n; ++row) {
      if (row % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
      const std::string key = MakeGroupKey(key_cols, row);
      auto [it, inserted] = group_index.emplace(key, states.size());
      if (inserted) {
        representative_row.push_back(row);
        states.emplace_back(slots.size());
      }
      group_of[row] = static_cast<uint32_t>(it->second);
    }

    // Pass 2: one columnar sweep per aggregate slot. Numeric arguments are
    // materialized with a single bulk GatherNumericMasked — one type
    // dispatch per column instead of a Result-wrapped NumericAt per cell.
    // Rows are processed in table order, so the Welford mean/m2 recurrences
    // see values in exactly the same order (and produce bit-identical
    // results) as the old row-at-a-time loop.
    LAWS_RETURN_IF_ERROR(charge.Acquire(
        n * (sizeof(uint32_t) + sizeof(double) + sizeof(uint8_t)),
        "aggregate sweep buffers"));
    std::vector<uint32_t> all_rows(n);
    for (size_t i = 0; i < n; ++i) all_rows[i] = static_cast<uint32_t>(i);
    std::vector<double> arg_values(n);
    std::vector<uint8_t> arg_nulls(n);
    for (size_t a = 0; a < slots.size(); ++a) {
      LAWS_GOVERNOR_POLL();
      if (slots[a].is_star) {
        for (size_t row = 0; row < n; ++row) {
          AggState& s = states[group_of[row]][a];
          ++s.count;
          s.any = true;
        }
        continue;
      }
      const Column& arg = arg_cols[a];
      if (arg.type() == DataType::kString) {
        // Strings keep the element-wise path (dictionary lookups, ordering).
        for (size_t row = 0; row < n; ++row) {
          if (row % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
          if (arg.IsNull(row)) continue;
          AggState& s = states[group_of[row]][a];
          ++s.count;
          s.any = true;
          s.is_string = true;
          const std::string v(arg.StringAt(row));
          if (s.count == 1 || v < s.smin) s.smin = v;
          if (s.count == 1 || v > s.smax) s.smax = v;
        }
        continue;
      }
      const auto gathered =
          arg.GatherNumericMasked(all_rows.data(), n, arg_values.data(),
                                  arg_nulls.data());
      if (!gathered.ok()) return gathered.status();
#ifdef LAWS_TESTING_INJECT_BUG
      // Deliberate off-by-one for the mutation smoke check in
      // tools/check_differential.sh: the merge sweep drops the last input
      // row. Never defined in production builds.
      const size_t sweep_rows = n > 0 ? n - 1 : 0;
#else
      const size_t sweep_rows = n;
#endif
      for (size_t row = 0; row < sweep_rows; ++row) {
        if (row % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
        if (arg_nulls[row]) continue;
        AggState& s = states[group_of[row]][a];
        ++s.count;
        s.any = true;
        const double v = arg_values[row];
        if (!std::isnan(v)) s.saw_comparable = true;
        s.sum += v;
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
        const double delta = v - s.mean;
        s.mean += delta / static_cast<double>(s.count);
        s.m2 += delta * (v - s.mean);
      }
    }
  }

  // Global aggregation with no GROUP BY and zero rows still yields one row
  // (COUNT(*) = 0, SUM = NULL, ...).
  if (stmt.group_by.empty() && states.empty()) {
    representative_row.push_back(0);
    states.emplace_back(slots.size());
  }

  // Build the intermediate table: key columns then aggregate columns.
  std::vector<Field> fields;
  key_names->clear();
  for (size_t k = 0; k < key_cols.size(); ++k) {
    const std::string name = "__key" + std::to_string(k);
    key_names->push_back(name);
    fields.push_back(Field{name, key_cols[k].type(), true});
  }
  for (size_t a = 0; a < slots.size(); ++a) {
    const DataType t =
        slots[a].node->aggregate_func == AggregateFunc::kCount
            ? DataType::kInt64
            : (!slots[a].is_star && a < arg_cols.size() &&
                       arg_cols[a].type() == DataType::kString
                   ? DataType::kString
                   : DataType::kDouble);
    fields.push_back(Field{slots[a].hidden_name, t, true});
  }
  Table out{Schema(std::move(fields))};
  std::vector<Value> row_values;
  for (size_t g = 0; g < states.size(); ++g) {
    row_values.clear();
    for (size_t k = 0; k < key_cols.size(); ++k) {
      // For the synthetic empty-input global group there are no keys. Key
      // values pass through the same canonicalization as the hash key, so
      // a group whose first row held -0.0 (or a sign-flipped NaN) emits
      // the canonical key, not a first-seen artifact.
      row_values.push_back(
          key_cols.empty() || input.num_rows() == 0
              ? Value::Null()
              : CanonicalGroupValue(
                    key_cols[k].GetValue(representative_row[g])));
    }
    for (size_t a = 0; a < slots.size(); ++a) {
      row_values.push_back(AggFinalValue(*slots[a].node, states[g][a]));
    }
    LAWS_RETURN_IF_ERROR(out.AppendRow(row_values));
  }
  return out;
}

Result<Table> SortRows(Table table, const SelectStatement& stmt,
                       const std::vector<std::unique_ptr<Expr>>& keys) {
  if (keys.empty()) return table;
  ScopedCharge charge;
  std::vector<Column> key_cols;
  for (const auto& k : keys) {
    LAWS_GOVERNOR_POLL();
    LAWS_ASSIGN_OR_RETURN(Column c, EvaluateExpr(*k, table));
    LAWS_RETURN_IF_ERROR(charge.Acquire(c.MemoryBytes(), "sort keys"));
    key_cols.push_back(std::move(c));
  }
  LAWS_RETURN_IF_ERROR(charge.Acquire(
      table.num_rows() * sizeof(uint32_t), "sort permutation"));
  std::vector<uint32_t> perm(table.num_rows());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  // The comparator cannot return an error, so deadline/cancel are
  // observed between comparisons and surfaced after the sort: track the
  // first tripped status and re-check before gathering. (stable_sort
  // must run to completion for the comparator to stay well-defined.)
  bool incomparable = false;
  size_t comparisons = 0;
  Status tripped;
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t x, uint32_t y) {
    if (tripped.ok() && ++comparisons % kGovernorPollStride == 0) {
      if (QueryGovernor* gov = QueryGovernor::Current()) {
        tripped = gov->Poll();
      }
    }
    for (size_t k = 0; k < key_cols.size(); ++k) {
      int c = CompareOrderValues(key_cols[k].GetValue(x),
                                 key_cols[k].GetValue(y), &incomparable);
      if (!stmt.order_by[k].ascending) c = -c;
      if (c != 0) return c < 0;
    }
    return false;
  });
  if (!tripped.ok()) return tripped;
  if (incomparable) {
    // The comparator stayed a valid total order (type-ranked), so the
    // sort itself was well-defined — but silently interleaving strings
    // with numbers would hide a type bug, so surface it instead.
    return Status::TypeMismatch(
        "ORDER BY key mixes string and numeric values");
  }
  return table.GatherRows(perm);
}

/// INNER equi-join: hash-builds on the right side, probes with the left.
/// Right-side columns whose names collide with left ones are exposed as
/// "<right_table>_<name>". NULL keys never match (SQL semantics).
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<JoinKey>& keys,
                       const std::string& right_name) {
  if (keys.empty()) {
    return Status::InvalidArgument("JOIN requires at least one ON key");
  }
  std::vector<const Column*> left_keys, right_keys;
  for (const JoinKey& k : keys) {
    LAWS_ASSIGN_OR_RETURN(const Column* lc,
                          left.ColumnByName(k.left_column));
    LAWS_ASSIGN_OR_RETURN(const Column* rc,
                          right.ColumnByName(k.right_column));
    if (lc->type() != rc->type()) {
      return Status::TypeMismatch("join key type mismatch on " +
                                  k.left_column + " = " + k.right_column);
    }
    left_keys.push_back(lc);
    right_keys.push_back(rc);
  }

  // SQL equi-join semantics: NULL keys never match, and neither do NaN
  // keys (NaN = NaN is false). -0.0 and +0.0 must match, which the
  // canonical encoding guarantees.
  auto row_key = [](const std::vector<const Column*>& cols, size_t row,
                    std::string* out) {
    out->clear();
    for (const Column* c : cols) {
      if (c->IsNull(row)) return false;
      if (c->type() == DataType::kDouble && std::isnan(c->DoubleAt(row))) {
        return false;
      }
      AppendCanonicalKey(*c, row, out);
    }
    return true;
  };

  // Build on the right side. The hash table is the join's dominant
  // allocation; charge a conservative per-entry estimate up front and
  // the match vectors as they grow.
  ScopedCharge charge;
  LAWS_RETURN_IF_ERROR(charge.Acquire(
      right.num_rows() * (sizeof(uint32_t) + 2 * sizeof(void*)),
      "hash join build"));
  std::unordered_map<std::string, std::vector<uint32_t>> build;
  build.reserve(right.num_rows());
  std::string key;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    if (r % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
    if (!row_key(right_keys, r, &key)) continue;
    build[key].push_back(static_cast<uint32_t>(r));
  }

  // Probe with the left side, collecting matching row-index pairs. The
  // output can be quadratic in the inputs (many-to-many keys), so the
  // match vectors are re-charged as they double.
  std::vector<uint32_t> left_rows, right_rows;
  uint64_t charged_matches = 0;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    if (l % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
    if (!row_key(left_keys, l, &key)) continue;
    auto it = build.find(key);
    if (it == build.end()) continue;
    for (uint32_t r : it->second) {
      left_rows.push_back(static_cast<uint32_t>(l));
      right_rows.push_back(r);
    }
    if (left_rows.size() > charged_matches) {
      const uint64_t grown = left_rows.size() - charged_matches;
      LAWS_RETURN_IF_ERROR(charge.Acquire(grown * 2 * sizeof(uint32_t),
                                          "hash join matches"));
      charged_matches = left_rows.size();
    }
  }

  // Assemble the output schema: left fields, then right fields with
  // collision-avoiding names.
  std::vector<Field> fields = left.schema().fields();
  std::vector<std::string> right_out_names;
  for (const Field& f : right.schema().fields()) {
    Field out = f;
    if (left.schema().HasField(f.name)) {
      out.name = right_name + "_" + f.name;
      if (left.schema().HasField(out.name)) {
        return Status::InvalidArgument("cannot disambiguate join column " +
                                       f.name);
      }
    }
    right_out_names.push_back(out.name);
    fields.push_back(std::move(out));
  }

  std::vector<Column> columns;
  columns.reserve(fields.size());
  for (size_t c = 0; c < left.num_columns(); ++c) {
    columns.push_back(left.column(c).Gather(left_rows));
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    columns.push_back(right.column(c).Gather(right_rows));
  }
  return Table::FromColumns(Schema(std::move(fields)), std::move(columns));
}

/// Keeps the first occurrence of each distinct row (order-preserving).
/// DISTINCT uses grouping identity: NULLs equal each other, all NaNs are
/// one class, -0.0 equals +0.0 — and the canonical encoding keeps NULL
/// distinct from the string "NULL" and doubles apart past ten digits.
Result<Table> DistinctRows(Table table) {
  ScopedCharge charge;
  LAWS_RETURN_IF_ERROR(charge.Acquire(
      table.num_rows() * (sizeof(uint32_t) + 2 * sizeof(void*)),
      "distinct hash set"));
  std::unordered_set<std::string> seen;
  seen.reserve(table.num_rows());
  std::vector<uint32_t> keep;
  std::string key;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (r % kGovernorPollStride == 0) LAWS_GOVERNOR_POLL();
    key.clear();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      AppendCanonicalKey(table.column(c), r, &key);
    }
    if (seen.insert(key).second) keep.push_back(static_cast<uint32_t>(r));
  }
  if (keep.size() == table.num_rows()) return table;
  return table.GatherRows(keep);
}

Table LimitRows(Table table, int64_t limit) {
  if (limit < 0 || static_cast<size_t>(limit) >= table.num_rows()) {
    return table;
  }
  std::vector<uint32_t> head(static_cast<size_t>(limit));
  for (size_t i = 0; i < head.size(); ++i) head[i] = static_cast<uint32_t>(i);
  return table.GatherRows(head);
}

/// Substitutes references to select-list aliases in ORDER BY / HAVING with
/// the aliased expressions.
std::unique_ptr<Expr> SubstituteAliases(const Expr& expr,
                                        const SelectStatement& stmt) {
  if (expr.kind == ExprKind::kColumnRef) {
    for (const SelectItem& item : stmt.select_list) {
      if (!item.is_star && !item.alias.empty() &&
          item.alias == expr.column_name) {
        return item.expr->Clone();
      }
    }
  }
  auto out = expr.Clone();
  for (auto& c : out->children) c = SubstituteAliases(*c, stmt);
  return out;
}

}  // namespace

int CompareOrderValues(const Value& a, const Value& b, bool* incomparable) {
  const bool an = a.is_null();
  const bool bn = b.is_null();
  if (an || bn) {
    if (an && bn) return 0;
    return an ? 1 : -1;  // NULLs last ascending
  }
  const bool as = a.is_string();
  const bool bs = b.is_string();
  if (as && bs) {
    return a.str() < b.str() ? -1 : (a.str() == b.str() ? 0 : 1);
  }
  if (as != bs) {
    // Mixed string/number: rank numbers (and NaN) before strings so the
    // order stays total, and flag the pair as incomparable.
    if (incomparable != nullptr) *incomparable = true;
    return as ? 1 : -1;
  }
  // Both numeric: AsDouble cannot fail for non-null, non-string values.
  const double x = *a.AsDouble();
  const double y = *b.AsDouble();
  const bool xn = std::isnan(x);
  const bool yn = std::isnan(y);
  if (xn || yn) {
    if (xn && yn) return 0;  // all NaNs are one equivalence class
    return xn ? 1 : -1;      // numbers < NaN
  }
  return x < y ? -1 : (x == y ? 0 : 1);
}

// Note: `source` must already incorporate the statement's JOIN when one is
// present — ExecuteSelect materializes it; callers passing explicit tables
// (the AQP layer) use joinless statements.
Result<Table> ExecuteSelectOnTable(const Table& source,
                                   const SelectStatement& stmt) {
  {
    // Synthetic zero-cost span recording the source cardinality, so the
    // EXPLAIN ANALYZE tree starts at the scan like the static plan does.
    ScopedSpan scan("Scan");
    scan.SetRows(source.num_rows(), source.num_rows());
  }

  // Stage outputs are the pipeline's big materializations; each is
  // charged against the current governor (if any) and held until the
  // query finishes, which models the executor's true high-water mark
  // closely enough for a coarse budget.
  ScopedCharge pipeline_charge;
  LAWS_GOVERNOR_POLL();

  // 1. WHERE.
  Table filtered{Schema{}};
  const Table* current = &source;
  if (stmt.where != nullptr) {
    ScopedSpan span("Filter");
    std::vector<uint32_t> selection;
    // Compressed-domain first: when the table carries a block index and
    // the predicate is in the conservative class, zone maps prune whole
    // blocks and RLE runs batch the rest (DESIGN.md §14) — bit-identical
    // to the decode path or declined, never approximate.
    ScanStats scan_stats;
    if (auto compressed =
            CompressedFilterRows(*stmt.where, source, &scan_stats)) {
      selection = std::move(*compressed);
      if (span.active()) {
        span.SetDetail(stmt.where->ToString() + " | " +
                       scan_stats.Describe());
      }
    } else {
      std::string disasm;
      LAWS_ASSIGN_OR_RETURN(
          selection,
          FilterRows(*stmt.where, source, span.active() ? &disasm : nullptr));
      if (span.active()) {
        span.SetDetail(disasm.empty() ? stmt.where->ToString()
                                      : stmt.where->ToString() +
                                            " | bytecode: " + disasm);
      }
    }
    filtered = source.GatherRows(selection);
    LAWS_RETURN_IF_ERROR(
        pipeline_charge.Acquire(filtered.MemoryBytes(), "filter output"));
    current = &filtered;
    span.SetRows(source.num_rows(), filtered.num_rows());
  }

  // 2. Aggregation if needed.
  bool has_aggregate = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.select_list) {
    if (!item.is_star && item.expr->ContainsAggregate()) has_aggregate = true;
  }
  if (stmt.having != nullptr) has_aggregate = true;

  std::vector<SelectItem> projected_items;
  std::unique_ptr<Expr> having;
  std::vector<std::unique_ptr<Expr>> order_exprs;
  Table aggregated{Schema{}};

  if (has_aggregate) {
    // Collect aggregates across all clauses (aliases resolved first).
    std::vector<AggSlot> slots;
    std::vector<std::unique_ptr<Expr>> resolved_order;
    std::unique_ptr<Expr> resolved_having;
    for (const SelectItem& item : stmt.select_list) {
      if (item.is_star) {
        return Status::InvalidArgument("SELECT * is invalid with GROUP BY");
      }
      CollectAggregates(*item.expr, &slots);
    }
    if (stmt.having != nullptr) {
      resolved_having = SubstituteAliases(*stmt.having, stmt);
      CollectAggregates(*resolved_having, &slots);
    }
    for (const OrderKey& k : stmt.order_by) {
      resolved_order.push_back(SubstituteAliases(*k.expr, stmt));
      CollectAggregates(*resolved_order.back(), &slots);
    }

    std::vector<std::string> key_names;
    {
      ScopedSpan span("HashAggregate");
      if (span.active()) {
        std::string keys;
        for (const auto& g : stmt.group_by) {
          if (!keys.empty()) keys += ", ";
          keys += g->ToString();
        }
        span.SetDetail(keys.empty() ? "<global>" : keys);
      }
      const size_t rows_in = current->num_rows();
      LAWS_ASSIGN_OR_RETURN(aggregated,
                            Aggregate(*current, stmt, slots, &key_names));
      span.SetRows(rows_in, aggregated.num_rows());
    }
    LAWS_RETURN_IF_ERROR(pipeline_charge.Acquire(aggregated.MemoryBytes(),
                                                 "aggregate output"));
    current = &aggregated;

    std::vector<std::string> key_reprs;
    for (const auto& g : stmt.group_by) key_reprs.push_back(g->ToString());

    for (const SelectItem& item : stmt.select_list) {
      SelectItem out;
      out.alias = item.alias.empty() ? item.expr->ToString() : item.alias;
      out.expr =
          RewriteForAggregated(*item.expr, slots, key_reprs, key_names);
      // Validate: after rewriting, plain column refs must resolve to key or
      // aggregate columns.
      projected_items.push_back(std::move(out));
    }
    if (resolved_having != nullptr) {
      having =
          RewriteForAggregated(*resolved_having, slots, key_reprs, key_names);
    }
    for (auto& k : resolved_order) {
      order_exprs.push_back(
          RewriteForAggregated(*k, slots, key_reprs, key_names));
    }
  } else {
    for (const SelectItem& item : stmt.select_list) {
      if (item.is_star) {
        for (const Field& f : source.schema().fields()) {
          SelectItem out;
          out.alias = f.name;
          out.expr = Expr::MakeColumnRef(f.name);
          projected_items.push_back(std::move(out));
        }
        continue;
      }
      SelectItem out;
      out.alias = item.alias.empty() ? item.expr->ToString() : item.alias;
      out.expr = item.expr->Clone();
      projected_items.push_back(std::move(out));
    }
    for (const OrderKey& k : stmt.order_by) {
      order_exprs.push_back(SubstituteAliases(*k.expr, stmt));
    }
  }

  // 3. HAVING.
  Table post_having{Schema{}};
  if (having != nullptr) {
    ScopedSpan span("Filter[having]");
    const size_t rows_in = current->num_rows();
    std::string disasm;
    LAWS_ASSIGN_OR_RETURN(
        std::vector<uint32_t> selection,
        FilterRows(*having, *current, span.active() ? &disasm : nullptr));
    if (span.active()) {
      span.SetDetail(disasm.empty()
                         ? having->ToString()
                         : having->ToString() + " | bytecode: " + disasm);
    }
    post_having = current->GatherRows(selection);
    LAWS_RETURN_IF_ERROR(
        pipeline_charge.Acquire(post_having.MemoryBytes(), "having output"));
    current = &post_having;
    span.SetRows(rows_in, post_having.num_rows());
  }

  // 4. ORDER BY is applied before projection (it may reference
  // non-projected columns); LIMIT waits until after DISTINCT.
  Table sorted{Schema{}};
  if (!order_exprs.empty()) {
    ScopedSpan span("Sort");
    if (span.active()) {
      std::string keys;
      for (size_t k = 0; k < stmt.order_by.size(); ++k) {
        if (k > 0) keys += ", ";
        keys += order_exprs[k]->ToString();
        keys += stmt.order_by[k].ascending ? " ASC" : " DESC";
      }
      span.SetDetail(keys);
    }
    const size_t rows_in = current->num_rows();
    LAWS_ASSIGN_OR_RETURN(sorted, SortRows(*current, stmt, order_exprs));
    LAWS_RETURN_IF_ERROR(
        pipeline_charge.Acquire(sorted.MemoryBytes(), "sort output"));
    current = &sorted;
    span.SetRows(rows_in, sorted.num_rows());
  }

  // 5. Projection.
  Table projected{Schema{}};
  {
    ScopedSpan span("Project");
    const size_t rows_in = current->num_rows();
    std::vector<Field> out_fields;
    std::vector<Column> out_cols;
    std::string detail;
    for (const SelectItem& item : projected_items) {
      LAWS_GOVERNOR_POLL();
      std::string disasm;
      LAWS_ASSIGN_OR_RETURN(
          Column c, EvaluateExpr(*item.expr, *current,
                                 span.active() ? &disasm : nullptr));
      if (span.active()) {
        if (!detail.empty()) detail += ", ";
        detail += item.alias;
        if (!disasm.empty()) detail += " | bytecode: " + disasm;
      }
      LAWS_RETURN_IF_ERROR(
          pipeline_charge.Acquire(c.MemoryBytes(), "projection output"));
      out_fields.push_back(Field{item.alias, c.type(), true});
      out_cols.push_back(std::move(c));
    }
    if (span.active()) span.SetDetail(detail);
    auto built =
        Table::FromColumns(Schema(std::move(out_fields)), std::move(out_cols));
    if (!built.ok()) return built.status();
    projected = std::move(*built);
    span.SetRows(rows_in, projected.num_rows());
  }

  // 6. DISTINCT, then LIMIT.
  if (stmt.distinct) {
    ScopedSpan span("Distinct");
    const size_t rows_in = projected.num_rows();
    LAWS_ASSIGN_OR_RETURN(projected, DistinctRows(std::move(projected)));
    span.SetRows(rows_in, projected.num_rows());
  }
  if (stmt.limit >= 0) {
    ScopedSpan span("Limit");
    if (span.active()) span.SetDetail(std::to_string(stmt.limit));
    const size_t rows_in = projected.num_rows();
    projected = LimitRows(std::move(projected), stmt.limit);
    span.SetRows(rows_in, projected.num_rows());
    return projected;
  }
  return projected;
}

Result<Table> ExecuteSelect(const Catalog& catalog,
                            const SelectStatement& stmt) {
  static Counter* executed =
      MetricsRegistry::Global().GetCounter("query.executed");
  executed->Add();
  LAWS_ASSIGN_OR_RETURN(TablePtr table, catalog.Get(stmt.from_table));
  if (stmt.join_table.empty()) {
    // Attach a block index to the base table on its first scan, or after
    // a mutation made the attached one stale, so the compressed scan tier
    // can serve this and later queries. Joined and derived tables stay
    // unindexed: they are scanned by decoding.
    if (CurrentBlockIndex(*table) == nullptr) {
      table->set_block_index(BuildBlockIndex(*table, kDefaultBlockRows));
    }
    return ExecuteSelectOnTable(*table, stmt);
  }
  LAWS_ASSIGN_OR_RETURN(TablePtr right, catalog.Get(stmt.join_table));
  Table joined{Schema{}};
  {
    ScopedSpan span("HashJoin");
    if (span.active()) {
      std::string keys = stmt.from_table + " \xE2\x8B\x88 " + stmt.join_table;
      for (const JoinKey& k : stmt.join_keys) {
        keys += " on " + k.left_column + " = " + k.right_column;
      }
      span.SetDetail(keys);
    }
    LAWS_ASSIGN_OR_RETURN(
        joined, HashJoin(*table, *right, stmt.join_keys, stmt.join_table));
    span.SetRows(table->num_rows() + right->num_rows(), joined.num_rows());
  }
  ScopedCharge joined_charge;
  LAWS_RETURN_IF_ERROR(
      joined_charge.Acquire(joined.MemoryBytes(), "join output"));
  return ExecuteSelectOnTable(joined, stmt);
}

Result<Table> ExecuteQuery(const Catalog& catalog, const std::string& sql) {
  SelectStatement stmt;
  {
    ScopedSpan span("Parse");
    LAWS_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
  }
  return ExecuteSelect(catalog, stmt);
}

Result<std::string> ExplainSelect(const Catalog& catalog,
                                  const SelectStatement& stmt) {
  LAWS_ASSIGN_OR_RETURN(TablePtr table, catalog.Get(stmt.from_table));
  // Assemble the pipeline outside-in, then print outermost first.
  std::vector<std::string> ops;
  if (stmt.limit >= 0) ops.push_back("Limit(" + std::to_string(stmt.limit) + ")");
  if (stmt.distinct) ops.push_back("Distinct");
  {
    std::string proj = "Project(";
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      if (i > 0) proj += ", ";
      proj += stmt.select_list[i].is_star
                  ? "*"
                  : stmt.select_list[i].expr->ToString();
    }
    ops.push_back(proj + ")");
  }
  if (!stmt.order_by.empty()) {
    std::string sort = "Sort(";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      if (i > 0) sort += ", ";
      sort += stmt.order_by[i].expr->ToString();
      sort += stmt.order_by[i].ascending ? " ASC" : " DESC";
    }
    ops.push_back(sort + ")");
  }
  if (stmt.having != nullptr) {
    ops.push_back("Filter[having](" + stmt.having->ToString() + ")");
  }
  bool has_aggregate = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const SelectItem& item : stmt.select_list) {
    if (!item.is_star && item.expr->ContainsAggregate()) has_aggregate = true;
  }
  if (has_aggregate) {
    std::string agg = "HashAggregate(keys: ";
    if (stmt.group_by.empty()) {
      agg += "<global>";
    } else {
      for (size_t i = 0; i < stmt.group_by.size(); ++i) {
        if (i > 0) agg += ", ";
        agg += stmt.group_by[i]->ToString();
      }
    }
    ops.push_back(agg + ")");
  }
  if (stmt.where != nullptr) {
    ops.push_back("Filter(" + stmt.where->ToString() + ")");
  }
  if (!stmt.join_table.empty()) {
    std::string join = "HashJoin(" + stmt.from_table + " ⋈ " +
                       stmt.join_table + " on ";
    for (size_t i = 0; i < stmt.join_keys.size(); ++i) {
      if (i > 0) join += " AND ";
      join += stmt.join_keys[i].left_column + " = " +
              stmt.join_keys[i].right_column;
    }
    ops.push_back(join + ")");
  }
  ops.push_back("Scan(" + stmt.from_table + ", " +
                std::to_string(table->num_rows()) + " rows)");

  std::string out;
  for (size_t i = 0; i < ops.size(); ++i) {
    out.append(i * 2, ' ');
    out += ops[i];
    out += '\n';
  }
  return out;
}

Result<std::string> ExplainQuery(const Catalog& catalog,
                                 const std::string& sql) {
  LAWS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return ExplainSelect(catalog, stmt);
}

namespace {

Counter* ExplainCounter(const char* name) {
  return MetricsRegistry::Global().GetCounter(name);
}

}  // namespace

ExplainCounterDiff::ExplainCounterDiff()
    : compiled_(ExplainCounter("expr.compiled")->value()),
      batches_(ExplainCounter("expr.batches")->value()),
      blocks_(ExplainCounter("scan.blocks_total")->value()),
      pruned_(ExplainCounter("scan.blocks_pruned")->value()),
      run_skips_(ExplainCounter("scan.runs_skipped")->value()),
      enc_agg_(ExplainCounter("scan.encoded_agg")->value()) {}

std::string ExplainCounterDiff::Render() const {
  auto delta = [](const char* name, uint64_t before) {
    return static_cast<unsigned long long>(ExplainCounter(name)->value() -
                                           before);
  };
  char buf[192];
  std::snprintf(
      buf, sizeof(buf),
      "expr: compiled=%llu batches=%llu\n"
      "scan: blocks=%llu pruned=%llu runs_skipped=%llu encoded_agg=%llu\n",
      delta("expr.compiled", compiled_), delta("expr.batches", batches_),
      delta("scan.blocks_total", blocks_), delta("scan.blocks_pruned", pruned_),
      delta("scan.runs_skipped", run_skips_),
      delta("scan.encoded_agg", enc_agg_));
  return buf;
}

Result<std::string> ExplainAnalyzeQuery(const Catalog& catalog,
                                        const std::string& sql) {
  TraceSink sink;
  Timer total;
  const ExplainCounterDiff counters;
  size_t result_rows = 0;
  // A governed query may be stopped mid-plan; that is a legitimate
  // outcome worth explaining, so the partial trace is still rendered
  // with the stop reason. Any other error propagates as usual.
  Status stopped;
  {
    ScopedSpan span("Query");
    SelectStatement stmt;
    {
      ScopedSpan parse_span("Parse");
      LAWS_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
    }
    Result<Table> result = ExecuteSelect(catalog, stmt);
    if (result.ok()) {
      result_rows = result->num_rows();
    } else if (IsGovernorStatusCode(result.status().code())) {
      stopped = result.status();
    } else {
      return result.status();
    }
  }
  std::string out = sink.Render() + counters.Render();
  if (QueryGovernor* gov = QueryGovernor::Current()) {
    out += gov->DescribeLine();
  }
  if (!stopped.ok()) {
    out += "query stopped: " + stopped.ToString() + "\n";
    return out;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu row%s in %.3f ms\n", result_rows,
                result_rows == 1 ? "" : "s", total.ElapsedMillis());
  out += buf;
  return out;
}

}  // namespace laws
