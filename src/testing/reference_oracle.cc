#include "testing/reference_oracle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace laws {
namespace testing {
namespace {

// The oracle deliberately shares no evaluation code with src/query: it is
// the naive row-at-a-time interpretation of DESIGN.md §11, written against
// boxed Values. Where DESIGN.md pins bit-level behavior (Welford update
// order, double coercion, eager error evaluation) the same arithmetic
// expressions are used so agreement is exact, not approximate.

/// A working relation: named/typed columns over boxed rows.
struct Rel {
  std::vector<Field> fields;
  std::vector<std::vector<Value>> rows;
};

bool NameEq(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

Result<size_t> FindField(const Rel& rel, std::string_view name) {
  for (size_t i = 0; i < rel.fields.size(); ++i) {
    if (NameEq(rel.fields[i].name, name)) return i;
  }
  return Status::NotFound("oracle: no column named " + std::string(name));
}

bool HasFieldNamed(const Rel& rel, std::string_view name) {
  return FindField(rel, name).ok();
}

double NumVal(const Value& v) {
  if (v.is_int64()) return static_cast<double>(v.int64());
  if (v.is_bool()) return v.boolean() ? 1.0 : 0.0;
  return v.dbl();
}

bool IsNumericType(DataType t) { return t != DataType::kString; }

/// §11 grouping identity: every NaN is one class, -0.0 folds into +0.0.
Value CanonicalValue(Value v) {
  if (v.is_double()) {
    const double d = v.dbl();
    if (std::isnan(d)) {
      return Value::Double(std::numeric_limits<double>::quiet_NaN());
    }
    if (d == 0.0) return Value::Double(0.0);
  }
  return v;
}

/// Collision-free encoding of a canonical value, for grouping/DISTINCT
/// hashing. Independent implementation of the same identity the engine
/// uses (type tag + payload bits).
void AppendValueKey(const Value& v, std::string* key) {
  if (v.is_null()) {
    key->push_back('N');
    return;
  }
  if (v.is_int64()) {
    const int64_t x = v.int64();
    key->push_back('i');
    key->append(reinterpret_cast<const char*>(&x), sizeof(x));
    return;
  }
  if (v.is_double()) {
    double x = v.dbl();
    if (std::isnan(x)) x = std::numeric_limits<double>::quiet_NaN();
    if (x == 0.0) x = 0.0;
    key->push_back('d');
    key->append(reinterpret_cast<const char*>(&x), sizeof(x));
    return;
  }
  if (v.is_bool()) {
    key->push_back(v.boolean() ? 'T' : 'F');
    return;
  }
  const std::string& s = v.str();
  const uint32_t len = static_cast<uint32_t>(s.size());
  key->push_back('s');
  key->append(reinterpret_cast<const char*>(&len), sizeof(len));
  key->append(s);
}

/// §11 ORDER BY total order: numbers < NaN < strings < NULL ascending;
/// all NaNs are one equivalence class.
int RefCompare(const Value& a, const Value& b) {
  const bool an = a.is_null();
  const bool bn = b.is_null();
  if (an || bn) {
    if (an && bn) return 0;
    return an ? 1 : -1;
  }
  const bool as = a.is_string();
  const bool bs = b.is_string();
  if (as && bs) return a.str() < b.str() ? -1 : (a.str() == b.str() ? 0 : 1);
  if (as != bs) return as ? 1 : -1;
  const double x = NumVal(a);
  const double y = NumVal(b);
  const bool xn = std::isnan(x);
  const bool yn = std::isnan(y);
  if (xn || yn) {
    if (xn && yn) return 0;
    return xn ? 1 : -1;
  }
  return x < y ? -1 : (x == y ? 0 : 1);
}

// ---- static typing --------------------------------------------------------

bool IsUnaryMathFn(const std::string& f) {
  return f == "ln" || f == "log" || f == "log10" || f == "exp" ||
         f == "sqrt" || f == "sin" || f == "cos" || f == "floor" ||
         f == "ceil" || f == "round";
}

/// Static output type of an expression over `rel`, applying exactly the
/// engine's typing rules (§11): NULL literals type as DOUBLE; INT64 is
/// closed under +,-,*,% and negate; any DOUBLE operand (or division)
/// promotes; comparisons coerce numerics through double; CASE/COALESCE
/// unify uniform INT64/BOOL branches and promote mixes to DOUBLE. Returns
/// the same static errors the vectorized evaluator raises.
Result<DataType> InferType(const Expr& e, const Rel& rel) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.literal.is_int64()) return DataType::kInt64;
      if (e.literal.is_string()) return DataType::kString;
      if (e.literal.is_bool()) return DataType::kBool;
      return DataType::kDouble;  // doubles and the NULL literal
    case ExprKind::kColumnRef: {
      LAWS_ASSIGN_OR_RETURN(size_t idx, FindField(rel, e.column_name));
      return rel.fields[idx].type;
    }
    case ExprKind::kUnary: {
      LAWS_ASSIGN_OR_RETURN(DataType t, InferType(*e.children[0], rel));
      if (e.unary_op == UnaryOp::kNegate) {
        if (!IsNumericType(t)) {
          return Status::TypeMismatch("oracle: cannot negate a string");
        }
        return t == DataType::kInt64 ? DataType::kInt64 : DataType::kDouble;
      }
      if (t != DataType::kBool) {
        return Status::TypeMismatch("oracle: NOT requires a boolean");
      }
      return DataType::kBool;
    }
    case ExprKind::kBinary: {
      LAWS_ASSIGN_OR_RETURN(DataType lt, InferType(*e.children[0], rel));
      LAWS_ASSIGN_OR_RETURN(DataType rt, InferType(*e.children[1], rel));
      switch (e.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSubtract:
        case BinaryOp::kMultiply:
        case BinaryOp::kDivide:
        case BinaryOp::kModulo:
          if (!IsNumericType(lt) || !IsNumericType(rt)) {
            return Status::TypeMismatch("oracle: arithmetic on non-numeric");
          }
          return lt == DataType::kInt64 && rt == DataType::kInt64 &&
                         e.binary_op != BinaryOp::kDivide
                     ? DataType::kInt64
                     : DataType::kDouble;
        case BinaryOp::kEqual:
        case BinaryOp::kNotEqual:
        case BinaryOp::kLess:
        case BinaryOp::kLessEqual:
        case BinaryOp::kGreater:
        case BinaryOp::kGreaterEqual: {
          const bool strings =
              lt == DataType::kString && rt == DataType::kString;
          if (!strings && (!IsNumericType(lt) || !IsNumericType(rt))) {
            return Status::TypeMismatch(
                "oracle: cannot compare string with numeric");
          }
          return DataType::kBool;
        }
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          if (lt != DataType::kBool || rt != DataType::kBool) {
            return Status::TypeMismatch("oracle: AND/OR require booleans");
          }
          return DataType::kBool;
      }
      return Status::Internal("oracle: bad binary op");
    }
    case ExprKind::kFunctionCall: {
      const std::string& f = e.function_name;
      if (IsUnaryMathFn(f)) {
        if (e.children.size() != 1) {
          return Status::InvalidArgument("oracle: " + f + " takes one arg");
        }
        LAWS_ASSIGN_OR_RETURN(DataType t, InferType(*e.children[0], rel));
        if (!IsNumericType(t)) {
          return Status::TypeMismatch("oracle: " + f + " needs a numeric");
        }
        return DataType::kDouble;
      }
      if (f == "abs") {
        if (e.children.size() != 1) {
          return Status::InvalidArgument("oracle: abs takes one arg");
        }
        LAWS_ASSIGN_OR_RETURN(DataType t, InferType(*e.children[0], rel));
        if (!IsNumericType(t)) {
          return Status::TypeMismatch("oracle: abs needs a numeric");
        }
        return t == DataType::kInt64 ? DataType::kInt64 : DataType::kDouble;
      }
      if (f == "coalesce") {
        if (e.children.empty()) {
          return Status::InvalidArgument("oracle: coalesce needs args");
        }
        bool any_string = false, all_string = true, all_int = true,
             all_bool = true;
        for (const auto& c : e.children) {
          LAWS_ASSIGN_OR_RETURN(DataType t, InferType(*c, rel));
          any_string |= t == DataType::kString;
          all_string &= t == DataType::kString;
          all_int &= t == DataType::kInt64;
          all_bool &= t == DataType::kBool;
        }
        if (any_string && !all_string) {
          return Status::TypeMismatch("oracle: coalesce mixes families");
        }
        return all_string ? DataType::kString
               : all_int  ? DataType::kInt64
               : all_bool ? DataType::kBool
                          : DataType::kDouble;
      }
      if (f == "nullif") {
        if (e.children.size() != 2) {
          return Status::InvalidArgument("oracle: nullif takes two args");
        }
        LAWS_ASSIGN_OR_RETURN(DataType t, InferType(*e.children[0], rel));
        LAWS_ASSIGN_OR_RETURN(DataType bt, InferType(*e.children[1], rel));
        // Types are static, so a family mismatch is an error even when no
        // row (or only NULLs) would ever compare.
        if ((t == DataType::kString) != (bt == DataType::kString)) {
          return Status::TypeMismatch("oracle: nullif type mismatch");
        }
        return t;
      }
      if (f == "pow" || f == "power") {
        if (e.children.size() != 2) {
          return Status::InvalidArgument("oracle: pow takes two args");
        }
        LAWS_ASSIGN_OR_RETURN(DataType a, InferType(*e.children[0], rel));
        LAWS_ASSIGN_OR_RETURN(DataType b, InferType(*e.children[1], rel));
        if (!IsNumericType(a) || !IsNumericType(b)) {
          return Status::TypeMismatch("oracle: pow needs numerics");
        }
        return DataType::kDouble;
      }
      return Status::InvalidArgument("oracle: unknown function " + f);
    }
    case ExprKind::kCase: {
      const size_t pairs =
          (e.children.size() - (e.case_has_else ? 1 : 0)) / 2;
      std::vector<DataType> branch_types;
      for (size_t i = 0; i < pairs; ++i) {
        LAWS_ASSIGN_OR_RETURN(DataType wt, InferType(*e.children[2 * i], rel));
        if (wt != DataType::kBool) {
          return Status::TypeMismatch("oracle: CASE WHEN is not boolean");
        }
        LAWS_ASSIGN_OR_RETURN(DataType tt,
                              InferType(*e.children[2 * i + 1], rel));
        branch_types.push_back(tt);
      }
      if (e.case_has_else) {
        LAWS_ASSIGN_OR_RETURN(DataType et,
                              InferType(*e.children.back(), rel));
        branch_types.push_back(et);
      }
      bool any_string = false, all_string = true, all_int = true,
           all_bool = true;
      for (DataType t : branch_types) {
        any_string |= t == DataType::kString;
        all_string &= t == DataType::kString;
        all_int &= t == DataType::kInt64;
        all_bool &= t == DataType::kBool;
      }
      if (any_string && !all_string) {
        return Status::TypeMismatch("oracle: CASE mixes families");
      }
      return all_string ? DataType::kString
             : all_int  ? DataType::kInt64
             : all_bool ? DataType::kBool
                        : DataType::kDouble;
    }
    case ExprKind::kAggregate:
      return Status::InvalidArgument("oracle: aggregate in scalar context");
    case ExprKind::kStar:
      return Status::InvalidArgument("oracle: * outside COUNT(*)");
  }
  return Status::Internal("oracle: bad expression kind");
}

// ---- row-at-a-time evaluation ---------------------------------------------

/// Evaluates `e` for one row. Assumes the whole clause already passed
/// InferType (static errors), so only data-dependent errors arise here:
/// division/modulo by zero and integer overflow.
/// Evaluation is eager like the engine's: every child is evaluated even
/// when NULL propagation or an unmatched CASE branch discards the value,
/// so the error sets of both engines coincide.
Result<Value> EvalRow(const Expr& e, const Rel& rel,
                      const std::vector<Value>& row) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumnRef: {
      LAWS_ASSIGN_OR_RETURN(size_t idx, FindField(rel, e.column_name));
      return row[idx];
    }
    case ExprKind::kUnary: {
      LAWS_ASSIGN_OR_RETURN(Value v, EvalRow(*e.children[0], rel, row));
      if (e.unary_op == UnaryOp::kNegate) {
        if (v.is_null()) return Value::Null();
        LAWS_ASSIGN_OR_RETURN(DataType t, InferType(*e.children[0], rel));
        if (t == DataType::kInt64) {
          int64_t out = 0;
          if (__builtin_sub_overflow(int64_t{0}, v.int64(), &out)) {
            return Status::NumericError("oracle: overflow in negation");
          }
          return Value::Int64(out);
        }
        return Value::Double(-NumVal(v));
      }
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.boolean());
    }
    case ExprKind::kBinary: {
      // Both sides always evaluate (no short circuit), so a data error on
      // the right fires even when the left is NULL or decides the result.
      LAWS_ASSIGN_OR_RETURN(Value lv, EvalRow(*e.children[0], rel, row));
      LAWS_ASSIGN_OR_RETURN(Value rv, EvalRow(*e.children[1], rel, row));
      switch (e.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSubtract:
        case BinaryOp::kMultiply:
        case BinaryOp::kDivide:
        case BinaryOp::kModulo: {
          LAWS_ASSIGN_OR_RETURN(DataType lt, InferType(*e.children[0], rel));
          LAWS_ASSIGN_OR_RETURN(DataType rt, InferType(*e.children[1], rel));
          const bool int_result = lt == DataType::kInt64 &&
                                  rt == DataType::kInt64 &&
                                  e.binary_op != BinaryOp::kDivide;
          if (lv.is_null() || rv.is_null()) return Value::Null();
          if (int_result) {
            const int64_t a = lv.int64();
            const int64_t b = rv.int64();
            int64_t out = 0;
            bool overflow = false;
            switch (e.binary_op) {
              case BinaryOp::kAdd:
                overflow = __builtin_add_overflow(a, b, &out);
                break;
              case BinaryOp::kSubtract:
                overflow = __builtin_sub_overflow(a, b, &out);
                break;
              case BinaryOp::kMultiply:
                overflow = __builtin_mul_overflow(a, b, &out);
                break;
              case BinaryOp::kModulo:
                if (b == 0) {
                  return Status::NumericError("oracle: modulo by zero");
                }
                out = b == -1 ? 0 : a % b;
                break;
              default:
                return Status::Internal("oracle: bad int op");
            }
            if (overflow) {
              return Status::NumericError("oracle: integer overflow");
            }
            return Value::Int64(out);
          }
          const double a = NumVal(lv);
          const double b = NumVal(rv);
          switch (e.binary_op) {
            case BinaryOp::kAdd:
              return Value::Double(a + b);
            case BinaryOp::kSubtract:
              return Value::Double(a - b);
            case BinaryOp::kMultiply:
              return Value::Double(a * b);
            case BinaryOp::kDivide:
              if (b == 0.0) {
                return Status::NumericError("oracle: division by zero");
              }
              return Value::Double(a / b);
            case BinaryOp::kModulo:
              if (b == 0.0) {
                return Status::NumericError("oracle: modulo by zero");
              }
              return Value::Double(std::fmod(a, b));
            default:
              return Status::Internal("oracle: bad arithmetic op");
          }
        }
        case BinaryOp::kEqual:
        case BinaryOp::kNotEqual:
        case BinaryOp::kLess:
        case BinaryOp::kLessEqual:
        case BinaryOp::kGreater:
        case BinaryOp::kGreaterEqual: {
          if (lv.is_null() || rv.is_null()) return Value::Null();
          int c;
          if (lv.is_string() && rv.is_string()) {
            c = lv.str() < rv.str() ? -1 : (lv.str() == rv.str() ? 0 : 1);
          } else {
            // Double coercion, including the 2^53 precision loss for big
            // INT64 values — identical to the engine. NaN compares as
            // "greater, not equal" exactly like the raw double compare.
            const double a = NumVal(lv);
            const double b = NumVal(rv);
            c = a < b ? -1 : (a == b ? 0 : 1);
          }
          switch (e.binary_op) {
            case BinaryOp::kEqual:
              return Value::Bool(c == 0);
            case BinaryOp::kNotEqual:
              return Value::Bool(c != 0);
            case BinaryOp::kLess:
              return Value::Bool(c < 0);
            case BinaryOp::kLessEqual:
              return Value::Bool(c <= 0);
            case BinaryOp::kGreater:
              return Value::Bool(c > 0);
            case BinaryOp::kGreaterEqual:
              return Value::Bool(c >= 0);
            default:
              return Status::Internal("oracle: bad comparison op");
          }
        }
        case BinaryOp::kAnd:
        case BinaryOp::kOr: {
          const bool lnull = lv.is_null();
          const bool rnull = rv.is_null();
          const bool l = lnull ? false : lv.boolean();
          const bool r = rnull ? false : rv.boolean();
          if (e.binary_op == BinaryOp::kAnd) {
            if ((!lnull && !l) || (!rnull && !r)) return Value::Bool(false);
            if (lnull || rnull) return Value::Null();
            return Value::Bool(true);
          }
          if ((!lnull && l) || (!rnull && r)) return Value::Bool(true);
          if (lnull || rnull) return Value::Null();
          return Value::Bool(false);
        }
      }
      return Status::Internal("oracle: bad binary op");
    }
    case ExprKind::kFunctionCall: {
      const std::string& f = e.function_name;
      if (IsUnaryMathFn(f)) {
        LAWS_ASSIGN_OR_RETURN(Value v, EvalRow(*e.children[0], rel, row));
        if (v.is_null()) return Value::Null();
        const double x = NumVal(v);
        if (f == "ln" || f == "log") return Value::Double(std::log(x));
        if (f == "log10") return Value::Double(std::log10(x));
        if (f == "exp") return Value::Double(std::exp(x));
        if (f == "sqrt") return Value::Double(std::sqrt(x));
        if (f == "sin") return Value::Double(std::sin(x));
        if (f == "cos") return Value::Double(std::cos(x));
        if (f == "floor") return Value::Double(std::floor(x));
        if (f == "ceil") return Value::Double(std::ceil(x));
        return Value::Double(std::round(x));
      }
      if (f == "abs") {
        LAWS_ASSIGN_OR_RETURN(Value v, EvalRow(*e.children[0], rel, row));
        if (v.is_null()) return Value::Null();
        LAWS_ASSIGN_OR_RETURN(DataType t, InferType(*e.children[0], rel));
        if (t == DataType::kInt64) {
          const int64_t x = v.int64();
          if (x == std::numeric_limits<int64_t>::min()) {
            return Status::NumericError("oracle: overflow in abs");
          }
          return Value::Int64(x < 0 ? -x : x);
        }
        return Value::Double(std::fabs(NumVal(v)));
      }
      if (f == "coalesce") {
        LAWS_ASSIGN_OR_RETURN(DataType t, InferType(e, rel));
        std::vector<Value> vals;
        vals.reserve(e.children.size());
        for (const auto& c : e.children) {
          LAWS_ASSIGN_OR_RETURN(Value v, EvalRow(*c, rel, row));
          vals.push_back(std::move(v));
        }
        for (const Value& v : vals) {
          if (v.is_null()) continue;
          if (t == DataType::kDouble) return Value::Double(NumVal(v));
          return v;
        }
        return Value::Null();
      }
      if (f == "nullif") {
        LAWS_ASSIGN_OR_RETURN(Value a, EvalRow(*e.children[0], rel, row));
        LAWS_ASSIGN_OR_RETURN(Value b, EvalRow(*e.children[1], rel, row));
        LAWS_ASSIGN_OR_RETURN(DataType at, InferType(*e.children[0], rel));
        // InferType already rejected mixed families.
        bool equal = false;
        if (!a.is_null() && !b.is_null()) {
          equal = at == DataType::kString ? a.str() == b.str()
                                          : NumVal(a) == NumVal(b);
        }
        if (a.is_null() || equal) return Value::Null();
        return a;
      }
      // pow / power (unknown functions were rejected by InferType).
      LAWS_ASSIGN_OR_RETURN(Value a, EvalRow(*e.children[0], rel, row));
      LAWS_ASSIGN_OR_RETURN(Value b, EvalRow(*e.children[1], rel, row));
      if (a.is_null() || b.is_null()) return Value::Null();
      return Value::Double(std::pow(NumVal(a), NumVal(b)));
    }
    case ExprKind::kCase: {
      LAWS_ASSIGN_OR_RETURN(DataType t, InferType(e, rel));
      const size_t pairs =
          (e.children.size() - (e.case_has_else ? 1 : 0)) / 2;
      std::vector<Value> whens, thens;
      for (size_t i = 0; i < pairs; ++i) {
        LAWS_ASSIGN_OR_RETURN(Value w, EvalRow(*e.children[2 * i], rel, row));
        LAWS_ASSIGN_OR_RETURN(Value v,
                              EvalRow(*e.children[2 * i + 1], rel, row));
        whens.push_back(std::move(w));
        thens.push_back(std::move(v));
      }
      if (e.case_has_else) {
        LAWS_ASSIGN_OR_RETURN(Value v, EvalRow(*e.children.back(), rel, row));
        thens.push_back(std::move(v));
      }
      const Value* hit = nullptr;
      for (size_t i = 0; i < pairs; ++i) {
        if (!whens[i].is_null() && whens[i].boolean()) {
          hit = &thens[i];
          break;
        }
      }
      if (hit == nullptr && e.case_has_else) hit = &thens.back();
      if (hit == nullptr || hit->is_null()) return Value::Null();
      if (t == DataType::kDouble) return Value::Double(NumVal(*hit));
      return *hit;
    }
    case ExprKind::kAggregate:
      return Status::InvalidArgument("oracle: aggregate in scalar context");
    case ExprKind::kStar:
      return Status::InvalidArgument("oracle: * outside COUNT(*)");
  }
  return Status::Internal("oracle: bad expression kind");
}

/// Evaluates `e` for every row of `rel`; errors if any row errors (eager
/// vectorized semantics).
Result<std::vector<Value>> EvalAllRows(const Expr& e, const Rel& rel) {
  LAWS_RETURN_IF_ERROR(InferType(e, rel).status());
  std::vector<Value> out;
  out.reserve(rel.rows.size());
  for (const auto& row : rel.rows) {
    LAWS_ASSIGN_OR_RETURN(Value v, EvalRow(e, rel, row));
    out.push_back(std::move(v));
  }
  return out;
}

// ---- relational stages ----------------------------------------------------

Rel RelFromTable(const Table& t) {
  Rel rel;
  rel.fields = t.schema().fields();
  rel.rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<Value> row;
    row.reserve(t.num_columns());
    for (size_t c = 0; c < t.num_columns(); ++c) {
      row.push_back(t.GetValue(r, c));
    }
    rel.rows.push_back(std::move(row));
  }
  return rel;
}

/// INNER equi-join, nested loops. NULL keys never match; NaN keys never
/// match; -0.0 matches +0.0. Output order: left-major, right rows in table
/// order — the probe order of the engine's hash join.
Result<Rel> RefJoin(const Rel& left, const Rel& right,
                    const std::vector<JoinKey>& keys,
                    const std::string& right_name) {
  if (keys.empty()) {
    return Status::InvalidArgument("oracle: JOIN requires an ON key");
  }
  std::vector<size_t> li, ri;
  for (const JoinKey& k : keys) {
    LAWS_ASSIGN_OR_RETURN(size_t l, FindField(left, k.left_column));
    LAWS_ASSIGN_OR_RETURN(size_t r, FindField(right, k.right_column));
    if (left.fields[l].type != right.fields[r].type) {
      return Status::TypeMismatch("oracle: join key type mismatch");
    }
    li.push_back(l);
    ri.push_back(r);
  }

  Rel out;
  out.fields = left.fields;
  for (const Field& f : right.fields) {
    Field of = f;
    if (HasFieldNamed(left, f.name)) {
      of.name = right_name + "_" + f.name;
      if (HasFieldNamed(left, of.name)) {
        return Status::InvalidArgument(
            "oracle: cannot disambiguate join column " + f.name);
      }
    }
    out.fields.push_back(std::move(of));
  }

  auto joinable = [](const Value& v) {
    if (v.is_null()) return false;
    if (v.is_double() && std::isnan(v.dbl())) return false;
    return true;
  };
  auto key_equal = [](const Value& a, const Value& b) {
    if (a.is_double()) {
      const double x = a.dbl() == 0.0 ? 0.0 : a.dbl();
      const double y = b.dbl() == 0.0 ? 0.0 : b.dbl();
      return x == y;
    }
    return a == b;
  };

  for (const auto& lrow : left.rows) {
    bool lok = true;
    for (size_t k = 0; k < li.size() && lok; ++k) {
      lok = joinable(lrow[li[k]]);
    }
    if (!lok) continue;
    for (const auto& rrow : right.rows) {
      bool match = true;
      for (size_t k = 0; k < li.size() && match; ++k) {
        match = joinable(rrow[ri[k]]) && key_equal(lrow[li[k]], rrow[ri[k]]);
      }
      if (!match) continue;
      std::vector<Value> orow = lrow;
      orow.insert(orow.end(), rrow.begin(), rrow.end());
      out.rows.push_back(std::move(orow));
    }
  }
  return out;
}

/// WHERE / HAVING: keep rows where the predicate is non-NULL true.
Result<Rel> RefFilter(const Expr& pred, const Rel& rel) {
  LAWS_ASSIGN_OR_RETURN(DataType t, InferType(pred, rel));
  if (t != DataType::kBool) {
    return Status::TypeMismatch("oracle: predicate is not boolean");
  }
  LAWS_ASSIGN_OR_RETURN(std::vector<Value> mask, EvalAllRows(pred, rel));
  Rel out;
  out.fields = rel.fields;
  for (size_t r = 0; r < rel.rows.size(); ++r) {
    if (!mask[r].is_null() && mask[r].boolean()) {
      out.rows.push_back(rel.rows[r]);
    }
  }
  return out;
}

std::unique_ptr<Expr> SubstAliases(const Expr& expr,
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
  for (auto& c : out->children) c = SubstAliases(*c, stmt);
  return out;
}

struct RefAggSlot {
  const Expr* node = nullptr;
  std::string repr;
  std::string hidden_name;
  bool is_star = false;
};

void CollectAggs(const Expr& expr, std::vector<RefAggSlot>* slots) {
  if (expr.kind == ExprKind::kAggregate) {
    const std::string repr = expr.ToString();
    for (const RefAggSlot& s : *slots) {
      if (s.repr == repr) return;
    }
    RefAggSlot slot;
    slot.node = &expr;
    slot.repr = repr;
    slot.hidden_name = "__agg" + std::to_string(slots->size());
    slot.is_star = expr.children[0]->kind == ExprKind::kStar;
    slots->push_back(std::move(slot));
    return;
  }
  for (const auto& c : expr.children) CollectAggs(*c, slots);
}

std::unique_ptr<Expr> RewriteAgg(const Expr& expr,
                                 const std::vector<RefAggSlot>& slots,
                                 const std::vector<std::string>& key_reprs,
                                 const std::vector<std::string>& key_names) {
  const std::string repr = expr.ToString();
  for (size_t i = 0; i < key_reprs.size(); ++i) {
    if (repr == key_reprs[i]) return Expr::MakeColumnRef(key_names[i]);
  }
  if (expr.kind == ExprKind::kAggregate) {
    for (const RefAggSlot& s : slots) {
      if (s.repr == repr) return Expr::MakeColumnRef(s.hidden_name);
    }
  }
  auto out = expr.Clone();
  for (auto& c : out->children) {
    c = RewriteAgg(*c, slots, key_reprs, key_names);
  }
  return out;
}

struct RefAggState {
  size_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double mean = 0.0;
  double m2 = 0.0;
  bool any = false;
  bool saw_comparable = false;
  std::string smin, smax;
  bool is_string = false;
};

Value RefAggFinal(AggregateFunc func, const RefAggState& s) {
  switch (func) {
    case AggregateFunc::kCount:
      return Value::Int64(static_cast<int64_t>(s.count));
    case AggregateFunc::kSum:
      return s.any ? Value::Double(s.sum) : Value::Null();
    case AggregateFunc::kAvg:
      return s.count > 0 ? Value::Double(s.sum / static_cast<double>(s.count))
                         : Value::Null();
    case AggregateFunc::kMin:
      if (!s.any) return Value::Null();
      if (s.is_string) return Value::String(s.smin);
      return s.saw_comparable
                 ? Value::Double(s.min)
                 : Value::Double(std::numeric_limits<double>::quiet_NaN());
    case AggregateFunc::kMax:
      if (!s.any) return Value::Null();
      if (s.is_string) return Value::String(s.smax);
      return s.saw_comparable
                 ? Value::Double(s.max)
                 : Value::Double(std::numeric_limits<double>::quiet_NaN());
    case AggregateFunc::kVariance:
      return s.count > 1 && !s.is_string
                 ? Value::Double(s.m2 / static_cast<double>(s.count - 1))
                 : Value::Null();
    case AggregateFunc::kStddev:
      return s.count > 1 && !s.is_string
                 ? Value::Double(
                       std::sqrt(s.m2 / static_cast<double>(s.count - 1)))
                 : Value::Null();
  }
  return Value::Null();
}

/// GROUP BY + aggregation. First-seen group order keyed on canonical
/// values; accumulation walks rows in table order per slot, with the
/// identical Welford recurrence — variance agrees bitwise.
Result<Rel> RefAggregate(const Rel& input, const SelectStatement& stmt,
                         const std::vector<RefAggSlot>& slots,
                         std::vector<std::string>* key_names) {
  std::vector<DataType> key_types;
  std::vector<std::vector<Value>> key_vals;  // [key][row]
  for (const auto& g : stmt.group_by) {
    LAWS_ASSIGN_OR_RETURN(DataType t, InferType(*g, input));
    LAWS_ASSIGN_OR_RETURN(std::vector<Value> vals, EvalAllRows(*g, input));
    key_types.push_back(t);
    key_vals.push_back(std::move(vals));
  }
  std::vector<DataType> arg_types(slots.size(), DataType::kDouble);
  std::vector<std::vector<Value>> arg_vals(slots.size());
  for (size_t a = 0; a < slots.size(); ++a) {
    if (slots[a].is_star) continue;
    const Expr& arg = *slots[a].node->children[0];
    LAWS_ASSIGN_OR_RETURN(DataType t, InferType(arg, input));
    LAWS_ASSIGN_OR_RETURN(std::vector<Value> vals, EvalAllRows(arg, input));
    const AggregateFunc func = slots[a].node->aggregate_func;
    if (t == DataType::kString &&
        (func == AggregateFunc::kSum || func == AggregateFunc::kAvg ||
         func == AggregateFunc::kVariance ||
         func == AggregateFunc::kStddev)) {
      return Status::TypeMismatch("oracle: aggregate needs a numeric arg");
    }
    arg_types[a] = t;
    arg_vals[a] = std::move(vals);
  }

  const size_t n = input.rows.size();
  std::unordered_map<std::string, size_t> group_index;
  std::vector<size_t> rep_row;
  std::vector<size_t> group_of(n);
  for (size_t r = 0; r < n; ++r) {
    std::string key;
    for (size_t k = 0; k < key_vals.size(); ++k) {
      AppendValueKey(key_vals[k][r], &key);
    }
    auto [it, inserted] = group_index.emplace(std::move(key), rep_row.size());
    if (inserted) rep_row.push_back(r);
    group_of[r] = it->second;
  }
  std::vector<std::vector<RefAggState>> states(
      rep_row.size(), std::vector<RefAggState>(slots.size()));

  for (size_t a = 0; a < slots.size(); ++a) {
    if (slots[a].is_star) {
      for (size_t r = 0; r < n; ++r) {
        RefAggState& s = states[group_of[r]][a];
        ++s.count;
        s.any = true;
      }
      continue;
    }
    if (arg_types[a] == DataType::kString) {
      for (size_t r = 0; r < n; ++r) {
        const Value& v = arg_vals[a][r];
        if (v.is_null()) continue;
        RefAggState& s = states[group_of[r]][a];
        ++s.count;
        s.any = true;
        s.is_string = true;
        if (s.count == 1 || v.str() < s.smin) s.smin = v.str();
        if (s.count == 1 || v.str() > s.smax) s.smax = v.str();
      }
      continue;
    }
    for (size_t r = 0; r < n; ++r) {
      if (arg_vals[a][r].is_null()) continue;
      RefAggState& s = states[group_of[r]][a];
      ++s.count;
      s.any = true;
      const double v = NumVal(arg_vals[a][r]);
      if (!std::isnan(v)) s.saw_comparable = true;
      s.sum += v;
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
      const double delta = v - s.mean;
      s.mean += delta / static_cast<double>(s.count);
      s.m2 += delta * (v - s.mean);
    }
  }

  // A global aggregate over zero rows still yields one (empty-state) row.
  const bool synthetic_global = stmt.group_by.empty() && states.empty();
  if (synthetic_global) {
    rep_row.push_back(0);
    states.emplace_back(slots.size());
  }

  Rel out;
  key_names->clear();
  for (size_t k = 0; k < key_types.size(); ++k) {
    const std::string name = "__key" + std::to_string(k);
    key_names->push_back(name);
    out.fields.push_back(Field{name, key_types[k], true});
  }
  for (size_t a = 0; a < slots.size(); ++a) {
    const DataType t =
        slots[a].node->aggregate_func == AggregateFunc::kCount
            ? DataType::kInt64
            : (!slots[a].is_star && arg_types[a] == DataType::kString
                   ? DataType::kString
                   : DataType::kDouble);
    out.fields.push_back(Field{slots[a].hidden_name, t, true});
  }
  for (size_t g = 0; g < states.size(); ++g) {
    std::vector<Value> row;
    for (size_t k = 0; k < key_types.size(); ++k) {
      row.push_back(n == 0 ? Value::Null()
                           : CanonicalValue(key_vals[k][rep_row[g]]));
    }
    for (size_t a = 0; a < slots.size(); ++a) {
      row.push_back(RefAggFinal(slots[a].node->aggregate_func, states[g][a]));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

/// ORDER BY: stable sort over the §11 total order; fills *order_total with
/// whether the keys had no ties among the surviving rows.
Result<Rel> RefSort(const Rel& rel,
                    const std::vector<std::unique_ptr<Expr>>& keys,
                    const std::vector<OrderKey>& order_by,
                    bool* order_total) {
  std::vector<std::vector<Value>> key_vals;  // [key][row]
  for (const auto& k : keys) {
    LAWS_ASSIGN_OR_RETURN(std::vector<Value> vals, EvalAllRows(*k, rel));
    key_vals.push_back(std::move(vals));
  }
  std::vector<size_t> perm(rel.rows.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](size_t x, size_t y) {
    for (size_t k = 0; k < key_vals.size(); ++k) {
      int c = RefCompare(key_vals[k][x], key_vals[k][y]);
      if (!order_by[k].ascending) c = -c;
      if (c != 0) return c < 0;
    }
    return false;
  });
  *order_total = !keys.empty();
  for (size_t i = 0; i + 1 < perm.size() && *order_total; ++i) {
    bool tie = true;
    for (size_t k = 0; k < key_vals.size() && tie; ++k) {
      tie = RefCompare(key_vals[k][perm[i]], key_vals[k][perm[i + 1]]) == 0;
    }
    if (tie) *order_total = false;
  }
  Rel out;
  out.fields = rel.fields;
  out.rows.reserve(rel.rows.size());
  for (size_t i : perm) out.rows.push_back(rel.rows[i]);
  return out;
}

Rel RefDistinct(const Rel& rel) {
  std::unordered_set<std::string> seen;
  Rel out;
  out.fields = rel.fields;
  for (const auto& row : rel.rows) {
    std::string key;
    for (const Value& v : row) AppendValueKey(v, &key);
    if (seen.insert(std::move(key)).second) out.rows.push_back(row);
  }
  return out;
}

Result<Table> RelToTable(const Rel& rel) {
  Table out{Schema(rel.fields)};
  for (const auto& row : rel.rows) {
    LAWS_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

Result<Table> Run(const Catalog& catalog, const SelectStatement& stmt,
                  bool* order_total) {
  *order_total = false;
  LAWS_ASSIGN_OR_RETURN(TablePtr base, catalog.Get(stmt.from_table));
  Rel rel = RelFromTable(*base);
  if (!stmt.join_table.empty()) {
    LAWS_ASSIGN_OR_RETURN(TablePtr right_t, catalog.Get(stmt.join_table));
    Rel right = RelFromTable(*right_t);
    LAWS_ASSIGN_OR_RETURN(
        rel, RefJoin(rel, right, stmt.join_keys, stmt.join_table));
  }
  const Rel source = rel;  // star expansion uses the pre-WHERE schema
  if (stmt.where != nullptr) {
    LAWS_ASSIGN_OR_RETURN(rel, RefFilter(*stmt.where, rel));
  }

  bool has_aggregate = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.select_list) {
    if (!item.is_star && item.expr->ContainsAggregate()) has_aggregate = true;
  }
  if (stmt.having != nullptr) has_aggregate = true;

  std::vector<SelectItem> projected_items;
  std::unique_ptr<Expr> having;
  std::vector<std::unique_ptr<Expr>> order_exprs;

  if (has_aggregate) {
    std::vector<RefAggSlot> slots;
    std::vector<std::unique_ptr<Expr>> resolved_order;
    std::unique_ptr<Expr> resolved_having;
    for (const SelectItem& item : stmt.select_list) {
      if (item.is_star) {
        return Status::InvalidArgument(
            "oracle: SELECT * is invalid with GROUP BY");
      }
      CollectAggs(*item.expr, &slots);
    }
    if (stmt.having != nullptr) {
      resolved_having = SubstAliases(*stmt.having, stmt);
      CollectAggs(*resolved_having, &slots);
    }
    for (const OrderKey& k : stmt.order_by) {
      resolved_order.push_back(SubstAliases(*k.expr, stmt));
      CollectAggs(*resolved_order.back(), &slots);
    }

    std::vector<std::string> key_names;
    LAWS_ASSIGN_OR_RETURN(rel, RefAggregate(rel, stmt, slots, &key_names));

    std::vector<std::string> key_reprs;
    for (const auto& g : stmt.group_by) key_reprs.push_back(g->ToString());
    for (const SelectItem& item : stmt.select_list) {
      SelectItem out;
      out.alias = item.alias.empty() ? item.expr->ToString() : item.alias;
      out.expr = RewriteAgg(*item.expr, slots, key_reprs, key_names);
      projected_items.push_back(std::move(out));
    }
    if (resolved_having != nullptr) {
      having = RewriteAgg(*resolved_having, slots, key_reprs, key_names);
    }
    for (auto& k : resolved_order) {
      order_exprs.push_back(RewriteAgg(*k, slots, key_reprs, key_names));
    }
  } else {
    for (const SelectItem& item : stmt.select_list) {
      if (item.is_star) {
        for (const Field& f : source.fields) {
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
      order_exprs.push_back(SubstAliases(*k.expr, stmt));
    }
  }

  if (having != nullptr) {
    LAWS_ASSIGN_OR_RETURN(rel, RefFilter(*having, rel));
  }
  if (!order_exprs.empty()) {
    LAWS_ASSIGN_OR_RETURN(
        rel, RefSort(rel, order_exprs, stmt.order_by, order_total));
  }

  // Projection.
  Rel projected;
  std::vector<std::vector<Value>> cols;  // [item][row]
  for (const SelectItem& item : projected_items) {
    LAWS_ASSIGN_OR_RETURN(DataType t, InferType(*item.expr, rel));
    LAWS_ASSIGN_OR_RETURN(std::vector<Value> vals,
                          EvalAllRows(*item.expr, rel));
    projected.fields.push_back(Field{item.alias, t, true});
    cols.push_back(std::move(vals));
  }
  projected.rows.resize(rel.rows.size());
  for (size_t r = 0; r < rel.rows.size(); ++r) {
    projected.rows[r].reserve(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      projected.rows[r].push_back(std::move(cols[c][r]));
    }
  }

  if (stmt.distinct) projected = RefDistinct(projected);
  if (stmt.limit >= 0 &&
      static_cast<size_t>(stmt.limit) < projected.rows.size()) {
    projected.rows.resize(static_cast<size_t>(stmt.limit));
  }
  return RelToTable(projected);
}

}  // namespace

OracleResult OracleExecuteSelect(const Catalog& catalog,
                                 const SelectStatement& stmt) {
  OracleResult out;
  bool order_total = false;
  Result<Table> table = Run(catalog, stmt, &order_total);
  if (!table.ok()) {
    out.status = table.status();
    return out;
  }
  out.table = std::move(*table);
  out.order_total = order_total;
  return out;
}

}  // namespace testing
}  // namespace laws
