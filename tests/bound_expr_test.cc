// Property test: a bound expression evaluates exactly like the by-name
// reference interpreter below — the per-row evaluator that binding
// replaced, kept here as the model. Random trees of every ExprKind over
// every column type, with NULLs, strings, arithmetic, unknown columns and
// type errors, are evaluated on owning Tuples, on TupleViews of their
// serialized bytes, and on rows stored with fewer fields than the schema.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "expr/expr.h"

namespace snapdiff {
namespace {

Schema AllTypes() {
  return Schema({{"B", TypeId::kBool, true},
                 {"I", TypeId::kInt64, true},
                 {"J", TypeId::kInt64, true},
                 {"D", TypeId::kDouble, true},
                 {"S", TypeId::kString, true},
                 {"T", TypeId::kTimestamp, true},
                 {"A", TypeId::kAddress, true}});
}

/// A reference tree node mirroring one Expression node.
struct Ref {
  ExprKind kind = ExprKind::kLiteral;
  std::string column;
  Value literal;
  CmpOp cmp = CmpOp::kEq;
  ArithOp arith = ArithOp::kAdd;
  bool negated = false;
  std::shared_ptr<Ref> lhs, rhs;
};

Status NotBool(const Value& v) {
  return Status::InvalidArgument("logical operand is " +
                                 std::string(TypeIdToString(v.type())) +
                                 ", expected BOOL");
}

/// The by-name per-row semantics binding replaced, node for node.
Result<Value> RefEval(const Ref& n, const Tuple& row, const Schema& schema) {
  switch (n.kind) {
    case ExprKind::kColumnRef:
      return row.Get(schema, n.column);
    case ExprKind::kLiteral:
      if (n.literal.type() == TypeId::kString && !n.literal.is_null()) {
        return Value::StringView(n.literal.as_string_view());
      }
      return n.literal;
    case ExprKind::kComparison: {
      ASSIGN_OR_RETURN(Value l, RefEval(*n.lhs, row, schema));
      ASSIGN_OR_RETURN(Value r, RefEval(*n.rhs, row, schema));
      if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
      ASSIGN_OR_RETURN(int cmp, l.Compare(r));
      switch (n.cmp) {
        case CmpOp::kEq:
          return Value::Bool(cmp == 0);
        case CmpOp::kNe:
          return Value::Bool(cmp != 0);
        case CmpOp::kLt:
          return Value::Bool(cmp < 0);
        case CmpOp::kLe:
          return Value::Bool(cmp <= 0);
        case CmpOp::kGt:
          return Value::Bool(cmp > 0);
        case CmpOp::kGe:
          return Value::Bool(cmp >= 0);
      }
      return Status::Internal("bad CmpOp");
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const bool is_and = n.kind == ExprKind::kAnd;
      ASSIGN_OR_RETURN(Value l, RefEval(*n.lhs, row, schema));
      if (l.type() != TypeId::kBool) return NotBool(l);
      if (is_and) {
        if (!l.is_null() && !l.as_bool()) return Value::Bool(false);
      } else {
        if (!l.is_null() && l.as_bool()) return Value::Bool(true);
      }
      ASSIGN_OR_RETURN(Value r, RefEval(*n.rhs, row, schema));
      if (r.type() != TypeId::kBool) return NotBool(r);
      if (is_and) {
        if (!r.is_null() && !r.as_bool()) return Value::Bool(false);
        if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
        return Value::Bool(true);
      }
      if (!r.is_null() && r.as_bool()) return Value::Bool(true);
      if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
      return Value::Bool(false);
    }
    case ExprKind::kNot: {
      ASSIGN_OR_RETURN(Value v, RefEval(*n.lhs, row, schema));
      if (v.type() != TypeId::kBool) {
        return Status::InvalidArgument("NOT operand must be BOOL");
      }
      if (v.is_null()) return Value::Null(TypeId::kBool);
      return Value::Bool(!v.as_bool());
    }
    case ExprKind::kArithmetic: {
      ASSIGN_OR_RETURN(Value l, RefEval(*n.lhs, row, schema));
      ASSIGN_OR_RETURN(Value r, RefEval(*n.rhs, row, schema));
      if (l.is_null() || r.is_null()) {
        const TypeId t = (l.type() == TypeId::kDouble ||
                          r.type() == TypeId::kDouble)
                             ? TypeId::kDouble
                             : TypeId::kInt64;
        return Value::Null(t);
      }
      const bool numeric_l =
          l.type() == TypeId::kInt64 || l.type() == TypeId::kDouble;
      const bool numeric_r =
          r.type() == TypeId::kInt64 || r.type() == TypeId::kDouble;
      if (!numeric_l || !numeric_r) {
        return Status::InvalidArgument("arithmetic on non-numeric operands");
      }
      if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64) {
        const int64_t a = l.as_int64(), b = r.as_int64();
        switch (n.arith) {
          case ArithOp::kAdd:
            return Value::Int64(a + b);
          case ArithOp::kSub:
            return Value::Int64(a - b);
          case ArithOp::kMul:
            return Value::Int64(a * b);
          case ArithOp::kDiv:
            if (b == 0) return Status::InvalidArgument("division by zero");
            return Value::Int64(a / b);
        }
      }
      const double a = l.as_numeric(), b = r.as_numeric();
      switch (n.arith) {
        case ArithOp::kAdd:
          return Value::Double(a + b);
        case ArithOp::kSub:
          return Value::Double(a - b);
        case ArithOp::kMul:
          return Value::Double(a * b);
        case ArithOp::kDiv:
          if (b == 0.0) return Status::InvalidArgument("division by zero");
          return Value::Double(a / b);
      }
      return Status::Internal("bad ArithOp");
    }
    case ExprKind::kIsNull: {
      ASSIGN_OR_RETURN(Value v, RefEval(*n.lhs, row, schema));
      return Value::Bool(v.is_null() != n.negated);
    }
  }
  return Status::Internal("bad ExprKind");
}

/// The restriction verdict on top of the reference value.
Result<bool> RefQualifies(const Ref& n, const Expression& e, const Tuple& row,
                          const Schema& schema) {
  ASSIGN_OR_RETURN(Value v, RefEval(n, row, schema));
  if (v.type() != TypeId::kBool) {
    return Status::InvalidArgument("restriction is not boolean: " +
                                   e.ToString());
  }
  return !v.is_null() && v.as_bool();
}

Tuple NullRow(const Schema& schema) {
  std::vector<Value> nulls;
  for (const Column& c : schema.columns()) nulls.push_back(Value::Null(c.type));
  return Tuple(std::move(nulls));
}

/// Small domains so comparisons hit equality and NULLs show up often.
Value RandomValue(Random* rng, TypeId type, double null_p) {
  if (rng->Bernoulli(null_p)) return Value::Null(type);
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case TypeId::kInt64:
      return Value::Int64(rng->UniformInt(-6, 6));
    case TypeId::kDouble:
      return Value::Double(double(rng->UniformInt(-12, 12)) / 2.0);
    case TypeId::kString: {
      static const char* kWords[] = {"", "a", "ab", "b", "laura", "lauraX"};
      return Value::String(kWords[rng->Uniform(6)]);
    }
    case TypeId::kTimestamp:
      return Value::Ts(rng->UniformInt(0, 6));
    case TypeId::kAddress:
      return Value::Addr(
          Address::FromPageSlot(static_cast<PageId>(rng->Uniform(3)),
                                static_cast<SlotId>(rng->Uniform(3))));
  }
  return Value::Null(type);
}

TypeId RandomType(Random* rng) {
  static const TypeId kTypes[] = {TypeId::kBool,   TypeId::kInt64,
                                  TypeId::kDouble, TypeId::kString,
                                  TypeId::kTimestamp, TypeId::kAddress};
  return kTypes[rng->Uniform(6)];
}

struct Generated {
  ExprPtr expr;
  std::shared_ptr<Ref> ref;
};

Generated ColumnNode(const std::string& name) {
  auto r = std::make_shared<Ref>();
  r->kind = ExprKind::kColumnRef;
  r->column = name;
  return {MakeColumnRef(name), r};
}

Generated LiteralNode(Value v) {
  auto r = std::make_shared<Ref>();
  r->kind = ExprKind::kLiteral;
  r->literal = v;
  return {MakeLiteral(std::move(v)), r};
}

/// A random tree over AllTypes(). Comparisons favour `column <op> literal`
/// pairs of one type (the fast path) but also mix types; ~3% of column
/// references name no column.
Generated RandomTree(Random* rng, const Schema& schema, int depth) {
  static const CmpOp kCmps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  static const ArithOp kAriths[] = {ArithOp::kAdd, ArithOp::kSub,
                                    ArithOp::kMul, ArithOp::kDiv};
  auto random_column = [&]() -> Generated {
    if (rng->Bernoulli(0.03)) return ColumnNode("Nope");
    return ColumnNode(schema.column(rng->Uniform(schema.column_count())).name);
  };
  auto leaf = [&]() -> Generated {
    if (rng->Bernoulli(0.5)) return random_column();
    return LiteralNode(RandomValue(rng, RandomType(rng), 0.1));
  };
  if (depth <= 0) return leaf();
  auto r = std::make_shared<Ref>();
  Generated lhs, rhs;
  ExprPtr e;
  switch (rng->Uniform(7)) {
    case 0:
    case 1: {
      r->kind = ExprKind::kComparison;
      r->cmp = kCmps[rng->Uniform(6)];
      if (rng->Bernoulli(0.6)) {
        // column <op> literal (either order), usually of the column's type.
        const size_t c = rng->Uniform(schema.column_count());
        const TypeId t = rng->Bernoulli(0.8) ? schema.column(c).type
                         : rng->Bernoulli(0.5) ? TypeId::kDouble
                                               : RandomType(rng);
        lhs = ColumnNode(schema.column(c).name);
        rhs = LiteralNode(RandomValue(rng, t, 0.05));
        if (rng->Bernoulli(0.5)) std::swap(lhs, rhs);
      } else {
        lhs = RandomTree(rng, schema, depth - 1);
        rhs = RandomTree(rng, schema, depth - 1);
      }
      e = MakeComparison(r->cmp, lhs.expr, rhs.expr);
      break;
    }
    case 2:
      r->kind = ExprKind::kAnd;
      lhs = RandomTree(rng, schema, depth - 1);
      rhs = RandomTree(rng, schema, depth - 1);
      e = MakeAnd(lhs.expr, rhs.expr);
      break;
    case 3:
      r->kind = ExprKind::kOr;
      lhs = RandomTree(rng, schema, depth - 1);
      rhs = RandomTree(rng, schema, depth - 1);
      e = MakeOr(lhs.expr, rhs.expr);
      break;
    case 4:
      r->kind = ExprKind::kNot;
      lhs = RandomTree(rng, schema, depth - 1);
      e = MakeNot(lhs.expr);
      break;
    case 5: {
      r->kind = ExprKind::kArithmetic;
      r->arith = kAriths[rng->Uniform(4)];
      auto numeric = [&]() -> Generated {
        if (rng->Bernoulli(0.15)) return RandomTree(rng, schema, depth - 1);
        switch (rng->Uniform(4)) {
          case 0:
            return ColumnNode(rng->Bernoulli(0.5) ? "I" : "J");
          case 1:
            return ColumnNode("D");
          case 2:
            return LiteralNode(RandomValue(rng, TypeId::kInt64, 0.1));
          default:
            return LiteralNode(RandomValue(rng, TypeId::kDouble, 0.1));
        }
      };
      lhs = numeric();
      rhs = numeric();
      e = MakeArithmetic(r->arith, lhs.expr, rhs.expr);
      break;
    }
    default:
      r->kind = ExprKind::kIsNull;
      r->negated = rng->Bernoulli(0.5);
      lhs = RandomTree(rng, schema, depth - 1);
      e = MakeIsNull(lhs.expr, r->negated);
      break;
  }
  r->lhs = lhs.ref;
  r->rhs = rhs.ref;
  return {e, r};
}

Tuple RandomRow(Random* rng, const Schema& schema) {
  std::vector<Value> values;
  for (const Column& c : schema.columns()) {
    values.push_back(RandomValue(rng, c.type, 0.2));
  }
  return Tuple(std::move(values));
}

/// Same outcome: both fail with one code and message, or both yield equal
/// values of one type.
void ExpectSameValue(const Result<Value>& want, const Result<Value>& got,
                     const std::string& what) {
  ASSERT_EQ(want.ok(), got.ok())
      << what << ": reference " << want.status().ToString() << ", bound "
      << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << what;
    EXPECT_EQ(want.status().message(), got.status().message()) << what;
    return;
  }
  EXPECT_EQ(want->type(), got->type()) << what;
  EXPECT_TRUE(want->Equals(*got))
      << what << ": reference " << want->ToString() << ", bound "
      << got->ToString();
}

void ExpectSameVerdict(const Result<bool>& want, const Result<bool>& got,
                       const std::string& what) {
  ASSERT_EQ(want.ok(), got.ok())
      << what << ": reference " << want.status().ToString() << ", bound "
      << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << what;
    EXPECT_EQ(want.status().message(), got.status().message()) << what;
    return;
  }
  EXPECT_EQ(*want, *got) << what;
}

class BoundExprPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundExprPropertyTest, BoundEvaluationEqualsReference) {
  Random rng(GetParam());
  const Schema schema = AllTypes();
  const Tuple nulls = NullRow(schema);
  int bound_trees = 0, fast_rows = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Generated g = RandomTree(&rng, schema, 1 + static_cast<int>(rng.Uniform(3)));
    const std::string text = g.expr->ToString();

    // Bind fails exactly when evaluation on a row of NULLs fails, with the
    // same status; ValidateAgainstSchema adds only the BOOL-result check.
    Result<Value> on_nulls = RefEval(*g.ref, nulls, schema);
    Result<BoundExpression> bound = g.expr->Bind(schema);
    ASSERT_EQ(on_nulls.ok(), bound.ok()) << text;
    Status validated = ValidateAgainstSchema(*g.expr, schema);
    if (!on_nulls.ok()) {
      EXPECT_EQ(bound.status().code(), on_nulls.status().code()) << text;
      EXPECT_EQ(bound.status().message(), on_nulls.status().message())
          << text;
      EXPECT_EQ(validated.code(), on_nulls.status().code()) << text;
      EXPECT_EQ(validated.message(), on_nulls.status().message()) << text;
      continue;
    }
    EXPECT_EQ(bound->type(), on_nulls->type()) << text;
    EXPECT_EQ(validated.ok(), on_nulls->type() == TypeId::kBool) << text;
    ++bound_trees;

    for (int r = 0; r < 8; ++r) {
      const Tuple row = RandomRow(&rng, schema);
      auto bytes = row.Serialize(schema);
      ASSERT_TRUE(bytes.ok());
      auto view = TupleView::Parse(schema, *bytes);
      ASSERT_TRUE(view.ok());
      const Result<Value> want = RefEval(*g.ref, row, schema);
      ExpectSameValue(want, bound->Evaluate(row), text + " on Tuple");
      ExpectSameValue(want, bound->Evaluate(*view), text + " on TupleView");
      const Result<bool> verdict = RefQualifies(*g.ref, *g.expr, row, schema);
      ExpectSameVerdict(verdict, bound->Qualifies(row), text + " on Tuple");
      ExpectSameVerdict(verdict, bound->Qualifies(*view),
                        text + " on TupleView");
      ExpectSameVerdict(verdict, EvaluatePredicate(*g.expr, row, schema),
                        text + " one-shot");
      if (g.ref->kind == ExprKind::kComparison &&
          (g.ref->lhs->kind == ExprKind::kLiteral) !=
              (g.ref->rhs->kind == ExprKind::kLiteral)) {
        ++fast_rows;
      }
    }
  }
  // The generator must actually exercise binding and the typed path.
  EXPECT_GT(bound_trees, 100);
  EXPECT_GT(fast_rows, 200);
}

TEST_P(BoundExprPropertyTest, RowsStoredNarrowerReadTrailingNulls) {
  // Rows written before columns were appended (the annotation columns'
  // case) are stored with fewer fields; through the wider schema the
  // missing fields are NULL, for the bound tree as for the reference on
  // the materialized row.
  Random rng(GetParam() * 7919 + 1);
  const Schema schema = AllTypes();
  for (int trial = 0; trial < 200; ++trial) {
    Generated g = RandomTree(&rng, schema, 1 + static_cast<int>(rng.Uniform(3)));
    Result<BoundExpression> bound = g.expr->Bind(schema);
    if (!bound.ok()) continue;
    const std::string text = g.expr->ToString();
    for (int r = 0; r < 4; ++r) {
      const size_t stored = 1 + rng.Uniform(schema.column_count() - 1);
      std::vector<Column> prefix_cols(schema.columns().begin(),
                                      schema.columns().begin() + stored);
      const Schema prefix(std::move(prefix_cols));
      const Tuple full = RandomRow(&rng, schema);
      const Tuple narrow(std::vector<Value>(full.values().begin(),
                                            full.values().begin() + stored));
      auto bytes = narrow.Serialize(prefix);
      ASSERT_TRUE(bytes.ok());
      auto view = TupleView::Parse(schema, *bytes);
      ASSERT_TRUE(view.ok());
      ASSERT_EQ(view->stored_field_count(), stored);
      auto materialized = view->Materialize();
      ASSERT_TRUE(materialized.ok());
      for (size_t i = stored; i < schema.column_count(); ++i) {
        ASSERT_TRUE(materialized->value(i).is_null());
      }
      const Result<Value> want = RefEval(*g.ref, *materialized, schema);
      const std::string what = text + " stored " + std::to_string(stored);
      ExpectSameValue(want, bound->Evaluate(*view), what + " on TupleView");
      ExpectSameValue(want, bound->Evaluate(*materialized), what + " on Tuple");
      ExpectSameVerdict(RefQualifies(*g.ref, *g.expr, *materialized, schema),
                        bound->Qualifies(*view), what);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundExprPropertyTest,
                         ::testing::Values(1u, 42u, 20261017u));

TEST(BoundExprTest, UnknownColumnAndTypeErrorsMatchValidation) {
  const Schema schema = AllTypes();
  struct Case {
    ExprPtr expr;
    StatusCode code;
    std::string message;
  };
  const Case cases[] = {
      {MakeComparison(CmpOp::kLt, MakeColumnRef("Dept"),
                      MakeLiteral(Value::Int64(1))),
       StatusCode::kNotFound, "no column named Dept"},
      {MakeAnd(MakeColumnRef("I"), MakeTrue()), StatusCode::kInvalidArgument,
       "logical operand is INT64, expected BOOL"},
      {MakeNot(MakeColumnRef("S")), StatusCode::kInvalidArgument,
       "NOT operand must be BOOL"},
  };
  for (const Case& c : cases) {
    Result<BoundExpression> bound = c.expr->Bind(schema);
    Status validated = ValidateAgainstSchema(*c.expr, schema);
    ASSERT_FALSE(bound.ok()) << c.expr->ToString();
    EXPECT_EQ(bound.status().code(), c.code);
    EXPECT_EQ(bound.status().message(), c.message);
    EXPECT_EQ(validated.code(), c.code);
    EXPECT_EQ(validated.message(), c.message);
  }
  // A non-BOOL expression binds (it evaluates to a value); only validation
  // as a restriction rejects it.
  ExprPtr sum = MakeArithmetic(ArithOp::kAdd, MakeColumnRef("I"),
                               MakeLiteral(Value::Int64(1)));
  ASSERT_TRUE(sum->Bind(schema).ok());
  Status validated = ValidateAgainstSchema(*sum, schema);
  EXPECT_TRUE(validated.IsInvalidArgument());
  EXPECT_EQ(validated.message(), "restriction is not boolean: (I + 1)");
}

}  // namespace
}  // namespace snapdiff
