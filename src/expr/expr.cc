#include "expr/expr.h"

#include <cmath>
#include <type_traits>

#include "common/coding.h"

namespace snapdiff {

std::string_view CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

std::string_view ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

namespace {

class ColumnRefExpr final : public Expression {
 public:
  explicit ColumnRefExpr(std::string name) : name_(std::move(name)) {}

  std::string ToString() const override { return name_; }

  ExprKind kind() const override { return ExprKind::kColumnRef; }
  std::string_view column_name() const override { return name_; }

 private:
  std::string name_;
};

class LiteralExpr final : public Expression {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}

  std::string ToString() const override { return value_.ToString(); }

  ExprKind kind() const override { return ExprKind::kLiteral; }
  const Value* literal() const override { return &value_; }

 private:
  Value value_;
};

class ComparisonExpr final : public Expression {
 public:
  ComparisonExpr(CmpOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + std::string(CmpOpToString(op_)) +
           " " + rhs_->ToString() + ")";
  }

  ExprKind kind() const override { return ExprKind::kComparison; }
  const Expression* child(size_t i) const override {
    return i == 0 ? lhs_.get() : (i == 1 ? rhs_.get() : nullptr);
  }
  CmpOp cmp_op() const override { return op_; }

 private:
  CmpOp op_;
  ExprPtr lhs_, rhs_;
};

/// SQL three-valued AND/OR.
class LogicalExpr final : public Expression {
 public:
  LogicalExpr(bool is_and, ExprPtr lhs, ExprPtr rhs)
      : is_and_(is_and), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  std::string ToString() const override {
    return "(" + lhs_->ToString() + (is_and_ ? " AND " : " OR ") +
           rhs_->ToString() + ")";
  }

  ExprKind kind() const override {
    return is_and_ ? ExprKind::kAnd : ExprKind::kOr;
  }
  const Expression* child(size_t i) const override {
    return i == 0 ? lhs_.get() : (i == 1 ? rhs_.get() : nullptr);
  }

 private:
  bool is_and_;
  ExprPtr lhs_, rhs_;
};

class NotExpr final : public Expression {
 public:
  explicit NotExpr(ExprPtr operand) : operand_(std::move(operand)) {}

  std::string ToString() const override {
    return "(NOT " + operand_->ToString() + ")";
  }

  ExprKind kind() const override { return ExprKind::kNot; }
  const Expression* child(size_t i) const override {
    return i == 0 ? operand_.get() : nullptr;
  }

 private:
  ExprPtr operand_;
};

class ArithmeticExpr final : public Expression {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " +
           std::string(ArithOpToString(op_)) + " " + rhs_->ToString() + ")";
  }

  ExprKind kind() const override { return ExprKind::kArithmetic; }
  const Expression* child(size_t i) const override {
    return i == 0 ? lhs_.get() : (i == 1 ? rhs_.get() : nullptr);
  }
  ArithOp arith_op() const override { return op_; }

 private:
  ArithOp op_;
  ExprPtr lhs_, rhs_;
};

class IsNullExpr final : public Expression {
 public:
  IsNullExpr(ExprPtr operand, bool negated)
      : operand_(std::move(operand)), negated_(negated) {}

  std::string ToString() const override {
    return "(" + operand_->ToString() +
           (negated_ ? " IS NOT NULL)" : " IS NULL)");
  }

  ExprKind kind() const override { return ExprKind::kIsNull; }
  const Expression* child(size_t i) const override {
    return i == 0 ? operand_.get() : nullptr;
  }
  bool negated() const override { return negated_; }

 private:
  ExprPtr operand_;
  bool negated_;
};

}  // namespace

ExprPtr MakeColumnRef(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}

ExprPtr MakeLiteral(Value v) {
  return std::make_shared<LiteralExpr>(std::move(v));
}

ExprPtr MakeComparison(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ComparisonExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(true, std::move(lhs), std::move(rhs));
}

ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(false, std::move(lhs), std::move(rhs));
}

ExprPtr MakeNot(ExprPtr operand) {
  return std::make_shared<NotExpr>(std::move(operand));
}

ExprPtr MakeArithmetic(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithmeticExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr MakeIsNull(ExprPtr operand, bool negated) {
  return std::make_shared<IsNullExpr>(std::move(operand), negated);
}

ExprPtr MakeTrue() { return MakeLiteral(Value::Bool(true)); }

// --- Binding ---------------------------------------------------------------

uint32_t BoundExpression::BindNode(const Expression& expr,
                                   const Schema& schema,
                                   std::vector<Node>* nodes) {
  Node node;
  node.kind = expr.kind();
  switch (node.kind) {
    case ExprKind::kColumnRef: {
      Result<size_t> idx = schema.IndexOf(expr.column_name());
      if (idx.ok()) {
        node.column = *idx;
      } else {
        node.unresolved = idx.status();
      }
      break;
    }
    case ExprKind::kLiteral:
      node.literal = *expr.literal();
      break;
    case ExprKind::kComparison:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kArithmetic:
      node.lhs = BindNode(*expr.child(0), schema, nodes);
      node.rhs = BindNode(*expr.child(1), schema, nodes);
      break;
    case ExprKind::kNot:
    case ExprKind::kIsNull:
      node.lhs = BindNode(*expr.child(0), schema, nodes);
      break;
  }
  node.cmp = expr.cmp_op();
  node.arith = expr.arith_op();
  node.negated = expr.negated();
  if (node.kind == ExprKind::kComparison) {
    const Node& lhs = (*nodes)[node.lhs];
    const Node& rhs = (*nodes)[node.rhs];
    const bool col_lit = lhs.kind == ExprKind::kColumnRef &&
                         rhs.kind == ExprKind::kLiteral;
    const bool lit_col = lhs.kind == ExprKind::kLiteral &&
                         rhs.kind == ExprKind::kColumnRef;
    const Node* col = col_lit ? &lhs : (lit_col ? &rhs : nullptr);
    const Node* lit = col_lit ? &rhs : (lit_col ? &lhs : nullptr);
    if (col != nullptr && col->unresolved.ok() && !lit->literal.is_null()) {
      // The typed comparison follows Value::Compare: INT64 pairs compare
      // exactly, other numeric pairs as doubles, TIMESTAMP and STRING only
      // with their own type. Pairs Compare rejects get no fast path, so
      // they still fail there.
      const TypeId c = schema.column(col->column).type;
      const TypeId l = lit->literal.type();
      const auto numeric = [](TypeId t) {
        return t == TypeId::kInt64 || t == TypeId::kDouble;
      };
      if (c == TypeId::kInt64 && l == TypeId::kInt64) {
        node.fast = FastCmp::kInt64;
      } else if (numeric(c) && numeric(l)) {
        node.fast = FastCmp::kNumeric;
      } else if (c == l && c == TypeId::kTimestamp) {
        node.fast = FastCmp::kTimestamp;
      } else if (c == l && c == TypeId::kString) {
        node.fast = FastCmp::kString;
      }
    }
    if (node.fast != FastCmp::kNone) {
      node.column = col->column;
      node.column_type = schema.column(col->column).type;
      node.literal_first = lit_col;
      node.literal = lit->literal;
      if (node.fast == FastCmp::kNumeric) {
        node.literal_num = node.literal.as_numeric();
      } else if (node.fast == FastCmp::kInt64) {
        node.literal_int = node.literal.as_int64();
      } else if (node.fast == FastCmp::kTimestamp) {
        node.literal_int = node.literal.as_timestamp();
      }
    }
  }
  nodes->push_back(std::move(node));
  return static_cast<uint32_t>(nodes->size() - 1);
}

Result<BoundExpression> Expression::Bind(const Schema& schema) const {
  BoundExpression bound;
  BoundExpression::BindNode(*this, schema, &bound.nodes_);
  bound.text_ = ToString();
  // The compile-time check: evaluate once on a row of NULLs. What this
  // rejects is exactly what ValidateAgainstSchema always rejected.
  std::vector<Value> nulls;
  nulls.reserve(schema.column_count());
  for (size_t i = 0; i < schema.column_count(); ++i) {
    nulls.push_back(Value::Null(schema.column(i).type));
  }
  ASSIGN_OR_RETURN(Value v, bound.Evaluate(Tuple(std::move(nulls))));
  bound.type_ = v.type();
  return bound;
}

// --- Bound evaluation ------------------------------------------------------

namespace {

Result<Value> ColumnValue(const TupleView& row, size_t i) {
  return row.Field(i);
}

Result<Value> ColumnValue(const Tuple& row, size_t i) {
  if (i >= row.size()) {
    return Status::InvalidArgument("tuple narrower than schema");
  }
  return row.value(i);
}

bool Holds(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq:
      return cmp == 0;
    case CmpOp::kNe:
      return cmp != 0;
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
  }
  return false;
}

template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Value::Compare's mixed-numeric rule: the sign of the difference.
int SignOfDifference(double a, double b) {
  const double d = a - b;
  return d < 0 ? -1 : (d > 0 ? 1 : 0);
}

Status NotBool(const Value& v) {
  return Status::InvalidArgument("logical operand is " +
                                 std::string(TypeIdToString(v.type())) +
                                 ", expected BOOL");
}

}  // namespace

Result<BoundExpression::Truth> BoundExpression::FastCompare(
    const Node& node, const TupleView& row) const {
  const size_t i = node.column;
  if (i >= row.field_count()) {
    return Status::InvalidArgument("field index out of range");
  }
  if (row.IsNull(i)) return Truth::kNull;
  ASSIGN_OR_RETURN(std::string_view slot, row.FieldSlot(i));
  int cmp = 0;
  switch (node.fast) {
    case FastCmp::kInt64:
    case FastCmp::kTimestamp: {
      uint64_t raw = 0;
      RETURN_IF_ERROR(GetFixed64(&slot, &raw));
      const int64_t v = static_cast<int64_t>(raw);
      // TupleView decodes the NULL-timestamp sentinel as NULL.
      if (node.fast == FastCmp::kTimestamp && v == kNullTimestamp) {
        return Truth::kNull;
      }
      cmp = node.literal_first ? ThreeWay(node.literal_int, v)
                               : ThreeWay(v, node.literal_int);
      break;
    }
    case FastCmp::kNumeric: {
      double v = 0;
      if (node.column_type == TypeId::kInt64) {
        uint64_t raw = 0;
        RETURN_IF_ERROR(GetFixed64(&slot, &raw));
        v = static_cast<double>(static_cast<int64_t>(raw));
      } else {
        RETURN_IF_ERROR(GetDouble(&slot, &v));
      }
      cmp = node.literal_first ? SignOfDifference(node.literal_num, v)
                               : SignOfDifference(v, node.literal_num);
      break;
    }
    case FastCmp::kString: {
      const std::string_view v = slot.substr(4);
      const std::string_view lit = node.literal.as_string_view();
      const int c = node.literal_first ? lit.compare(v) : v.compare(lit);
      cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      break;
    }
    case FastCmp::kNone:
      return Status::Internal("no fast comparison bound");
  }
  return Holds(node.cmp, cmp) ? Truth::kTrue : Truth::kFalse;
}

template <typename Row>
Result<Value> BoundExpression::Eval(uint32_t n, const Row& row) const {
  const Node& node = nodes_[n];
  switch (node.kind) {
    case ExprKind::kColumnRef:
      if (!node.unresolved.ok()) return node.unresolved;
      return ColumnValue(row, node.column);
    case ExprKind::kLiteral:
      // A string literal hands out a view of its own bytes so per-row
      // evaluation never copies the constant.
      if (node.literal.type() == TypeId::kString && !node.literal.is_null()) {
        return Value::StringView(node.literal.as_string_view());
      }
      return node.literal;
    case ExprKind::kComparison: {
      if constexpr (std::is_same_v<Row, TupleView>) {
        if (node.fast != FastCmp::kNone) {
          ASSIGN_OR_RETURN(Truth t, FastCompare(node, row));
          if (t == Truth::kNull) return Value::Null(TypeId::kBool);
          return Value::Bool(t == Truth::kTrue);
        }
      }
      ASSIGN_OR_RETURN(Value l, Eval(node.lhs, row));
      ASSIGN_OR_RETURN(Value r, Eval(node.rhs, row));
      if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
      ASSIGN_OR_RETURN(int cmp, l.Compare(r));
      return Value::Bool(Holds(node.cmp, cmp));
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      // SQL three-valued AND/OR, short-circuiting where it allows.
      const bool is_and = node.kind == ExprKind::kAnd;
      ASSIGN_OR_RETURN(Value l, Eval(node.lhs, row));
      if (l.type() != TypeId::kBool) return NotBool(l);
      if (is_and) {
        if (!l.is_null() && !l.as_bool()) return Value::Bool(false);
      } else {
        if (!l.is_null() && l.as_bool()) return Value::Bool(true);
      }
      ASSIGN_OR_RETURN(Value r, Eval(node.rhs, row));
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
      ASSIGN_OR_RETURN(Value v, Eval(node.lhs, row));
      if (v.type() != TypeId::kBool) {
        return Status::InvalidArgument("NOT operand must be BOOL");
      }
      if (v.is_null()) return Value::Null(TypeId::kBool);
      return Value::Bool(!v.as_bool());
    }
    case ExprKind::kArithmetic: {
      ASSIGN_OR_RETURN(Value l, Eval(node.lhs, row));
      ASSIGN_OR_RETURN(Value r, Eval(node.rhs, row));
      if (l.is_null() || r.is_null()) {
        // Result type follows the wider operand; NULL propagates.
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
        switch (node.arith) {
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
      switch (node.arith) {
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
      ASSIGN_OR_RETURN(Value v, Eval(node.lhs, row));
      return Value::Bool(v.is_null() != node.negated);
    }
  }
  return Status::Internal("bad ExprKind");
}

template <typename Row>
Result<bool> BoundExpression::Verdict(const Row& row) const {
  const uint32_t root = static_cast<uint32_t>(nodes_.size() - 1);
  if constexpr (std::is_same_v<Row, TupleView>) {
    if (nodes_[root].fast != FastCmp::kNone) {
      ASSIGN_OR_RETURN(Truth t, FastCompare(nodes_[root], row));
      return t == Truth::kTrue;
    }
  }
  ASSIGN_OR_RETURN(Value v, Eval(root, row));
  if (v.type() != TypeId::kBool) {
    return Status::InvalidArgument("restriction is not boolean: " + text_);
  }
  // SQL WHERE semantics: NULL does not qualify.
  return !v.is_null() && v.as_bool();
}

Result<Value> BoundExpression::Evaluate(const TupleView& row) const {
  return Eval(static_cast<uint32_t>(nodes_.size() - 1), row);
}

Result<Value> BoundExpression::Evaluate(const Tuple& row) const {
  return Eval(static_cast<uint32_t>(nodes_.size() - 1), row);
}

Result<bool> BoundExpression::Qualifies(const TupleView& row) const {
  return Verdict(row);
}

Result<bool> BoundExpression::Qualifies(const Tuple& row) const {
  return Verdict(row);
}

Result<bool> EvaluatePredicate(const Expression& expr, const Tuple& row,
                               const Schema& schema) {
  ASSIGN_OR_RETURN(BoundExpression bound, expr.Bind(schema));
  return bound.Qualifies(row);
}

Status ValidateAgainstSchema(const Expression& expr, const Schema& schema) {
  ASSIGN_OR_RETURN(BoundExpression bound, expr.Bind(schema));
  if (bound.type() != TypeId::kBool) {
    return Status::InvalidArgument("restriction is not boolean: " +
                                   expr.ToString());
  }
  return Status::OK();
}

}  // namespace snapdiff
