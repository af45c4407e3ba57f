#ifndef SNAPDIFF_EXPR_EXPR_H_
#define SNAPDIFF_EXPR_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "catalog/tuple_view.h"
#include "catalog/value.h"
#include "common/result.h"

namespace snapdiff {

class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

/// Node kinds, exposed for compile-time analyses (e.g. range extraction
/// for index-assisted refresh).
enum class ExprKind {
  kColumnRef,
  kLiteral,
  kComparison,
  kAnd,
  kOr,
  kNot,
  kArithmetic,
  kIsNull,
};

/// Comparison operators.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
std::string_view CmpOpToString(CmpOp op);

/// Binary arithmetic operators over numeric values.
enum class ArithOp { kAdd, kSub, kMul, kDiv };
std::string_view ArithOpToString(ArithOp op);

class BoundExpression;

/// An immutable expression tree over column names. Snapshot restrictions
/// (`SnapRestrict`) are boolean expressions over the base table's user
/// columns; e.g. the paper's running example `Salary < 10`. A tree is not
/// evaluated directly: `Bind` resolves its column names against a schema
/// once (R*'s compile-time binding), and the bound tree evaluates rows.
///
/// NULL semantics: comparisons and arithmetic involving NULL evaluate to
/// NULL; a restriction qualifies a row only when it evaluates to TRUE
/// (NULL and FALSE both disqualify), matching SQL WHERE semantics.
class Expression {
 public:
  virtual ~Expression() = default;

  /// Resolves every column reference to its index in `schema` and checks
  /// the tree on a row of NULLs. Fails with exactly the status
  /// ValidateAgainstSchema reports for the same schema (an unknown column
  /// or a non-BOOL logical operand that evaluation reaches), except that a
  /// non-BOOL result is allowed here. A column reference that the NULL row
  /// never reaches stays unresolved and reports its NotFound when a row
  /// reaches it, as per-row evaluation always did.
  Result<BoundExpression> Bind(const Schema& schema) const;

  virtual std::string ToString() const = 0;

  /// --- structural introspection (for analyses; see ExprKind) ---

  virtual ExprKind kind() const = 0;

  /// Child i (0 = lhs/operand, 1 = rhs); nullptr when out of range.
  virtual const Expression* child(size_t i) const {
    (void)i;
    return nullptr;
  }

  /// kColumnRef: the referenced column name; empty otherwise.
  virtual std::string_view column_name() const { return {}; }

  /// kLiteral: the constant; nullptr otherwise.
  virtual const Value* literal() const { return nullptr; }

  /// kComparison: the operator. Meaningless for other kinds.
  virtual CmpOp cmp_op() const { return CmpOp::kEq; }

  /// kArithmetic: the operator. Meaningless for other kinds.
  virtual ArithOp arith_op() const { return ArithOp::kAdd; }

  /// kIsNull: true for IS NOT NULL. Meaningless for other kinds.
  virtual bool negated() const { return false; }
};

/// An expression bound to one schema: column references are field indices,
/// and a comparison of a column with a literal (INT64, DOUBLE, TIMESTAMP or
/// STRING) compares the stored slot with the typed constant directly. Bind
/// once per refresh, evaluate per row; no name is looked up per row.
///
/// A TupleView passed in must be laid out by the bound schema (or a schema
/// that extends it with trailing columns); fields a stored row lacks read
/// as NULL. A Tuple is read positionally, as its values are. String results
/// alias the row or this object, like every view Value.
class BoundExpression {
 public:
  Result<Value> Evaluate(const TupleView& row) const;
  Result<Value> Evaluate(const Tuple& row) const;

  /// The restriction verdict: TRUE qualifies; FALSE or NULL does not. A
  /// non-boolean result is an error.
  Result<bool> Qualifies(const TupleView& row) const;
  Result<bool> Qualifies(const Tuple& row) const;

  /// The type of the value the expression takes on a row of NULLs.
  TypeId type() const { return type_; }

 private:
  friend class Expression;

  BoundExpression() = default;

  /// A `column <op> literal` comparison evaluated on the typed slot.
  enum class FastCmp : uint8_t { kNone, kInt64, kNumeric, kTimestamp, kString };

  /// One node; children are earlier entries of `nodes_` (post-order).
  struct Node {
    ExprKind kind = ExprKind::kLiteral;
    uint32_t lhs = 0;
    uint32_t rhs = 0;
    size_t column = 0;          // kColumnRef, and fast comparisons
    Status unresolved;          // kColumnRef whose name the schema lacks
    CmpOp cmp = CmpOp::kEq;
    ArithOp arith = ArithOp::kAdd;
    bool negated = false;       // kIsNull: IS NOT NULL
    FastCmp fast = FastCmp::kNone;
    TypeId column_type = TypeId::kInt64;  // fast comparisons
    bool literal_first = false;  // fast comparison written `literal <op> col`
    int64_t literal_int = 0;     // fast kInt64 / kTimestamp constant
    double literal_num = 0;      // fast kNumeric constant
    Value literal;               // kLiteral, and fast comparisons
  };

  enum class Truth : uint8_t { kFalse, kTrue, kNull };

  /// Appends `expr`'s subtree to `nodes` (children first); returns the
  /// index of its root.
  static uint32_t BindNode(const Expression& expr, const Schema& schema,
                           std::vector<Node>* nodes);

  template <typename Row>
  Result<Value> Eval(uint32_t n, const Row& row) const;
  Result<Truth> FastCompare(const Node& node, const TupleView& row) const;
  template <typename Row>
  Result<bool> Verdict(const Row& row) const;

  std::vector<Node> nodes_;
  TypeId type_ = TypeId::kBool;
  std::string text_;  // the source expression, for error messages
};

/// Node factories.
ExprPtr MakeColumnRef(std::string name);
ExprPtr MakeLiteral(Value v);
ExprPtr MakeComparison(CmpOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeNot(ExprPtr operand);
ExprPtr MakeArithmetic(ArithOp op, ExprPtr lhs, ExprPtr rhs);
/// IS NULL / IS NOT NULL.
ExprPtr MakeIsNull(ExprPtr operand, bool negated);

/// The constant TRUE predicate (an unrestricted snapshot).
ExprPtr MakeTrue();

/// One-shot restriction check: binds `expr` to `schema`, then evaluates
/// `row`. Scan loops bind once and call BoundExpression::Qualifies instead.
Result<bool> EvaluatePredicate(const Expression& expr, const Tuple& row,
                               const Schema& schema);

/// Verifies that `expr` binds to `schema` and yields BOOL on a row of
/// NULLs (catches unknown columns and gross type errors at CREATE SNAPSHOT
/// time, mirroring R*'s compile-time binding).
Status ValidateAgainstSchema(const Expression& expr, const Schema& schema);

}  // namespace snapdiff

#endif  // SNAPDIFF_EXPR_EXPR_H_
