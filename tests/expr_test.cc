#include "expr/expr.h"

#include <gtest/gtest.h>

namespace snapdiff {
namespace {

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false},
                 {"Bonus", TypeId::kDouble, true}});
}

/// One-shot evaluation: bind to `s`, then evaluate `row`.
Result<Value> Eval(const ExprPtr& e, const Tuple& row, const Schema& s) {
  ASSIGN_OR_RETURN(BoundExpression bound, e->Bind(s));
  return bound.Evaluate(row);
}

Tuple Row(std::string name, int64_t salary, Value bonus) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary),
                std::move(bonus)});
}

TEST(ExprTest, ColumnRefAndLiteral) {
  Schema s = EmpSchema();
  Tuple row = Row("Bruce", 15, Value::Double(1.0));
  auto v = Eval(MakeColumnRef("Salary"), row, s);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_int64(), 15);
  auto lit = Eval(MakeLiteral(Value::Int64(10)), row, s);
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ(lit->as_int64(), 10);
}

TEST(ExprTest, UnknownColumnErrors) {
  Schema s = EmpSchema();
  Tuple row = Row("x", 1, Value::Double(0));
  EXPECT_FALSE(Eval(MakeColumnRef("Dept"), row, s).ok());
}

TEST(ExprTest, ComparisonOperators) {
  Schema s = EmpSchema();
  Tuple row = Row("Laura", 6, Value::Double(0));
  auto salary = MakeColumnRef("Salary");
  auto ten = MakeLiteral(Value::Int64(10));

  struct Case {
    CmpOp op;
    bool expected;
  };
  const Case cases[] = {
      {CmpOp::kLt, true},  {CmpOp::kLe, true},  {CmpOp::kGt, false},
      {CmpOp::kGe, false}, {CmpOp::kEq, false}, {CmpOp::kNe, true},
  };
  for (const Case& c : cases) {
    auto pred = MakeComparison(c.op, salary, ten);
    auto r = EvaluatePredicate(*pred, row, s);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, c.expected) << CmpOpToString(c.op);
  }
}

TEST(ExprTest, PaperRestriction) {
  // SnapRestrict = Salary < 10 over the paper's Figure 1 population.
  Schema s = EmpSchema();
  auto pred = MakeComparison(CmpOp::kLt, MakeColumnRef("Salary"),
                             MakeLiteral(Value::Int64(10)));
  struct Emp {
    const char* name;
    int64_t salary;
    bool qualifies;
  };
  const Emp emps[] = {{"Bruce", 15, false}, {"Laura", 6, true},
                      {"Hamid", 15, false}, {"Mohan", 9, true},
                      {"Paul", 8, true}};
  for (const Emp& e : emps) {
    auto r = EvaluatePredicate(*pred, Row(e.name, e.salary, Value::Double(0)),
                               s);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, e.qualifies) << e.name;
  }
}

TEST(ExprTest, NullComparisonDoesNotQualify) {
  Schema s = EmpSchema();
  Tuple row = Row("x", 5, Value::Null(TypeId::kDouble));
  auto pred = MakeComparison(CmpOp::kLt, MakeColumnRef("Bonus"),
                             MakeLiteral(Value::Double(100.0)));
  auto r = EvaluatePredicate(*pred, row, s);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(ExprTest, ThreeValuedAnd) {
  Schema s = EmpSchema();
  Tuple row = Row("x", 5, Value::Null(TypeId::kDouble));
  auto null_cmp = MakeComparison(CmpOp::kGt, MakeColumnRef("Bonus"),
                                 MakeLiteral(Value::Double(0.0)));
  // FALSE AND NULL = FALSE (not an error, not NULL).
  auto false_lit = MakeLiteral(Value::Bool(false));
  auto e1 = Eval(MakeAnd(false_lit, null_cmp), row, s);
  ASSERT_TRUE(e1.ok());
  EXPECT_FALSE(e1->is_null());
  EXPECT_FALSE(e1->as_bool());
  // TRUE AND NULL = NULL.
  auto e2 = Eval(MakeAnd(MakeTrue(), null_cmp), row, s);
  ASSERT_TRUE(e2.ok());
  EXPECT_TRUE(e2->is_null());
}

TEST(ExprTest, ThreeValuedOr) {
  Schema s = EmpSchema();
  Tuple row = Row("x", 5, Value::Null(TypeId::kDouble));
  auto null_cmp = MakeComparison(CmpOp::kGt, MakeColumnRef("Bonus"),
                                 MakeLiteral(Value::Double(0.0)));
  // TRUE OR NULL = TRUE.
  auto e1 = Eval(MakeOr(MakeTrue(), null_cmp), row, s);
  ASSERT_TRUE(e1.ok());
  EXPECT_TRUE(e1->as_bool());
  // FALSE OR NULL = NULL.
  auto e2 = Eval(MakeOr(MakeLiteral(Value::Bool(false)), null_cmp), row, s);
  ASSERT_TRUE(e2.ok());
  EXPECT_TRUE(e2->is_null());
}

TEST(ExprTest, NotAndNullPropagation) {
  Schema s = EmpSchema();
  Tuple row = Row("x", 5, Value::Null(TypeId::kDouble));
  auto e = Eval(MakeNot(MakeLiteral(Value::Bool(true))), row, s);
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e->as_bool());
  auto null_cmp = MakeComparison(CmpOp::kGt, MakeColumnRef("Bonus"),
                                 MakeLiteral(Value::Double(0.0)));
  auto en = Eval(MakeNot(null_cmp), row, s);
  ASSERT_TRUE(en.ok());
  EXPECT_TRUE(en->is_null());
}

TEST(ExprTest, Arithmetic) {
  Schema s = EmpSchema();
  Tuple row = Row("x", 7, Value::Double(0.5));
  auto expr = MakeArithmetic(ArithOp::kAdd,
                             MakeArithmetic(ArithOp::kMul,
                                            MakeColumnRef("Salary"),
                                            MakeLiteral(Value::Int64(2))),
                             MakeLiteral(Value::Int64(1)));
  auto v = Eval(expr, row, s);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_int64(), 15);

  auto mixed = MakeArithmetic(ArithOp::kMul, MakeColumnRef("Bonus"),
                              MakeLiteral(Value::Int64(4)));
  auto m = Eval(mixed, row, s);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->as_double(), 2.0);
}

TEST(ExprTest, DivisionByZeroErrors) {
  Schema s = EmpSchema();
  Tuple row = Row("x", 1, Value::Double(0));
  auto e = MakeArithmetic(ArithOp::kDiv, MakeColumnRef("Salary"),
                          MakeLiteral(Value::Int64(0)));
  EXPECT_FALSE(Eval(e, row, s).ok());
}

TEST(ExprTest, IsNull) {
  Schema s = EmpSchema();
  Tuple null_bonus = Row("x", 1, Value::Null(TypeId::kDouble));
  Tuple with_bonus = Row("x", 1, Value::Double(2.0));
  auto is_null = MakeIsNull(MakeColumnRef("Bonus"), false);
  auto not_null = MakeIsNull(MakeColumnRef("Bonus"), true);
  EXPECT_TRUE(*EvaluatePredicate(*is_null, null_bonus, s));
  EXPECT_FALSE(*EvaluatePredicate(*is_null, with_bonus, s));
  EXPECT_TRUE(*EvaluatePredicate(*not_null, with_bonus, s));
}

TEST(ExprTest, NonBooleanPredicateRejected) {
  Schema s = EmpSchema();
  Tuple row = Row("x", 1, Value::Double(0));
  auto r = EvaluatePredicate(*MakeColumnRef("Salary"), row, s);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ExprTest, ValidateAgainstSchema) {
  Schema s = EmpSchema();
  auto good = MakeComparison(CmpOp::kLt, MakeColumnRef("Salary"),
                             MakeLiteral(Value::Int64(10)));
  EXPECT_TRUE(ValidateAgainstSchema(*good, s).ok());
  auto unknown = MakeComparison(CmpOp::kLt, MakeColumnRef("Dept"),
                                MakeLiteral(Value::Int64(10)));
  EXPECT_FALSE(ValidateAgainstSchema(*unknown, s).ok());
  EXPECT_FALSE(ValidateAgainstSchema(*MakeColumnRef("Salary"), s).ok());
}

TEST(ExprTest, ToStringIsReadable) {
  auto pred = MakeAnd(MakeComparison(CmpOp::kLt, MakeColumnRef("Salary"),
                                     MakeLiteral(Value::Int64(10))),
                      MakeNot(MakeColumnRef("Retired")));
  EXPECT_EQ(pred->ToString(), "((Salary < 10) AND (NOT Retired))");
}

}  // namespace
}  // namespace snapdiff
