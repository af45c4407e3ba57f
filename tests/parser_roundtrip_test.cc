// Property test: for randomly generated expression trees,
// Parse(ToString(tree)) prints back identically, and both evaluate to the
// same result on random rows.

#include <gtest/gtest.h>

#include "common/random.h"
#include "expr/parser.h"

namespace snapdiff {
namespace {

Schema TestSchema() {
  return Schema({{"A", TypeId::kInt64, true},
                 {"B", TypeId::kInt64, true},
                 {"C", TypeId::kDouble, true},
                 {"Flag", TypeId::kBool, false}});
}

/// Generates a random boolean expression over TestSchema.
ExprPtr RandomPredicate(Random* rng, int depth) {
  const char* int_cols[] = {"A", "B"};
  auto random_numeric = [&]() -> ExprPtr {
    switch (rng->Uniform(3)) {
      case 0:
        return MakeColumnRef(int_cols[rng->Uniform(2)]);
      case 1:
        return MakeColumnRef("C");
      default:
        return MakeLiteral(Value::Int64(rng->UniformInt(-20, 20)));
    }
  };
  auto random_cmp = [&]() -> ExprPtr {
    static const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
    ExprPtr lhs = random_numeric();
    if (rng->Bernoulli(0.3)) {
      static const ArithOp aops[] = {ArithOp::kAdd, ArithOp::kSub,
                                     ArithOp::kMul};
      lhs = MakeArithmetic(aops[rng->Uniform(3)], lhs, random_numeric());
    }
    return MakeComparison(ops[rng->Uniform(6)], lhs, random_numeric());
  };
  if (depth <= 0) {
    switch (rng->Uniform(4)) {
      case 0:
        return MakeColumnRef("Flag");
      case 1:
        return MakeLiteral(Value::Bool(rng->Bernoulli(0.5)));
      case 2:
        return MakeIsNull(MakeColumnRef(int_cols[rng->Uniform(2)]),
                          rng->Bernoulli(0.5));
      default:
        return random_cmp();
    }
  }
  switch (rng->Uniform(4)) {
    case 0:
      return MakeAnd(RandomPredicate(rng, depth - 1),
                     RandomPredicate(rng, depth - 1));
    case 1:
      return MakeOr(RandomPredicate(rng, depth - 1),
                    RandomPredicate(rng, depth - 1));
    case 2:
      return MakeNot(RandomPredicate(rng, depth - 1));
    default:
      return random_cmp();
  }
}

Tuple RandomRow(Random* rng) {
  auto maybe_null_int = [&]() {
    return rng->Bernoulli(0.15) ? Value::Null(TypeId::kInt64)
                                : Value::Int64(rng->UniformInt(-20, 20));
  };
  return Tuple({maybe_null_int(), maybe_null_int(),
                rng->Bernoulli(0.15)
                    ? Value::Null(TypeId::kDouble)
                    : Value::Double(double(rng->UniformInt(-20, 20)) / 2.0),
                Value::Bool(rng->Bernoulli(0.5))});
}

/// One-shot evaluation: bind to `schema`, then evaluate `row`.
Result<Value> Eval(const Expression& e, const Tuple& row,
                   const Schema& schema) {
  ASSIGN_OR_RETURN(BoundExpression bound, e.Bind(schema));
  return bound.Evaluate(row);
}

class ParserRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRoundTripTest, PrintParsePrintFixpointAndSemantics) {
  Random rng(GetParam());
  const Schema schema = TestSchema();
  for (int trial = 0; trial < 200; ++trial) {
    ExprPtr original = RandomPredicate(&rng, 3);
    const std::string printed = original->ToString();
    auto reparsed = ParsePredicate(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ((*reparsed)->ToString(), printed);

    for (int r = 0; r < 5; ++r) {
      Tuple row = RandomRow(&rng);
      auto v1 = Eval(*original, row, schema);
      auto v2 = Eval(**reparsed, row, schema);
      ASSERT_EQ(v1.ok(), v2.ok()) << printed;
      if (v1.ok()) {
        EXPECT_TRUE(v1->Equals(*v2)) << printed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRoundTripTest,
                         ::testing::Values(1u, 99u, 777u));

}  // namespace
}  // namespace snapdiff
