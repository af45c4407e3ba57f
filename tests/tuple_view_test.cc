#include "catalog/tuple_view.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "expr/expr.h"
#include "expr/parser.h"

namespace snapdiff {
namespace {

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false},
                 {"Rate", TypeId::kDouble, true},
                 {"Active", TypeId::kBool, true}});
}

Tuple EmpRow(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary),
                Value::Double(1.5), Value::Bool(true)});
}

TEST(TupleViewTest, FieldsMatchDeserializedTuple) {
  Schema s = EmpSchema();
  Tuple row = EmpRow("laura", 700);
  auto bytes = row.Serialize(s);
  ASSERT_TRUE(bytes.ok());

  auto view = TupleView::Parse(s, *bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->stored_field_count(), 4u);
  EXPECT_EQ(view->field_count(), 4u);
  for (size_t i = 0; i < s.column_count(); ++i) {
    auto v = view->Field(i);
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_TRUE(v->Equals(row.value(i))) << i;
  }
  auto salary = s.IndexOf("Salary");
  ASSERT_TRUE(salary.ok());
  auto by_index = view->Field(*salary);
  ASSERT_TRUE(by_index.ok());
  EXPECT_EQ(by_index->as_int64(), 700);
}

TEST(TupleViewTest, StringFieldIsViewOverStoredBytes) {
  Schema s = EmpSchema();
  auto bytes = EmpRow("magnetic", 1).Serialize(s);
  ASSERT_TRUE(bytes.ok());
  auto view = TupleView::Parse(s, *bytes);
  ASSERT_TRUE(view.ok());
  auto v = view->Field(0);
  ASSERT_TRUE(v.ok());
  std::string_view sv = v->as_string_view();
  EXPECT_EQ(sv, "magnetic");
  // The view aliases the serialized buffer — no copy was made.
  EXPECT_GE(sv.data(), bytes->data());
  EXPECT_LE(sv.data() + sv.size(), bytes->data() + bytes->size());
}

TEST(TupleViewTest, NullFieldsReadAsNull) {
  Schema s = EmpSchema();
  Tuple row({Value::String("x"), Value::Int64(1),
             Value::Null(TypeId::kDouble), Value::Null(TypeId::kBool)});
  auto bytes = row.Serialize(s);
  ASSERT_TRUE(bytes.ok());
  auto view = TupleView::Parse(s, *bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->IsNull(0));
  EXPECT_TRUE(view->IsNull(2));
  EXPECT_TRUE(view->IsNull(3));
  auto v = view->Field(2);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(TupleViewTest, StoredNarrowerThanSchemaReadsTrailingNulls) {
  // Schema evolution: rows serialized before AddAnnotationColumns read
  // through the wider schema with NULL annotations.
  Schema narrow = EmpSchema();
  auto wide = narrow.WithAnnotations();
  ASSERT_TRUE(wide.ok());
  auto bytes = EmpRow("old", 9).Serialize(narrow);
  ASSERT_TRUE(bytes.ok());

  auto view = TupleView::Parse(*wide, *bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->stored_field_count(), 4u);
  EXPECT_EQ(view->field_count(), 6u);
  EXPECT_TRUE(view->IsNull(4));
  EXPECT_TRUE(view->IsNull(5));
  auto prev = view->Field(4);
  ASSERT_TRUE(prev.ok());
  EXPECT_TRUE(prev->is_null());
  auto name = view->Field(0);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->as_string_view(), "old");
}

TEST(TupleViewTest, StoredWiderThanSchemaReadsUserPrefix) {
  // The inverse tolerance (which Tuple::Deserialize rejects): viewing an
  // annotated row through the user schema sees just the user prefix.
  Schema narrow = EmpSchema();
  auto wide = narrow.WithAnnotations();
  ASSERT_TRUE(wide.ok());
  Tuple stored({Value::String("ann"), Value::Int64(3), Value::Double(0.5),
                Value::Bool(false), Value::Addr(Address::Origin()),
                Value::Ts(42)});
  auto bytes = stored.Serialize(*wide);
  ASSERT_TRUE(bytes.ok());

  auto view = TupleView::Parse(narrow, *bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->field_count(), 4u);
  auto name = view->Field(0);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->as_string_view(), "ann");
  auto active = view->Field(3);
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(active->as_bool(), false);
}

TEST(TupleViewTest, AppendProjectionToIsByteIdenticalToProjectSerialize) {
  Schema s = EmpSchema();
  const std::vector<std::vector<std::string>> projections = {
      {"Name", "Salary"},
      {"Salary", "Name"},  // reorder
      {"Active", "Rate", "Name", "Salary"},
      {"Rate"},
  };
  const std::vector<Tuple> rows = {
      EmpRow("alpha", 100),
      Tuple({Value::String(""), Value::Int64(-5), Value::Null(TypeId::kDouble),
             Value::Null(TypeId::kBool)}),
      EmpRow(std::string(300, 'q'), 1 << 30),
  };
  for (const Tuple& row : rows) {
    auto bytes = row.Serialize(s);
    ASSERT_TRUE(bytes.ok());
    auto view = TupleView::Parse(s, *bytes);
    ASSERT_TRUE(view.ok());
    for (const auto& names : projections) {
      auto projected_schema = s.Project(names);
      ASSERT_TRUE(projected_schema.ok());
      auto projected = row.Project(s, names);
      ASSERT_TRUE(projected.ok());
      auto expect = projected->Serialize(*projected_schema);
      ASSERT_TRUE(expect.ok());

      std::vector<size_t> indices;
      for (const auto& n : names) {
        auto idx = s.IndexOf(n);
        ASSERT_TRUE(idx.ok());
        indices.push_back(*idx);
      }
      std::string got;
      ASSERT_TRUE(view->AppendProjectionTo(indices, &got).ok());
      EXPECT_EQ(got, *expect);
    }
  }
}

TEST(TupleViewTest, AppendProjectionSynthesizesMissingTrailingFields) {
  // Projecting an annotation column of a pre-annotation row must serialize
  // the same bytes as materializing the row (with its trailing NULLs) and
  // projecting that.
  Schema narrow = EmpSchema();
  auto wide = narrow.WithAnnotations();
  ASSERT_TRUE(wide.ok());
  auto bytes = EmpRow("old", 9).Serialize(narrow);
  ASSERT_TRUE(bytes.ok());
  auto view = TupleView::Parse(*wide, *bytes);
  ASSERT_TRUE(view.ok());

  auto materialized = view->Materialize();
  ASSERT_TRUE(materialized.ok());
  const std::vector<std::string> names = {"Name", "$PREVADDR$", "$TIMESTAMP$"};
  auto projected_schema = wide->Project(names);
  ASSERT_TRUE(projected_schema.ok());
  auto projected = materialized->Project(*wide, names);
  ASSERT_TRUE(projected.ok());
  auto expect = projected->Serialize(*projected_schema);
  ASSERT_TRUE(expect.ok());

  std::vector<size_t> indices;
  for (const auto& n : names) {
    auto idx = wide->IndexOf(n);
    ASSERT_TRUE(idx.ok());
    indices.push_back(*idx);
  }
  std::string got;
  ASSERT_TRUE(view->AppendProjectionTo(indices, &got).ok());
  EXPECT_EQ(got, *expect);
}

TEST(TupleViewTest, MaterializeRoundTripsAndOwns) {
  Schema s = EmpSchema();
  Tuple row = EmpRow("owner", 55);
  std::string bytes;
  {
    auto serialized = row.Serialize(s);
    ASSERT_TRUE(serialized.ok());
    bytes = *serialized;
  }
  Tuple materialized;
  {
    auto view = TupleView::Parse(s, bytes);
    ASSERT_TRUE(view.ok());
    auto m = view->Materialize();
    ASSERT_TRUE(m.ok());
    materialized = std::move(*m);
  }
  // Clobber the source buffer: a materialized tuple must not alias it.
  std::fill(bytes.begin(), bytes.end(), '\0');
  EXPECT_TRUE(materialized.Equals(row));
  EXPECT_EQ(materialized.value(0).as_string_view(), "owner");
}

TEST(TupleViewTest, ParseRejectsTruncatedBytes) {
  Schema s = EmpSchema();
  auto bytes = EmpRow("trunc", 1).Serialize(s);
  ASSERT_TRUE(bytes.ok());
  EXPECT_FALSE(TupleView::Parse(s, std::string_view(*bytes).substr(0, 1)).ok());
  EXPECT_FALSE(TupleView::Parse(s, std::string_view(*bytes).substr(0, 2)).ok());
  // Header intact but payload cut mid-slot: field access fails.
  auto view = TupleView::Parse(s, std::string_view(*bytes).substr(0, 4));
  if (view.ok()) {
    EXPECT_FALSE(view->Field(0).ok());
  }
}

TEST(TupleViewTest, RowViewDispatchesPredicatesIdentically) {
  Schema s = EmpSchema();
  Tuple row = EmpRow("laura", 700);
  auto bytes = row.Serialize(s);
  ASSERT_TRUE(bytes.ok());
  auto view = TupleView::Parse(s, *bytes);
  ASSERT_TRUE(view.ok());

  for (const char* text :
       {"Salary < 1000", "Salary >= 701", "Name = 'laura'",
        "Name = 'laura' AND Salary > 100", "Rate > 1.0", "NOT Active"}) {
    auto expr = ParsePredicate(text);
    ASSERT_TRUE(expr.ok()) << text;
    auto bound = (*expr)->Bind(s);
    ASSERT_TRUE(bound.ok()) << text;
    auto via_tuple = bound->Qualifies(row);
    auto via_view = bound->Qualifies(*view);
    ASSERT_TRUE(via_tuple.ok()) << text;
    ASSERT_TRUE(via_view.ok()) << text;
    EXPECT_EQ(*via_tuple, *via_view) << text;
  }
}

}  // namespace
}  // namespace snapdiff
