// Unit tests for the base layer: Status/Result, interning, terms,
// substitutions, fresh-null sources.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/fresh.h"
#include "base/status.h"
#include "base/substitution.h"
#include "base/symbol_table.h"
#include "base/term.h"

namespace dxrec {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad tgd");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad tgd");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad tgd");
}

TEST(Status, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable table;
  uint32_t a = table.Intern("alpha");
  uint32_t b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.Name(a), "alpha");
  EXPECT_EQ(table.Name(b), "beta");
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTable, LookupMissReturnsMinusOne) {
  SymbolTable table;
  EXPECT_EQ(table.Lookup("ghost"), -1);
  table.Intern("ghost");
  EXPECT_GE(table.Lookup("ghost"), 0);
}

TEST(SymbolTable, ConcurrentInterningIsConsistent) {
  SymbolTable table;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&table] {
      for (int i = 0; i < 200; ++i) {
        table.Intern("sym" + std::to_string(i % 50));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(table.size(), 50u);
}

TEST(Term, KindsAreDisjoint) {
  Term c = Term::Constant("a");
  Term v = Term::Variable("a");
  Term n = Term::Null(0);
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(v.is_variable());
  EXPECT_TRUE(n.is_null());
  EXPECT_NE(c, v);
  EXPECT_NE(c, n);
  EXPECT_NE(v, n);
}

TEST(Term, InterningGivesIdentity) {
  EXPECT_EQ(Term::Constant("joe"), Term::Constant("joe"));
  EXPECT_EQ(Term::Variable("x"), Term::Variable("x"));
  EXPECT_NE(Term::Constant("joe"), Term::Constant("sue"));
}

TEST(Term, ToStringRoundTrips) {
  EXPECT_EQ(Term::Constant("a").ToString(), "a");
  EXPECT_EQ(Term::Variable("x1").ToString(), "x1");
  EXPECT_EQ(Term::Null(7).ToString(), "_N7");
}

TEST(Term, OrderingIsTotal) {
  std::set<Term> terms = {Term::Constant("a"), Term::Variable("a"),
                          Term::Null(1), Term::Null(2)};
  EXPECT_EQ(terms.size(), 4u);
}

TEST(Term, DefaultIsInvalid) {
  Term t;
  EXPECT_FALSE(t.is_valid());
  EXPECT_TRUE(Term::Constant("a").is_valid());
}

TEST(Fresh, NullSourceNeverRepeats) {
  NullSource source(100);
  std::set<Term> seen;
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(seen.insert(source.Fresh()).second);
  }
}

// The last usable label is 0xfffffffe; the next one would be Term's
// invalid-id sentinel, so the source must die rather than hand it out.
TEST(FreshDeathTest, NullSourceAbortsWhenExhausted) {
  NullSource source(0xfffffffeu);
  Term last = source.Fresh();
  EXPECT_TRUE(last.is_valid());
  EXPECT_TRUE(last.is_null());
  EXPECT_DEATH(source.Fresh(), "null label space exhausted");
}

TEST(Fresh, GlobalSourceAdvances) {
  Term a = FreshNulls().Fresh();
  Term b = FreshNulls().Fresh();
  EXPECT_NE(a, b);
}

TEST(Fresh, FreshVariablesAreDistinct) {
  Term a = FreshVariable("x");
  Term b = FreshVariable("x");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.is_variable());
}

TEST(Substitution, ApplyDefaultsToIdentity) {
  Substitution s;
  Term x = Term::Variable("x");
  EXPECT_EQ(s.Apply(x), x);
  s.Set(x, Term::Constant("a"));
  EXPECT_EQ(s.Apply(x), Term::Constant("a"));
  EXPECT_EQ(s.Apply(Term::Variable("y")), Term::Variable("y"));
}

TEST(Substitution, UnifyDetectsConflicts) {
  Substitution s;
  Term x = Term::Variable("x");
  EXPECT_TRUE(s.Unify(x, Term::Constant("a")));
  EXPECT_TRUE(s.Unify(x, Term::Constant("a")));
  EXPECT_FALSE(s.Unify(x, Term::Constant("b")));
}

TEST(Substitution, ExtendsAndMerge) {
  Term x = Term::Variable("x");
  Term y = Term::Variable("y");
  Substitution small{{x, Term::Constant("a")}};
  Substitution big{{x, Term::Constant("a")}, {y, Term::Constant("b")}};
  EXPECT_TRUE(big.Extends(small));
  EXPECT_FALSE(small.Extends(big));
  Substitution merged = small;
  EXPECT_TRUE(merged.MergeFrom(big));
  EXPECT_TRUE(merged.Extends(big));
  Substitution conflict{{x, Term::Constant("c")}};
  EXPECT_FALSE(merged.MergeFrom(conflict));
}

TEST(Substitution, ToStringIsDeterministic) {
  Substitution s{{Term::Variable("x"), Term::Constant("a")},
                 {Term::Variable("y"), Term::Constant("b")}};
  std::string first = s.ToString();
  EXPECT_EQ(first, s.ToString());
  EXPECT_NE(first.find("/"), std::string::npos);
}

// Sizes on both sides of the linear-scan -> hash-index switch (16).
class SubstitutionSizes : public ::testing::TestWithParam<size_t> {};

Term SubVar(size_t i) { return Term::Variable("sv" + std::to_string(i)); }
Term SubCon(size_t i) { return Term::Constant("sc" + std::to_string(i)); }

// {sv0/sc0, ..., sv(n-1)/sc(n-1)} built by Set, in the given order.
Substitution Identityish(size_t n, bool reversed = false) {
  Substitution s;
  for (size_t k = 0; k < n; ++k) {
    const size_t i = reversed ? n - 1 - k : k;
    s.Set(SubVar(i), SubCon(i));
  }
  return s;
}

TEST_P(SubstitutionSizes, SetOverwritesWithoutGrowing) {
  const size_t n = GetParam();
  Substitution s = Identityish(n);
  ASSERT_EQ(s.size(), n);
  for (size_t i = 0; i < n; ++i) s.Set(SubVar(i), SubCon(i + 1000));
  EXPECT_EQ(s.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(s.Binds(SubVar(i)));
    EXPECT_EQ(s.Apply(SubVar(i)), SubCon(i + 1000));
  }
  EXPECT_FALSE(s.Binds(SubVar(n)));
  EXPECT_EQ(s.Apply(SubVar(n)), SubVar(n));
}

TEST_P(SubstitutionSizes, UnifyConflictLeavesMapUnchanged) {
  const size_t n = GetParam();
  Substitution s = Identityish(n);
  const Substitution before = s;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(s.Unify(SubVar(i), SubCon(i)));
    EXPECT_FALSE(s.Unify(SubVar(i), SubCon(i + 1)));
  }
  EXPECT_EQ(s, before);
  EXPECT_TRUE(s.Unify(SubVar(n), SubCon(n)));
  EXPECT_EQ(s.size(), n + 1);
}

TEST_P(SubstitutionSizes, EqualityIgnoresInsertionOrder) {
  const size_t n = GetParam();
  EXPECT_EQ(Identityish(n), Identityish(n, /*reversed=*/true));
  EXPECT_EQ(Identityish(n).ToString(),
            Identityish(n, /*reversed=*/true).ToString());
  if (n == 0) return;
  Substitution other = Identityish(n, /*reversed=*/true);
  other.Set(SubVar(n / 2), SubCon(n + 7));
  EXPECT_NE(Identityish(n), other);
  EXPECT_NE(Identityish(n), Identityish(n - 1));
}

TEST_P(SubstitutionSizes, ExtendsMerge) {
  const size_t n = GetParam();
  const Substitution full = Identityish(n);
  Substitution restricted;  // full's bindings at even indices
  for (size_t i = 0; i < n; i += 2) restricted.Set(SubVar(i), SubCon(i));
  EXPECT_EQ(restricted.size(), (n + 1) / 2);
  EXPECT_TRUE(full.Extends(restricted));
  EXPECT_TRUE(full.Extends(Substitution()));
  EXPECT_EQ(restricted.Extends(full), n <= 1);

  Substitution merged = restricted;
  EXPECT_TRUE(merged.MergeFrom(full));
  EXPECT_EQ(merged, full);
  Substitution conflict = Identityish(n);
  conflict.Set(SubVar(n + 1), SubCon(0));
  if (n > 0) conflict.Set(SubVar(n - 1), SubCon(n + 9));
  Substitution target = full;
  EXPECT_EQ(target.MergeFrom(conflict), n == 0);
}

TEST_P(SubstitutionSizes, CopiesAndFromDistinctAgree) {
  const size_t n = GetParam();
  std::vector<Substitution::Binding> bindings;
  for (size_t i = 0; i < n; ++i) bindings.emplace_back(SubVar(i), SubCon(i));
  const Substitution built = Substitution::FromDistinct(bindings);
  const Substitution set = Identityish(n, /*reversed=*/true);
  EXPECT_EQ(built, set);
  Substitution copy = built;
  copy.Set(SubVar(n), SubCon(n));  // grows the copy, not the original
  EXPECT_FALSE(built.Binds(SubVar(n)));
  EXPECT_TRUE(copy.Binds(SubVar(n)));
  Substitution assigned;
  assigned = copy;
  EXPECT_EQ(assigned, copy);
  Substitution moved = std::move(assigned);
  EXPECT_EQ(moved, copy);
  for (size_t i = 0; i <= n; ++i) EXPECT_EQ(moved.Apply(SubVar(i)), SubCon(i));
}

INSTANTIATE_TEST_SUITE_P(AcrossIndexThreshold, SubstitutionSizes,
                         ::testing::Values(0, 1, 15, 16, 17, 40, 300));

TEST(Substitution, LayoutStaysCompact) {
  // A vector plus the index pointer: no larger than the hash map it
  // replaced (56 bytes in libstdc++).
  EXPECT_LE(sizeof(Substitution), 32u);
}

}  // namespace
}  // namespace dxrec
