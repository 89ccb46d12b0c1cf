// Unit tests for the logic layer: tgds, dependency sets, queries,
// and the frozen-class unifier.
#include <gtest/gtest.h>

#include "base/symbol_table.h"
#include "logic/dependency_set.h"
#include "logic/parser.h"
#include "logic/query.h"
#include "logic/tgd.h"
#include "logic/unification.h"

namespace dxrec {
namespace {

Tgd T(const char* text) {
  Result<Tgd> parsed = ParseTgd(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

TEST(Tgd, VariableClasses) {
  Tgd tgd = T("Ra(x, y) -> exists z: Sa(x, z)");
  EXPECT_EQ(tgd.frontier_vars(), std::vector<Term>{Term::Variable("x")});
  EXPECT_EQ(tgd.body_only_vars(), std::vector<Term>{Term::Variable("y")});
  EXPECT_EQ(tgd.head_existential_vars(),
            std::vector<Term>{Term::Variable("z")});
  EXPECT_EQ(tgd.all_vars().size(), 3u);
  EXPECT_FALSE(tgd.IsFull());
  EXPECT_FALSE(tgd.IsQuasiGuarded());
}

TEST(Tgd, FullAndQuasiGuarded) {
  EXPECT_TRUE(T("Rb(x) -> Sb(x)").IsFull());
  EXPECT_TRUE(T("Rb(x) -> Sb(x)").IsQuasiGuarded());
  EXPECT_TRUE(T("Rb(x, y) -> Sb(x)").IsFull());
  EXPECT_FALSE(T("Rb(x, y) -> Sb(x)").IsQuasiGuarded());
}

TEST(Tgd, ReverseSwapsSides) {
  Tgd tgd = T("Rc(x, y) -> exists z: Sc(x, z)");
  Tgd rev = tgd.Reverse();
  EXPECT_EQ(rev.body(), tgd.head());
  EXPECT_EQ(rev.head(), tgd.body());
  // The reverse of a quasi-guarded tgd is full.
  Tgd qg = T("Rc2(x) -> exists z: Sc2(x, z)");
  EXPECT_TRUE(qg.IsQuasiGuarded());
  EXPECT_TRUE(qg.Reverse().IsFull());
}

TEST(Tgd, RejectsEmptySides) {
  EXPECT_FALSE(Tgd::Make({}, {Atom::Make("Rd", {Term::Variable("x")})})
                   .ok());
  EXPECT_FALSE(Tgd::Make({Atom::Make("Rd", {Term::Variable("x")})}, {})
                   .ok());
}

TEST(Tgd, RejectsNulls) {
  EXPECT_FALSE(Tgd::Make({Atom::Make("Re", {Term::Null(0)})},
                         {Atom::Make("Se", {Term::Null(0)})})
                   .ok());
}

TEST(Tgd, RenameApartPreservesStructure) {
  Tgd tgd = T("Rf(x, x, y) -> exists z: Sf(x, z)");
  VariableRenamer renamer;
  const size_t interned = Symbols().variables.size();
  Tgd renamed = tgd.RenameApart(&renamer);
  EXPECT_EQ(Symbols().variables.size(), interned);
  EXPECT_EQ(renamed.body().size(), 1u);
  EXPECT_EQ(renamed.frontier_vars().size(), 1u);
  // Repeated variable positions stay repeated.
  EXPECT_EQ(renamed.body()[0].arg(0), renamed.body()[0].arg(1));
  EXPECT_NE(renamed.frontier_vars()[0], tgd.frontier_vars()[0]);
  // x, y, z in all_vars() order.
  EXPECT_EQ(renamed.ToString(),
            "Rf($r0, $r0, $r1) -> exists $r2: Sf($r0, $r2)");
}

TEST(DependencySet, RenamesRenamedVariablesApart) {
  // A renamed copy added to a Sigma gets interned names: renamers number
  // their copies from $r0 and must not meet Sigma's own variables.
  VariableRenamer renamer;
  Tgd copy = T("Rk(x) -> Sk(x)").RenameApart(&renamer);
  DependencySet sigma;
  sigma.Add(copy);
  Term v = sigma.at(0).frontier_vars()[0];
  EXPECT_LT(v.id(), Term::kFirstRenamedVariableId);
  EXPECT_NE(v, copy.frontier_vars()[0]);
}

TEST(DependencySet, RenamesCollidingVariables) {
  DependencySet sigma;
  sigma.Add(T("Rg(x) -> Sg(x)"));
  sigma.Add(T("Tg(x) -> Ug(x)"));  // same variable name "x"
  ASSERT_EQ(sigma.size(), 2u);
  EXPECT_NE(sigma.at(0).frontier_vars()[0],
            sigma.at(1).frontier_vars()[0]);
}

TEST(DependencySet, ReversePreservesIds) {
  DependencySet sigma;
  sigma.Add(T("Rh(x) -> Sh(x)"));
  sigma.Add(T("Th(y) -> Uh(y)"));
  DependencySet rev = sigma.Reverse();
  EXPECT_EQ(rev.size(), 2u);
  EXPECT_EQ(rev.at(0).body()[0].relation(), InternRelation("Sh"));
  EXPECT_EQ(rev.at(1).body()[0].relation(), InternRelation("Uh"));
}

TEST(DependencySet, InferSchemaSplitsSourceTarget) {
  DependencySet sigma;
  sigma.Add(T("Ri(x, y) -> Si(x)"));
  Result<MappingSchema> schema = sigma.InferSchema();
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->source().Contains(InternRelation("Ri")));
  EXPECT_TRUE(schema->target().Contains(InternRelation("Si")));
}

TEST(DependencySet, InferSchemaRejectsSharedRelation) {
  DependencySet sigma;
  sigma.Add(T("Rj2(x) -> Rj2x(x)"));
  sigma.Add(T("Rj2x(x) -> Rj2(x)"));
  EXPECT_FALSE(sigma.InferSchema().ok());
}

TEST(Query, SafetyEnforced) {
  // Free variable must occur in the body.
  Result<ConjunctiveQuery> bad = ConjunctiveQuery::Make(
      {Term::Variable("w")},
      {Atom::Make("Rk", {Term::Variable("x")})});
  EXPECT_FALSE(bad.ok());
}

TEST(Query, BooleanQueries) {
  Result<ConjunctiveQuery> q =
      ConjunctiveQuery::Make({}, {Atom::Make("Rl", {Term::Variable("x")})});
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->IsBoolean());
}

TEST(Query, UnionArityChecked) {
  Result<ConjunctiveQuery> q1 = ConjunctiveQuery::Make(
      {Term::Variable("x")}, {Atom::Make("Rm", {Term::Variable("x")})});
  Result<ConjunctiveQuery> q2 = ConjunctiveQuery::Make(
      {}, {Atom::Make("Rm", {Term::Variable("y")})});
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(UnionQuery::Make({*q1, *q2}).ok());
  EXPECT_TRUE(UnionQuery::Make({*q1, *q1}).ok());
  EXPECT_FALSE(UnionQuery::Make({}).ok());
}

TEST(Unifier, FlexibleMergesFreely) {
  Unifier u;
  Term x = Term::Variable("ux1");
  Term y = Term::Variable("uy1");
  EXPECT_TRUE(u.Unify(x, y));
  EXPECT_TRUE(u.Unify(x, Term::Constant("a")));
  EXPECT_EQ(u.Resolve(y), Term::Constant("a"));
  EXPECT_FALSE(u.Unify(y, Term::Constant("b")));
  EXPECT_TRUE(u.failed());
}

TEST(Unifier, FrozenStaysUnique) {
  Unifier u;
  Term f1 = Term::Variable("uf1");
  Term f2 = Term::Variable("uf2");
  Term p = Term::Variable("up1");
  Term flex = Term::Variable("ux2");
  u.Declare(f1, VarClass::kFrozen);
  u.Declare(f2, VarClass::kFrozen);
  u.Declare(p, VarClass::kPremise);
  // Frozen-frozen merge fails.
  Unifier u1 = u;
  EXPECT_FALSE(u1.Unify(f1, f2));
  // Frozen-premise merge fails.
  Unifier u2 = u;
  EXPECT_FALSE(u2.Unify(f1, p));
  // Frozen-constant fails.
  Unifier u3 = u;
  EXPECT_FALSE(u3.Unify(f1, Term::Constant("a")));
  // Frozen-flexible succeeds.
  Unifier u4 = u;
  EXPECT_TRUE(u4.Unify(f1, flex));
  EXPECT_EQ(u4.Resolve(flex), f1);  // frozen representative wins
}

TEST(Unifier, TransitiveFrozenViolation) {
  // flex merges with frozen, then with premise: must fail at the second
  // step because the class would contain both.
  Unifier u;
  Term f = Term::Variable("uf3");
  Term p = Term::Variable("up3");
  Term flex = Term::Variable("ux3");
  u.Declare(f, VarClass::kFrozen);
  u.Declare(p, VarClass::kPremise);
  EXPECT_TRUE(u.Unify(flex, f));
  EXPECT_FALSE(u.Unify(flex, p));
}

TEST(Unifier, UnifyAtomsComponentWise) {
  Unifier u;
  Atom a = Atom::Make("Run", {Term::Variable("ua"), Term::Constant("c")});
  Atom b = Atom::Make("Run", {Term::Constant("d"), Term::Variable("ub")});
  EXPECT_TRUE(u.UnifyAtoms(a, b));
  EXPECT_EQ(u.Resolve(Term::Variable("ua")), Term::Constant("d"));
  EXPECT_EQ(u.Resolve(Term::Variable("ub")), Term::Constant("c"));
  // Mismatched relations fail fast.
  Atom c = Atom::Make("Run2", {Term::Constant("d"), Term::Constant("c")});
  EXPECT_FALSE(u.UnifyAtoms(a, c));
}

TEST(Unifier, ToSubstitutionMapsToRepresentatives) {
  Unifier u;
  Term x = Term::Variable("uxs");
  Term y = Term::Variable("uys");
  ASSERT_TRUE(u.Unify(x, y));
  ASSERT_TRUE(u.Unify(y, Term::Constant("k")));
  Substitution s = u.ToSubstitution();
  EXPECT_EQ(s.Apply(x), Term::Constant("k"));
  EXPECT_EQ(s.Apply(y), Term::Constant("k"));
}

}  // namespace
}  // namespace dxrec
