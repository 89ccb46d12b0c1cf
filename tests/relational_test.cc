// Unit tests for the relational layer: schemas, atoms, instances,
// instance operations and the homomorphic glb.
#include <gtest/gtest.h>

#include "base/fresh.h"
#include "chase/homomorphism.h"
#include "logic/parser.h"
#include "relational/columnar.h"
#include "relational/glb.h"
#include "relational/instance.h"
#include "relational/instance_ops.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace dxrec {
namespace {

Instance I(const char* text) {
  Result<Instance> parsed = ParseInstance(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

TEST(Schema, AddAndQuery) {
  Schema schema;
  Result<RelationId> r = schema.AddRelation("RelA", 2);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(schema.Contains(*r));
  EXPECT_EQ(schema.Arity(*r), 2u);
  EXPECT_EQ(schema.size(), 1u);
}

TEST(Schema, ReAddSameArityOk) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("RelB", 2).ok());
  EXPECT_TRUE(schema.AddRelation("RelB", 2).ok());
  EXPECT_EQ(schema.size(), 1u);
}

TEST(Schema, ArityConflictRejected) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("RelC", 2).ok());
  Result<RelationId> bad = schema.AddRelation("RelC", 3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(MappingSchema, DisjointnessValidated) {
  Schema source, target;
  ASSERT_TRUE(source.AddRelation("Shared", 1).ok());
  ASSERT_TRUE(target.AddRelation("Shared", 1).ok());
  MappingSchema schema(source, target);
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(Atom, FactAndGroundChecks) {
  Atom ground = Atom::Make("Rx", {Term::Constant("a")});
  Atom with_null = Atom::Make("Rx", {Term::Null(0)});
  Atom with_var = Atom::Make("Rx", {Term::Variable("x")});
  EXPECT_TRUE(ground.IsFact());
  EXPECT_TRUE(ground.IsGround());
  EXPECT_TRUE(with_null.IsFact());
  EXPECT_FALSE(with_null.IsGround());
  EXPECT_FALSE(with_var.IsFact());
}

TEST(Atom, ApplySubstitution) {
  Term x = Term::Variable("x");
  Atom a = Atom::Make("Ry", {x, Term::Constant("b")});
  Substitution s{{x, Term::Constant("a")}};
  Atom applied = a.Apply(s);
  EXPECT_EQ(applied, Atom::Make("Ry", {Term::Constant("a"),
                                       Term::Constant("b")}));
}

TEST(Instance, AddDeduplicates) {
  Instance inst;
  Atom a = Atom::Make("Rz", {Term::Constant("a")});
  EXPECT_TRUE(inst.Add(a));
  EXPECT_FALSE(inst.Add(a));
  EXPECT_EQ(inst.size(), 1u);
  EXPECT_TRUE(inst.Contains(a));
}

TEST(Instance, DomCollectsAllTerms) {
  Instance inst = I("{Rw(a, _X), Sw(b)}");
  std::vector<Term> dom = inst.Dom();
  EXPECT_EQ(dom.size(), 3u);
  EXPECT_EQ(inst.TermsOfKind(TermKind::kNull).size(), 1u);
  EXPECT_EQ(inst.TermsOfKind(TermKind::kConstant).size(), 2u);
  EXPECT_FALSE(inst.IsGround());
  EXPECT_TRUE(I("{Rw(a, b)}").IsGround());
}

TEST(Instance, SetEqualityIgnoresOrder) {
  Instance a = I("{Rq(a), Sq(b)}");
  Instance b = I("{Sq(b), Rq(a)}");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, I("{Rq(a)}"));
}

TEST(Instance, UnionAndDifference) {
  Instance a = I("{Ru(a)}");
  Instance b = I("{Ru(b)}");
  Instance u = Instance::Union(a, b);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_EQ(Instance::Difference(u, a), b);
}

// Postings-list lookup by term: the code of `term` in the instance's
// columnar snapshot, probed at (rel, pos). Absent terms have no postings.
size_t PostingsSize(const Instance& inst, RelationId rel, uint32_t pos,
                    Term term) {
  const ColumnarInstance& columnar = inst.Columnar();
  uint32_t code = columnar.dict().Find(term);
  if (code == TermDictionary::kNoCode) return 0;
  return columnar.Probe(rel, pos, code).size();
}

TEST(Instance, PositionIndexFindsTuples) {
  Instance inst = I("{Ri(a, b), Ri(a, c), Ri(b, c)}");
  RelationId rel = InternRelation("Ri");
  EXPECT_EQ(PostingsSize(inst, rel, 0, Term::Constant("a")), 2u);
  EXPECT_EQ(PostingsSize(inst, rel, 1, Term::Constant("c")), 2u);
  EXPECT_EQ(PostingsSize(inst, rel, 1, Term::Constant("zz")), 0u);
  EXPECT_EQ(inst.AtomsFor(rel).size(), 3u);
}

TEST(Instance, IndexSurvivesMutation) {
  Instance inst = I("{Rm(a)}");
  RelationId rel = InternRelation("Rm");
  EXPECT_EQ(PostingsSize(inst, rel, 0, Term::Constant("a")), 1u);
  inst.Add(Atom::Make("Rm", {Term::Constant("b")}));
  EXPECT_EQ(PostingsSize(inst, rel, 0, Term::Constant("b")), 1u);
}

TEST(Instance, RestrictToSchema) {
  Instance inst = I("{Rr(a), Sr(b)}");
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("Rr", 1).ok());
  EXPECT_EQ(inst.Restrict(schema), I("{Rr(a)}"));
}

TEST(InstanceOps, RenameNullsFresh) {
  Instance inst = I("{Rn(_X, _X), Rn(_X, _Y)}");
  NullSource source(1000);
  RenamedInstance renamed = RenameNullsFresh(inst, &source);
  EXPECT_EQ(renamed.instance.size(), 2u);
  EXPECT_TRUE(AreIsomorphic(inst, renamed.instance));
  // No shared nulls with the original.
  for (Term t : renamed.instance.TermsOfKind(TermKind::kNull)) {
    for (Term o : inst.TermsOfKind(TermKind::kNull)) {
      EXPECT_NE(t, o);
    }
  }
}

TEST(InstanceOps, FreezeNullsMakesGround) {
  Instance inst = I("{Rg(_X, a)}");
  RenamedInstance frozen = FreezeNulls(inst);
  EXPECT_TRUE(frozen.instance.IsGround());
  EXPECT_EQ(frozen.instance.size(), 1u);
}

TEST(InstanceOps, CanonicalStringStableUnderRelabeling) {
  Instance a = I("{Rc(_X1, _X2)}");
  Instance b = I("{Rc(_Y7, _Y9)}");
  EXPECT_EQ(CanonicalString(a), CanonicalString(b));
  Instance diag = I("{Rc(_X1, _X1)}");
  EXPECT_NE(CanonicalString(a), CanonicalString(diag));
}

TEST(Glb, GroundIntersectionBehavior) {
  // For ground instances, glb answers CQ intersections; on the instance
  // level the shared tuple survives as itself.
  NullSource source(2000);
  Instance a = I("{Rl(a, b), Rl(c, d)}");
  Instance b = I("{Rl(a, b), Rl(e, f)}");
  Instance g = Glb(a, b, &source);
  EXPECT_TRUE(g.Contains(I("{Rl(a, b)}").atoms()[0]));
  // Mismatched pairs become null-padded tuples.
  EXPECT_EQ(g.size(), 4u);
}

TEST(Glb, MapsIntoBothArguments) {
  NullSource source(3000);
  Instance a = I("{Rl2(a, _X)}");
  Instance b = I("{Rl2(a, c), Rl2(b, c)}");
  Instance g = Glb(a, b, &source);
  EXPECT_TRUE(HasInstanceHomomorphism(g, a));
  EXPECT_TRUE(HasInstanceHomomorphism(g, b));
}

TEST(Glb, PairingIsConsistent) {
  // iota(x, y) must be reused for the same pair within one computation:
  // glb of {R(a,b)} and {R(b,a)} joined via P(a,a)/P(b,b) patterns.
  NullSource source(4000);
  Instance a = I("{Rl3(a, a, b)}");
  Instance b = I("{Rl3(b, b, a)}");
  Instance g = Glb(a, b, &source);
  ASSERT_EQ(g.size(), 1u);
  const Atom& atom = g.atoms()[0];
  // iota(a,b) at positions 0 and 1 must be the same null.
  EXPECT_EQ(atom.arg(0), atom.arg(1));
  EXPECT_NE(atom.arg(0), atom.arg(2));
}

TEST(Glb, DisjointRelationsYieldEmpty) {
  NullSource source(5000);
  EXPECT_TRUE(Glb(I("{Rl4(a)}"), I("{Sl4(a)}"), &source).empty());
}

TEST(Glb, FoldOverSeveralInstances) {
  NullSource source(6000);
  std::vector<Instance> instances = {I("{Rl5(a, b)}"), I("{Rl5(a, c)}"),
                                     I("{Rl5(a, d)}")};
  Instance g = GlbAll(instances, &source);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.atoms()[0].arg(0), Term::Constant("a"));
  EXPECT_TRUE(g.atoms()[0].arg(1).is_null());
  // Empty list -> empty instance; singleton -> unchanged.
  EXPECT_TRUE(GlbAll({}, &source).empty());
  EXPECT_EQ(GlbAll({I("{Rl5(x1, x2)}")}, &source), I("{Rl5(x1, x2)}"));
}

}  // namespace
}  // namespace dxrec
