// Unit tests for the relational layer: schemas, atoms, instances,
// instance operations and the homomorphic glb.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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

// Arity 0..9 straddles the inline (<= 3) / spilled (> 3) boundary.
class AtomArities : public ::testing::TestWithParam<uint32_t> {};

std::vector<Term> ArityTerms(uint32_t arity, uint32_t salt) {
  std::vector<Term> terms;
  for (uint32_t i = 0; i < arity; ++i) {
    terms.push_back(i % 2 == 0
                        ? Term::Constant("ac" + std::to_string(i + salt))
                        : Term::Variable("av" + std::to_string(i + salt)));
  }
  return terms;
}

TEST_P(AtomArities, CopyMoveAndSelfAssignKeepArguments) {
  const uint32_t arity = GetParam();
  const std::vector<Term> terms = ArityTerms(arity, 0);
  const Atom original(InternRelation("Ra"), terms);
  ASSERT_EQ(original.arity(), arity);
  EXPECT_TRUE(std::equal(original.args().begin(), original.args().end(),
                         terms.begin(), terms.end()));

  Atom copy = original;
  EXPECT_EQ(copy, original);
  Atom moved = std::move(copy);
  EXPECT_EQ(moved, original);
  Atom assigned = Atom::Make("Rb", {Term::Constant("other")});
  assigned = moved;
  EXPECT_EQ(assigned, original);
  Atom move_assigned = Atom::Make("Rb", ArityTerms(9, 50));
  move_assigned = std::move(assigned);
  EXPECT_EQ(move_assigned, original);
  Atom& alias = move_assigned;
  move_assigned = alias;
  EXPECT_EQ(move_assigned, original);
  move_assigned = std::move(alias);
  EXPECT_EQ(move_assigned, original);
  EXPECT_EQ(move_assigned.ToString(), original.ToString());
}

TEST_P(AtomArities, ApplyWritesImagesInPlace) {
  const uint32_t arity = GetParam();
  const Atom a(InternRelation("Ra"), ArityTerms(arity, 0));
  Substitution s;
  std::vector<Term> expected;
  for (Term t : a.args()) {
    if (t.is_variable()) s.Set(t, Term::Null(t.id()));
    expected.push_back(t.is_variable() ? Term::Null(t.id()) : t);
  }
  EXPECT_EQ(a.Apply(s), Atom(a.relation(), expected));
  EXPECT_EQ(a.Apply(s).IsFact(), true);
}

// <, == and AtomHash agree with the same relations over std::vector<Term>
// (the representation the inline layout replaced).
TEST(Atom, OrderEqualityAndHashMatchVectorReference) {
  std::vector<std::pair<RelationId, std::vector<Term>>> reference;
  for (const char* rel : {"Ra", "Rb"}) {
    for (uint32_t arity : {0u, 1u, 3u, 4u, 9u}) {
      for (uint32_t salt : {0u, 1u}) {
        reference.emplace_back(InternRelation(rel), ArityTerms(arity, salt));
      }
    }
  }
  auto vector_hash = [](RelationId rel, const std::vector<Term>& terms) {
    size_t h = std::hash<uint32_t>()(rel);
    for (Term t : terms) {
      h ^= TermHash()(t) + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  };
  for (const auto& [rel_a, terms_a] : reference) {
    const Atom a(rel_a, terms_a);
    EXPECT_EQ(AtomHash()(a), vector_hash(rel_a, terms_a));
    for (const auto& [rel_b, terms_b] : reference) {
      const Atom b(rel_b, terms_b);
      const bool equal = rel_a == rel_b && terms_a == terms_b;
      const bool less =
          rel_a != rel_b ? rel_a < rel_b : terms_a < terms_b;
      EXPECT_EQ(a == b, equal) << a.ToString() << " vs " << b.ToString();
      EXPECT_EQ(a < b, less) << a.ToString() << " vs " << b.ToString();
      if (equal) {
        EXPECT_EQ(AtomHash()(a), AtomHash()(b));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(InlineAndSpilled, AtomArities,
                         ::testing::Values(0u, 1u, 3u, 4u, 9u));

TEST(Atom, LayoutStaysCompact) { EXPECT_LE(sizeof(Atom), 32u); }

// Enough atoms to grow the membership table several times.
std::vector<Atom> ManyAtoms(size_t n) {
  std::vector<Atom> atoms;
  for (size_t i = 0; i < n; ++i) {
    const Term c = Term::Constant("ic" + std::to_string(i));
    if (i % 3 == 0) {
      atoms.push_back(Atom::Make("Ri", {c}));
    } else if (i % 3 == 1) {
      atoms.push_back(Atom::Make("Ri", {c, c, c, c, c}));
    } else {
      atoms.push_back(
          Atom::Make("Si", {c, Term::Null(static_cast<uint32_t>(i))}));
    }
  }
  return atoms;
}

TEST(Instance, DeduplicatesAcrossTableGrowth) {
  const std::vector<Atom> atoms = ManyAtoms(1000);
  Instance inst;
  for (size_t i = 0; i < atoms.size(); ++i) {
    EXPECT_TRUE(inst.Add(atoms[i]));
    // Re-adding any earlier atom is a no-op, before and after growth.
    EXPECT_FALSE(inst.Add(atoms[i / 2]));
  }
  ASSERT_EQ(inst.size(), atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    EXPECT_EQ(inst.atoms()[i], atoms[i]);  // insertion order
    EXPECT_EQ(inst.IndexOf(atoms[i]), std::optional<uint32_t>(i));
  }
  EXPECT_FALSE(inst.Contains(Atom::Make("Ri", {Term::Constant("absent")})));
  EXPECT_EQ(inst.IndexOf(Atom::Make("Ti", {})), std::nullopt);
}

// --- TermDictionary --------------------------------------------------------

TEST(TermDictionary, CodesAreDenseInFirstSeenOrderAcrossGrowth) {
  TermDictionary dict;
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(dict.Find(Term::Constant("td0")), TermDictionary::kNoCode);
  std::vector<Term> terms;
  for (uint32_t i = 0; i < 5000; ++i) {
    terms.push_back(i % 2 == 0 ? Term::Constant("td" + std::to_string(i))
                               : Term::Null(1000000 + i));
    EXPECT_EQ(dict.Encode(terms[i]), i);
    // Encoding an earlier term again is a lookup, before and after growth.
    EXPECT_EQ(dict.Encode(terms[i / 2]), i / 2);
    EXPECT_EQ(dict.size(), i + 1);
  }
  for (uint32_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(dict.Find(terms[i]), i);
    EXPECT_EQ(dict.Decode(dict.Encode(terms[i])), terms[i]);
  }
  EXPECT_EQ(dict.Find(Term::Constant("td_unseen")), TermDictionary::kNoCode);
  EXPECT_EQ(dict.Find(Term::Null(999999)), TermDictionary::kNoCode);
}

TEST(TermDictionary, KindsWithEqualIdsGetDistinctCodes) {
  const Term constant = Term::Constant("td_kinds");
  const Term null = Term::FromIds(TermKind::kNull, constant.id());
  const Term variable = Term::FromIds(TermKind::kVariable, constant.id());
  TermDictionary dict;
  EXPECT_EQ(dict.Encode(constant), 0u);
  EXPECT_EQ(dict.Find(null), TermDictionary::kNoCode);
  EXPECT_EQ(dict.Encode(null), 1u);
  EXPECT_EQ(dict.Find(variable), TermDictionary::kNoCode);
  EXPECT_EQ(dict.Encode(variable), 2u);
  EXPECT_EQ(dict.Decode(0), constant);
  EXPECT_EQ(dict.Decode(1), null);
  EXPECT_EQ(dict.Decode(2), variable);
}

TEST(Instance, EqualityAcrossInsertionOrders) {
  const std::vector<Atom> atoms = ManyAtoms(300);
  Instance forward;
  for (const Atom& a : atoms) forward.Add(a);
  Instance backward;
  for (auto it = atoms.rbegin(); it != atoms.rend(); ++it) backward.Add(*it);
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.ToString(), backward.ToString());
  EXPECT_EQ(backward.atoms().front(), atoms.back());
  Instance more = forward;
  more.Add(Atom::Make("Ti", {}));
  EXPECT_NE(forward, more);
  EXPECT_NE(more, backward);
}

TEST(Instance, ContainsAfterCopyAndMove) {
  const std::vector<Atom> atoms = ManyAtoms(200);
  Instance original;
  for (const Atom& a : atoms) original.Add(a);
  Instance copy = original;
  copy.Add(Atom::Make("Ti", {}));  // the copy grows alone
  Instance assigned;
  assigned = original;
  Instance moved = std::move(assigned);
  for (const Atom& a : atoms) {
    EXPECT_TRUE(copy.Contains(a));
    EXPECT_TRUE(moved.Contains(a));
  }
  EXPECT_TRUE(copy.Contains(Atom::Make("Ti", {})));
  EXPECT_FALSE(original.Contains(Atom::Make("Ti", {})));
  EXPECT_FALSE(moved.Contains(Atom::Make("Ti", {})));
  EXPECT_EQ(moved, original);
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
  EXPECT_EQ(inst.Columnar().Rows(rel).size(), 3u);
}

TEST(Instance, IndexSurvivesMutation) {
  Instance inst = I("{Rm(a)}");
  RelationId rel = InternRelation("Rm");
  EXPECT_EQ(PostingsSize(inst, rel, 0, Term::Constant("a")), 1u);
  inst.Add(Atom::Make("Rm", {Term::Constant("b")}));
  EXPECT_EQ(PostingsSize(inst, rel, 0, Term::Constant("b")), 1u);
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
