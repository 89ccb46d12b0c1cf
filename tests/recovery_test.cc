// Unit tests for the recovery semantics (Defs. 1-3) and universal-solution
// checks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/fresh.h"
#include "core/recovery.h"
#include "datagen/generators.h"
#include "logic/parser.h"

namespace dxrec {
namespace {

Instance I(const char* text) {
  Result<Instance> parsed = ParseInstance(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

DependencySet S(const char* text) {
  Result<DependencySet> parsed = ParseTgdSet(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

bool Justified(const DependencySet& sigma, const Instance& i,
               const Instance& j) {
  Result<bool> r = IsJustifiedSolution(sigma, i, j);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() && *r;
}

TEST(Recovery, MinimalSolutionBasics) {
  DependencySet sigma = S("Rra(x) -> Sra(x)");
  EXPECT_TRUE(IsMinimalSolution(sigma, I("{Rra(a)}"), I("{Sra(a)}")));
  // Extra target tuple breaks minimality.
  EXPECT_FALSE(
      IsMinimalSolution(sigma, I("{Rra(a)}"), I("{Sra(a), Sra(b)}")));
  // Missing target tuple breaks satisfaction.
  EXPECT_FALSE(IsMinimalSolution(sigma, I("{Rra(a), Rra(b)}"),
                                 I("{Sra(a)}")));
  // Empty/empty is minimal.
  EXPECT_TRUE(IsMinimalSolution(sigma, I("{}"), I("{}")));
}

TEST(Recovery, MinimalityWithSharedWitness) {
  // Two triggers can share a single existential witness tuple.
  DependencySet sigma = S("Rrb(x) -> exists z: Srb(z)");
  EXPECT_TRUE(
      IsMinimalSolution(sigma, I("{Rrb(a), Rrb(b)}"), I("{Srb(q)}")));
  EXPECT_FALSE(IsMinimalSolution(sigma, I("{Rrb(a), Rrb(b)}"),
                                 I("{Srb(q), Srb(r)}")));
}

TEST(Recovery, JustifiedAllowsHomIntoMinimalSolution) {
  // J has a null that must map into the minimal solution.
  DependencySet sigma = S("Rrc(x) -> exists z: Src(x, z)");
  EXPECT_TRUE(Justified(sigma, I("{Rrc(a)}"), I("{Src(a, _Y)}")));
  // Ground witness value: also justified (e maps the chase null onto b).
  EXPECT_TRUE(Justified(sigma, I("{Rrc(a)}"), I("{Src(a, b)}")));
  // Two distinct ground witnesses cannot both be justified by one
  // trigger (Example 1's J2).
  EXPECT_FALSE(Justified(sigma, I("{Rrc(a)}"), I("{Src(a, b), "
                                                 "Src(a, c)}")));
}

TEST(Recovery, JustifiedWithNullCollapse) {
  // J = {S(a,Y), S(a,b)}: justified (minimal solution {S(a,b)}; Y -> b).
  DependencySet sigma = S("Rrd(x) -> exists z: Srd(x, z)");
  EXPECT_TRUE(Justified(sigma, I("{Rrd(a)}"), I("{Srd(a, _Y), "
                                                "Srd(a, b)}")));
}

TEST(Recovery, EmptySourceJustifiesOnlyEmptyTarget) {
  DependencySet sigma = S("Rre(x) -> Sre(x)");
  Result<bool> empty_empty = IsRecovery(sigma, I("{}"), I("{}"));
  ASSERT_TRUE(empty_empty.ok());
  EXPECT_TRUE(*empty_empty);
  Result<bool> empty_nonempty = IsRecovery(sigma, I("{}"), I("{Sre(a)}"));
  ASSERT_TRUE(empty_nonempty.ok());
  EXPECT_FALSE(*empty_nonempty);
}

TEST(Recovery, UnsoundSourceRejected) {
  // Intro eq. (4): I = {R(a)} forces T(a) which J lacks.
  DependencySet sigma =
      S("Rrf(x) -> Trf(x); Rrf(x2) -> Srf(x2); Mrf(x3) -> Srf(x3)");
  Instance j = I("{Srf(a)}");
  Result<bool> r1 = IsRecovery(sigma, I("{Rrf(a)}"), j);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(*r1);
  Result<bool> r2 = IsRecovery(sigma, I("{Rrf(a), Mrf(a)}"), j);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
  Result<bool> r3 = IsRecovery(sigma, I("{Mrf(a)}"), j);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(*r3);
}

TEST(Recovery, UniversalSolutionCheck) {
  DependencySet sigma = S("Rrg(x) -> exists z: Srg(x, z)");
  Instance i = I("{Rrg(a)}");
  // The chase result (with a null) is universal.
  EXPECT_TRUE(IsUniversalSolutionFor(sigma, i, I("{Srg(a, _Z)}")));
  // A ground witness is a solution but not universal.
  EXPECT_FALSE(IsUniversalSolutionFor(sigma, i, I("{Srg(a, b)}")));
  // Non-solutions are never universal.
  EXPECT_FALSE(IsUniversalSolutionFor(sigma, i, I("{Srg(b, _Z)}")));
}

TEST(Recovery, JustificationBudget) {
  // A chase with many fresh nulls and a large codomain exhausts a tiny
  // budget. (The target carries a null: ground targets are decided
  // without search.)
  DependencySet sigma = S("Rrh(x) -> exists z1, z2, z3: Srh(z1, z2, z3)");
  Instance i = I("{Rrh(a), Rrh(b), Rrh(c)}");
  Instance j = I("{Srh(_p, q, r), Srh(s, t, u), Srh(v, w, y)}");
  JustificationOptions tight;
  tight.max_assignments = 3;
  Result<bool> r = IsJustifiedSolution(sigma, i, j, tight);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// Def. 1 read literally: (I, J) |= Sigma, and removing any single tuple
// of J breaks it (satisfaction is monotone in J).
bool MinimalByDefinition(const DependencySet& sigma, const Instance& source,
                         const Instance& target) {
  if (!SatisfiesPair(sigma, source, target)) return false;
  for (const Atom& removed : target.atoms()) {
    Instance smaller;
    for (const Atom& a : target.atoms()) {
      if (!(a == removed)) smaller.Add(a);
    }
    if (SatisfiesPair(sigma, source, smaller)) return false;
  }
  return true;
}

// `source` with one of its constants replaced by a null, so trigger
// images carry nulls as recovery candidates g(I_H) do.
Instance WithANull(const Instance& source, Rng* rng) {
  std::vector<Term> constants = source.TermsOfKind(TermKind::kConstant);
  if (constants.empty()) return source;
  const Term replaced = rng->Pick(constants);
  const Term null = FreshNulls().Fresh();
  Instance out;
  for (const Atom& a : source.atoms()) {
    std::vector<Term> args(a.args().begin(), a.args().end());
    for (Term& t : args) {
      if (t == replaced) t = null;
    }
    out.Add(Atom(a.relation(), std::move(args)));
  }
  return out;
}

TEST(Recovery, MinimalSolutionAgreesWithDefinitionOnGeneratedCorpus) {
  // Mappings mixing full tgds (the fast path: the body match fixes the
  // head image) with existential ones (the head-match intersection).
  size_t full_tgds = 0;
  size_t existential_tgds = 0;
  size_t minimal = 0;
  size_t not_minimal = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(9000 + seed);
    MappingSpec spec;
    spec.num_tgds = 3;
    spec.max_arity = 2;
    spec.frontier_prob = 0.8;
    const std::string tag = "rmo" + std::to_string(seed);
    DependencySet sigma = RandomMapping(spec, tag, &rng);
    for (const Tgd& tgd : sigma.tgds()) {
      (tgd.IsFull() ? full_tgds : existential_tgds)++;
    }
    SourceSpec source_spec;
    source_spec.num_tuples = 4;
    source_spec.num_constants = 4;
    Instance source = RandomSource(sigma, source_spec, tag, &rng);
    Instance other = RandomSource(sigma, source_spec, tag, &rng);

    Instance ground = ChaseTarget(sigma, source, /*ground=*/true);
    Instance with_nulls = ChaseTarget(sigma, source, /*ground=*/false);
    Instance padded = ground;
    padded.AddAll(ChaseTarget(sigma, other, /*ground=*/true));
    Instance trimmed;
    for (size_t k = 1; k < ground.atoms().size(); ++k) {
      trimmed.Add(ground.atoms()[k]);
    }
    const Instance sources[] = {source, WithANull(source, &rng)};
    const Instance targets[] = {ground, with_nulls, padded, trimmed};
    for (const Instance& i : sources) {
      for (const Instance& j : targets) {
        const bool want = MinimalByDefinition(sigma, i, j);
        EXPECT_EQ(IsMinimalSolution(sigma, i, j), want)
            << sigma.ToString() << "\nI = " << i.ToString()
            << "\nJ = " << j.ToString();
        (want ? minimal : not_minimal)++;
      }
    }
  }
  EXPECT_GT(full_tgds, 0u);
  EXPECT_GT(existential_tgds, 0u);
  EXPECT_GT(minimal, 0u);
  EXPECT_GT(not_minimal, 0u);
}

}  // namespace
}  // namespace dxrec
