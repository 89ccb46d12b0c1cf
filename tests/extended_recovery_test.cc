// Tests for disjunctive tgds, the disjunctive chase, and the extended
// (disjunctive) recovery mapping -- reproducing the intro's drawback (3):
// the mapping-based inverse proposes unsound sources that the
// instance-based semantics rejects.
#include <gtest/gtest.h>

#include "base/fresh.h"
#include "base/symbol_table.h"
#include "chase/homomorphism.h"
#include "core/extended_recovery.h"
#include "core/inverse_chase.h"
#include "core/recovery.h"
#include "datagen/scenarios.h"
#include "logic/disjunctive.h"
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

std::vector<Atom> Atoms(const char* tgd_text) {
  Result<Tgd> tgd = ParseTgd(tgd_text);
  EXPECT_TRUE(tgd.ok());
  return tgd->body();
}

TEST(Disjunctive, MakeValidation) {
  EXPECT_FALSE(DisjunctiveTgd::Make({}, {Atoms("Rdx(x) -> Z(x)")}).ok());
  EXPECT_FALSE(
      DisjunctiveTgd::Make(Atoms("Sdx(x) -> Z(x)"), {}).ok());
  EXPECT_FALSE(DisjunctiveTgd::Make(Atoms("Sdx(x) -> Z(x)"),
                                    {Atoms("Rdx(x) -> Z(x)"), {}})
                   .ok());
  Result<DisjunctiveTgd> ok = DisjunctiveTgd::Make(
      Atoms("Sdx(x) -> Z(x)"),
      {Atoms("Rdx(x) -> Z(x)"), Atoms("Mdx(x) -> Z(x)")});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->num_alternatives(), 2u);
  EXPECT_NE(ok->ToString().find("|"), std::string::npos);
}

TEST(Disjunctive, ChaseEnumeratesChoiceFunctions) {
  DisjunctiveMapping mapping;
  mapping.Add(*DisjunctiveTgd::Make(
      Atoms("Sdy(x) -> Z(x)"),
      {Atoms("Rdy(x) -> Z(x)"), Atoms("Mdy(x) -> Z(x)")}));
  Result<std::vector<Instance>> worlds =
      DisjunctiveChase(mapping, I("{Sdy(a), Sdy(b)}"), &FreshNulls());
  ASSERT_TRUE(worlds.ok());
  // 2 triggers x 2 alternatives = 4 worlds.
  EXPECT_EQ(worlds->size(), 4u);
  bool found_mixed = false;
  for (const Instance& w : *worlds) {
    if (w.Contains(I("{Rdy(a)}").atoms()[0]) &&
        w.Contains(I("{Mdy(b)}").atoms()[0])) {
      found_mixed = true;
    }
  }
  EXPECT_TRUE(found_mixed);
}

TEST(Disjunctive, ExistentialsPerAlternative) {
  DisjunctiveMapping mapping;
  mapping.Add(*DisjunctiveTgd::Make(
      Atoms("Sdz(x) -> Z(x)"), {Atoms("Rdz(x, w) -> Z(x)")}));
  Result<std::vector<Instance>> worlds =
      DisjunctiveChase(mapping, I("{Sdz(a)}"), &FreshNulls());
  ASSERT_TRUE(worlds.ok());
  ASSERT_EQ(worlds->size(), 1u);
  const Atom& atom = (*worlds)[0].atoms()[0];
  EXPECT_EQ(atom.arg(0), Term::Constant("a"));
  EXPECT_TRUE(atom.arg(1).is_null());
}

TEST(Disjunctive, WorldBudget) {
  DisjunctiveMapping mapping;
  mapping.Add(*DisjunctiveTgd::Make(
      Atoms("Sdw(x) -> Z(x)"),
      {Atoms("Rdw(x) -> Z(x)"), Atoms("Mdw(x) -> Z(x)")}));
  Instance j;
  for (int i = 0; i < 16; ++i) {
    j.Add(Atom::Make("Sdw", {Term::Constant("c" + std::to_string(i))}));
  }
  DisjunctiveChaseOptions tight;
  tight.max_worlds = 100;
  Result<std::vector<Instance>> worlds =
      DisjunctiveChase(mapping, j, &FreshNulls(), tight);
  EXPECT_FALSE(worlds.ok());
  EXPECT_EQ(worlds.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExtendedRecovery, ReproducesIntroEq5) {
  // Sigma of eq. (4) -> the mapping of eq. (5).
  DependencySet sigma = DiamondScenario::Sigma();
  Result<DisjunctiveMapping> mapping = ExtendedRecoveryMapping(sigma);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  // T(x) -> R(x) and S(x) -> R(x) v M(x).
  ASSERT_EQ(mapping->size(), 2u);
  bool saw_t_rule = false, saw_s_rule = false;
  for (const DisjunctiveTgd& rule : mapping->tgds()) {
    RelationId body_rel = rule.body()[0].relation();
    if (body_rel == InternRelation("Td")) {
      saw_t_rule = true;
      EXPECT_EQ(rule.num_alternatives(), 1u);
    }
    if (body_rel == InternRelation("Sd")) {
      saw_s_rule = true;
      EXPECT_EQ(rule.num_alternatives(), 2u);
    }
  }
  EXPECT_TRUE(saw_t_rule);
  EXPECT_TRUE(saw_s_rule);
}

TEST(ExtendedRecovery, IntroSoundnessAnomaly) {
  // Chasing J = {S(a)} with eq. (5) yields worlds {R(a)}, {M(a)} (and,
  // in the paper's reading, their union). Only {M(a)} is a recovery;
  // the instance-based engine emits exactly that one.
  DependencySet sigma = DiamondScenario::Sigma();
  Instance j = I("{Sd(q)}");
  Result<std::vector<Instance>> worlds =
      ExtendedRecoveryWorlds(sigma, j);
  ASSERT_TRUE(worlds.ok()) << worlds.status().ToString();
  ASSERT_EQ(worlds->size(), 2u);

  size_t sound = 0, unsound = 0;
  for (const Instance& world : *worlds) {
    Result<bool> is_rec = IsRecovery(sigma, world, j);
    ASSERT_TRUE(is_rec.ok());
    (*is_rec ? sound : unsound)++;
  }
  EXPECT_EQ(sound, 1u);
  EXPECT_EQ(unsound, 1u);

  Result<InverseChaseResult> ours = internal::InverseChase(sigma, j);
  ASSERT_TRUE(ours.ok());
  ASSERT_EQ(ours->recoveries.size(), 1u);
  EXPECT_TRUE(AreIsomorphic(ours->recoveries[0], I("{Md(q)}")));
}

TEST(ExtendedRecovery, SingleProducerDegeneratesToTgd) {
  DependencySet sigma = S("Rer(x, y) -> Ser(x)");
  Result<DisjunctiveMapping> mapping = ExtendedRecoveryMapping(sigma);
  ASSERT_TRUE(mapping.ok());
  ASSERT_EQ(mapping->size(), 1u);
  EXPECT_EQ(mapping->at(0).num_alternatives(), 1u);
  // The alternative is R(x, fresh-existential).
  const std::vector<Atom>& alt = mapping->at(0).alternatives()[0];
  ASSERT_EQ(alt.size(), 1u);
  EXPECT_EQ(alt[0].relation(), InternRelation("Rer"));
}

TEST(ExtendedRecovery, DominanceDropsStricterAlternatives) {
  // T can come from R(x,y) generally or from R(x,x); the specific R(x,x)
  // alternative is implied by the general one and is dropped.
  DependencySet sigma = S("Res(x, y) -> Tes(x); Res(v, v) -> Tes(v)");
  Result<DisjunctiveMapping> mapping = ExtendedRecoveryMapping(sigma);
  ASSERT_TRUE(mapping.ok());
  for (const DisjunctiveTgd& rule : mapping->tgds()) {
    EXPECT_EQ(rule.num_alternatives(), 1u) << rule.ToString();
  }
}

TEST(ExtendedRecovery, RepeatedCallsInternNoConstants) {
  // The dominance test freezes variables to constants named per call, so
  // after the first call every name it needs is already interned.
  DependencySet sigma =
      S("Rec(x) -> Sec(x); Mec(y) -> Sec(y); Pec(u, v) -> Tec(u), Sec(v)");
  ASSERT_TRUE(ExtendedRecoveryMapping(sigma).ok());
  const size_t constants = Symbols().constants.size();
  for (int call = 0; call < 100; ++call) {
    ASSERT_TRUE(ExtendedRecoveryMapping(sigma).ok());
  }
  EXPECT_EQ(Symbols().constants.size(), constants);
}

TEST(ExtendedRecovery, WorldsCoverInstanceRecoveries) {
  // Every instance-based recovery is homomorphically covered by some
  // world (the mapping-based approach over-approximates; the instance
  // approach prunes).
  DependencySet sigma = S("Ret(x) -> Set(x); Met(y) -> Set(y)");
  Instance j = I("{Set(a)}");
  Result<std::vector<Instance>> worlds = ExtendedRecoveryWorlds(sigma, j);
  ASSERT_TRUE(worlds.ok());
  Result<InverseChaseResult> ours = internal::InverseChase(sigma, j);
  ASSERT_TRUE(ours.ok());
  for (const Instance& rec : ours->recoveries) {
    bool covered = false;
    for (const Instance& world : *worlds) {
      if (HasInstanceHomomorphism(world, rec)) covered = true;
    }
    EXPECT_TRUE(covered) << rec.ToString();
  }
}

}  // namespace
}  // namespace dxrec
