// Property tests over random patterns and instances: the indexed
// columnar homomorphism search finds exactly the matches of the
// brute-force oracle (tests/hom_oracle.h), and the term dictionary
// round-trips every term kind without losing identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "chase/homomorphism.h"
#include "datagen/generators.h"
#include "datagen/random.h"
#include "hom_oracle.h"
#include "logic/parser.h"
#include "relational/columnar.h"
#include "relational/instance.h"

namespace dxrec {
namespace {

class HomIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HomIndexProperty, IndexedEqualsOracle) {
  Rng rng(GetParam() * 271 + 9);
  std::string tag = "hip" + std::to_string(GetParam()) + "_";

  // Random instance over two relations of arity 2 and 3.
  Instance target;
  size_t constants = 2 + rng.Index(4);
  auto c = [&](size_t i) {
    return Term::Constant(tag + "c" + std::to_string(i));
  };
  for (size_t i = 0; i < 12; ++i) {
    if (rng.Chance(0.5)) {
      target.Add(Atom::Make(tag + "R",
                            {c(rng.Index(constants)),
                             c(rng.Index(constants))}));
    } else {
      target.Add(Atom::Make(tag + "S",
                            {c(rng.Index(constants)),
                             c(rng.Index(constants)),
                             c(rng.Index(constants))}));
    }
  }

  // Random pattern: 1-3 atoms with shared variables and occasional
  // constants.
  std::vector<Atom> pattern;
  std::vector<Term> vars;
  size_t next_var = 0;
  auto term = [&]() -> Term {
    if (!vars.empty() && rng.Chance(0.5)) return rng.Pick(vars);
    if (rng.Chance(0.2)) return c(rng.Index(constants));
    Term v = Term::Variable(tag + "v" + std::to_string(next_var++));
    vars.push_back(v);
    return v;
  };
  size_t atoms = 1 + rng.Index(3);
  for (size_t a = 0; a < atoms; ++a) {
    if (rng.Chance(0.5)) {
      pattern.push_back(Atom::Make(tag + "R", {term(), term()}));
    } else {
      pattern.push_back(Atom::Make(tag + "S", {term(), term(), term()}));
    }
  }

  std::vector<Substitution> homs = FindHomomorphisms(pattern, target);
  std::set<std::string> indexed;
  for (const Substitution& h : homs) indexed.insert(h.ToString());
  EXPECT_EQ(indexed.size(), homs.size()) << "duplicate homomorphisms";
  EXPECT_EQ(indexed, oracle::AllHoms(pattern, target));

  // Option variants the pipeline relies on: injective search (isomorphism
  // tests) and pre-bound placeholders (step 6 pins dom(J)).
  HomSearchOptions injective;
  injective.injective = true;
  EXPECT_EQ(oracle::MatcherHoms(pattern, target, injective),
            oracle::AllHoms(pattern, target, injective));
  if (!vars.empty()) {
    HomSearchOptions pinned;
    pinned.fixed.Set(vars.front(), c(0));
    EXPECT_EQ(oracle::MatcherHoms(pattern, target, pinned),
              oracle::AllHoms(pattern, target, pinned));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HomIndexProperty,
                         ::testing::Range<uint64_t>(1, 33));

// Random insert/build: every term of every atom must round-trip through
// the dictionary (Decode(Find(t)) == t, codes dense and stable), and the
// postings lists must enumerate exactly the rows whose column holds the
// probed code, in insertion order — i.e. an index probe equals the
// filtered full scan.
class ColumnarIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarIndexProperty, ProbeEqualsFilteredScan) {
  Rng rng(GetParam() * 613 + 3);
  std::string tag = "cip" + std::to_string(GetParam()) + "_";
  Instance instance;
  size_t constants = 2 + rng.Index(4);
  auto c = [&](size_t i) {
    return Term::Constant(tag + "c" + std::to_string(i));
  };
  // Mix constants and labeled nulls so the dictionary sees both kinds.
  auto t = [&]() -> Term {
    if (rng.Chance(0.25)) return Term::Null(GetParam() * 100 + rng.Index(4));
    return c(rng.Index(constants));
  };
  for (size_t i = 0; i < 16; ++i) {
    if (rng.Chance(0.5)) {
      instance.Add(Atom::Make(tag + "R", {t(), t()}));
    } else {
      instance.Add(Atom::Make(tag + "S", {t(), t(), t()}));
    }
  }

  const ColumnarInstance& columnar = instance.Columnar();
  EXPECT_EQ(columnar.size(), instance.size());

  // Dictionary round-trip: identity preserved for every stored term,
  // labeled nulls included.
  for (const Atom& a : instance.atoms()) {
    for (Term term : a.args()) {
      uint32_t code = columnar.dict().Find(term);
      ASSERT_NE(code, TermDictionary::kNoCode);
      EXPECT_EQ(columnar.dict().Decode(code), term)
          << "dictionary round-trip lost identity of "
          << term.ToString();
    }
  }
  // A term never inserted has no code.
  EXPECT_EQ(columnar.dict().Find(Term::Constant(tag + "absent")),
            TermDictionary::kNoCode);

  // Index probe == full scan filtered by code, per relation/pos/code.
  for (const Atom& a : instance.atoms()) {
    const ColumnarRelation* rel = columnar.Relation(a.relation());
    ASSERT_NE(rel, nullptr);
    for (uint32_t pos = 0; pos < a.arity(); ++pos) {
      uint32_t code = columnar.dict().Find(a.arg(pos));
      std::vector<uint32_t> filtered;
      for (uint32_t row : columnar.Rows(a.relation())) {
        if (pos < rel->arity(row) && rel->code(pos, row) == code) {
          filtered.push_back(row);
        }
      }
      const std::span<const uint32_t> postings =
          columnar.Probe(a.relation(), pos, code);
      EXPECT_EQ(std::vector<uint32_t>(postings.begin(), postings.end()),
                filtered)
          << "postings list != filtered scan at pos " << pos;
    }
  }

  // Rows() enumerates local rows 0..n-1 (per-relation insertion order),
  // and rows() maps them back to the instance's global atom order.
  for (RelationId rel_id : {Atom::Make(tag + "R", {c(0), c(0)}).relation(),
                            Atom::Make(tag + "S", {c(0), c(0), c(0)})
                                .relation()}) {
    const ColumnarRelation* rel = columnar.Relation(rel_id);
    if (rel == nullptr) continue;
    const std::span<const uint32_t> local = columnar.Rows(rel_id);
    ASSERT_EQ(local.size(), rel->num_rows());
    for (uint32_t row = 0; row < local.size(); ++row) {
      EXPECT_EQ(local[row], row);
      const Atom& a = instance.atoms()[rel->rows()[row]];
      EXPECT_EQ(a.relation(), rel_id);
      for (uint32_t pos = 0; pos < a.arity(); ++pos) {
        EXPECT_EQ(rel->code(pos, row), columnar.dict().Find(a.arg(pos)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarIndexProperty,
                         ::testing::Range<uint64_t>(1, 25));

// Wide atoms through generated mappings: relations of arity up to 5, so
// most tuples and pattern atoms keep their arguments in a spilled heap
// block rather than inline. Every tgd's body (over the source) and head
// (over the chase target, nulls included) must match the oracle, and
// the target's postings must equal the filtered scans.
class WideArityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WideArityProperty, SpilledAtomsMatchOracle) {
  Rng rng(GetParam() * 7727 + 5);
  const std::string tag = "wap" + std::to_string(GetParam()) + "_";
  MappingSpec spec;
  spec.num_tgds = 2 + rng.Index(2);
  spec.max_arity = 5;
  const DependencySet sigma = RandomMapping(spec, tag, &rng);
  SourceSpec source_spec;
  source_spec.num_tuples = 6 + rng.Index(4);
  source_spec.num_constants = 4;
  const Instance source = RandomSource(sigma, source_spec, tag, &rng);
  const Instance target = ChaseTarget(sigma, source, /*ground=*/false);

  for (const Tgd& tgd : sigma.tgds()) {
    EXPECT_EQ(oracle::MatcherHoms(tgd.body(), source),
              oracle::AllHoms(tgd.body(), source));
    EXPECT_EQ(oracle::MatcherHoms(tgd.head(), target),
              oracle::AllHoms(tgd.head(), target));
  }
  // The target's own atoms as a pattern, nulls as placeholders.
  HomSearchOptions map_nulls;
  map_nulls.map_nulls = true;
  std::vector<Atom> pattern(
      target.atoms().begin(),
      target.atoms().begin() + std::min<size_t>(2, target.size()));
  EXPECT_EQ(oracle::MatcherHoms(pattern, target, map_nulls),
            oracle::AllHoms(pattern, target, map_nulls));

  const ColumnarInstance& columnar = target.Columnar();
  for (const Atom& a : target.atoms()) {
    const ColumnarRelation* rel = columnar.Relation(a.relation());
    ASSERT_NE(rel, nullptr);
    for (uint32_t pos = 0; pos < a.arity(); ++pos) {
      const uint32_t code = columnar.dict().Find(a.arg(pos));
      std::vector<uint32_t> filtered;
      for (uint32_t row : columnar.Rows(a.relation())) {
        if (pos < rel->arity(row) && rel->code(pos, row) == code) {
          filtered.push_back(row);
        }
      }
      const std::span<const uint32_t> postings =
          columnar.Probe(a.relation(), pos, code);
      EXPECT_EQ(std::vector<uint32_t>(postings.begin(), postings.end()),
                filtered);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideArityProperty,
                         ::testing::Range<uint64_t>(1, 25));

// Mutation invalidates the snapshot: the next Columnar() call sees the
// new atoms.
TEST(ColumnarSnapshot, InvalidatedOnMutation) {
  Instance instance;
  instance.Add(Atom::Make("CsR", {Term::Constant("cs_a")}));
  EXPECT_EQ(instance.Columnar().size(), 1u);
  instance.Add(Atom::Make("CsR", {Term::Constant("cs_b")}));
  const ColumnarInstance& rebuilt = instance.Columnar();
  EXPECT_EQ(rebuilt.size(), 2u);
  EXPECT_NE(rebuilt.dict().Find(Term::Constant("cs_b")),
            TermDictionary::kNoCode);
}

}  // namespace
}  // namespace dxrec
