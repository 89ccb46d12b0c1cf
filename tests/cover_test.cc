// Unit tests for HOM(Sigma, J) and the covering enumerations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "base/fresh.h"
#include "core/cover.h"
#include "core/hom_set.h"
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

TEST(HomSet, HeadHomsEnumerateHeadVariables) {
  DependencySet sigma = S("Rka(x, y) -> exists z: Ska(x, z)");
  Instance j = I("{Ska(a, b), Ska(a, c)}");
  std::vector<HeadHom> homs = ComputeHomSet(sigma, j);
  ASSERT_EQ(homs.size(), 2u);
  for (const HeadHom& h : homs) {
    // Head vars x and z are bound; body-only y is not.
    EXPECT_EQ(h.hom.size(), 2u);
  }
}

TEST(HomSet, CoveredTuplesAreImageOfHead) {
  DependencySet sigma = S("Rkb(x, y) -> Skb(x), Pkb(y)");
  Instance j = I("{Skb(a), Pkb(b)}");
  std::vector<HeadHom> homs = ComputeHomSet(sigma, j);
  ASSERT_EQ(homs.size(), 1u);
  EXPECT_EQ(homs[0].CoveredTuples(sigma), j);
}

TEST(HomSet, SourceAtomsUseFreshNullsForBodyOnlyVars) {
  DependencySet sigma = S("Rkc(x, y) -> Skc(x)");
  Instance j = I("{Skc(a)}");
  std::vector<HeadHom> homs = ComputeHomSet(sigma, j);
  ASSERT_EQ(homs.size(), 1u);
  Instance i1 = SourceAtomsFor(sigma, homs, &FreshNulls());
  Instance i2 = SourceAtomsFor(sigma, homs, &FreshNulls());
  ASSERT_EQ(i1.size(), 1u);
  EXPECT_EQ(i1.atoms()[0].arg(0), Term::Constant("a"));
  EXPECT_TRUE(i1.atoms()[0].arg(1).is_null());
  // Distinct invocations produce distinct nulls.
  EXPECT_NE(i1.atoms()[0].arg(1), i2.atoms()[0].arg(1));
}

TEST(HomSet, MultipleTgdsMultipleHoms) {
  DependencySet sigma = S("Rkd(x) -> Tkd(x); Dkd(k, p) -> Tkd(p)");
  Instance j = I("{Tkd(c), Tkd(d)}");
  std::vector<HeadHom> homs = ComputeHomSet(sigma, j);
  EXPECT_EQ(homs.size(), 4u);  // 2 per tgd
}

TEST(CoverProblem, CoverageMatrix) {
  DependencySet sigma = S("Rke(x) -> Tke(x); Dke(k, p) -> Tke(p)");
  Instance j = I("{Tke(c), Tke(d)}");
  std::vector<HeadHom> homs = ComputeHomSet(sigma, j);
  CoverProblem problem(sigma, j, homs);
  EXPECT_EQ(problem.num_tuples(), 2u);
  EXPECT_EQ(problem.num_homs(), 4u);
  EXPECT_TRUE(problem.AllTuplesCoverable());
  for (size_t t = 0; t < problem.num_tuples(); ++t) {
    EXPECT_EQ(problem.covered_by()[t].size(), 2u);
  }
}

TEST(CoverProblem, UncoverableTupleDetected) {
  DependencySet sigma = S("Rkf(x) -> Tkf(x)");
  Instance j = I("{Tkf(a), Ukf(b)}");  // U has no producing tgd
  std::vector<HeadHom> homs = ComputeHomSet(sigma, j);
  CoverProblem problem(sigma, j, homs);
  EXPECT_FALSE(problem.AllTuplesCoverable());
  Result<std::vector<Cover>> covers = problem.AllCovers(CoverOptions());
  ASSERT_TRUE(covers.ok());
  EXPECT_TRUE(covers->empty());
}

TEST(CoverProblem, AllCoversAreExactlyTheCoveringSubsets) {
  // Two homs cover tuple 1; one hom covers tuple 2. Covers: any subset
  // containing hom-for-tuple-2 and at least one of the other two.
  DependencySet sigma = S("Rkg(x) -> Tkg(x); Dkg(k, p) -> Tkg(p)");
  Instance j = I("{Tkg(c)}");
  std::vector<HeadHom> homs = ComputeHomSet(sigma, j);
  ASSERT_EQ(homs.size(), 2u);
  CoverProblem problem(sigma, j, homs);
  Result<std::vector<Cover>> covers = problem.AllCovers(CoverOptions());
  ASSERT_TRUE(covers.ok());
  // {h0}, {h1}, {h0, h1}.
  EXPECT_EQ(covers->size(), 3u);
  Result<std::vector<Cover>> minimal =
      problem.MinimalCovers(CoverOptions());
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->size(), 2u);
}

TEST(CoverProblem, MinimalCoversAreMinimal) {
  DependencySet sigma =
      S("Rkh(x) -> Tkh(x); Dkh(k, p) -> Tkh(p); Bkh(u, v) -> Tkh(u), "
        "Tkh(v)");
  Instance j = I("{Tkh(c), Tkh(d)}");
  std::vector<HeadHom> homs = ComputeHomSet(sigma, j);
  CoverProblem problem(sigma, j, homs);
  Result<std::vector<Cover>> minimal =
      problem.MinimalCovers(CoverOptions());
  ASSERT_TRUE(minimal.ok());
  Result<std::vector<Cover>> all = problem.AllCovers(CoverOptions());
  ASSERT_TRUE(all.ok());
  std::set<Cover> all_set(all->begin(), all->end());
  for (const Cover& cover : *minimal) {
    EXPECT_TRUE(all_set.count(cover) > 0);
    // Dropping any element breaks coverage.
    for (size_t drop = 0; drop < cover.size(); ++drop) {
      Cover smaller;
      for (size_t i = 0; i < cover.size(); ++i) {
        if (i != drop) smaller.push_back(cover[i]);
      }
      EXPECT_EQ(all_set.count(smaller), 0u);
    }
  }
}

TEST(CoverProblem, BudgetsAreEnforced) {
  // 8 independent tuples each covered by 2 homs -> 2^8 minimal covers.
  DependencySet sigma = S("Rki(x) -> Tki(x); Dki(k, p) -> Tki(p)");
  Instance j;
  for (int i = 0; i < 8; ++i) {
    j.Add(Atom::Make("Tki", {Term::Constant("t" + std::to_string(i))}));
  }
  std::vector<HeadHom> homs = ComputeHomSet(sigma, j);
  CoverProblem problem(sigma, j, homs);
  CoverOptions tight;
  tight.max_covers = 10;
  Result<std::vector<Cover>> covers = problem.AllCovers(tight);
  EXPECT_FALSE(covers.ok());
  EXPECT_EQ(covers.status().code(), StatusCode::kResourceExhausted);
  CoverOptions loose;
  Result<std::vector<Cover>> minimal = problem.MinimalCovers(loose);
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->size(), 256u);
}

TEST(CoverProblem, MinimalCoversOfSubset) {
  DependencySet sigma = S("Rkj(x, y) -> Skj(x); Bkj(z, v) -> Skj(z), "
                          "Tkj(v)");
  Instance j = I("{Skj(a), Tkj(b)}");
  std::vector<HeadHom> homs = ComputeHomSet(sigma, j);
  ASSERT_EQ(homs.size(), 2u);
  CoverProblem problem(sigma, j, homs);
  // Covers of just {S(a)} (tuple 0): either hom alone.
  Result<std::vector<Cover>> covers =
      problem.MinimalCoversOf({0}, CoverOptions());
  ASSERT_TRUE(covers.ok());
  EXPECT_EQ(covers->size(), 2u);
  for (const Cover& cover : *covers) EXPECT_EQ(cover.size(), 1u);
}

// --- AllCoversInto against a brute-force oracle --------------------------

// Per hom, the set of target tuples it covers, computed from J_h directly
// (not through CoverProblem).
std::vector<std::set<Atom>> CoveredSets(const DependencySet& sigma,
                                        const std::vector<HeadHom>& homs) {
  std::vector<std::set<Atom>> out;
  for (const HeadHom& h : homs) {
    const Instance covered = h.CoveredTuples(sigma);
    out.emplace_back(covered.atoms().begin(), covered.atoms().end());
  }
  return out;
}

// Every subset of the homs whose union is J, in the order of an
// exclude-first include/exclude search over homs 0..m-1: counting up
// with hom 0 as the most significant bit.
std::vector<Cover> BruteForceCovers(const std::vector<std::set<Atom>>& covered,
                                    const Instance& target) {
  const size_t m = covered.size();
  std::vector<Cover> out;
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    Cover subset;
    std::set<Atom> reached;
    for (size_t i = 0; i < m; ++i) {
      if ((mask >> (m - 1 - i)) & 1) {
        subset.push_back(i);
        reached.insert(covered[i].begin(), covered[i].end());
      }
    }
    bool covers = true;
    for (const Atom& a : target.atoms()) covers = covers && reached.count(a);
    if (covers) out.push_back(subset);
  }
  return out;
}

// Search nodes the include/exclude enumeration visits when every branch
// is walked (no forced-hom shortcut): the cover.nodes it must charge.
size_t ReferenceNodes(const std::vector<std::set<Atom>>& covered,
                      const Instance& target, size_t i,
                      std::set<Atom> reached) {
  size_t nodes = 1;
  auto reaches_all = [&target](const std::set<Atom>& have) {
    for (const Atom& a : target.atoms()) {
      if (have.count(a) == 0) return false;
    }
    return true;
  };
  if (i == covered.size()) return nodes;
  std::set<Atom> reachable = reached;
  for (size_t k = i; k < covered.size(); ++k) {
    reachable.insert(covered[k].begin(), covered[k].end());
  }
  if (!reaches_all(reachable)) return nodes;
  nodes += ReferenceNodes(covered, target, i + 1, reached);
  reached.insert(covered[i].begin(), covered[i].end());
  nodes += ReferenceNodes(covered, target, i + 1, std::move(reached));
  return nodes;
}

TEST(CoverProblem, AllCoversMatchesBruteForceOnRandomProblems) {
  size_t with_forced = 0;
  size_t without_forced = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(7000 + seed);
    MappingSpec spec;
    spec.num_tgds = 1 + rng.Index(3);
    spec.num_target_relations = 2;
    spec.max_arity = 2;
    const std::string tag = "kco" + std::to_string(seed);
    DependencySet sigma = RandomMapping(spec, tag, &rng);
    SourceSpec source_spec;
    source_spec.num_tuples = 1 + rng.Index(4);
    source_spec.num_constants = 3;
    Instance source = RandomSource(sigma, source_spec, tag, &rng);
    Instance target = ChaseTarget(sigma, source, /*ground=*/rng.Chance(0.7));
    std::vector<HeadHom> homs = ComputeHomSet(sigma, target);
    if (homs.empty() || homs.size() > 12) continue;

    CoverProblem problem(sigma, target, homs);
    bool forced = false;
    for (const auto& coverers : problem.covered_by()) {
      forced = forced || coverers.size() == 1;
    }
    (forced ? with_forced : without_forced)++;

    std::vector<std::set<Atom>> covered = CoveredSets(sigma, homs);
    std::vector<Cover> got;
    ASSERT_TRUE(problem.AllCoversInto(CoverOptions(), &got).ok());
    EXPECT_EQ(got, BruteForceCovers(covered, target))
        << sigma.ToString() << "\nJ = " << target.ToString();

    // The node budget trips exactly where the full search would.
    const size_t nodes = ReferenceNodes(covered, target, 0, {});
    CoverOptions exact;
    exact.max_nodes = nodes;
    std::vector<Cover> within;
    EXPECT_TRUE(problem.AllCoversInto(exact, &within).ok()) << nodes;
    CoverOptions short_by_one;
    short_by_one.max_nodes = nodes - 1;
    std::vector<Cover> tripped;
    Status status = problem.AllCoversInto(short_by_one, &tripped);
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << nodes;
  }
  EXPECT_GT(with_forced, 20u);
  EXPECT_GT(without_forced, 20u);
}

// --- MinimalCoversOfInto against a brute-force oracle -------------------

// Every minimal subset of the homs whose union includes the target tuples
// `tuples`, in lexicographic order.
std::vector<Cover> BruteForceMinimalCovers(
    const std::vector<std::set<Atom>>& covered, const Instance& target,
    const std::vector<uint32_t>& tuples) {
  const size_t m = covered.size();
  auto reaches = [&](uint64_t mask) {
    std::set<Atom> reached;
    for (size_t i = 0; i < m; ++i) {
      if ((mask >> i) & 1) {
        reached.insert(covered[i].begin(), covered[i].end());
      }
    }
    for (uint32_t t : tuples) {
      if (reached.count(target.atoms()[t]) == 0) return false;
    }
    return true;
  };
  std::vector<Cover> out;
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    if (!reaches(mask)) continue;
    bool minimal = true;
    Cover subset;
    for (size_t i = 0; i < m; ++i) {
      if (((mask >> i) & 1) == 0) continue;
      subset.push_back(i);
      minimal = minimal && !reaches(mask & ~(uint64_t{1} << i));
    }
    if (minimal) out.push_back(subset);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Search nodes the branch-and-exclude enumeration of minimal covers
// visits: each node branches, in hom order, on the not-yet-excluded homs
// covering the lowest-indexed unreached tuple of `tuples` (ascending),
// and excludes each hom once its branch returns.
size_t ReferenceMinimalNodes(const std::vector<std::set<Atom>>& covered,
                             const Instance& target,
                             const std::vector<uint32_t>& tuples,
                             const std::set<Atom>& reached,
                             std::vector<bool> excluded) {
  size_t nodes = 1;
  for (uint32_t t : tuples) {
    const Atom& tuple = target.atoms()[t];
    if (reached.count(tuple) > 0) continue;
    for (size_t h = 0; h < covered.size(); ++h) {
      if (excluded[h] || covered[h].count(tuple) == 0) continue;
      std::set<Atom> with = reached;
      with.insert(covered[h].begin(), covered[h].end());
      nodes += ReferenceMinimalNodes(covered, target, tuples, with, excluded);
      excluded[h] = true;
    }
    break;
  }
  return nodes;
}

TEST(CoverProblem, MinimalCoversOfMatchesBruteForceOnRandomProblems) {
  size_t checked = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    // The corpus of AllCoversMatchesBruteForceOnRandomProblems.
    Rng rng(7000 + seed);
    MappingSpec spec;
    spec.num_tgds = 1 + rng.Index(3);
    spec.num_target_relations = 2;
    spec.max_arity = 2;
    const std::string tag = "kco" + std::to_string(seed);
    DependencySet sigma = RandomMapping(spec, tag, &rng);
    SourceSpec source_spec;
    source_spec.num_tuples = 1 + rng.Index(4);
    source_spec.num_constants = 3;
    Instance source = RandomSource(sigma, source_spec, tag, &rng);
    Instance target = ChaseTarget(sigma, source, /*ground=*/rng.Chance(0.7));
    std::vector<HeadHom> homs = ComputeHomSet(sigma, target);
    if (homs.empty() || homs.size() > 12) continue;
    CoverProblem problem(sigma, target, homs);
    if (!problem.AllTuplesCoverable()) continue;

    // Every other seed asks for all of J; the rest for a random subset,
    // passed in descending order (the tuples are read as a set).
    Rng pick(9000 + seed);
    std::vector<uint32_t> tuples;
    for (uint32_t t = 0; t < target.size(); ++t) {
      if (seed % 2 == 0 || pick.Chance(0.5)) tuples.push_back(t);
    }
    std::vector<uint32_t> ascending = tuples;
    std::reverse(tuples.begin(), tuples.end());

    std::vector<std::set<Atom>> covered = CoveredSets(sigma, homs);
    std::vector<Cover> got;
    ASSERT_TRUE(problem.MinimalCoversOfInto(tuples, CoverOptions(), &got).ok());
    EXPECT_EQ(got, BruteForceMinimalCovers(covered, target, ascending))
        << sigma.ToString() << "\nJ = " << target.ToString();
    if (seed % 2 == 0) {
      std::vector<Cover> all;
      ASSERT_TRUE(problem.MinimalCoversInto(CoverOptions(), &all).ok());
      EXPECT_EQ(all, got);
    }

    // The node budget trips exactly at the reference count.
    const size_t nodes = ReferenceMinimalNodes(
        covered, target, ascending, {}, std::vector<bool>(homs.size()));
    CoverOptions exact;
    exact.max_nodes = nodes;
    std::vector<Cover> within;
    EXPECT_TRUE(problem.MinimalCoversOfInto(tuples, exact, &within).ok())
        << nodes;
    EXPECT_EQ(within, got);
    CoverOptions short_by_one;
    short_by_one.max_nodes = nodes - 1;
    std::vector<Cover> tripped;
    Status status =
        problem.MinimalCoversOfInto(tuples, short_by_one, &tripped);
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << nodes;
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

}  // namespace
}  // namespace dxrec
