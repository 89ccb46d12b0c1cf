// Unit tests for Chase^{-1} (Def. 9) and certain answers beyond the
// paper's worked examples.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/fresh.h"
#include "chase/chase.h"
#include "chase/homomorphism.h"
#include "core/certain.h"
#include "core/cover.h"
#include "core/hom_set.h"
#include "core/inverse_chase.h"
#include "core/recovery.h"
#include "datagen/scenarios.h"
#include "logic/parser.h"
#include "obs/events.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "relational/instance_ops.h"

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

UnionQuery U(const char* text) {
  Result<UnionQuery> parsed = ParseUnionQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

TEST(InverseChase, CopyMappingRoundTrip) {
  DependencySet sigma = S("Ria(x, y) -> Sia(x, y)");
  Instance j = I("{Sia(a, b), Sia(c, d)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->recoveries.size(), 1u);
  EXPECT_EQ(result->recoveries[0], I("{Ria(a, b), Ria(c, d)}"));
}

TEST(InverseChase, EmptyTargetHasEmptyRecovery) {
  DependencySet sigma = S("Rib(x) -> Sib(x)");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, I("{}"));
  ASSERT_TRUE(result.ok());
  // The empty source justifies the empty target.
  ASSERT_EQ(result->recoveries.size(), 1u);
  EXPECT_TRUE(result->recoveries[0].empty());
  Result<bool> valid = internal::IsValidForRecovery(sigma, I("{}"));
  ASSERT_TRUE(valid.ok());
  EXPECT_TRUE(*valid);
}

TEST(InverseChase, AlternativeSourcesEnumerated) {
  // First case from the intro (eq. before Sec. 2 discussion):
  // R(x) -> S(x); M(y) -> S(y). J = {S(a)} has recoveries {R(a)},
  // {M(a)}, {R(a), M(a)}.
  DependencySet sigma = S("Ric(x) -> Sic(x); Mic(y) -> Sic(y)");
  Instance j = I("{Sic(a)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->recoveries.size(), 3u);
  auto contains = [&](const char* text) {
    Instance expected = I(text);
    for (const Instance& r : result->recoveries) {
      if (r == expected) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("{Ric(a)}"));
  EXPECT_TRUE(contains("{Mic(a)}"));
  EXPECT_TRUE(contains("{Ric(a), Mic(a)}"));
}

TEST(InverseChase, GCollapseCannotSmuggleUnsoundTriggers) {
  // The head-existential of tgd 1 can be specialized by g onto a value
  // that would create a *new* trigger of tgd 2. The final verification
  // must reject candidates whose fresh triggers escape J.
  DependencySet sigma =
      S("Rid(x) -> exists z: Sid(x, z); Pid(u, u) -> Tid(u)");
  // S's second column comes from a null; specializing it to `a` does not
  // create a P-pattern, so this is fine -- but the engine must also never
  // emit a source containing Pid(a, a) unless Tid(a) is in J.
  Instance j = I("{Sid(a, b)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->valid_for_recovery());
  for (const Instance& rec : result->recoveries) {
    for (const Atom& atom : rec.atoms()) {
      EXPECT_NE(atom.relation(), InternRelation("Pid"))
          << rec.ToString();
    }
  }
}

TEST(InverseChase, SharedFrontierForcesJoin) {
  // Intro example (1): J = {S(a), P(b1), P(b2)} under
  // R(x,y) -> S(x), P(y) forces every recovery to pair a with each bi.
  DependencySet sigma = S("Rie(x, y) -> Sie(x), Pie(y)");
  Instance j = I("{Sie(a), Pie(b1), Pie(b2)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->valid_for_recovery());
  for (const Instance& rec : result->recoveries) {
    EXPECT_TRUE(rec.Contains(I("{Rie(a, b1)}").atoms()[0]))
        << rec.ToString();
    EXPECT_TRUE(rec.Contains(I("{Rie(a, b2)}").atoms()[0]))
        << rec.ToString();
  }
  // And S(a2) unmatched by any P: invalid.
  Result<bool> invalid =
      internal::IsValidForRecovery(sigma, I("{Sie(a), Sie(a2)}"));
  ASSERT_TRUE(invalid.ok());
  // {S(a), S(a2)}: R-tuples would add P-atoms; no P in J -> invalid.
  EXPECT_FALSE(*invalid);
}

TEST(InverseChase, EveryEmittedInstanceIsARecovery) {
  DependencySet sigma =
      S("Rif(x, y) -> Sif(x), Tif(y); Mif(z) -> Tif(z)");
  Instance j = I("{Sif(a), Tif(b), Tif(c)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->valid_for_recovery());
  for (const Instance& rec : result->recoveries) {
    Result<bool> is_rec = IsRecovery(sigma, rec, j);
    ASSERT_TRUE(is_rec.ok());
    EXPECT_TRUE(*is_rec) << rec.ToString();
  }
}

TEST(InverseChase, StatsArepopulated) {
  DependencySet sigma = S("Rig(x) -> Sig(x); Mig(y) -> Sig(y)");
  Instance j = I("{Sig(a)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_homs, 2u);
  EXPECT_EQ(result->stats.num_covers, 3u);
  EXPECT_GE(result->stats.num_covers_passing_sub, 3u);
  EXPECT_GE(result->stats.num_g_homs, 3u);
}

TEST(InverseChase, RecoveryBudgetEnforced) {
  DependencySet sigma = S("Rih(x) -> Sih(x); Mih(y) -> Sih(y)");
  Instance j = I("{Sih(a), Sih(b), Sih(c), Sih(d)}");
  InverseChaseOptions tight;
  tight.max_recoveries = 2;
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j, tight);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Certain, InvalidTargetIsFailedPrecondition) {
  DependencySet sigma = S("Rii(x) -> Sii(x), Tii(x)");
  Instance j = I("{Sii(a)}");  // T(a) missing: invalid
  Result<AnswerSet> cert = internal::CertainAnswers(U("Q(x) :- Rii(x)"), sigma, j);
  EXPECT_FALSE(cert.ok());
  EXPECT_EQ(cert.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Certain, UnionQueriesAcrossRecoveries) {
  // Under R->S; M->S every recovery provides a or-answer via R or M.
  DependencySet sigma = S("Rij(x) -> Sij(x); Mij(y) -> Sij(y)");
  Instance j = I("{Sij(a)}");
  // Neither R(a) nor M(a) alone is certain...
  Result<AnswerSet> r_only = internal::CertainAnswers(U("Q(x) :- Rij(x)"), sigma, j);
  ASSERT_TRUE(r_only.ok());
  EXPECT_TRUE(r_only->empty());
  // ...but their union is.
  Result<AnswerSet> either =
      internal::CertainAnswers(U("Q(x) :- Rij(x) | Q(x) :- Mij(x)"), sigma, j);
  ASSERT_TRUE(either.ok());
  EXPECT_EQ(*either, (AnswerSet{{Term::Constant("a")}}));
}

TEST(Certain, IsCertainDecision) {
  DependencySet sigma = S("Rik(x, y) -> Sik(x), Pik(y)");
  Instance j = I("{Sik(a), Pik(b)}");
  Result<bool> yes = internal::IsCertain({Term::Constant("a")},
                               U("Q(x) :- Rik(x, y)"), sigma, j);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  Result<bool> no = internal::IsCertain({Term::Constant("b")},
                              U("Q(x) :- Rik(x, y)"), sigma, j);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST(InverseChase, ParallelMatchesSequential) {
  DependencySet sigma =
      S("Rim(x, y) -> Sim(x), Tim(y); Mim(z) -> Tim(z); Nim(w) -> Sim(w)");
  Instance j = I("{Sim(a), Sim(b), Tim(c), Tim(d)}");
  Result<InverseChaseResult> sequential = internal::InverseChase(sigma, j);
  ASSERT_TRUE(sequential.ok());
  InverseChaseOptions parallel_options;
  parallel_options.num_threads = 4;
  Result<InverseChaseResult> parallel =
      internal::InverseChase(sigma, j, parallel_options);
  ASSERT_TRUE(parallel.ok());
  // Same stats and the same recovery set up to null relabeling.
  EXPECT_EQ(parallel->stats.num_covers, sequential->stats.num_covers);
  EXPECT_EQ(parallel->stats.num_g_homs, sequential->stats.num_g_homs);
  ASSERT_EQ(parallel->recoveries.size(), sequential->recoveries.size());
  for (size_t i = 0; i < parallel->recoveries.size(); ++i) {
    EXPECT_TRUE(
        AreIsomorphic(parallel->recoveries[i], sequential->recoveries[i]))
        << i;
  }
}

TEST(InverseChase, StatsCountersDeterministicAcrossThreadCounts) {
  // Fixed scenario with several covers; every InverseChaseStats counter
  // must be bit-identical between the sequential and the 4-thread run
  // (timings naturally differ and are excluded). Tracing is enabled so
  // the per-cover spans are exercised under concurrency too.
  bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  DependencySet sigma =
      S("Rid(x, y) -> Sid(x), Tid(y); Mid(z) -> Tid(z); Nid(w) -> Sid(w)");
  Instance j = I("{Sid(a), Sid(b), Tid(c), Tid(d)}");

  InverseChaseOptions sequential_options;
  sequential_options.num_threads = 1;
  Result<InverseChaseResult> sequential =
      internal::InverseChase(sigma, j, sequential_options);
  ASSERT_TRUE(sequential.ok());

  InverseChaseOptions parallel_options;
  parallel_options.num_threads = 4;
  Result<InverseChaseResult> parallel =
      internal::InverseChase(sigma, j, parallel_options);
  ASSERT_TRUE(parallel.ok());
  obs::SetEnabled(was_enabled);

  const InverseChaseStats& s = sequential->stats;
  const InverseChaseStats& p = parallel->stats;
  EXPECT_EQ(p.num_homs, s.num_homs);
  EXPECT_EQ(p.num_covers, s.num_covers);
  EXPECT_EQ(p.num_covers_passing_sub, s.num_covers_passing_sub);
  EXPECT_EQ(p.num_covers_yielding_recoveries,
            s.num_covers_yielding_recoveries);
  EXPECT_EQ(p.num_g_homs, s.num_g_homs);
  EXPECT_EQ(p.num_recoveries_before_dedup, s.num_recoveries_before_dedup);
  EXPECT_EQ(p.num_candidates_rejected, s.num_candidates_rejected);
  EXPECT_EQ(p.num_candidates_unverified, s.num_candidates_unverified);
  EXPECT_EQ(parallel->recoveries.size(), sequential->recoveries.size());
}

TEST(InverseChase, ParallelCertainAnswersMatch) {
  DependencySet sigma = S("Rin(x, y) -> Sin(x), Pin(y)");
  Instance j = I("{Sin(a), Pin(b1), Pin(b2), Pin(b3)}");
  UnionQuery q = U("Q(x, y) :- Rin(x, y)");
  Result<AnswerSet> sequential = internal::CertainAnswers(q, sigma, j);
  ASSERT_TRUE(sequential.ok());
  InverseChaseOptions parallel_options;
  parallel_options.num_threads = 3;
  Result<AnswerSet> parallel =
      internal::CertainAnswers(q, sigma, j, parallel_options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*sequential, *parallel);
}

TEST(Certain, BooleanQueryCertainty) {
  DependencySet sigma = S("Ril(x, y) -> Sil(x), Pil(y)");
  Instance j = I("{Sil(a), Pil(b)}");
  Result<AnswerSet> cert =
      internal::CertainAnswers(U(":- Ril(x, y)"), sigma, j);
  ASSERT_TRUE(cert.ok());
  // Boolean certain-true is the singleton empty tuple.
  EXPECT_EQ(cert->size(), 1u);
  EXPECT_TRUE(cert->begin()->empty());
}

// --- Step 7's verification memo ----------------------------------------

// Step 7 without the memo, assembled from the public phases: every g of
// every cover yields a candidate that is verified on its own. Returns the
// verified candidates (in cover, then g order) and counts the rest.
struct ReferenceStep7 {
  size_t candidates = 0;
  size_t rejected = 0;
  std::vector<Instance> verified;
};

ReferenceStep7 RunReferenceStep7(const DependencySet& sigma,
                                 const Instance& target) {
  ReferenceStep7 out;
  std::vector<HeadHom> homs = ComputeHomSet(sigma, target);
  CoverProblem problem(sigma, target, homs);
  Result<std::vector<Cover>> covers = problem.AllCovers(CoverOptions());
  EXPECT_TRUE(covers.ok());
  if (!covers.ok()) return out;
  for (const Cover& cover : *covers) {
    std::vector<HeadHom> h_set;
    for (size_t idx : cover) h_set.push_back(homs[idx]);
    Instance source = SourceAtomsFor(sigma, h_set, &FreshNulls());
    Instance chased = Chase(sigma, source, &FreshNulls());
    HomSearchOptions options;
    options.map_nulls = true;
    for (Term t : target.TermsOfKind(TermKind::kNull)) options.fixed.Set(t, t);
    for (const Substitution& g :
         FindHomomorphisms(chased.atoms(), target, options)) {
      Instance candidate = source.Apply(g);
      out.candidates++;
      bool ok = IsMinimalSolution(sigma, candidate, target);
      if (!ok && !target.IsGround()) {
        Result<bool> justified = IsJustifiedSolution(sigma, candidate, target);
        ok = justified.ok() && *justified;
      }
      if (ok) {
        out.verified.push_back(std::move(candidate));
      } else {
        out.rejected++;
      }
    }
  }
  return out;
}

// The pipeline with the SUB filter and isomorphism dedup off, so its
// recoveries are exactly the exact-distinct verified candidates.
InverseChaseOptions UnfilteredOptions() {
  InverseChaseOptions options;
  options.use_subsumption_filter = false;
  options.dedup_isomorphic = false;
  return options;
}

// Both lists hold the same instances up to null renaming, in any order.
void ExpectSameUpToIsomorphism(const std::vector<Instance>& want,
                               const std::vector<Instance>& got) {
  std::vector<bool> matched(want.size(), false);
  for (const Instance& g : got) {
    bool found = false;
    for (size_t i = 0; i < want.size() && !found; ++i) {
      if (!matched[i] && AreIsomorphic(want[i], g)) {
        matched[i] = true;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "unexpected recovery " << g.ToString();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(matched[i]) << "missing recovery " << want[i].ToString();
  }
}

// Exact-distinct candidates of a reference run (its merge's dedup).
std::vector<Instance> ExactDistinct(const std::vector<Instance>& all) {
  std::set<std::string> seen;
  std::vector<Instance> out;
  for (const Instance& instance : all) {
    if (seen.insert(CanonicalString(instance)).second) {
      out.push_back(instance);
    }
  }
  return out;
}

// Turns stats (and events) on for a scope and restores them after.
class ScopedStatsAndEvents {
 public:
  ScopedStatsAndEvents()
      : was_enabled_(obs::Enabled()),
        were_events_enabled_(obs::EventsEnabled()),
        were_stats_enabled_(obs::stats::Enabled()) {
    obs::SetEnabled(true);
    obs::SetEventsEnabled(true);
    obs::stats::SetEnabled(true);
    obs::EventSink::Global().Configure(obs::EventSink::kDefaultCapacity);
  }
  ~ScopedStatsAndEvents() {
    obs::SetEnabled(was_enabled_);
    obs::SetEventsEnabled(were_events_enabled_);
    obs::stats::SetEnabled(were_stats_enabled_);
  }

  static std::map<std::string, size_t> EventCounts() {
    std::map<std::string, size_t> counts;
    for (const obs::Event& e : obs::EventSink::Global().Snapshot()) {
      counts[e.type]++;
    }
    return counts;
  }

 private:
  bool was_enabled_;
  bool were_events_enabled_;
  bool were_stats_enabled_;
};

// Searches one IsMinimalSolution call runs on `source`.
uint64_t SearchesPerCheck(const DependencySet& sigma, const Instance& source,
                          const Instance& target) {
  obs::stats::SearchStats search;
  obs::stats::ScopedSearch scope(&search);
  (void)IsMinimalSolution(sigma, source, target);
  return search.searches;
}

TEST(InverseChaseMemo, BlowupRecoveryCounts) {
  // Post-Lemma-1 blowup at p = 2: one cover, 2^q * q^2 back-homs.
  const size_t want[] = {1, 7, 24, 70, 190};
  for (size_t q = 1; q <= 5; ++q) {
    Result<InverseChaseResult> result = internal::InverseChase(
        BlowupScenario::Sigma(), BlowupScenario::Target(2, q));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->recoveries.size(), want[q - 1]) << "q=" << q;
  }
}

TEST(InverseChaseMemo, VerifiesEachDistinctCandidateOnce) {
  ScopedStatsAndEvents scope;
  DependencySet sigma = BlowupScenario::Sigma();
  Instance j = BlowupScenario::Target(2, 4);
  Result<InverseChaseResult> result =
      internal::InverseChase(sigma, j, UnfilteredOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  obs::stats::RunStats run;
  ASSERT_TRUE(obs::stats::LastRun(&run));
  ASSERT_EQ(run.covers.size(), 1u);

  // Every candidate still counts; duplicates reach merge and are deduped
  // there, so the distinct keys are exactly the emitted recoveries.
  const InverseChaseStats& stats = result->stats;
  EXPECT_EQ(stats.num_recoveries_before_dedup, 256u);
  EXPECT_EQ(stats.num_candidates_rejected, 0u);
  const size_t distinct = result->recoveries.size();
  EXPECT_EQ(ScopedStatsAndEvents::EventCounts()["recovery.deduped"],
            stats.num_recoveries_before_dedup - distinct);
  EXPECT_LT(distinct, stats.num_recoveries_before_dedup);
  const uint64_t per_check =
      SearchesPerCheck(sigma, result->recoveries[0], j);
  ASSERT_GT(per_check, 0u);
  EXPECT_EQ(run.covers[0].verify.searches, distinct * per_check);

  ReferenceStep7 reference = RunReferenceStep7(sigma, j);
  EXPECT_EQ(stats.num_recoveries_before_dedup, reference.candidates);
  ExpectSameUpToIsomorphism(ExactDistinct(reference.verified),
                            result->recoveries);
}

TEST(InverseChaseMemo, DuplicatesInheritRejections) {
  // g-collapses that equate u and v create Rmr(w, w) triggers whose Umr
  // head J lacks, and several g collapse onto each rejected candidate.
  ScopedStatsAndEvents scope;
  DependencySet sigma =
      S("Rmr(x, y) -> Smr(x); Rmr(u, v) -> Tmr(v); Rmr(w, w) -> Umr(w)");
  Instance j = I("{Smr(a), Smr(b), Tmr(a), Tmr(b), Tmr(c)}");
  Result<InverseChaseResult> result =
      internal::InverseChase(sigma, j, UnfilteredOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const InverseChaseStats& stats = result->stats;
  ReferenceStep7 reference = RunReferenceStep7(sigma, j);
  EXPECT_GT(reference.rejected, 0u);
  EXPECT_EQ(stats.num_recoveries_before_dedup, reference.candidates);
  EXPECT_EQ(stats.num_candidates_rejected, reference.rejected);
  EXPECT_EQ(ScopedStatsAndEvents::EventCounts()["recovery.rejected"],
            reference.rejected);
  ExpectSameUpToIsomorphism(ExactDistinct(reference.verified),
                            result->recoveries);

  // Fewer verifications than candidates: the memo had duplicates to skip.
  obs::stats::RunStats run;
  ASSERT_TRUE(obs::stats::LastRun(&run));
  uint64_t searches = 0;
  for (const obs::stats::CoverStats& cover : run.covers) {
    searches += cover.verify.searches;
  }
  const uint64_t per_check =
      SearchesPerCheck(sigma, result->recoveries[0], j);
  EXPECT_LT(searches, stats.num_recoveries_before_dedup * per_check);
}

TEST(InverseChaseMemo, TargetWithNullsVerifiesEveryCandidate) {
  // Target nulls: no memo, so every candidate runs its own check (and
  // the justification fallback where minimality fails). The expected
  // counters and recoveries were recorded from the engine before the
  // memo existed.
  struct Case {
    const char* sigma;
    const char* target;
    size_t candidates;
    size_t rejected;
    std::vector<std::string> recoveries;
  };
  const Case cases[] = {
      {"Rmn(x, y) -> Smn(x); Rmn(u, v) -> Tmn(v)",
       "{Smn(a), Smn(_X), Tmn(c), Tmn(_Y)}",
       16,
       0,
       {"{Rmn(a, c), Rmn(a, _N0), Rmn(_N1, c)}",
        "{Rmn(a, c), Rmn(a, _N0), Rmn(_N1, _N0)}",
        "{Rmn(a, c), Rmn(_N0, c), Rmn(_N0, _N1)}",
        "{Rmn(a, c), Rmn(_N0, _N1)}",
        "{Rmn(a, c), Rmn(a, _N0), Rmn(_N1, c), Rmn(_N1, _N0)}",
        "{Rmn(a, _N0), Rmn(_N1, c)}",
        "{Rmn(a, _N0), Rmn(_N1, c), Rmn(_N1, _N0)}"}},
      {"Rmq(x, y) -> Smq(x); Rmq(u, v) -> Tmq(v); Rmq(w, w) -> Umq(w)",
       "{Smq(a), Smq(_X), Tmq(a), Tmq(_X), Tmq(c)}",
       72,
       64,
       {"{Rmq(a, c), Rmq(a, _N0), Rmq(_N0, a)}",
        "{Rmq(a, c), Rmq(a, _N0), Rmq(_N0, a), Rmq(_N0, c)}",
        "{Rmq(a, _N0), Rmq(_N0, a), Rmq(_N0, c)}"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.target);
    ScopedStatsAndEvents scope;
    DependencySet sigma = S(c.sigma);
    Instance j = I(c.target);
    Result<InverseChaseResult> recorded = internal::InverseChase(sigma, j);
    ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
    EXPECT_EQ(recorded->stats.num_recoveries_before_dedup, c.candidates);
    EXPECT_EQ(recorded->stats.num_candidates_rejected, c.rejected);
    std::vector<std::string> got;
    for (const Instance& recovery : recorded->recoveries) {
      got.push_back(CanonicalString(recovery));
    }
    EXPECT_EQ(got, c.recoveries);

    Result<InverseChaseResult> result =
        internal::InverseChase(sigma, j, UnfilteredOptions());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const InverseChaseStats& stats = result->stats;
    ReferenceStep7 reference = RunReferenceStep7(sigma, j);
    EXPECT_EQ(stats.num_recoveries_before_dedup, reference.candidates);
    EXPECT_EQ(stats.num_candidates_rejected, reference.rejected);
    ExpectSameUpToIsomorphism(ExactDistinct(reference.verified),
                              result->recoveries);

    obs::stats::RunStats run;
    ASSERT_TRUE(obs::stats::LastRun(&run));
    ASSERT_EQ(run.covers.size(), 1u);
    const uint64_t per_check =
        SearchesPerCheck(sigma, result->recoveries[0], j);
    EXPECT_GE(run.covers[0].verify.searches,
              stats.num_recoveries_before_dedup * per_check);
  }
}

// Prop. 1: is J a universal (resp. canonical) solution for some source?
TEST(Prop1, UniversalForSomeSource) {
  // Under R(x) -> exists z S(x, z), a target with a null witness is
  // universal for {R(a)}; a ground witness is not universal for anything.
  DependencySet sigma = S("Rp1(x) -> exists z: Sp1(x, z)");
  Result<bool> with_null =
      internal::IsUniversalSolutionForSomeSource(sigma, I("{Sp1(a, _Z)}"));
  ASSERT_TRUE(with_null.ok());
  EXPECT_TRUE(*with_null);
  Result<bool> ground =
      internal::IsUniversalSolutionForSomeSource(sigma, I("{Sp1(a, b)}"));
  ASSERT_TRUE(ground.ok());
  EXPECT_FALSE(*ground);
  // With a full tgd the ground target is universal (and canonical).
  DependencySet full = S("Rp2(x) -> Sp2(x)");
  Result<bool> full_ground =
      internal::IsUniversalSolutionForSomeSource(full, I("{Sp2(a)}"));
  ASSERT_TRUE(full_ground.ok());
  EXPECT_TRUE(*full_ground);
}

TEST(Prop1, CanonicalForSomeSource) {
  DependencySet sigma = S("Rp3(x) -> exists z: Sp3(x, z)");
  // The canonical solution has one fresh null per trigger.
  Result<bool> canonical =
      internal::IsCanonicalSolutionForSomeSource(sigma, I("{Sp3(a, _Z1), "
                                                "Sp3(b, _Z2)}"));
  ASSERT_TRUE(canonical.ok());
  EXPECT_TRUE(*canonical);
  // Sharing the null across triggers is universal-ish but not canonical.
  Result<bool> shared =
      internal::IsCanonicalSolutionForSomeSource(sigma, I("{Sp3(a, _Z), "
                                                "Sp3(b, _Z)}"));
  ASSERT_TRUE(shared.ok());
  EXPECT_FALSE(*shared);
  // Invalid targets are neither.
  DependencySet diamond =
      S("Rp4(x) -> Tp4(x); Rp4(x2) -> Sp4(x2); Mp4(x3) -> Sp4(x3)");
  Result<bool> invalid =
      internal::IsUniversalSolutionForSomeSource(diamond, I("{Tp4(a)}"));
  ASSERT_TRUE(invalid.ok());
  EXPECT_FALSE(*invalid);
}

}  // namespace
}  // namespace dxrec
