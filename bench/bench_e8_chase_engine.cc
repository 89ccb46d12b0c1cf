// E8 -- chase substrate microbenchmarks (google-benchmark).
//
// Forward-chase and homomorphism-search throughput on random workloads.
// The hom search runs on the columnar postings index; its access-path
// counters are teed alongside the timings. Results are teed into
// BENCH_E8.json so the perf trajectory is machine-comparable; this binary
// also guards the "observability disabled costs < 2%" budget.
#include "bench/bench_common.h"

#include "base/fresh.h"
#include "chase/chase.h"
#include "chase/evaluation.h"
#include "chase/homomorphism.h"
#include "core/inverse_chase.h"
#include "datagen/generators.h"
#include "datagen/scenarios.h"
#include "logic/parser.h"
#include "obs/profiler.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace dxrec {
namespace {

DependencySet BenchSigma() {
  Result<DependencySet> sigma = ParseTgdSet(
      "E8R(x, y), E8R(y, z) -> E8T(x, z);"
      "E8R(u, v) -> exists w: E8S(u, w);"
      "E8P(p, q) -> E8T(p, q)");
  return std::move(*sigma);
}

Instance BenchSource(size_t n) {
  Rng rng(1234);
  Instance out;
  size_t constants = n / 4 + 4;
  for (size_t i = 0; i < n; ++i) {
    const char* rel = (i % 3 == 2) ? "E8P" : "E8R";
    out.Add(Atom::Make(
        rel,
        {Term::Constant("e8c" + std::to_string(rng.Index(constants))),
         Term::Constant("e8c" + std::to_string(rng.Index(constants)))}));
  }
  return out;
}

void BM_FindTriggers(benchmark::State& state) {
  DependencySet sigma = BenchSigma();
  Instance source = BenchSource(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<Trigger> triggers = FindTriggers(sigma, source);
    benchmark::DoNotOptimize(triggers.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FindTriggers)->Arg(100)->Arg(1000)->Arg(5000);

void BM_ForwardChase(benchmark::State& state) {
  DependencySet sigma = BenchSigma();
  Instance source = BenchSource(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Instance result = Chase(sigma, source, &FreshNulls());
    benchmark::DoNotOptimize(result.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForwardChase)->Arg(100)->Arg(1000)->Arg(5000);

// The two-atom join over the columnar snapshot (docs/STORAGE.md):
// postings-list probes for every bound position.
void HomSearchBody(benchmark::State& state) {
  Instance source = BenchSource(static_cast<size_t>(state.range(0)));
  source.WarmColumnar();
  Result<Tgd> pattern_holder =
      ParseTgd("E8R(hx, hy), E8R(hy, hz) -> E8T(hx, hz)");
  HomSearchOptions options;
  for (auto _ : state) {
    size_t count = 0;
    ForEachHomomorphism(pattern_holder->body(), source, options,
                        [&count](const Substitution&) {
                          ++count;
                          return true;
                        });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));

  // One instrumented probe outside the timed loop: access-path counters
  // for the same search, teed into BENCH_E8.json so candidate fan-out
  // and selectivity trends are machine-comparable across snapshots.
  {
    const bool was_enabled = obs::stats::Enabled();
    obs::stats::SetEnabled(true);
    obs::stats::SearchStats probe;
    {
      obs::stats::ScopedSearch scope(&probe);
      size_t count = 0;
      ForEachHomomorphism(pattern_holder->body(), source, options,
                          [&count](const Substitution&) {
                            ++count;
                            return true;
                          });
      benchmark::DoNotOptimize(count);
    }
    obs::stats::SetEnabled(was_enabled);
    obs::stats::RelationAccess totals = probe.Totals();
    state.counters["candidates"] =
        static_cast<double>(probe.candidates_tried);
    state.counters["backtracks"] = static_cast<double>(probe.backtracks);
    state.counters["results"] = static_cast<double>(probe.results);
    state.counters["tuples_scanned"] =
        static_cast<double>(totals.tuples_scanned);
    state.counters["tuples_matched"] =
        static_cast<double>(totals.tuples_matched);
    state.counters["selectivity"] = totals.Selectivity();
    state.counters["lists"] = static_cast<double>(totals.lists);
    state.counters["indexed_lists"] =
        static_cast<double>(totals.indexed_lists);
  }
}

void BM_HomSearchIndexed(benchmark::State& state) { HomSearchBody(state); }
BENCHMARK(BM_HomSearchIndexed)
    ->ArgNames({"q"})
    ->Arg(100)
    ->Arg(1000)
    ->Arg(4000);

// Semi-naive vs full re-match on a recursive reachability closure
// (docs/STORAGE.md, "Semi-naive delta contract"): a chain of n edges
// closes in n rounds, and the naive driver re-runs FindTriggers over the
// whole (quadratically growing) instance every round — re-finding and
// re-firing every old trigger — while ChaseSemiNaive matches each round
// only against the previous round's delta.
DependencySet ReachSigma() {
  Result<DependencySet> sigma = ParseTgdSet(
      "E8Edge(x, y) -> E8Reach(x, y);"
      "E8Reach(x, y), E8Edge(y, z) -> E8Reach(x, z)");
  return std::move(*sigma);
}

Instance ChainSource(size_t n) {
  Instance out;
  for (size_t i = 0; i < n; ++i) {
    out.Add(Atom::Make("E8Edge",
                       {Term::Constant("e8n" + std::to_string(i)),
                        Term::Constant("e8n" + std::to_string(i + 1))}));
  }
  return out;
}

void BM_ChaseSemiNaive(benchmark::State& state) {
  DependencySet sigma = ReachSigma();
  Instance source = ChainSource(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Instance generated = ChaseSemiNaive(sigma, source, &FreshNulls());
    benchmark::DoNotOptimize(generated.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaseSemiNaive)->ArgNames({"n"})->Arg(16)->Arg(48);

void BM_ChaseFullRematch(benchmark::State& state) {
  DependencySet sigma = ReachSigma();
  Instance source = ChainSource(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    // Naive fixpoint: every round re-matches all of `full` from scratch.
    Instance full = source;
    Instance generated;
    while (true) {
      std::vector<Trigger> triggers = FindTriggers(sigma, full);
      const size_t before = full.size();
      Instance round = ChaseTriggers(sigma, full, triggers, &FreshNulls());
      for (const Atom& a : round.atoms()) {
        if (full.Add(a)) generated.Add(a);
      }
      if (full.size() == before) break;
    }
    benchmark::DoNotOptimize(generated.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaseFullRematch)->ArgNames({"n"})->Arg(16)->Arg(48);

// The parallel inverse chase end-to-end on the E2 blowup shape: one
// cover, so every bit of speedup comes from the chunked g-homomorphism
// search plus the verification fan-out (docs/PARALLELISM.md). Interleave
// the threads:1 / threads:N rows in one binary run so A/B share cache
// state and CPU frequency; the speedup is real_time(1) / real_time(N).
void BM_InverseChase(benchmark::State& state) {
  DependencySet sigma = BlowupScenario::Sigma();
  Instance j =
      BlowupScenario::Target(2, static_cast<size_t>(state.range(0)));
  InverseChaseOptions options;
  options.max_g_homs_per_cover = 1u << 20;
  options.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    Result<InverseChaseResult> result = internal::InverseChase(sigma, j, options);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_InverseChase)
    ->ArgNames({"q", "threads"})
    ->Args({6, 1})
    ->Args({6, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Observability overhead A/B: the same forward chase with obs off
// (baseline), obs on (spans + metrics), and obs + the sampling profiler
// (frame stacks + the 200 Hz sampler thread). Run the three variants in
// one binary invocation (ideally with --benchmark_enable_random_
// interleaving) so they share machine state; scripts/check.sh's
// DXREC_CHECK_OBS_OVERHEAD gate compares their medians. Modes: 0 = obs
// off, 1 = obs on, 2 = obs + profiler.
void ForwardChaseObsBody(benchmark::State& state, int mode) {
  DependencySet sigma = BenchSigma();
  Instance source = BenchSource(static_cast<size_t>(state.range(0)));
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(mode >= 1);
  if (mode == 2) obs::Profiler::Global().Start();
  for (auto _ : state) {
    obs::Span span("bench_e8_chase");
    Instance result = Chase(sigma, source, &FreshNulls());
    benchmark::DoNotOptimize(result.size());
    // Keep the span buffer bounded: a benchmark loop would otherwise
    // accumulate one trace event per iteration forever.
    state.PauseTiming();
    obs::Tracer::Global().Clear();
    state.ResumeTiming();
  }
  if (mode == 2) {
    obs::Profiler::Global().Stop();
    obs::Profiler::Global().Clear();
  }
  obs::SetEnabled(was_enabled);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ForwardChaseObsOff(benchmark::State& state) {
  ForwardChaseObsBody(state, 0);
}
BENCHMARK(BM_ForwardChaseObsOff)->Arg(1000);

void BM_ForwardChaseObsOn(benchmark::State& state) {
  ForwardChaseObsBody(state, 1);
}
BENCHMARK(BM_ForwardChaseObsOn)->Arg(1000);

void BM_ForwardChaseObsProfiled(benchmark::State& state) {
  ForwardChaseObsBody(state, 2);
}
BENCHMARK(BM_ForwardChaseObsProfiled)->Arg(1000);

// Stats-gate overhead A/B: the indexed hom search with access-path
// statistics off vs on, in one binary run (interleave for shared machine
// state). scripts/check.sh's DXREC_CHECK_STATS_OVERHEAD gate compares
// the medians against the 3% budget for the stats-off relaxed load.
void HomSearchStatsBody(benchmark::State& state, bool stats_on) {
  Instance source = BenchSource(static_cast<size_t>(state.range(0)));
  Result<Tgd> pattern_holder =
      ParseTgd("E8R(hx, hy), E8R(hy, hz) -> E8T(hx, hz)");
  HomSearchOptions options;
  const bool was_enabled = obs::stats::Enabled();
  obs::stats::SetEnabled(stats_on);
  for (auto _ : state) {
    size_t count = 0;
    ForEachHomomorphism(pattern_holder->body(), source, options,
                        [&count](const Substitution&) {
                          ++count;
                          return true;
                        });
    benchmark::DoNotOptimize(count);
  }
  obs::stats::SetEnabled(was_enabled);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_HomSearchStatsOff(benchmark::State& state) {
  HomSearchStatsBody(state, /*stats_on=*/false);
}
BENCHMARK(BM_HomSearchStatsOff)->Arg(1000);

void BM_HomSearchStatsOn(benchmark::State& state) {
  HomSearchStatsBody(state, /*stats_on=*/true);
}
BENCHMARK(BM_HomSearchStatsOn)->Arg(1000);

void BM_Satisfies(benchmark::State& state) {
  DependencySet sigma = BenchSigma();
  Instance source = BenchSource(static_cast<size_t>(state.range(0)));
  Instance target = Chase(sigma, source, &FreshNulls());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Satisfies(sigma, source, target));
  }
}
BENCHMARK(BM_Satisfies)->Arg(100)->Arg(1000);

void BM_QueryEvaluation(benchmark::State& state) {
  DependencySet sigma = BenchSigma();
  Instance source = BenchSource(static_cast<size_t>(state.range(0)));
  Instance target = Chase(sigma, source, &FreshNulls());
  Result<UnionQuery> q =
      ParseUnionQuery("Q(x) :- E8T(x, y) | Q(x) :- E8S(x, w)");
  for (auto _ : state) {
    AnswerSet answers = EvaluateNullFree(*q, target);
    benchmark::DoNotOptimize(answers.size());
  }
}
BENCHMARK(BM_QueryEvaluation)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace dxrec

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dxrec::JsonReporter json("E8");
  dxrec::JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  std::string path = json.Write();
  if (!path.empty()) std::printf("json report: %s\n", path.c_str());
  benchmark::Shutdown();
  return 0;
}
