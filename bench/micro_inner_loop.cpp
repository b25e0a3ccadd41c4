// Micro-benchmark of the REFINE inner loop under the convergence
// heuristics (google-benchmark): BM_FrontierAB runs the heuristics bundle
// against the stock defaults, so the CI bench-smoke job publishes both
// from one run.
//
// Counters (per run): refine_s and find_s from the engine's phase timers
// (max over ranks, the critical path), iterations, and scanned vertices
// per FIND.
#include <benchmark/benchmark.h>

#include "bench_context.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"

namespace {

// Fig. 7-scale workload for the frontier A/B: the scan-reduction
// heuristics pay off in proportion to the per-rank partition size, so
// the A/B runs on a graph large enough that FIND dominates the refine
// loop (at 8 ranks a 4000-vertex graph is 500 vertices per rank —
// collective-bound, hostile terrain for any scan optimization).
const plv::graph::EdgeList& frontier_workload() {
  static const auto g = plv::gen::lfr({.n = 20000, .mu = 0.3, .seed = 71});
  return g.edges;
}

// Frontier A/B: the refine heuristics bundle (active-vertex scheduling +
// vertex-following + threshold scaling,
// RefinePlan::heuristics()) against the stock full-scan defaults. Both
// variants run interleaved in one benchmark session (same process, same
// thermal/cache state — ROADMAP's noisy-CI note). The heuristics change
// the label trajectory by design, so the headline comparison is work, not
// bit-equality: refine/find wall-clock, iterations to convergence, and
// scanned vertices per FIND — overall and after iteration 2 of each
// level, where active scheduling has had a delta round to shrink the
// frontier (the first two iterations scan everything by construction:
// iteration 1 runs before any moves exist, iteration 2 follows the
// level's initial full propagation, which reactivates all).
void BM_FrontierAB(benchmark::State& state) {
  plv::core::ParOptions opts;
  opts.nranks = static_cast<int>(state.range(1));
  if (state.range(0) != 0) opts.refine = plv::core::RefinePlan::heuristics();

  double refine_s = 0.0;
  double find_s = 0.0;
  std::uint64_t iterations = 0;
  std::uint64_t scanned = 0;
  std::uint64_t late_iterations = 0;
  std::uint64_t late_scanned = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    const auto r =
        plv::louvain(plv::GraphSource::from_edges(frontier_workload(), 20000), opts);
    benchmark::DoNotOptimize(r.final_modularity);
    refine_s += r.timers.get(plv::phase::kRefine);
    find_s += r.timers.get(plv::phase::kFindBestCommunity);
    for (std::size_t l = 0; l < r.levels.size(); ++l) {
      const auto& level = r.levels[l];
      iterations += level.trace.scanned_vertices.size();
      for (std::size_t i = 0; i < level.trace.scanned_vertices.size(); ++i) {
        scanned += level.trace.scanned_vertices[i];
        // The after-iteration-2 cut is measured at level 0 only: that is
        // where the frontier operates (coarse levels below 1024
        // vertices refine unrestricted, and folding their
        // tiny full scans into the average would mask the level-0 cut).
        // Iterations 1-2 scan everything by construction — iteration 1
        // runs before any moves exist and iteration 2 follows the
        // level's initial full propagation.
        if (l == 0 && i >= 2) {
          ++late_iterations;
          late_scanned += level.trace.scanned_vertices[i];
        }
      }
    }
    ++runs;
  }
  const double inv_runs = runs > 0 ? 1.0 / static_cast<double>(runs) : 0.0;
  state.counters["refine_s"] = refine_s * inv_runs;
  state.counters["find_s"] = find_s * inv_runs;
  state.counters["iterations"] = static_cast<double>(iterations) * inv_runs;
  state.counters["scanned_per_iter"] =
      iterations > 0 ? static_cast<double>(scanned) / static_cast<double>(iterations)
                     : 0.0;
  state.counters["l0_scanned_per_iter_after2"] =
      late_iterations > 0
          ? static_cast<double>(late_scanned) / static_cast<double>(late_iterations)
          : 0.0;
}

}  // namespace

// Args = {heuristics (0 = defaults, 1 = RefinePlan::heuristics()), nranks}.
BENCHMARK(BM_FrontierAB)
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Unit(benchmark::kMillisecond);

// Custom main instead of benchmark_main: stamp the pml transport into the
// benchmark context so published JSON records which backend carried the run.
int main(int argc, char** argv) {
  const bool machine_output = plv::bench::wants_machine_output(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!plv::bench::stamp_context_and_gate(machine_output)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
