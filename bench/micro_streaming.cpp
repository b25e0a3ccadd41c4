// Micro-benchmark of streaming update latency: Session::apply — resident
// fleet, patched edge-list replica, dirty-region re-refine
// (StreamingPlan::fast()) — against a cold plv::louvain rebuild of the
// same updated graph, as a function of batch size (google-benchmark).
//
// Both variants replay the *same* deterministic update sequence: each
// batch removes the previous batch's insertions and injects a fresh set
// of random edges, so the graph stays in a steady state and every timed
// iteration does comparable work. Batch construction (and the cold
// variant's mirror-list maintenance) happens outside the timed region;
// what is measured is exactly "new batch in → new epoch out". The session
// and cold variants of each batch size run interleaved inside one binary
// — same process, same thermal/cache state — per ROADMAP's noisy-CI
// discipline. The acceptance bar: for batches ≤1% of the edges, the
// session apply must undercut the cold rebuild by ≥5×.
//
// Counters (per run): batch_edges (absolute batch size) and q_final (the
// last epoch's modularity — a sanity anchor that the incremental path is
// still finding real structure, not just returning fast).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_context.hpp"
#include "common/louvain.hpp"
#include "common/random.hpp"
#include "core/options.hpp"
#include "core/session.hpp"
#include "gen/lfr.hpp"

namespace {

constexpr plv::vid_t kN = 4000;

const plv::graph::EdgeList& workload() {
  static const auto g = plv::gen::lfr({.n = kN, .mu = 0.3, .seed = 71});
  return g.edges;
}

/// The next update batch of the steady-state churn: retract what the
/// previous batch injected, inject `k` fresh random edges.
plv::EdgeDelta next_batch(plv::Xoshiro256& rng, std::vector<plv::Edge>& pending,
                          std::size_t k) {
  plv::EdgeDelta delta;
  for (const plv::Edge& e : pending) delta.removals.add(e.u, e.v, e.w);
  pending.clear();
  pending.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto u = static_cast<plv::vid_t>(rng.next_below(kN));
    auto v = static_cast<plv::vid_t>(rng.next_below(kN));
    while (v == u) v = static_cast<plv::vid_t>(rng.next_below(kN));
    delta.inserts.add(u, v, 1.0);
    pending.push_back(plv::Edge{u, v, 1.0});
  }
  return delta;
}

/// Arg = batch size in per-mille of the edge count (1 = 0.1%, 10 = 1%).
std::size_t batch_edges(std::int64_t permille) {
  return workload().size() * static_cast<std::size_t>(permille) / 1000;
}

void BM_SessionApply(benchmark::State& state) {
  const std::size_t k = batch_edges(state.range(0));
  plv::core::ParOptions opts;
  opts.nranks = 4;
  opts.streaming = plv::core::StreamingPlan::fast();
  plv::Session session(plv::GraphSource::from_edges(workload(), kN), opts);
  plv::Xoshiro256 rng(2024);
  std::vector<plv::Edge> pending;
  double q = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    const plv::EdgeDelta delta = next_batch(rng, pending, k);
    state.ResumeTiming();
    const auto snap = session.apply(delta);
    benchmark::DoNotOptimize(snap->epoch);
    q = snap->modularity;
  }
  state.counters["batch_edges"] = static_cast<double>(k);
  state.counters["q_final"] = q;
}

void BM_ColdRebuild(benchmark::State& state) {
  const std::size_t k = batch_edges(state.range(0));
  plv::core::ParOptions opts;
  opts.nranks = 4;
  plv::graph::EdgeList mirror = workload();
  plv::Xoshiro256 rng(2024);
  std::vector<plv::Edge> pending;
  double q = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    const plv::EdgeDelta delta = next_batch(rng, pending, k);
    plv::apply_edge_delta(mirror, delta);
    state.ResumeTiming();
    const auto r = plv::louvain(plv::GraphSource::from_edges(mirror, kN), opts);
    benchmark::DoNotOptimize(r.final_modularity);
    q = r.final_modularity;
  }
  state.counters["batch_edges"] = static_cast<double>(k);
  state.counters["q_final"] = q;
}

}  // namespace

// Interleaved A/B per batch size: session apply, then the cold baseline
// on the same churn sequence. Arg = batch size in per-mille of the edge
// count.
BENCHMARK(BM_SessionApply)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdRebuild)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SessionApply)->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdRebuild)->Arg(10)->Unit(benchmark::kMillisecond);

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
