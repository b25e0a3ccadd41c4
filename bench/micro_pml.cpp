// Micro-benchmarks of the messaging layer (google-benchmark).
//
// The paper attributes its scalability to a runtime "specifically
// designed for fine-grained applications" (abstract). These measure the
// constants of our substitute: collective latency, alltoallv exchange
// bandwidth, quiescence-protocol overhead, and the fine-grained
// aggregation path's records/second at different coalescing capacities —
// the knob the Aggregator exists for.
//
// The fine-grained benchmarks run several phases inside one Runtime so
// the chunk pool reaches steady state (zero allocation, zero copy beyond
// record coalescing), exactly as the Louvain phases use it; runtime
// spin-up is amortized across the phase batch.
#include <benchmark/benchmark.h>

#include "bench_context.hpp"
#include "pml/aggregator.hpp"
#include "pml/comm.hpp"

namespace {

using plv::pml::Aggregator;
using plv::pml::Comm;
using plv::pml::Runtime;

void BM_Barrier(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Runtime::run(nranks, [&](Comm& comm) {
      for (int i = 0; i < 100; ++i) comm.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(4)->Arg(8);

void BM_AllreduceSum(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Runtime::run(nranks, [&](Comm& comm) {
      std::uint64_t acc = 0;
      for (int i = 0; i < 100; ++i) {
        acc += comm.allreduce_sum<std::uint64_t>(static_cast<std::uint64_t>(comm.rank()));
      }
      benchmark::DoNotOptimize(acc);
    });
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_AllreduceSum)->Arg(2)->Arg(4)->Arg(8);

void BM_ExchangeBandwidth(benchmark::State& state) {
  const int nranks = 4;
  const auto records = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Runtime::run(nranks, [&](Comm& comm) {
      std::vector<std::vector<std::uint64_t>> out(nranks);
      for (int d = 0; d < nranks; ++d) out[d].assign(records, 42);
      const auto in = comm.exchange(out);
      benchmark::DoNotOptimize(in.size());
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records) * nranks * nranks);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(records * sizeof(std::uint64_t)) *
                          nranks * nranks);
}
BENCHMARK(BM_ExchangeBandwidth)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

/// Cost of an empty fine-grained phase: nothing but the counted-termination
/// markers. The seed protocol paid one allreduce to settle the sent count
/// plus at least one more per poll round; the current one pays zero
/// collective rounds.
void BM_QuiescenceLatency(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  constexpr int kPhases = 100;
  for (auto _ : state) {
    Runtime::run(nranks, [&](Comm& comm) {
      for (int p = 0; p < kPhases; ++p) {
        for (int d = 0; d < nranks; ++d) comm.send_marker(d);
        comm.drain_streaming_finalized<int>([](int, std::span<const int>) {});
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kPhases);
}
BENCHMARK(BM_QuiescenceLatency)->Arg(2)->Arg(4)->Arg(8);

void BM_AggregatorThroughput(benchmark::State& state) {
  // The Fig.-style coalescing sweep: tiny chunks vs paper-sized chunks.
  // 4-rank all-to-all record exchange through the aggregators; phases
  // repeat inside one runtime so pooled chunks circulate.
  const auto capacity = static_cast<std::size_t>(state.range(0));
  constexpr int nranks = 4;
  constexpr int kPhases = 16;
  constexpr std::size_t kRecords = 50000;
  struct Rec {
    std::uint32_t a, b;
    double w;
  };
  for (auto _ : state) {
    Runtime::run(nranks, [&](Comm& comm) {
      for (int p = 0; p < kPhases; ++p) {
        Aggregator<Rec> agg(comm, capacity);
        for (std::size_t i = 0; i < kRecords; ++i) {
          agg.push(static_cast<int>(i % nranks), Rec{1, 2, 3.0});
        }
        agg.flush_all_final();
        std::size_t got = 0;
        comm.drain_streaming_finalized<Rec>(
            [&](int, std::span<const Rec> recs) { got += recs.size(); });
        benchmark::DoNotOptimize(got);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kPhases *
                          static_cast<std::int64_t>(kRecords) * nranks);
}
BENCHMARK(BM_AggregatorThroughput)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

}  // namespace

// Custom main instead of benchmark_main: stamp transport + validation +
// sanitizer into the benchmark context, and refuse machine-readable output
// when the protocol checker or a sanitizer would taint the numbers
// (bench_context.hpp).
int main(int argc, char** argv) {
  const bool machine_output = plv::bench::wants_machine_output(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!plv::bench::stamp_context_and_gate(machine_output)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
