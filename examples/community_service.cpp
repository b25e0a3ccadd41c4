// Streaming community service: the paper argues its dual-hash-table
// representation "can be generalized to a larger class of graph
// algorithms ... where the topology of the graph changes very frequently"
// (Section I-B). This example runs that design as a *service*: one
// plv::Session keeps the rank fleet and the edge list resident,
// ingests edge-update batches through Session::apply, and serves
// community queries from immutable epoch-stamped snapshots — while reader
// threads hammer snapshot()/query() concurrently with the in-flight
// applies.
//
//   ./community_service --batches 5 --batch-edges 200 --readers 2
#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/louvain.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/options.hpp"
#include "core/session.hpp"
#include "gen/planted.hpp"
#include "metrics/partition_utils.hpp"
#include "metrics/similarity.hpp"

int main(int argc, char** argv) {
  plv::Cli cli(argc, argv);
  const int batches = static_cast<int>(cli.get_int("batches", 5));
  const int batch_edges = static_cast<int>(cli.get_int("batch-edges", 200));
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const int readers = static_cast<int>(cli.get_int("readers", 2));

  // Start from a clear 8-community structure...
  auto planted = plv::gen::planted_partition(
      {.communities = 8, .community_size = 32, .p_intra = 0.4, .p_inter = 0.005, .seed = 7});
  plv::graph::EdgeList edges = planted.edges;
  const plv::vid_t n = 8 * 32;

  plv::core::ParOptions opts;
  opts.nranks = ranks;
  // Low-latency streaming: incremental frontier re-refine on every batch
  // (StreamingPlan::fast()); swap in StreamingPlan::deterministic() to
  // make every apply bit-identical to a cold run instead.
  opts.streaming = plv::core::StreamingPlan::fast();

  plv::Session session(plv::GraphSource::from_edges(edges, n), opts);
  const auto initial = session.snapshot();
  std::cout << "initial: Q=" << initial->modularity
            << " communities=" << initial->num_communities << '\n';

  // Concurrent readers: snapshot reads never block an in-flight apply.
  // Each reader spins on the latest snapshot, checking that what it sees
  // is internally consistent (epoch monotone, labels sized to the
  // snapshot's own vertex count).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = session.snapshot();
        if (snap->epoch < last_epoch || snap->labels.size() != snap->n_vertices) {
          std::cerr << "reader saw an inconsistent snapshot\n";
          std::abort();
        }
        last_epoch = snap->epoch;
        (void)session.query(static_cast<plv::vid_t>(snap->epoch % snap->n_vertices));
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // ...then stream update batches: random cross-community inserts that
  // melt the structure, plus a few removals of earlier insertions —
  // exercising both halves of the retraction/assertion protocol.
  plv::Xoshiro256 rng(99);
  plv::TextTable table({"epoch", "edges", "ins", "del", "Q", "communities",
                        "apply-ms", "incremental", "NMI-vs-initial"});
  plv::graph::EdgeList injected;  // inserts we may later remove
  for (int b = 1; b <= batches; ++b) {
    plv::EdgeDelta delta;
    for (int i = 0; i < batch_edges; ++i) {
      const auto u = static_cast<plv::vid_t>(rng.next_below(n));
      auto v = static_cast<plv::vid_t>(rng.next_below(n));
      while (v == u) v = static_cast<plv::vid_t>(rng.next_below(n));
      delta.inserts.add(u, v, 1.0);
    }
    // Retract ~10% of the previously injected noise (batch 2 onward).
    const std::size_t removals = injected.size() / 10;
    for (std::size_t i = 0; i < removals; ++i) {
      const plv::Edge& e = injected.edges().back();
      delta.removals.add(e.u, e.v, e.w);
      injected.edges().pop_back();
    }
    for (const plv::Edge& e : delta.inserts) injected.add(e.u, e.v, e.w);

    plv::WallTimer t;
    const auto snap = session.apply(delta);
    const double apply_ms = t.seconds() * 1e3;
    table.row()
        .add(snap->epoch)
        .add(injected.size() + edges.size())
        .add(delta.inserts.size())
        .add(delta.removals.size())
        .add(snap->modularity)
        .add(snap->num_communities)
        .add(apply_ms)
        .add(snap->incremental ? "yes" : "no")
        .add(plv::metrics::nmi(snap->labels, initial->labels));
  }
  stop.store(true);
  for (auto& th : pool) th.join();
  table.print();

  std::cout << "\nreaders completed " << reads.load() << " lock-free snapshot reads\n"
            << "\nEach batch patches the resident edge list and re-refines\n"
               "only the disturbed region around the changed edges, so an apply\n"
               "costs a fraction of a cold run (bench/micro_streaming quantifies\n"
               "the gap). Readers keep serving the previous epoch's snapshot\n"
               "throughout — queries never wait on detection.\n";
  session.close();
  return 0;
}
