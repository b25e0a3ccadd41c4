// Ablation — hash function and table load factor inside the full
// algorithm (DESIGN.md item 4).
//
// The paper studies hashing in isolation (Fig. 6); this ablation closes
// the loop by measuring its effect on the end-to-end run: wall time,
// modularity and message volume.
#include <iostream>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/louvain_par.hpp"
#include "gen/rmat.hpp"
#include "util.hpp"

int main() {
  plv::bench::banner("Ablation: hash function x load factor",
                     "R-MAT scale 13 (skewed degrees stress the In_Table).");

  plv::gen::RmatParams rp;
  rp.scale = 13;
  rp.edge_factor = 8;
  rp.seed = 77;
  const auto edges = plv::gen::rmat(rp);
  const plv::vid_t n = 1u << rp.scale;

  plv::TextTable table({"hash", "load", "seconds", "Q", "records-sent"});
  using HK = plv::hashing::HashKind;

  for (HK hash : {HK::kFibonacci, HK::kLinearCongruential, HK::kBitwise}) {
    for (double load : {0.25, 0.125}) {
      plv::core::ParOptions opts;
      opts.nranks = 4;
      opts.hash = hash;
      opts.table_max_load = load;
      plv::WallTimer t;
      const auto r = plv::louvain(plv::GraphSource::from_edges(edges, n), opts);
      table.row()
          .add(plv::hashing::hash_kind_name(hash))
          .add(load, 3)
          .add(t.seconds())
          .add(r.final_modularity)
          .add(r.traffic.records_sent);
    }
  }
  table.print();
  std::cout << "\nreading: results (Q, records) must be identical across hash and\n"
               "load settings — they only change table layout — while time varies.\n";
  return 0;
}
