// Social-network scalability demo: generate a BTER graph (the paper's
// community-structured scalability workload), run the parallel engine
// over a sweep of rank counts, and report TEPS and message volume.
//
//   ./social_scalability --n 20000 --gcc 0.55 --max-ranks 8
//
// TEPS follows the paper's definition (Section V-E): input edges divided
// by the time to finish the *first* level, which does most of the work.
#include <exception>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/louvain_par.hpp"
#include "gen/bter.hpp"
#include "metrics/clustering.hpp"
#include "graph/csr.hpp"

int main(int argc, char** argv) try {
  plv::Cli cli(argc, argv);
  plv::gen::BterParams p;
  p.n = cli.get_int<plv::vid_t>("n", 20000);
  p.gcc_target = cli.get_double("gcc", 0.55);
  p.seed = cli.get_int<std::uint64_t>("seed", 1);
  const int max_ranks = cli.get_int<int>("max-ranks", 8);

  const auto g = plv::gen::bter(p);
  const auto csr = plv::graph::Csr::from_edges(g.edges, p.n);
  std::cout << "BTER: n=" << p.n << " edges=" << g.edges.size() << " blocks="
            << g.num_blocks << " measured GCC="
            << plv::metrics::global_clustering_coefficient(csr) << '\n';

  plv::TextTable table({"ranks", "levels", "modularity", "first-level-s", "TEPS",
                        "records-sent", "MB-sent"});
  for (int ranks = 1; ranks <= max_ranks; ranks *= 2) {
    plv::core::ParOptions opts;
    opts.nranks = ranks;
    const auto result = plv::louvain(plv::GraphSource::from_edges(g.edges, p.n), opts);
    const double first_level_s =
        result.levels.empty() ? 0.0 : result.levels.front().seconds;
    const double teps = first_level_s > 0
                            ? static_cast<double>(g.edges.size()) / first_level_s
                            : 0.0;
    table.row()
        .add(ranks)
        .add(result.num_levels())
        .add(result.final_modularity)
        .add(first_level_s)
        .add(teps, 0)
        .add(result.traffic.records_sent)
        .add(static_cast<double>(result.traffic.bytes_sent) / 1e6, 1);
  }
  table.print();
  std::cout << "\nNote: this container is single-core; rank sweeps show the\n"
               "algorithm's communication behavior, not wall-clock speedup.\n";
  return 0;
} catch (const std::exception& e) {
  // A malformed option (plv::Cli throws std::invalid_argument naming it)
  // ends with a message and exit 1, not an abort.
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
