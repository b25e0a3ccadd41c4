// Ablation — the convergence heuristic's parameters (DESIGN.md item 3).
//
// Sweeps the threshold model and its (p1, p2) parameters on a fixed LFR
// graph and reports final modularity, inner iterations spent, and total
// vertex moves. Answers: how sensitive is the heuristic to its fitted
// constants, and what does it save against the naive variant?
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "common/table.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "util.hpp"

namespace {

struct RunStats {
  double q;
  std::size_t levels;
  std::size_t inner_iters;
  double total_moved;
};

RunStats run(const plv::graph::EdgeList& edges, plv::vid_t n,
             plv::core::ThresholdModel model, double p1, double p2) {
  plv::core::ParOptions opts;
  opts.nranks = 4;
  opts.refine.threshold = model;
  opts.refine.p1 = p1;
  opts.refine.p2 = p2;
  const auto r = plv::louvain(plv::GraphSource::from_edges(edges, n), opts);
  RunStats s{r.final_modularity, r.num_levels(), 0, 0.0};
  for (const auto& level : r.levels) {
    s.inner_iters += level.trace.moved_fraction.size();
    s.total_moved += std::accumulate(level.trace.moved_fraction.begin(),
                                     level.trace.moved_fraction.end(), 0.0);
  }
  return s;
}

}  // namespace

int main() {
  plv::bench::banner("Ablation: threshold model and (p1, p2) sensitivity",
                     "LFR n=8000 mu=0.4; kNone = naive parallel baseline.");

  plv::gen::LfrParams p;
  p.n = 8000;
  p.mu = 0.4;
  p.seed = 55;
  const auto g = plv::gen::lfr(p);

  plv::TextTable table({"model", "p1", "p2", "final Q", "levels", "inner-iters",
                        "sum moved-fraction"});
  using TM = plv::core::ThresholdModel;

  // The grid's centre, [1][1], is the library default (p1, p2).
  const std::vector<double> p1s = {0.01, 0.03, 0.1};
  const std::vector<double> p2s = {0.2, 0.3, 0.5};
  static_assert(plv::core::RefinePlan{}.p1 == 0.03 && plv::core::RefinePlan{}.p2 == 0.3);
  std::vector<std::vector<RunStats>> grid;  // grid[i][j]: (p1s[i], p2s[j])
  for (double p1 : p1s) {
    grid.emplace_back();
    for (double p2 : p2s) {
      const auto s = run(g.edges, p.n, TM::kPaperEq7, p1, p2);
      grid.back().push_back(s);
      table.row().add("eq7 (default model)").add(p1, 2).add(p2, 2).add(s.q).add(
          s.levels).add(s.inner_iters).add(s.total_moved);
    }
  }
  const auto naive = run(g.edges, p.n, TM::kNone, 0, 0);
  table.row().add("none (naive)").add("-").add("-").add(naive.q).add(naive.levels).add(
      naive.inner_iters).add(naive.total_moved);
  table.print();

  // The reading is taken from the rows, so it cannot claim more
  // robustness than the grid shows.
  const auto q_less = [](const RunStats& a, const RunStats& b) { return a.q < b.q; };
  const auto iters_less = [](const RunStats& a, const RunStats& b) {
    return a.inner_iters < b.inner_iters;
  };
  const RunStats& at_defaults = grid[1][1];
  double q_lo = at_defaults.q;
  double q_hi = q_lo;
  std::printf("\nreading:\n  defaults (p1 %.2f, p2 %.2f): Q %.4f after %zu inner iterations\n",
              p1s[1], p2s[1], at_defaults.q, at_defaults.inner_iters);
  for (std::size_t i = 0; i < p1s.size(); ++i) {
    const auto& row = grid[i];
    const auto [q_min, q_max] = std::minmax_element(row.begin(), row.end(), q_less);
    const auto [it_min, it_max] = std::minmax_element(row.begin(), row.end(), iters_less);
    std::printf("  p1 %.2f: Q %.4f-%.4f (%+.4f to %+.4f vs defaults), %zu-%zu inner iterations\n",
                p1s[i], q_min->q, q_max->q, q_min->q - at_defaults.q, q_max->q - at_defaults.q,
                it_min->inner_iters, it_max->inner_iters);
    q_lo = std::min(q_lo, q_min->q);
    q_hi = std::max(q_hi, q_max->q);
  }
  std::printf("  grid Q range: %.4f-%.4f\n", q_lo, q_hi);
  std::printf("  naive: Q %.4f (%+.4f vs defaults), %zu inner iterations, "
              "sum moved-fraction %.2f against %.2f\n",
              naive.q, naive.q - at_defaults.q, naive.inner_iters, naive.total_moved,
              at_defaults.total_moved);
  return 0;
}
