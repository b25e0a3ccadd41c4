#include "seq/louvain_seq.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_map>

#include "common/random.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition_utils.hpp"

namespace plv::seq {

namespace {

/// Running Σin/Σtot bookkeeping for the level being refined.
struct LevelState {
  std::vector<vid_t> labels;        // community of each vertex
  std::vector<weight_t> sigma_in;   // ordered-pair internal weight per community
  std::vector<weight_t> sigma_tot;  // summed strength per community

  explicit LevelState(const graph::Csr& g) {
    const vid_t n = g.num_vertices();
    labels.resize(n);
    std::iota(labels.begin(), labels.end(), vid_t{0});
    sigma_in.assign(n, 0.0);
    sigma_tot.assign(n, 0.0);
    for (vid_t v = 0; v < n; ++v) {
      sigma_in[v] = g.self_loop(v);
      sigma_tot[v] = g.strength(v);
    }
  }

  [[nodiscard]] double modularity(weight_t two_m, double resolution) const {
    double q = 0.0;
    for (std::size_t c = 0; c < sigma_tot.size(); ++c) {
      const double tot = sigma_tot[c] / two_m;
      q += sigma_in[c] / two_m - resolution * tot * tot;
    }
    return q;
  }
};

}  // namespace

LouvainLevel refine_level(const graph::Csr& g, const SeqOptions& opts) {
  const vid_t n = g.num_vertices();
  const weight_t two_m = g.two_m();
  LevelState state(g);

  LouvainLevel level;
  level.num_vertices = n;
  if (n == 0 || two_m <= 0) {
    level.labels = state.labels;
    level.num_communities = n;
    level.trace.stop = LevelStop::kNoMoves;
    return level;
  }

  std::vector<vid_t> order(n);
  std::iota(order.begin(), order.end(), vid_t{0});
  if (opts.shuffle_seed != 0) {
    Xoshiro256 rng(opts.shuffle_seed);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
  }

  // Scratch: weight from the current vertex to each touched community.
  std::vector<weight_t> w_to(n, 0.0);
  std::vector<vid_t> touched;
  touched.reserve(64);

  // Pruning state: a vertex is re-examined only while marked active.
  std::vector<char> active(opts.prune ? n : 0, 1);

  double prev_q = state.modularity(two_m, opts.resolution);
  for (int iter = 0; iter < opts.max_inner_iterations; ++iter) {
    vid_t moves = 0;
    vid_t evaluated = 0;
    for (vid_t idx = 0; idx < n; ++idx) {
      const vid_t u = order[idx];
      if (opts.prune) {
        if (!active[u]) continue;
        active[u] = 0;  // sleeps until a neighbor moves
      }
      ++evaluated;
      const vid_t cu = state.labels[u];
      const weight_t ku = g.strength(u);

      // Gather w_{u→c} for all neighbor communities (self loop excluded:
      // it moves with u and cancels in every gain comparison).
      touched.clear();
      g.for_each_neighbor(u, [&](vid_t v, weight_t a) {
        if (v == u) return;
        const vid_t cv = state.labels[v];
        if (w_to[cv] == 0.0) touched.push_back(cv);
        w_to[cv] += a;
      });

      // Remove u from its community, then pick the best join (including
      // rejoining cu). Gain of joining c: 2(w_uc/2m − Σtot_c·ku/(2m)²);
      // comparing joins is equivalent to comparing w_uc − Σtot_c·ku/2m.
      state.sigma_tot[cu] -= ku;
      state.sigma_in[cu] -= 2 * w_to[cu] + g.self_loop(u);

      vid_t best_c = cu;
      double best_score = w_to[cu] - opts.resolution * state.sigma_tot[cu] * ku / two_m;
      for (vid_t c : touched) {
        const double score = w_to[c] - opts.resolution * state.sigma_tot[c] * ku / two_m;
        // Strict improvement with smallest-label tie break keeps the sweep
        // deterministic regardless of gather order.
        if (score > best_score + 1e-15 ||
            (score > best_score - 1e-15 && c < best_c)) {
          best_score = score;
          best_c = c;
        }
      }

      state.sigma_tot[best_c] += ku;
      state.sigma_in[best_c] += 2 * w_to[best_c] + g.self_loop(u);
      state.labels[u] = best_c;
      if (best_c != cu) {
        ++moves;
        if (opts.prune) {
          // A move perturbs the gains of everything adjacent — wake them.
          active[u] = 1;
          g.for_each_neighbor(u, [&](vid_t v, weight_t) { active[v] = 1; });
        }
      }

      for (vid_t c : touched) w_to[c] = 0.0;
      w_to[cu] = 0.0;
    }

    const double q = state.modularity(two_m, opts.resolution);
    level.trace.iterations = iter + 1;
    if (opts.record_trace) {
      level.trace.moved_fraction.push_back(static_cast<double>(moves) /
                                           static_cast<double>(n));
      level.trace.modularity.push_back(q);
      if (opts.prune) {
        level.trace.evaluated_fraction.push_back(static_cast<double>(evaluated) /
                                                 static_cast<double>(n));
      }
    }
    const bool stagnant = q - prev_q < opts.q_tolerance;
    prev_q = q;
    if (moves == 0) {
      level.trace.stop = LevelStop::kNoMoves;
      break;
    }
    if (stagnant) {
      level.trace.stop = LevelStop::kStagnation;
      break;
    }
  }

  level.labels = std::move(state.labels);
  level.num_communities = metrics::normalize_labels(level.labels);
  level.modularity = prev_q;
  return level;
}

graph::Csr coarsen(const graph::Csr& g, const std::vector<vid_t>& labels,
                   std::size_t num_communities) {
  assert(labels.size() >= g.num_vertices());
  graph::EdgeList coarse;
  coarse.reserve(static_cast<std::size_t>(g.num_undirected_edges()) / 2 + 1);
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    const vid_t cu = labels[u];
    g.for_each_neighbor(u, [&](vid_t v, weight_t a) {
      if (v > u) {
        coarse.add(cu, labels[v], a);  // unordered fine weight once
      } else if (v == u) {
        coarse.add(cu, cu, a / 2);  // fine self loop: unordered weight
      }
    });
  }
  return graph::Csr::from_edges(coarse, static_cast<vid_t>(num_communities));
}

LouvainResult louvain(const graph::Csr& g, const SeqOptions& opts) {
  LouvainResult result;
  result.final_labels.resize(g.num_vertices());
  std::iota(result.final_labels.begin(), result.final_labels.end(), vid_t{0});

  graph::Csr current = g;  // copy; levels shrink fast so this dominates once
  double prev_q = metrics::modularity(g, result.final_labels, opts.resolution);
  result.final_modularity = prev_q;

  for (int level_idx = 0; level_idx < opts.max_levels; ++level_idx) {
    WallTimer timer;
    LouvainLevel level = refine_level(current, opts);
    result.timers.add(phase::kRefine, timer.seconds());

    const bool improved = level.modularity - prev_q >= opts.q_tolerance;
    const bool compressed = level.num_communities < current.num_vertices();
    if (!improved && level_idx > 0) break;

    // Project this level's labels onto the original vertices.
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      result.final_labels[v] = level.labels[result.final_labels[v]];
    }
    prev_q = level.modularity;
    result.final_modularity = level.modularity;

    timer.reset();
    graph::Csr next = coarsen(current, level.labels, level.num_communities);
    result.timers.add(phase::kGraphReconstruction, timer.seconds());

    result.levels.push_back(std::move(level));
    if (!compressed) break;  // stable: nothing merged, next level identical
    current = std::move(next);
  }
  return result;
}

}  // namespace plv::seq
