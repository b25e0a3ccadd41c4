// Edge lists — the interchange format between generators, IO, and CSR.
//
// An EdgeList stores one record per *undirected* edge {u,v} (self loops
// allowed). Duplicate records are legal and mean parallel edges; the CSR
// builder and the distributed In_Table constructor accumulate their
// weights in record order, matching the paper's insert-or-add semantics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace plv::graph {

class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(std::vector<Edge> edges) : edges_(std::move(edges)) {}

  void add(vid_t u, vid_t v, weight_t w = 1.0) { edges_.push_back({u, v, w}); }

  void reserve(std::size_t n) { edges_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return edges_.size(); }
  [[nodiscard]] bool empty() const noexcept { return edges_.empty(); }

  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }
  [[nodiscard]] std::vector<Edge>& edges() noexcept { return edges_; }

  [[nodiscard]] auto begin() const noexcept { return edges_.begin(); }
  [[nodiscard]] auto end() const noexcept { return edges_.end(); }

  /// 1 + the largest vertex id mentioned (0 for an empty list).
  [[nodiscard]] vid_t vertex_count() const noexcept {
    vid_t max_id = 0;
    bool any = false;
    for (const Edge& e : edges_) {
      max_id = std::max({max_id, e.u, e.v});
      any = true;
    }
    return any ? max_id + 1 : 0;
  }

  /// Sum of record weights (each undirected edge once).
  [[nodiscard]] weight_t total_weight() const noexcept {
    weight_t sum = 0;
    for (const Edge& e : edges_) sum += e.w;
    return sum;
  }

  /// Normalizes records so u <= v and merges duplicates by weight
  /// accumulation. Useful before comparing edge sets in tests.
  void canonicalize() {
    for (Edge& e : edges_) {
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    });
    std::size_t out = 0;
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      if (out > 0 && edges_[out - 1].u == edges_[i].u && edges_[out - 1].v == edges_[i].v) {
        edges_[out - 1].w += edges_[i].w;
      } else {
        edges_[out++] = edges_[i];
      }
    }
    edges_.resize(out);
  }

 private:
  std::vector<Edge> edges_;
};

}  // namespace plv::graph
