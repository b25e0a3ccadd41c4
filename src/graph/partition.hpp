// 1-D vertex partition.
//
// The paper linearly splits vertices across compute nodes "according to a
// simple modulo function" (Section IV-A): vertex v lives on rank v mod p.
// The cyclic map spreads the heavy heads of skewed degree distributions
// across ranks, and growing the vertex count never moves an existing
// vertex to another rank or local index. Community labels live in the
// vertex id space, so community ownership is the same map.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/types.hpp"

namespace plv::graph {

class Partition1D {
 public:
  Partition1D(vid_t n, int nranks) noexcept : n_(n), nranks_(nranks) { assert(nranks >= 1); }

  [[nodiscard]] int owner(vid_t v) const noexcept {
    assert(v < n_);
    return static_cast<int>(v % static_cast<vid_t>(nranks_));
  }

  /// Number of vertices owned by `rank`.
  [[nodiscard]] vid_t local_count(int rank) const noexcept {
    const auto r = static_cast<vid_t>(rank);
    const auto p = static_cast<vid_t>(nranks_);
    return n_ / p + (r < n_ % p ? 1 : 0);
  }

  /// Dense local index of `v` within its owner.
  [[nodiscard]] vid_t to_local(vid_t v) const noexcept {
    return v / static_cast<vid_t>(nranks_);
  }

  /// Global id of the `local`-th vertex of `rank`.
  [[nodiscard]] vid_t to_global(int rank, vid_t local) const noexcept {
    return local * static_cast<vid_t>(nranks_) + static_cast<vid_t>(rank);
  }

 private:
  vid_t n_;
  int nranks_;
};

}  // namespace plv::graph
