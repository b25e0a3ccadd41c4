// BucketTable — separate-chaining table used for the Fig. 6 hash study.
//
// The paper reports per-thread entry counts and average/maximum *bin*
// lengths when an R-MAT edge set is hashed across the threads of a node.
// Chaining makes "bin length" directly observable (an open-addressing
// probe chain conflates neighboring bins), so the hash-behavior bench uses
// this table rather than the open-addressing EdgeTable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "hashing/hash_fns.hpp"

namespace plv::hashing {

/// Bin-occupancy metrics as defined in the paper: the average counts only
/// non-empty bins (footnote 3 of the paper).
struct BinStats {
  std::uint64_t entries{0};
  std::uint64_t bins{0};
  std::uint64_t nonempty_bins{0};
  double avg_bin_length{0.0};
  std::uint64_t max_bin_length{0};
};

class BucketTable {
 public:
  BucketTable(std::size_t bins, HashKind hash)
      : hash_(hash), bins_(static_cast<std::size_t>(next_pow2(bins))) {}

  void insert_or_add(std::uint64_t key, weight_t w) {
    auto& bin = bins_[static_cast<std::size_t>(apply_hash(hash_, key, bins_.size()))];
    for (auto& entry : bin) {
      if (entry.key == key) {
        entry.weight += w;
        return;
      }
    }
    bin.push_back({key, w});
    ++size_;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    const auto& bin = bins_[static_cast<std::size_t>(apply_hash(hash_, key, bins_.size()))];
    return std::any_of(bin.begin(), bin.end(),
                       [key](const Entry& e) { return e.key == key; });
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t bin_count() const noexcept { return bins_.size(); }

  /// Occupancy of one bin.
  [[nodiscard]] std::size_t bin_length(std::size_t bin) const noexcept {
    return bins_[bin].size();
  }

  [[nodiscard]] BinStats stats() const noexcept {
    BinStats st;
    st.entries = size_;
    st.bins = bins_.size();
    for (const auto& bin : bins_) {
      if (bin.empty()) continue;
      ++st.nonempty_bins;
      st.max_bin_length = std::max(st.max_bin_length,
                                   static_cast<std::uint64_t>(bin.size()));
    }
    if (st.nonempty_bins > 0) {
      st.avg_bin_length =
          static_cast<double>(st.entries) / static_cast<double>(st.nonempty_bins);
    }
    return st;
  }

  /// Bin stats restricted to the contiguous bin range [first, last) — the
  /// Fig. 6 setup partitions a node's bins uniformly across its threads.
  [[nodiscard]] BinStats stats_range(std::size_t first, std::size_t last) const noexcept {
    BinStats st;
    st.bins = last - first;
    for (std::size_t b = first; b < last && b < bins_.size(); ++b) {
      const auto len = bins_[b].size();
      st.entries += len;
      if (len == 0) continue;
      ++st.nonempty_bins;
      st.max_bin_length = std::max(st.max_bin_length, static_cast<std::uint64_t>(len));
    }
    if (st.nonempty_bins > 0) {
      st.avg_bin_length =
          static_cast<double>(st.entries) / static_cast<double>(st.nonempty_bins);
    }
    return st;
  }

 private:
  struct Entry {
    std::uint64_t key;
    weight_t weight;
  };

  HashKind hash_;
  std::vector<std::vector<Entry>> bins_;
  std::size_t size_{0};
};

}  // namespace plv::hashing
