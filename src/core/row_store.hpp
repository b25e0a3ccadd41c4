// RowStore — the engine's Out_Table: one row of (community, weight)
// entries per owned vertex, kept sorted by community.
//
// Row l spans [start[l], start[l+1]) of one entry array, where `start` is
// the level's in-edge CSR. Every in-edge of vertex l puts exactly one live
// contribution into l's row (the In_Table is symmetric at every level), so
// a row never needs more entries than l has in-edges, and the layout
// carries no capacity from earlier levels or iterations. A full
// propagation appends each arriving record to its row, then merges every
// row: a stable sort by community, with equal communities summed in
// arrival order, the order an insert-or-add table sums them in. Delta
// patches binary-search the row: an existing entry accumulates, a fresh
// one is shift-inserted, and one whose contribution count reaches zero is
// shift-erased, so emptiness stays exact whatever dust fractional weights
// leave. The fresh/erased verdicts are hashing::EdgeTable's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace plv::core {

class RowStore {
 public:
  struct Entry {
    vid_t c;
    std::uint32_t count;  // contributions accumulated into this entry
    weight_t w;
  };

  /// `row_name` names a row in the logic_error a broken capacity bound
  /// throws (default: "row <index>").
  explicit RowStore(std::function<std::string(std::size_t)> row_name = {})
      : row_name_(std::move(row_name)) {}

  /// Lays the rows out over CSR offsets `start` (one more than the row
  /// count) and empties them.
  void reset(std::span<const std::size_t> start) {
    start_.assign(start.begin(), start.end());
    len_.assign(start_.empty() ? 0 : start_.size() - 1, 0);
    entries_.resize(start_.empty() ? 0 : start_.back());
    size_ = 0;
  }

  /// Empties every row, keeping the layout.
  void clear() noexcept {
    std::fill(len_.begin(), len_.end(), 0U);
    size_ = 0;
  }

  /// Fill: appends one contribution to row `r`; merge_row folds it in.
  void append(std::size_t r, vid_t c, weight_t w) {
    if (full(r)) overflow(r);
    entries_[start_[r] + len_[r]++] = Entry{c, 1, w};
    ++size_;
  }

  /// Fill: stable-sorts row `r` by community and folds equal communities
  /// into one entry, summing weights and counts in arrival order.
  void merge_row(std::size_t r) {
    Entry* first = entries_.data() + start_[r];
    Entry* last = first + len_[r];
    if (first == last) return;
    std::stable_sort(first, last, [](const Entry& a, const Entry& b) { return a.c < b.c; });
    Entry* out = first;
    for (const Entry* e = first + 1; e != last; ++e) {
      if (e->c == out->c) {
        out->w += e->w;
        out->count += e->count;
      } else {
        *++out = *e;
      }
    }
    const auto kept = static_cast<std::uint32_t>(out - first + 1);
    size_ -= len_[r] - kept;
    len_[r] = kept;
  }

  /// Delta: adds one contribution of `w` to (r, c). Returns true if the
  /// entry is fresh.
  bool add(std::size_t r, vid_t c, weight_t w) {
    Entry* last = entries_.data() + start_[r] + len_[r];
    Entry* it = entries_.data() + lower(r, c);
    if (it != last && it->c == c) {
      it->w += w;
      ++it->count;
      return false;
    }
    if (full(r)) overflow(r);
    std::copy_backward(it, last, last + 1);
    *it = Entry{c, 1, w};
    ++len_[r];
    ++size_;
    return true;
  }

  /// Delta: removes one contribution of `w` from (r, c), the inverse of a
  /// prior add or append. Returns true if that was the entry's last
  /// contribution, which erases it whatever dust the weight holds.
  bool retract(std::size_t r, vid_t c, weight_t w) {
    Entry* last = entries_.data() + start_[r] + len_[r];
    Entry* it = entries_.data() + lower(r, c);
    if (it == last || it->c != c) fail(r, "retracts a community it does not hold");
    it->w -= w;
    if (--it->count > 0) return false;
    std::copy(it + 1, last, it);
    --len_[r];
    --size_;
    return true;
  }

  /// Entry (r, c), or nullptr if row `r` holds no contribution to c.
  [[nodiscard]] const Entry* find(std::size_t r, vid_t c) const {
    const std::size_t i = lower(r, c);
    return i != start_[r] + len_[r] && entries_[i].c == c ? &entries_[i] : nullptr;
  }

  [[nodiscard]] std::span<const Entry> row(std::size_t r) const {
    return {entries_.data() + start_[r], len_[r]};
  }

  /// Live entries over all rows.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The state every complete propagation leaves: each row strictly
  /// ascending, its counts >= 1 and summing to the row's capacity (one
  /// contribution per in-edge), and size() the sum of the row lengths.
  [[nodiscard]] bool consistent() const {
    std::size_t total = 0;
    for (std::size_t r = 0; r < len_.size(); ++r) {
      std::size_t contributions = 0;
      const auto entries = row(r);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].count == 0 || (i > 0 && entries[i - 1].c >= entries[i].c)) return false;
        contributions += entries[i].count;
      }
      if (contributions != start_[r + 1] - start_[r]) return false;
      total += entries.size();
    }
    return total == size_;
  }

 private:
  /// Index of row r's first entry whose community is not below c.
  [[nodiscard]] std::size_t lower(std::size_t r, vid_t c) const {
    const Entry* first = entries_.data() + start_[r];
    const Entry* it = std::lower_bound(first, first + len_[r], c,
                                       [](const Entry& e, vid_t key) { return e.c < key; });
    return static_cast<std::size_t>(it - entries_.data());
  }

  [[nodiscard]] bool full(std::size_t r) const noexcept {
    return start_[r] + len_[r] == start_[r + 1];
  }

  [[noreturn]] void overflow(std::size_t r) const {
    fail(r, "needs more entries than its " + std::to_string(start_[r + 1] - start_[r]) +
                " in-edges: the level's In_Table is not symmetric");
  }

  [[noreturn]] void fail(std::size_t r, const std::string& what) const {
    throw std::logic_error("Out_Table: " +
                           (row_name_ ? row_name_(r) : "row " + std::to_string(r)) + " " +
                           what);
  }

  std::function<std::string(std::size_t)> row_name_;
  std::vector<std::size_t> start_;
  std::vector<std::uint32_t> len_;
  std::vector<Entry> entries_;
  std::size_t size_{0};
};

}  // namespace plv::core
