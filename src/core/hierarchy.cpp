#include "core/hierarchy.hpp"

#include <ostream>
#include <stdexcept>

namespace plv::core {

Hierarchy::Hierarchy(const LouvainResult& result) {
  n_ = static_cast<vid_t>(result.final_labels.size());
  level_labels_.reserve(result.levels.size());
  levels_.reserve(result.levels.size());
  std::vector<vid_t> composed(n_);
  for (vid_t v = 0; v < n_; ++v) composed[v] = v;
  for (const LouvainLevel& level : result.levels) {
    level_labels_.push_back(level.labels);
    for (vid_t v = 0; v < n_; ++v) composed[v] = level.labels[composed[v]];
    levels_.push_back(composed);
  }
}

std::size_t Hierarchy::communities_at(std::size_t level) const {
  if (level >= level_labels_.size()) throw std::out_of_range("Hierarchy: level");
  vid_t max_label = 0;
  for (vid_t c : level_labels_[level]) max_label = std::max(max_label, c);
  return level_labels_[level].empty() ? 0 : static_cast<std::size_t>(max_label) + 1;
}

const std::vector<vid_t>& Hierarchy::labels_at(std::size_t level) const {
  if (level >= levels_.size()) throw std::out_of_range("Hierarchy: level");
  return levels_[level];
}

std::vector<vid_t> Hierarchy::members(std::size_t level, vid_t c) const {
  const auto& labels = labels_at(level);
  std::vector<vid_t> out;
  for (vid_t v = 0; v < n_; ++v) {
    if (labels[v] == c) out.push_back(v);
  }
  return out;
}

vid_t Hierarchy::parent_of(std::size_t level, vid_t c) const {
  if (level >= level_labels_.size()) throw std::out_of_range("Hierarchy: level");
  if (level + 1 >= level_labels_.size()) return kInvalidVid;
  // Community c of `level` is vertex c of level+1's input graph.
  const auto& next = level_labels_[level + 1];
  if (c >= next.size()) throw std::out_of_range("Hierarchy: community");
  return next[c];
}

std::vector<TreeNode> Hierarchy::tree() const {
  std::vector<TreeNode> nodes;
  for (std::size_t level = 0; level < level_labels_.size(); ++level) {
    const std::size_t k = communities_at(level);
    std::vector<std::uint64_t> sizes(k, 0);
    for (vid_t v = 0; v < n_; ++v) ++sizes[levels_[level][v]];
    for (vid_t c = 0; c < static_cast<vid_t>(k); ++c) {
      nodes.push_back(TreeNode{level, c, parent_of(level, c), sizes[c]});
    }
  }
  return nodes;
}

void Hierarchy::write_tree(std::ostream& os) const {
  // Blondel format: concatenated levels of "child parent" pairs with ids
  // renumbered per level block. Level -1 (original vertices -> level-0
  // communities) first.
  for (std::size_t level = 0; level < level_labels_.size(); ++level) {
    const auto& labels = level_labels_[level];
    for (std::size_t child = 0; child < labels.size(); ++child) {
      os << child << ' ' << labels[child] << '\n';
    }
  }
}

}  // namespace plv::core
