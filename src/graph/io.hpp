// Text and binary edge-list IO, plus community-assignment files.
//
// Text format: one edge per line, "u v [w]", '#'-prefixed comment lines
// skipped (SNAP-compatible, which is where the paper's real-world graphs
// come from). Binary format: a small header plus packed Edge records —
// used to cache generated graphs between bench runs.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/edge_list.hpp"

namespace plv::graph {

/// Loads a whitespace-separated text edge list. Throws std::runtime_error
/// on unopenable files or malformed lines.
[[nodiscard]] EdgeList load_edge_list_text(const std::string& path);

void save_edge_list_text(const EdgeList& edges, const std::string& path);

/// Binary round-trip (magic + count + packed records). A header whose
/// count the file does not hold is rejected before anything is allocated.
[[nodiscard]] EdgeList load_edge_list_binary(const std::string& path);
void save_edge_list_binary(const EdgeList& edges, const std::string& path);

/// Community files: line i holds the community label of vertex i. A line
/// that is not one integer below kInvalidVid is rejected, naming the line;
/// blank lines are skipped.
[[nodiscard]] std::vector<vid_t> load_communities(const std::string& path);
void save_communities(const std::vector<vid_t>& labels, const std::string& path);

}  // namespace plv::graph
