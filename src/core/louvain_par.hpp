// Parallel Louvain for distributed-memory execution — the paper's core
// contribution (Algorithms 2–5).
//
// Every rank owns a 1-D slice of the vertices plus the communities whose
// label vertex it owns. Two tables per rank carry the graph:
//
//   In_Table  — ((v, u), w) for owned u: the in-edges, immutable within a
//               level; the authoritative copy of the topology. A row store
//               (core/row_store.hpp): one row per owned vertex, sorted by
//               source v. Ingestion and reconstruction append each record
//               to its target's row, then merge every row, summing equal
//               sources in arrival order.
//   Out_Table — ((u, c), w) for owned u: the out-edge weight of u into
//               each neighboring *community* c. A row store too: one row
//               per owned vertex, sorted by c, laid out over the merged
//               In_Table row lengths. Filled by the level's first STATE
//               PROPAGATION, then maintained *incrementally*: moved
//               vertices ship retraction/assertion pairs that patch rows
//               in place. A full refill replaces the patches once the
//               delta records shipped since the last one would reach a
//               full propagation's own count. FIND is one loop over the
//               rows.
//
// One outer level = STATE PROPAGATION → REFINE (inner loop: FIND BEST
// COMMUNITY, threshold ΔQ̂ selection, UPDATE COMMUNITY INFORMATION,
// re-propagation, Σin/modularity) → GRAPH RECONSTRUCTION (all-to-all
// rewrite of the Out_Table into the next level's In_Table).
#pragma once

#include "common/louvain.hpp"
#include "core/options.hpp"
#include "graph/edge_list.hpp"

namespace plv::core {

/// Parallel run artifact: the common hierarchy plus communication volume.
/// (The type now lives in common/louvain.hpp as plv::Result so the
/// plv::louvain front door can return it; this alias keeps the historical
/// core-level name working.)
using ParResult = plv::Result;

/// Produces the edge-list slice a given rank contributes to the input
/// graph (now defined in common/louvain.hpp for the plv::louvain front
/// door; aliased here for existing call sites).
using EdgeSliceFn = plv::EdgeSliceFn;

}  // namespace plv::core
