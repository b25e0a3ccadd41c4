// Communication-volume counters shared by the messaging layer and the
// result types. Lives in common (not pml) so LouvainResult/Result can
// carry per-level traffic without depending on the runtime headers; pml
// re-exports it as pml::TrafficStats.
#pragma once

#include <cstdint>

namespace plv {

/// Cumulative communication counters for one rank (or, in results, summed
/// over ranks). Control markers — the quiescence protocol's overhead —
/// are not counted: stats describe payload traffic only.
struct TrafficStats {
  std::uint64_t records_sent{0};
  std::uint64_t records_received{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t chunks_sent{0};
  std::uint64_t collectives{0};
  /// Messages addressed to another rank: every fine-grained chunk or
  /// marker sent to a peer, plus nranks - 1 per collective. The name
  /// predates the flat-only protocol (every rank is its own group); it
  /// stays because perfbench reads the field.
  std::uint64_t inter_group_messages{0};

  TrafficStats& operator+=(const TrafficStats& o) noexcept {
    records_sent += o.records_sent;
    records_received += o.records_received;
    bytes_sent += o.bytes_sent;
    chunks_sent += o.chunks_sent;
    collectives += o.collectives;
    inter_group_messages += o.inter_group_messages;
    return *this;
  }
};

/// Element-wise difference, for per-phase or per-level snapshots taken
/// against a running counter set. Caller guarantees `after` dominates.
[[nodiscard]] inline TrafficStats traffic_delta(const TrafficStats& after,
                                                const TrafficStats& before) noexcept {
  TrafficStats d;
  d.records_sent = after.records_sent - before.records_sent;
  d.records_received = after.records_received - before.records_received;
  d.bytes_sent = after.bytes_sent - before.bytes_sent;
  d.chunks_sent = after.chunks_sent - before.chunks_sent;
  d.collectives = after.collectives - before.collectives;
  d.inter_group_messages = after.inter_group_messages - before.inter_group_messages;
  return d;
}

}  // namespace plv
