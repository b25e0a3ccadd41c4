// ValidatingTransport implementation. See transport_check.hpp for the
// protocol being enforced and DESIGN.md decision 11 for the state machine.
#include "pml/transport_check.hpp"

#include <utility>

namespace plv::pml {

namespace {

[[nodiscard]] std::string format_violation(ProtocolViolation kind, int rank, int peer,
                                           std::uint64_t epoch,
                                           const std::string& detail) {
  std::string msg = "pml protocol violation [";
  msg += protocol_violation_name(kind);
  msg += "] on rank ";
  msg += std::to_string(rank);
  if (peer >= 0) {
    msg += ", peer lane ";
    msg += std::to_string(peer);
  }
  msg += ", epoch ";
  msg += std::to_string(epoch);
  msg += ": ";
  msg += detail;
  return msg;
}

}  // namespace

const char* protocol_violation_name(ProtocolViolation v) noexcept {
  switch (v) {
    case ProtocolViolation::kTrafficAfterGoodbye:
      return "traffic-after-goodbye";
    case ProtocolViolation::kDataAfterFinalMarker:
      return "data-after-final-marker";
    case ProtocolViolation::kDuplicateFinalMarker:
      return "duplicate-final-marker";
    case ProtocolViolation::kEpochSkew:
      return "epoch-skew";
    case ProtocolViolation::kQuiescenceMismatch:
      return "quiescence-mismatch";
    case ProtocolViolation::kChunkDoubleRelease:
      return "chunk-double-release";
    case ProtocolViolation::kForeignChunk:
      return "foreign-chunk";
    case ProtocolViolation::kChunkLeak:
      return "chunk-leak";
    case ProtocolViolation::kCollectiveShape:
      return "collective-shape";
    case ProtocolViolation::kCollectiveOrder:
      return "collective-order";
  }
  return "unknown";
}

ProtocolError::ProtocolError(ProtocolViolation kind, int rank, int peer,
                             std::uint64_t epoch, const std::string& detail)
    : std::runtime_error(format_violation(kind, rank, peer, epoch, detail)),
      kind_(kind),
      rank_(rank),
      peer_(peer),
      epoch_(epoch) {}

namespace detail {

void check_quiescence_conservation(bool enforce, int rank, std::uint64_t epoch,
                                   std::uint64_t received, std::uint64_t expected,
                                   const char* transport) {
  if (received == expected) return;
  if (enforce) {
    throw ProtocolError(
        ProtocolViolation::kQuiescenceMismatch, rank, /*peer=*/-1, epoch,
        "quiescence record-count mismatch: received " + std::to_string(received) +
            ", markers promised " + std::to_string(expected) + " (transport " +
            transport + ")");
  }
  // Historical Debug behavior when validation is off: hard-stop here so the
  // failing phase is inspectable in a debugger. (Unreachable above when the
  // counts agree; unreachable at all in enforcing configurations.)
  assert(false && "pml: quiescence record-count mismatch (set PLV_VALIDATE=1 for a thrown ProtocolError)");
}

}  // namespace detail

ValidatingTransport::ValidatingTransport(Transport& inner)
    : inner_(inner),
      send_lanes_(static_cast<std::size_t>(inner.nranks())),
      recv_lanes_(static_cast<std::size_t>(inner.nranks())) {}

void ValidatingTransport::ensure_open(const char* op) const {
  if (closed_) {
    fail(ProtocolViolation::kTrafficAfterGoodbye, /*peer=*/-1, /*epoch=*/0,
         std::string(op) + "() called after finalize() closed this rank's protocol "
                           "machine (the goodbye state admits no further traffic)");
  }
}

void ValidatingTransport::fail(ProtocolViolation kind, int peer, std::uint64_t epoch,
                               const std::string& detail) const {
  throw ProtocolError(kind, inner_.rank(), peer, epoch,
                      detail + " (transport " + inner_.name() + ")");
}

void ValidatingTransport::barrier() {
  ensure_open("barrier");
  inner_.barrier();
}

void ValidatingTransport::alltoallv(std::span<const std::span<const std::byte>> outgoing,
                                    CollectiveSink& sink) {
  ensure_open("alltoallv");
  if (enforcing() && outgoing.size() != static_cast<std::size_t>(nranks())) {
    fail(ProtocolViolation::kCollectiveShape, /*peer=*/-1, /*epoch=*/0,
         "alltoallv called with " + std::to_string(outgoing.size()) +
             " outgoing payloads for " + std::to_string(nranks()) +
             " ranks (exactly one per destination required)");
  }
  // Every delivery the backend makes is checked against the ordering
  // contract before the caller's sink sees it: exactly one payload per
  // source rank, ascending — the determinism guarantee rank-order
  // reductions build on.
  struct OrderSink final : CollectiveSink {
    const ValidatingTransport* self{nullptr};
    CollectiveSink* target{nullptr};
    int delivered{0};
    void total_hint(std::size_t bytes) override { target->total_hint(bytes); }
    void deliver(int source, std::span<const std::byte> bytes) override {
      if (self->enforcing() && source != delivered) {
        self->fail(ProtocolViolation::kCollectiveOrder, source, /*epoch=*/0,
                   "alltoallv payload from source " + std::to_string(source) +
                       " delivered out of order (expected source " +
                       std::to_string(delivered) + " next)");
      }
      ++delivered;
      target->deliver(source, bytes);
    }
  } order;
  order.self = this;
  order.target = &sink;
  inner_.alltoallv(outgoing, order);
  if (enforcing() && order.delivered != nranks()) {
    fail(ProtocolViolation::kCollectiveOrder, /*peer=*/-1, /*epoch=*/0,
         "alltoallv completed after delivering " + std::to_string(order.delivered) +
             " of " + std::to_string(nranks()) + " per-source payloads");
  }
}

Chunk* ValidatingTransport::acquire_chunk(std::size_t reserve_bytes) {
  ensure_open("acquire_chunk");
  Chunk* chunk = inner_.acquire_chunk(reserve_bytes);
  if (!ledger_.insert(chunk, detail::ChunkLedger::Origin::kAcquired) && enforcing()) {
    // The pool handed out a node this rank already holds — an ownership
    // corruption in the backend itself.
    fail(ProtocolViolation::kChunkDoubleRelease, /*peer=*/-1, /*epoch=*/0,
         "pool returned a chunk this rank already owns (backend free-list corruption)");
  }
  return chunk;
}

void ValidatingTransport::release_chunk(Chunk* chunk) {
  ensure_open("release_chunk");
  if (!ledger_.erase(chunk) && enforcing()) {
    fail(ProtocolViolation::kChunkDoubleRelease, /*peer=*/-1, /*epoch=*/0,
         "release of a chunk this rank does not own (double release, or a node "
         "that was already handed to send())");
  }
  inner_.release_chunk(chunk);
}

ValidatingTransport::Verdict ValidatingTransport::check_lane_step(
    Lane& lane, bool relaxed, bool is_control, std::uint64_t control_records,
    std::uint64_t epoch, std::size_t payload_bytes, const char* direction) {
  const auto e = static_cast<std::int64_t>(epoch);
  const char* frame = is_control ? "final marker" : "data frame";
  if (e <= lane.marker_epoch) {
    if (is_control) {
      return {false, ProtocolViolation::kDuplicateFinalMarker,
              std::string(direction) + " final marker for epoch " + std::to_string(epoch) +
                  ", but that phase was already closed by a final marker (exactly one "
                  "per phase per lane)"};
    }
    return {false, ProtocolViolation::kDataAfterFinalMarker,
            std::string(direction) + " data frame for epoch " + std::to_string(epoch) +
                " after that phase's final marker (data must precede the marker on "
                "its lane)"};
  }
  if (!relaxed && e != lane.marker_epoch + 1) {
    return {false, ProtocolViolation::kEpochSkew,
            std::string(direction) + " " + frame + " for epoch " + std::to_string(epoch) +
                " on a lane whose last finalized phase is " +
                std::to_string(lane.marker_epoch) +
                " (phase skew on a remote lane is bounded by one epoch)"};
  }
  if (lane.open_epoch >= 0 && e != lane.open_epoch) {
    return {false, ProtocolViolation::kEpochSkew,
            std::string(direction) + " " + frame + " for epoch " + std::to_string(epoch) +
                " while phase " + std::to_string(lane.open_epoch) +
                " is still open on the lane (its final marker never arrived)"};
  }
  if (!is_control) {
    lane.open_epoch = e;
    lane.open_bytes += payload_bytes;
    return {};
  }
  const std::uint64_t total = lane.open_bytes + payload_bytes;
  const bool zero_consistent = (control_records == 0) == (total == 0);
  if (!zero_consistent || (control_records != 0 && total % control_records != 0)) {
    return {false, ProtocolViolation::kQuiescenceMismatch,
            std::string(direction) + " final marker promises " +
                std::to_string(control_records) + " records, but " +
                std::to_string(total) +
                " payload bytes travelled on the lane this phase (bytes must be a "
                "positive whole multiple of the record count, or both zero)"};
  }
  lane.marker_epoch = e;
  lane.open_epoch = -1;
  lane.open_bytes = 0;
  return {};
}

void ValidatingTransport::send(int dest, Chunk* chunk) {
  // Ownership transfers to the transport at the call, throw or not — so
  // every early exit below must dispose of the node first. A chunk we do
  // not own is left alone: its real owner (if any) still holds it.
  const bool owned = ledger_.erase(chunk);
  // dispose() frees the node (a released chunk may be recycled or deleted
  // immediately), so every field a failure message needs is captured first.
  const std::uint64_t epoch = chunk->epoch;
  const int source = chunk->source;
  const auto dispose = [&]() noexcept {
    if (owned) inner_.release_chunk(chunk);
  };
  if (closed_) {
    dispose();
    fail(ProtocolViolation::kTrafficAfterGoodbye, dest, epoch,
         "send() called after finalize() closed this rank's protocol machine");
  }
  if (enforcing()) {
    if (!owned) {
      fail(ProtocolViolation::kForeignChunk, dest, epoch,
           "send of a chunk this rank does not own (double send, or a node "
           "acquired outside the pool API)");
    }
    if (dest < 0 || dest >= nranks()) {
      dispose();
      fail(ProtocolViolation::kForeignChunk, dest, epoch,
           "send to out-of-range destination " + std::to_string(dest) +
               " (fleet has " + std::to_string(nranks()) + " ranks)");
    }
    if (source != rank()) {
      dispose();
      fail(ProtocolViolation::kForeignChunk, dest, epoch,
           "outgoing chunk stamped with source " + std::to_string(source) +
               ", but this rank is " + std::to_string(rank()));
    }
    Verdict v = check_lane_step(send_lanes_[static_cast<std::size_t>(dest)],
                                /*relaxed=*/dest == rank(), chunk->control,
                                chunk->control_records, epoch, chunk->size(), "outgoing");
    if (!v.ok) {
      dispose();
      fail(v.kind, dest, epoch, v.detail);
    }
  }
  inner_.send(dest, chunk);
}

void ValidatingTransport::inspect_arrival(Chunk* chunk,
                                          std::span<Chunk* const> undelivered) {
  // On a violation, this chunk and everything drained after it never
  // reaches the caller — hand the nodes back to the backend pool so a
  // rejected drain leaks nothing (none of them are ledgered yet).
  // The release frees this chunk too, so the lane identifiers the failure
  // message needs are captured before reject() runs.
  const int source = chunk->source;
  const std::uint64_t epoch = chunk->epoch;
  const auto reject = [&](ProtocolViolation kind, const std::string& detail) {
    for (Chunk* c : undelivered) inner_.release_chunk(c);
    fail(kind, source, epoch, detail);
  };
  if (source < 0 || source >= nranks()) {
    reject(ProtocolViolation::kForeignChunk,
           "arrival stamped with out-of-range source " + std::to_string(source) +
               " (fleet has " + std::to_string(nranks()) + " ranks)");
  }
  Lane& lane = recv_lanes_[static_cast<std::size_t>(source)];
  Verdict v = check_lane_step(lane, /*relaxed=*/source == rank(), chunk->control,
                              chunk->control_records, epoch, chunk->size(), "incoming");
  if (!v.ok) reject(v.kind, v.detail);
}

std::size_t ValidatingTransport::drain(std::vector<Chunk*>& out) {
  ensure_open("drain");
  drain_scratch_.clear();
  inner_.drain(drain_scratch_);
  for (std::size_t i = 0; i < drain_scratch_.size(); ++i) {
    Chunk* c = drain_scratch_[i];
    if (enforcing()) {
      inspect_arrival(c, std::span<Chunk* const>(drain_scratch_.data() + i,
                                                 drain_scratch_.size() - i));
    }
    if (!ledger_.insert(c, detail::ChunkLedger::Origin::kDrained) && enforcing()) {
      const int source = c->source;       // the release loop frees c itself,
      const std::uint64_t epoch = c->epoch;  // so capture the lane ids first
      for (std::size_t j = i; j < drain_scratch_.size(); ++j) {
        inner_.release_chunk(drain_scratch_[j]);
      }
      fail(ProtocolViolation::kForeignChunk, source, epoch,
           "transport delivered a chunk this rank already owns (a node sent and "
           "received without an ownership handoff)");
    }
    out.push_back(c);
  }
  return drain_scratch_.size();
}

void ValidatingTransport::wait_incoming() {
  ensure_open("wait_incoming");
  inner_.wait_incoming();
}

void ValidatingTransport::trim_pool() {
  // Comm trims at fine-grained phase boundaries, which is exactly when a
  // well-behaved rank holds no acquired-but-unsent chunks (aggregators are
  // flushed before the drain). Chunks of drained origin may legitimately
  // cross the boundary: a peer racing one epoch ahead gets its early
  // chunks deferred by Comm until the epochs line up.
  if (enforcing()) {
    const std::size_t held = ledger_.count(detail::ChunkLedger::Origin::kAcquired);
    if (held != 0) {
      fail(ProtocolViolation::kChunkLeak, /*peer=*/-1, /*epoch=*/0,
           std::to_string(held) + " chunk(s) acquired from the pool were neither "
                                  "sent nor released by the phase boundary");
    }
  }
  inner_.trim_pool();
}

void ValidatingTransport::finalize() {
  if (closed_) return;
  if (!inner_.aborted() && ledger_.size() != 0) {
    const std::size_t acquired = ledger_.count(detail::ChunkLedger::Origin::kAcquired);
    const std::size_t drained = ledger_.size() - acquired;
    closed_ = true;  // stay idempotent even when the goodbye check throws
    fail(ProtocolViolation::kChunkLeak, /*peer=*/-1, /*epoch=*/0,
         "rank reached goodbye still owning " + std::to_string(acquired) +
             " acquired and " + std::to_string(drained) +
             " drained chunk(s); all nodes must be sent or released before the "
             "body returns");
  }
  closed_ = true;
}

}  // namespace plv::pml
