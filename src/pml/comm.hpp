// The parallel messaging layer (PML): ranks, collectives, fine-grained sends.
//
// This is the reproduction's substitute for the custom BlueGene/Q / P7-IH
// messaging runtime the paper builds on (refs [27]-[29]). Each *rank* is a
// thread or a process — chosen by TransportKind — and ranks share no
// algorithm state, communicating only through this API, so the Louvain
// code above it is structured exactly like a distributed-memory port:
//
//   * collectives  — barrier, allreduce, allgather, alltoallv `exchange`,
//     all deterministic (combine in rank order) so fixed seeds give
//     bit-identical runs on every transport;
//   * fine-grained — per-destination coalescing into pooled chunks (see
//     aggregator.hpp), `exchange_streaming`, and one ordered streaming
//     drain closed by a counted-termination quiescence protocol, matching
//     the paper's active-message style state propagation;
//   * traffic counters — record/byte counts per rank, used by the scaling
//     benches to report communication volume where the 1-core container
//     gates wall-clock speedup.
//
// Comm implements all of that ONCE over the Transport primitive set
// (transport.hpp): a synchronizing rank-ordered alltoallv, FIFO chunk
// lanes, a blocking incoming wait, and an abort flag. The protocol logic
// below is therefore transport-agnostic; backends only move bytes.
//
// Quiescence protocol (counted termination, zero collective rounds):
// every fine-grained phase has an epoch number, and every Comm tracks how
// many records it sent to each peer during the current epoch. A rank
// ends the phase toward each destination with one *control marker*
// (through the same FIFO lanes as data) carrying that per-destination
// count — fused into the lane's last data chunk where there is one — and
// then drains, parking in Transport::wait_incoming rather than spinning,
// until it has seen all nranks markers. Because delivery is FIFO per
// producer, a sender's data always precedes its marker, so "all markers
// seen" implies "all records delivered"; the received total is checked
// against the marker counts — thrown as ProtocolError when protocol
// validation is on (transport_check.hpp: Debug default, or PLV_VALIDATE=1
// / PLV_PARANOID=1), a debug assert otherwise. No barrier or allreduce is
// involved: ranks leave the phase independently, and chunks from a
// neighbour that has already raced into the next epoch are deferred
// (never mis-delivered) until this rank's epoch catches up. Phase skew
// cannot exceed one epoch, since leaving epoch E requires every peer's
// epoch-E marker. Arrivals are applied in ascending source-rank order,
// so the fine-grained plane is as deterministic as the collectives.
//
// Fail-fast semantics: a rank whose body throws records its exception,
// raises the transport-wide abort flag, and wakes every blocked peer.
// Every collective checks the flag before and after its rendezvous,
// throwing AbortedError; waiting drains recheck it on wakeup. The first
// real exception is rethrown from Runtime::run after all ranks have
// unwound — a throwing rank therefore terminates the whole run promptly
// instead of deadlocking it. (On the process backend, exception types
// survive only for rank 0, which runs in the calling process; child
// failures surface as RemoteRankError carrying the original text.)
//
// SPMD typing convention: all ranks participating in a collective pass
// the same T, mirroring MPI's untyped buffers.
//
// Long-lived rank bodies: nothing in the protocol assumes a rank body is
// one-shot. A body may run an unbounded command loop — detect, park, wake
// on the next batch, detect again — as long as every rank takes the same
// sequence of collective/phase steps. plv::Session leans on this to keep
// a fleet warm between update batches on every transport: rank 0 (which
// always runs in the calling process, forked and tcp-loopback backends
// included) dequeues host commands and rebroadcasts them through an
// ordinary allgatherv, so peers never touch host-side synchronization
// primitives across the fork boundary.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/sync.hpp"
#include "common/traffic.hpp"
#include "pml/mailbox.hpp"
#include "pml/transport.hpp"
#include "pml/transport_check.hpp"
#include "pml/transport_hybrid.hpp"
#include "pml/transport_tcp.hpp"
#include "pml/transport_thread.hpp"

namespace plv::pml {

using plv::TrafficStats;

/// Per-rank communicator handle. All methods must be called from the
/// owning rank only (there is no remote access; senders go through the
/// transport, which is safe across ranks). Non-copyable: it owns
/// per-phase protocol state and any chunks deferred across epochs.
class Comm {
 public:
  explicit Comm(Transport& transport)
      : transport_(&transport),
        rank_(transport.rank()),
        // The typed quiescence count check (the one invariant the seam-level
        // checker cannot verify exactly, not knowing sizeof(T)) throws
        // whenever protocol validation is on — via the environment knobs or
        // because the transport underneath is already a ValidatingTransport.
        quiescence_enforced_(
            resolve_validate(false) ||
            dynamic_cast<const ValidatingTransport*>(&transport) != nullptr),
        phase_sent_(static_cast<std::size_t>(transport.nranks()), 0) {}

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  ~Comm() {
    for (Chunk* c : deferred_) transport_->release_chunk(c);
  }

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nranks() const noexcept { return transport_->nranks(); }

  /// Name of the backend carrying this run ("thread", "proc").
  [[nodiscard]] const char* transport_name() const noexcept {
    return transport_->name();
  }

  void barrier() {
    ++stats_.collectives;
    transport_->barrier();
  }

  // ---------------------------------------------------------------------
  // Collectives. All are synchronizing; every rank must call with the same
  // type and (for vector ops) the same length. Every one is an abort
  // point: if a peer has failed, AbortedError is thrown instead of
  // waiting on it.
  // ---------------------------------------------------------------------

  /// Element-wise reduction over one value per rank, combined in rank
  /// order (deterministic for non-associative ops like double addition).
  template <typename T, typename Op>
  [[nodiscard]] T allreduce(const T& value, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collectives;
    broadcast_spans(value_bytes(value));
    struct Sink final : CollectiveSink {
      void deliver(int source, std::span<const std::byte> bytes) override {
        assert(bytes.size() == sizeof(T));
        T v;
        std::memcpy(&v, bytes.data(), sizeof(T));
        acc = source == 0 ? v : (*op)(acc, v);
      }
      T acc{};
      Op* op{nullptr};
    } sink;
    sink.op = &op;
    run_collective(sink);
    return sink.acc;
  }

  template <typename T>
  [[nodiscard]] T allreduce_sum(const T& value) {
    return allreduce(value, [](const T& a, const T& b) { return a + b; });
  }

  template <typename T>
  [[nodiscard]] T allreduce_max(const T& value) {
    return allreduce(value, [](const T& a, const T& b) { return a < b ? b : a; });
  }

  template <typename T>
  [[nodiscard]] T allreduce_min(const T& value) {
    return allreduce(value, [](const T& a, const T& b) { return b < a ? b : a; });
  }

  /// In-place element-wise sum of equal-length vectors across ranks
  /// (used for the ΔQ̂ gain histograms). The overload taking `scratch`
  /// accumulates into that caller-owned buffer and swaps it in, so
  /// steady-state callers (the per-iteration gain histogram) allocate
  /// nothing; the single-argument form allocates a temporary accumulator.
  template <typename T>
  void allreduce_vec_sum(std::vector<T>& vec) {
    std::vector<T> scratch;
    allreduce_vec_sum(vec, scratch);
  }

  template <typename T>
  void allreduce_vec_sum(std::vector<T>& vec, std::vector<T>& scratch) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collectives;
    broadcast_spans(vector_bytes(vec));
    struct Sink final : CollectiveSink {
      void deliver(int /*source*/, std::span<const std::byte> bytes) override {
        assert(bytes.size() == acc->size() * sizeof(T));
        for (std::size_t i = 0; i < acc->size(); ++i) {
          T v;
          std::memcpy(&v, bytes.data() + i * sizeof(T), sizeof(T));
          (*acc)[i] += v;
        }
      }
      std::vector<T>* acc{nullptr};
    } sink;
    scratch.assign(vec.size(), T{});
    sink.acc = &scratch;
    run_collective(sink);
    // alltoallv returns only after every rank finished reading the
    // published spans, so rewriting vec here is race-free.
    std::swap(vec, scratch);
  }

  /// Gathers one value per rank, indexed by rank.
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collectives;
    broadcast_spans(value_bytes(value));
    struct Sink final : CollectiveSink {
      void deliver(int /*source*/, std::span<const std::byte> bytes) override {
        assert(bytes.size() == sizeof(T));
        T v;
        std::memcpy(&v, bytes.data(), sizeof(T));
        out.push_back(v);
      }
      std::vector<T> out;
    } sink;
    sink.out.reserve(static_cast<std::size_t>(nranks()));
    run_collective(sink);
    return std::move(sink.out);
  }

  /// Concatenates per-rank vectors, in rank order.
  template <typename T>
  [[nodiscard]] std::vector<T> allgatherv(const std::vector<T>& mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collectives;
    broadcast_spans(vector_bytes(mine));
    AppendSink<T> sink;
    run_collective(sink);
    return std::move(sink.out);
  }

  /// All-to-all variable exchange: `outgoing[d]` goes to rank d; returns
  /// everything addressed to this rank, concatenated in source-rank order
  /// (deterministic). `outgoing` must have nranks() entries and must stay
  /// unmodified until the call returns.
  template <typename T>
  [[nodiscard]] std::vector<T> exchange(const std::vector<std::vector<T>>& outgoing) {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(static_cast<int>(outgoing.size()) == nranks());
    ++stats_.collectives;
    spans_.clear();
    for (const auto& dest : outgoing) {
      stats_.records_sent += dest.size();
      stats_.bytes_sent += dest.size() * sizeof(T);
      spans_.push_back(vector_bytes(dest));
    }
    AppendSink<T> sink;
    run_collective(sink);
    stats_.records_received += sink.out.size();
    return std::move(sink.out);
  }

  /// Streaming all-to-all over the fine-grained plane: `outgoing[d]` goes
  /// to rank d (like exchange()), but there is no collective rendezvous —
  /// payloads ship as pooled chunks through the FIFO lanes and the phase
  /// ends with the counted-termination marker protocol, so ranks enter and
  /// leave independently. Between sending and draining, `overlap()` runs
  /// on this rank — compute that does not depend on the arrivals (the
  /// refine loop's stay-score initialization) executes while peer data is
  /// in flight.
  ///
  /// Determinism contract: arrivals are staged per source rank and
  /// `on_record(source, span<const T>)` is invoked in ascending source
  /// order (FIFO within a source), exactly the order the blocking
  /// exchange() delivers — so floating-point apply order, and therefore
  /// every downstream artifact, is bit-identical to the blocking path.
  /// The apply is progressive: source s's records are handed over as soon
  /// as s's end-of-phase marker has arrived and sources 0..s-1 are done,
  /// so receivers consume early senders while stragglers still transmit.
  ///
  /// on_record must not send. Records/bytes counters advance exactly as
  /// exchange() would; no collective round is recorded.
  ///
  /// Wire shape: each remote destination receives exactly ONE chunk, a
  /// fused data+marker (control=true, control_records=payload record
  /// count, payload appended in the same node) — an empty lane
  /// degenerates to a pure marker. Fusing the end-of-phase marker into
  /// the data chunk halves the per-phase message count versus
  /// data-then-marker, which is the dominant cost of small dense
  /// exchanges (both backends ship the control flag and the payload in
  /// one frame already). The self lane never touches the transport: the
  /// drain applies it in rank order straight out of `outgoing[rank()]`,
  /// so `outgoing` must stay alive and unmodified until the call returns
  /// (exchange() requires the same). Markers stay uncounted in
  /// TrafficStats; only payloads advance records/bytes.
  template <typename T, typename OnRecord, typename OverlapWork>
  void exchange_streaming(const std::vector<std::vector<T>>& outgoing,
                          OnRecord&& on_record, OverlapWork&& overlap) {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(static_cast<int>(outgoing.size()) == nranks());
    for (int d = 0; d < nranks(); ++d) {
      if (d == rank_) continue;
      const auto& dest = outgoing[static_cast<std::size_t>(d)];
      const std::size_t bytes = dest.size() * sizeof(T);
      Chunk* chunk = transport_->acquire_chunk(bytes);
      chunk->source = rank_;
      chunk->epoch = epoch_;
      chunk->control = true;
      chunk->control_records = dest.size();
      if (!dest.empty()) {
        chunk->append(dest.data(), bytes);
        stats_.records_sent += dest.size();
        stats_.bytes_sent += bytes;
        ++stats_.chunks_sent;
      }
      ++stats_.inter_group_messages;
      transport_->send(d, chunk);
    }
    const auto& self = outgoing[static_cast<std::size_t>(rank_)];
    stats_.records_sent += self.size();
    stats_.bytes_sent += self.size() * sizeof(T);
    self_payload_ = {reinterpret_cast<const std::byte*>(self.data()),
                     self.size() * sizeof(T)};
    self_local_ = true;
    std::forward<OverlapWork>(overlap)();
    drain_streaming_finalized<T>(std::forward<OnRecord>(on_record));
  }

  template <typename T, typename OnRecord>
  void exchange_streaming(const std::vector<std::vector<T>>& outgoing,
                          OnRecord&& on_record) {
    exchange_streaming<T>(outgoing, std::forward<OnRecord>(on_record), [] {});
  }

  // ---------------------------------------------------------------------
  // Fine-grained messaging (active-message style). Senders go through
  // Aggregator (aggregator.hpp), which coalesces records straight into
  // pooled chunks and hands them over with send_filled — the zero-copy
  // path on the thread backend — and ends the phase with
  // flush_all_final; the receiving side is drain_streaming_finalized.
  // ---------------------------------------------------------------------

  /// Takes a recycled chunk from the rank's pool with at least `bytes`
  /// of capacity. Pair with send_filled() or release_chunk().
  [[nodiscard]] Chunk* acquire_chunk(std::size_t bytes) {
    return transport_->acquire_chunk(bytes);
  }

  /// Returns an acquired-but-unsent chunk to the pool.
  void release_chunk(Chunk* chunk) { transport_->release_chunk(chunk); }

  /// Hands a filled chunk of `count` records to rank `dest`. Ownership of
  /// the node transfers to the transport (zero-copy on threads: the
  /// receiver releases the same node back to the shared pool).
  void send_filled(int dest, Chunk* chunk, std::size_t count) {
    assert(dest >= 0 && dest < nranks());
    assert(chunk != nullptr && !chunk->control);
    chunk->source = rank_;
    chunk->epoch = epoch_;
    phase_sent_[static_cast<std::size_t>(dest)] += count;
    stats_.records_sent += count;
    stats_.bytes_sent += chunk->size();
    ++stats_.chunks_sent;
    if (dest != rank_) ++stats_.inter_group_messages;
    transport_->send(dest, chunk);
  }

  /// send_filled variant that also ends the phase toward `dest`: the
  /// chunk ships as a fused data+marker whose control_records covers
  /// every record this rank sent `dest` this phase (this chunk included),
  /// so the drain needs no separate marker message. The caller must not
  /// send to `dest` again until the phase completes; pair with
  /// drain_streaming_finalized (Aggregator::flush_all_final does both
  /// halves of the send side).
  void send_filled_final(int dest, Chunk* chunk, std::size_t count) {
    assert(dest >= 0 && dest < nranks());
    assert(chunk != nullptr && !chunk->control);
    chunk->source = rank_;
    chunk->epoch = epoch_;
    chunk->control = true;
    chunk->control_records = phase_sent_[static_cast<std::size_t>(dest)] + count;
    phase_sent_[static_cast<std::size_t>(dest)] += count;
    stats_.records_sent += count;
    stats_.bytes_sent += chunk->size();
    ++stats_.chunks_sent;
    if (dest != rank_) ++stats_.inter_group_messages;
    transport_->send(dest, chunk);
  }

  /// Pure end-of-phase marker toward one destination — the empty-lane
  /// counterpart of send_filled_final.
  void send_marker(int dest) {
    assert(dest >= 0 && dest < nranks());
    Chunk* marker = transport_->acquire_chunk(0);
    marker->source = rank_;
    marker->epoch = epoch_;
    marker->control = true;
    marker->control_records = phase_sent_[static_cast<std::size_t>(dest)];
    if (dest != rank_) ++stats_.inter_group_messages;
    transport_->send(dest, marker);
  }

  /// Completes a fine-grained phase whose sender side ended it toward
  /// every destination (send_filled_final / send_marker per destination —
  /// Aggregator::flush_all_final does exactly that): delivers every record
  /// addressed to this rank, blocking (not spinning, and with no
  /// collective rounds) until the markers from all ranks have arrived —
  /// see the protocol note in the header comment. Arrivals are staged per
  /// source and `on_record(source, span<const T>)` fires in ascending
  /// source-rank order (FIFO within a source), progressively as each
  /// source's marker lands — deterministic apply order with overlap where
  /// the arrival schedule allows it. No sends until the call returns.
  /// Throws AbortedError if a peer fails mid-phase.
  template <typename T, typename OnRecord>
  void drain_streaming_finalized(OnRecord&& on_record) {
    const auto P = static_cast<std::size_t>(nranks());
    if (staged_.size() != P) staged_.resize(P);
    marker_from_.assign(P, 0);
    next_apply_ = 0;
    if (self_local_) {
      // exchange_streaming kept the self lane out of the transport:
      // account for it as both an implicit marker and already-arrived
      // records, so counted termination and TrafficStats match the
      // chunk-borne path exactly.
      marker_from_[static_cast<std::size_t>(rank_)] = 1;
      ++markers_seen_;
      const std::size_t n = self_payload_.size() / sizeof(T);
      expected_records_ += n;
      phase_received_ += n;
      stats_.records_received += n;
    }
    try {
      poll_staged(sizeof(T));
      apply_ready_sources<T>(on_record);
      while (markers_seen_ < static_cast<std::uint64_t>(nranks()) ||
             next_apply_ < nranks()) {
        if (markers_seen_ < static_cast<std::uint64_t>(nranks())) {
          transport_->wait_incoming();
          check_abort();
        }
        poll_staged(sizeof(T));
        apply_ready_sources<T>(on_record);
      }
    } catch (...) {
      for (auto& chunks : staged_) {
        for (Chunk* c : chunks) transport_->release_chunk(c);
        chunks.clear();
      }
      self_local_ = false;
      self_payload_ = {};
      throw;
    }
    self_local_ = false;
    self_payload_ = {};
    // FIFO-per-producer delivery means data precedes markers, so seeing
    // every marker implies having every record. Thrown as ProtocolError
    // whenever validation is on (Debug default; PLV_VALIDATE/PLV_PARANOID
    // in Release); a Debug assert otherwise.
    detail::check_quiescence_conservation(quiescence_enforced_, rank_, epoch_,
                                          phase_received_, expected_records_,
                                          transport_->name());
    end_phase();
  }

  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = TrafficStats{}; }

  /// High-water mark (in chunk nodes) for this rank's free list; trimmed
  /// at each fine-grained phase boundary. 0 = unbounded (never trim).
  void set_chunk_pool_watermark(std::size_t nodes) noexcept {
    transport_->set_pool_watermark(nodes);
  }
  [[nodiscard]] std::size_t chunk_pool_free_count() const noexcept {
    return transport_->pool_free_count();
  }

 private:
  template <typename T>
  [[nodiscard]] static std::span<const std::byte> value_bytes(const T& v) noexcept {
    return {reinterpret_cast<const std::byte*>(&v), sizeof(T)};
  }
  template <typename T>
  [[nodiscard]] static std::span<const std::byte> vector_bytes(
      const std::vector<T>& v) noexcept {
    return {reinterpret_cast<const std::byte*>(v.data()), v.size() * sizeof(T)};
  }

  /// Reusable sink that concatenates arrivals (rank order) into one
  /// typed vector, reserving exactly from the transport's size hint.
  template <typename T>
  struct AppendSink final : CollectiveSink {
    void total_hint(std::size_t bytes) override { out.reserve(bytes / sizeof(T)); }
    void deliver(int /*source*/, std::span<const std::byte> bytes) override {
      if (bytes.empty()) return;  // empty lane: data() may be null (UB in memcpy)
      assert(bytes.size() % sizeof(T) == 0);
      const std::size_t old = out.size();
      out.resize(old + bytes.size() / sizeof(T));
      std::memcpy(out.data() + old, bytes.data(), bytes.size());
    }
    std::vector<T> out;
  };

  /// One non-blocking pass of the streaming drain: this epoch's arrivals
  /// (deferred ones first — they arrived earlier) are retained in
  /// staged_[source] (arrival order = FIFO per source); markers
  /// additionally set the per-source flag that gates the ordered
  /// progressive apply. Chunks of the next epoch are deferred.
  void poll_staged(std::size_t record_size) {
    scratch_.clear();
    if (!deferred_.empty()) {
      std::size_t kept = 0;
      for (Chunk* c : deferred_) {
        if (c->epoch == epoch_) {
          scratch_.push_back(c);
        } else {
          deferred_[kept++] = c;
        }
      }
      deferred_.resize(kept);
    }
    transport_->drain(scratch_);
    std::size_t records = 0;
    for (Chunk* c : scratch_) {
      if (c->epoch != epoch_) {
        assert(c->epoch == epoch_ + 1);  // skew is bounded by one phase
        deferred_.push_back(c);
        continue;
      }
      if (c->control) {
        ++markers_seen_;
        expected_records_ += c->control_records;
        marker_from_[static_cast<std::size_t>(c->source)] = 1;
        // Fused data+marker (exchange_streaming's and send_filled_final's
        // wire shape): the payload rides in the control chunk, so stage
        // it like a data chunk instead of releasing the node.
        if (c->size() == 0) {
          transport_->release_chunk(c);
          continue;
        }
      }
      assert(c->size() % record_size == 0);
      records += c->size() / record_size;
      staged_[static_cast<std::size_t>(c->source)].push_back(c);
    }
    phase_received_ += records;
    stats_.records_received += records;
  }

  /// Applies (and releases) the staged chunks of every source whose marker
  /// has arrived and whose predecessors are all done — the in-order front
  /// of the phase. FIFO delivery means a source's marker trails its data,
  /// so a flagged source is complete.
  template <typename T, typename OnRecord>
  void apply_ready_sources(OnRecord&& on_record) {
    while (next_apply_ < nranks() &&
           marker_from_[static_cast<std::size_t>(next_apply_)] != 0) {
      if (self_local_ && next_apply_ == rank_) {
        // Zero-copy self lane: delivered straight from the caller's
        // outgoing buffer, in its rank-order slot like any other source.
        if (!self_payload_.empty()) {
          on_record(rank_, std::span<const T>(
                               reinterpret_cast<const T*>(self_payload_.data()),
                               self_payload_.size() / sizeof(T)));
        }
        ++next_apply_;
        continue;
      }
      auto& chunks = staged_[static_cast<std::size_t>(next_apply_)];
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        Chunk* c = chunks[i];
        const std::size_t n = c->size() / sizeof(T);
        try {
          on_record(next_apply_,
                    std::span<const T>(reinterpret_cast<const T*>(c->data()), n));
        } catch (...) {
          // Drop what was already applied; the phase-level catch in
          // drain_streaming_finalized releases the rest.
          chunks.erase(chunks.begin(), chunks.begin() + static_cast<std::ptrdiff_t>(i));
          throw;
        }
        transport_->release_chunk(c);
      }
      chunks.clear();
      ++next_apply_;
    }
  }

  /// The same payload for every destination (allreduce/allgather shape).
  void broadcast_spans(std::span<const std::byte> payload) {
    spans_.assign(static_cast<std::size_t>(nranks()), payload);
  }

  /// Runs a collective built in spans_. Every collective entry point
  /// funnels through here.
  void run_collective(CollectiveSink& sink) {
    // Logical message count of a collective: one frame to every peer.
    stats_.inter_group_messages += static_cast<std::uint64_t>(nranks() - 1);
    transport_->alltoallv(spans_, sink);
  }

  /// Epilogue of the drain: advance the epoch and reset the per-phase
  /// bookkeeping.
  void end_phase() {
    ++epoch_;
    markers_seen_ = 0;
    expected_records_ = 0;
    phase_received_ = 0;
    std::fill(phase_sent_.begin(), phase_sent_.end(), 0);
    // Phase boundary: shed free-list nodes beyond the high-water mark so a
    // receive-heavy rank does not retain its peak footprint forever.
    transport_->trim_pool();
  }

  void check_abort() const {
    if (transport_->aborted()) throw AbortedError();
  }

  Transport* transport_;
  int rank_;
  // Whether the quiescence count mismatch throws (validation on) instead
  // of the historical Debug assert. Fixed at construction.
  bool quiescence_enforced_;
  TrafficStats stats_;
  std::vector<std::span<const std::byte>> spans_;  // per-collective scratch

  // Counted-termination bookkeeping for the current fine-grained phase.
  std::uint64_t epoch_{0};
  std::vector<std::uint64_t> phase_sent_;  // records sent per destination
  std::uint64_t phase_received_{0};
  std::uint64_t expected_records_{0};      // sum of marker counts addressed here
  std::uint64_t markers_seen_{0};
  std::vector<Chunk*> deferred_;           // next-epoch chunks, held back
  std::vector<Chunk*> scratch_;            // drain buffer, reused across passes

  // Streaming-drain staging: per-source chunk queues (FIFO), per-source
  // marker flags, and the in-order apply cursor. Live only inside
  // drain_streaming_finalized; buffers persist across phases to avoid
  // reallocation.
  std::vector<std::vector<Chunk*>> staged_;
  std::vector<std::uint8_t> marker_from_;
  int next_apply_{0};
  // exchange_streaming's zero-copy self lane: a view into the caller's
  // outgoing[rank()] buffer, applied in rank order without ever touching
  // the transport. Valid only between send and drain completion.
  std::span<const std::byte> self_payload_{};
  bool self_local_{false};
};

/// Runs `body(Comm&)` on `nranks` ranks over the chosen transport and
/// joins them. Fail-fast: the first rank to throw stores its exception,
/// flips the shared abort flag, and wakes all waiters, so every peer's
/// next (or current) collective throws AbortedError instead of hanging.
/// Peers unwound by AbortedError are not treated as failures of their
/// own; after all ranks finish, the original exception is rethrown on the
/// caller (child-process failures as RemoteRankError).
class Runtime {
 public:
  /// Default entry: thread backend unless PLV_TRANSPORT overrides;
  /// protocol validation per build default unless PLV_VALIDATE /
  /// PLV_PARANOID override.
  static void run(int nranks, const std::function<void(Comm&)>& body) {
    run(nranks, body, resolve_transport(TransportKind::kThread));
  }

  /// Explicit-backend entry (no transport environment resolution — callers
  /// that honor PLV_TRANSPORT apply resolve_transport() themselves).
  /// Validation still follows the build default + environment.
  static void run(int nranks, const std::function<void(Comm&)>& body,
                  TransportKind kind) {
    run(nranks, body, kind, resolve_validate(kValidateTransportDefault));
  }

  /// Fully explicit entry: no environment resolution on either knob
  /// (callers apply resolve_transport/resolve_validate themselves). With
  /// `validate`, every rank's transport is wrapped in a ValidatingTransport
  /// (transport_check.hpp) and finalized — goodbye checks included — after
  /// a clean body return; a ProtocolError fails the run like any rank
  /// exception. `tcp` is consulted only by the kTcp backend (defaults
  /// select its loopback self-test fleet; PLV_HOSTS/PLV_RANK still apply
  /// inside run_tcp_ranks); `hybrid` only by the kHybrid backend, with
  /// PLV_RANKS_PER_PROC applied on top.
  ///
  /// kProc is the hybrid launcher at one rank per process. Its shape is
  /// fixed — PLV_RANKS_PER_PROC never reshapes a proc run.
  static void run(int nranks, const std::function<void(Comm&)>& body,
                  TransportKind kind, bool validate, const TcpOptions& tcp = {},
                  const HybridOptions& hybrid = {}) {
    if (nranks <= 0) throw std::invalid_argument("Runtime: nranks must be positive");
    if (kind == TransportKind::kProc) {
      detail::run_hybrid_ranks(nranks, body, validate, HybridOptions{1}, "proc");
      return;
    }
    if (kind == TransportKind::kTcp) {
      detail::run_tcp_ranks(nranks, body, validate, tcp);
      return;
    }
    if (kind == TransportKind::kHybrid) {
      detail::run_hybrid_ranks(nranks, body, validate, resolve_hybrid_options(hybrid),
                               "hybrid");
      return;
    }
    run_threads(nranks, body, validate);
  }

 private:
  static void run_threads(int nranks, const std::function<void(Comm&)>& body,
                          bool validate) {
    detail::ThreadShared state(nranks);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    // First-throwing rank wins; the guarded slot is the only cross-rank
    // mutable state in the launcher itself.
    struct {
      plv::Mutex mu;
      std::exception_ptr first PLV_GUARDED_BY(mu);
    } error;
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back([&state, &body, &error, validate, r] {
        ThreadTransport transport(&state, r);
        bool failed = false;
        try {
          if (validate) {
            ValidatingTransport checked(transport);
            {
              Comm comm(checked);
              body(comm);
            }
            // Goodbye transition after the Comm destructor released its
            // deferred chunks; leaks and post-goodbye traffic throw.
            checked.finalize();
          } else {
            Comm comm(transport);
            body(comm);
          }
        } catch (const AbortedError&) {
          failed = true;  // peer-induced: the originating rank records the cause
        } catch (...) {
          {
            plv::MutexLock lock(error.mu);
            if (!error.first) error.first = std::current_exception();
          }
          failed = true;
        }
        if (failed) state.abort();
        // Leave the barrier permanently so stragglers can never block on
        // a rank that has already finished.
        state.barrier.arrive_and_drop();
      });
    }
    for (auto& t : threads) t.join();
    {
      plv::MutexLock lock(error.mu);
      if (error.first) std::rethrow_exception(error.first);
    }
    if (state.aborted.load(std::memory_order_seq_cst)) {
      // Possible only if a body threw AbortedError itself; still fail.
      throw AbortedError();
    }
  }
};

}  // namespace plv::pml
