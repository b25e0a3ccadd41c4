// Protocol verifier for the messaging layer: a ValidatingTransport
// decorator that wraps any Transport backend and enforces the frame
// protocol as an explicit per-peer state machine.
//
// The pml frame protocol was specified in prose (comm.hpp, transport.hpp,
// DESIGN.md decision 9/10) and guarded by scattered asserts; this module
// turns it into a machine-checked specification, so a new backend (the
// roadmap's TCP/MPI transport) can be developed against the checker
// instead of tribal knowledge. Per rank, the verifier tracks:
//
//   * one SEND lane per destination and one RECEIVE lane per source, each
//     a tiny state machine over (last finalized epoch, open-phase bytes).
//     Every fine-grained phase toward a remote peer must end with exactly
//     one final marker (a control chunk), data must precede that marker,
//     epochs advance by exactly one per phase, and skew beyond one phase
//     is rejected. The self lane is exempt from the contiguity rule only
//     (exchange_streaming keeps self traffic off the transport, so its
//     epochs may skip), never from ordering.
//   * quiescence record-count conservation per receive lane: when a
//     marker closes a phase, the payload bytes that arrived on that lane
//     during the phase must be consistent with the record count the
//     marker promises (zero iff zero, and an exact record multiple
//     otherwise). The exact typed-count comparison lives in Comm, which
//     knows sizeof(T); it reports through check_quiescence_conservation
//     below — the generalization of the old one-off PLV_PARANOID assert.
//   * chunk-pool ownership: every chunk this rank holds (acquired from
//     the pool or drained from a peer) is ledgered; releasing a chunk
//     twice, sending a chunk the rank does not own, and holding an
//     acquired-but-never-sent chunk across a phase boundary or at
//     goodbye are all violations.
//   * rank-ordered collective participation: alltoallv must deliver
//     exactly one payload per source rank in ascending rank order — the
//     determinism guarantee every rank-order reduction builds on.
//   * goodbye: finalize() closes the machine after a clean rank body;
//     any traffic afterwards is a violation (the seam-level equivalent
//     of the proc backend's send-after-Goodbye).
//
// Violations throw ProtocolError naming the violation kind, the rank,
// the peer lane, and the epoch (phase) of the offending transition.
// Checks relax automatically once the run is aborted: a fleet unwinding
// from a peer failure legitimately leaves phases half-open.
//
// Selection: ParOptions::validate_transport (Debug default: on), the
// PLV_VALIDATE environment variable (overrides the option; "0" disables,
// anything else enables), or PLV_PARANOID=1 — the historical knob that
// promoted the quiescence assert in Release — which now acts as an alias
// enabling full validation, so existing soak scripts keep working.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "pml/mailbox.hpp"
#include "pml/transport.hpp"

namespace plv::pml {

/// Default for ParOptions::validate_transport / Runtime::run: the checker
/// is ON in Debug builds (the whole test suite runs under it) and off in
/// optimized builds, where PLV_VALIDATE=1 / PLV_PARANOID=1 opt in.
#ifdef NDEBUG
inline constexpr bool kValidateTransportDefault = false;
#else
inline constexpr bool kValidateTransportDefault = true;
#endif

/// The violation classes of the frame protocol, one per state-machine
/// transition the verifier rejects. Negative protocol tests assert the
/// exact class (tests/pml_protocol_test.cpp).
enum class ProtocolViolation {
  kTrafficAfterGoodbye,   ///< any transport call after finalize()
  kDataAfterFinalMarker,  ///< data frame in a phase already closed on that lane
  kDuplicateFinalMarker,  ///< second final marker for one (phase, lane)
  kEpochSkew,             ///< lane epoch not contiguous / skew beyond one phase
  kQuiescenceMismatch,    ///< marker record count inconsistent with delivered payload
  kChunkDoubleRelease,    ///< release of a chunk this rank does not own
  kForeignChunk,          ///< send of a chunk this rank does not own, or bad source
  kChunkLeak,             ///< owned chunk neither sent nor released at a boundary
  kCollectiveShape,       ///< alltoallv called with a malformed outgoing vector
  kCollectiveOrder,       ///< sink deliveries not exactly rank 0..P-1 ascending
};

[[nodiscard]] const char* protocol_violation_name(ProtocolViolation v) noexcept;

/// Thrown by ValidatingTransport (and the folded quiescence check) on a
/// protocol violation. Derives from std::runtime_error so existing
/// catch-alls (and the proc backend's RemoteRankError text forwarding)
/// keep working; `kind` lets tests and tools dispatch on the transition.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ProtocolViolation kind, int rank, int peer, std::uint64_t epoch,
                const std::string& detail);

  [[nodiscard]] ProtocolViolation kind() const noexcept { return kind_; }
  [[nodiscard]] int rank() const noexcept { return rank_; }
  /// Peer lane of the offending transition; -1 when not lane-specific.
  [[nodiscard]] int peer() const noexcept { return peer_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  ProtocolViolation kind_;
  int rank_;
  int peer_;
  std::uint64_t epoch_;
};

namespace detail {

/// Pure decision function behind resolve_validate, separated so the
/// precedence (PLV_VALIDATE wins over PLV_PARANOID wins over the
/// requested value) is unit-testable without mutating the environment.
[[nodiscard]] inline bool parse_validate_env(const char* validate_env,
                                             const char* paranoid_env,
                                             bool requested) noexcept {
  if (validate_env != nullptr && *validate_env != '\0') {
    return std::string_view(validate_env) != "0";
  }
  if (paranoid_env != nullptr && *paranoid_env != '\0') {
    return std::string_view(paranoid_env) != "0";
  }
  return requested;
}

/// True when the environment alone forces validation on (used by Comm,
/// which has no ParOptions in scope). Read once, like PLV_TRANSPORT.
[[nodiscard]] inline bool validation_forced_by_env() noexcept {
  static const bool enabled =
      // Read once under the static-init guard; no writer races it.
      // NOLINTNEXTLINE(concurrency-mt-unsafe)
      parse_validate_env(std::getenv("PLV_VALIDATE"), std::getenv("PLV_PARANOID"),
                         /*requested=*/false);
  return enabled;
}

/// The typed quiescence record-count conservation check of Comm's drain
/// (the old PLV_PARANOID one-off, folded into the checker module). Throws
/// ProtocolError when enforced; otherwise keeps the historical Debug
/// assert.
void check_quiescence_conservation(bool enforce, int rank, std::uint64_t epoch,
                                   std::uint64_t received, std::uint64_t expected,
                                   const char* transport);

/// Open-addressed pointer->tag map for the chunk-ownership ledger
/// (std::unordered_map is banned from src/pml by the repo lint pass, and
/// FlatMap is keyed by 32-bit vertex ids). Linear probing, power-of-two
/// capacity, backward-shift erase; the null pointer is the empty slot.
///
/// Concurrency contract: a ChunkLedger (like every per-peer Lane below)
/// is rank-local — it belongs to one ValidatingTransport, which belongs
/// to one rank's thread, so it is deliberately lock-free and carries no
/// capability annotations. Cross-rank effects reach it only as chunks
/// drained from the rank's own mailbox.
class ChunkLedger {
 public:
  enum class Origin : std::uint8_t { kAcquired, kDrained };

  /// Records ownership; returns false if the chunk is already ledgered.
  bool insert(const Chunk* chunk, Origin origin) {
    if (slots_.empty()) rehash(16);
    if (size_ * 2 >= slots_.size()) rehash(slots_.size() * 2);
    Slot* s = probe(chunk);
    if (s->key != nullptr) return false;
    s->key = chunk;
    s->origin = origin;
    ++size_;
    return true;
  }

  /// Drops ownership; returns false if the chunk is not ledgered.
  bool erase(const Chunk* chunk) noexcept {
    if (slots_.empty()) return false;
    Slot* s = probe(chunk);
    if (s->key == nullptr) return false;
    std::size_t hole = static_cast<std::size_t>(s - slots_.data());
    std::size_t next = (hole + 1) & mask_;
    while (slots_[next].key != nullptr) {
      const std::size_t home = home_of(slots_[next].key);
      // Backward-shift only entries whose probe chain passes the hole.
      const bool wraps = next < home;
      const bool reaches = wraps ? (hole >= home || hole < next) : (hole >= home && hole < next);
      if (reaches) {
        slots_[hole] = slots_[next];
        hole = next;
      }
      next = (next + 1) & mask_;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Number of ledgered chunks with the given origin (leak reporting).
  [[nodiscard]] std::size_t count(Origin origin) const noexcept {
    std::size_t n = 0;
    for (const Slot& s : slots_) {
      if (s.key != nullptr && s.origin == origin) ++n;
    }
    return n;
  }

 private:
  struct Slot {
    const Chunk* key{nullptr};
    Origin origin{Origin::kAcquired};
  };

  [[nodiscard]] std::size_t home_of(const Chunk* key) const noexcept {
    // Fibonacci multiplicative hash of the pointer bits (64-bit golden
    // ratio constant), folded to the table's power-of-two size.
    const auto bits = reinterpret_cast<std::uintptr_t>(key);
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(bits) * 0x9E3779B97F4A7C15ULL) >> 32) &
           mask_;
  }

  [[nodiscard]] Slot* probe(const Chunk* key) noexcept {
    std::size_t idx = home_of(key);
    for (;;) {
      Slot& s = slots_[idx];
      if (s.key == key || s.key == nullptr) return &s;
      idx = (idx + 1) & mask_;
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    for (const Slot& s : old) {
      if (s.key != nullptr) *probe(s.key) = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_{0};
  std::size_t size_{0};
};

}  // namespace detail

/// Applies the PLV_VALIDATE / PLV_PARANOID environment overrides (if set
/// and non-empty) on top of the configured `requested` value, mirroring
/// resolve_transport: the env wins so a whole test binary or soak run can
/// be flipped without touching call sites. Cached on first call.
[[nodiscard]] inline bool resolve_validate(bool requested) noexcept {
  static const bool env_validate = [] {
    // Read once under the static-init guard; no writer races it.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* v = std::getenv("PLV_VALIDATE");
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* p = std::getenv("PLV_PARANOID");
    return (v != nullptr && *v != '\0') || (p != nullptr && *p != '\0');
  }();
  if (!env_validate) return requested;
  return detail::validation_forced_by_env();
}

/// The decorator. Wraps any Transport and checks every seam call against
/// the protocol state machine before forwarding; composes with both the
/// thread and proc backends (it holds only rank-local state, so one
/// instance per rank needs no synchronization). name() forwards the
/// backend's own name — validation is invisible to user-facing transport
/// identity (results, bench JSON stamp it separately).
class ValidatingTransport final : public Transport {
 public:
  explicit ValidatingTransport(Transport& inner);

  [[nodiscard]] const char* name() const noexcept override { return inner_.name(); }
  [[nodiscard]] int rank() const noexcept override { return inner_.rank(); }
  [[nodiscard]] int nranks() const noexcept override { return inner_.nranks(); }

  void barrier() override;
  void alltoallv(std::span<const std::span<const std::byte>> outgoing,
                 CollectiveSink& sink) override;

  [[nodiscard]] Chunk* acquire_chunk(std::size_t reserve_bytes) override;
  void release_chunk(Chunk* chunk) override;
  void send(int dest, Chunk* chunk) override;
  std::size_t drain(std::vector<Chunk*>& out) override;
  void wait_incoming() override;

  void raise_abort() noexcept override { inner_.raise_abort(); }
  [[nodiscard]] bool aborted() const noexcept override { return inner_.aborted(); }

  void set_pool_watermark(std::size_t nodes) noexcept override {
    inner_.set_pool_watermark(nodes);
  }
  void trim_pool() override;
  [[nodiscard]] std::size_t pool_free_count() const noexcept override {
    return inner_.pool_free_count();
  }

  /// Goodbye transition: called by the runtime after the rank body
  /// returned cleanly (and after the Comm destructor released anything it
  /// still held). Runs the end-of-run checks — chunks still owned are
  /// leaks — and closes the machine: any later call is a violation.
  /// Not called on failed ranks; an aborted fleet unwinds mid-phase by
  /// design and is exempt from the goodbye checks.
  void finalize();

 private:
  /// Per-(this rank, peer) directional lane state. marker_epoch is the
  /// last epoch closed by a final marker (-1 before the first phase);
  /// open_epoch is the phase currently in flight on the lane (-1 when
  /// closed) and open_bytes accumulates its payload bytes — both sides of
  /// the byte-level quiescence conservation check.
  struct Lane {
    std::int64_t marker_epoch{-1};
    std::int64_t open_epoch{-1};
    std::uint64_t open_bytes{0};
  };

  /// Cold-path result of one lane-machine step: ok, or the violation to
  /// report (the caller disposes of in-flight chunks before throwing).
  struct Verdict {
    bool ok{true};
    ProtocolViolation kind{ProtocolViolation::kEpochSkew};
    std::string detail;
  };

  /// Advances `lane` by one frame (data or final marker) of `epoch`
  /// carrying `payload_bytes`; mutates the lane only on success. The same
  /// machine runs both directions — `relaxed` lifts the epoch-contiguity
  /// rule for the self lane (exchange_streaming keeps self phases off the
  /// transport, so transported self epochs may legitimately skip).
  [[nodiscard]] Verdict check_lane_step(Lane& lane, bool relaxed, bool is_control,
                                        std::uint64_t control_records,
                                        std::uint64_t epoch, std::size_t payload_bytes,
                                        const char* direction);

  /// Checks relax once the run is aborted: surviving ranks unwind through
  /// half-open phases legitimately.
  [[nodiscard]] bool enforcing() const noexcept { return !closed_ && !inner_.aborted(); }

  void ensure_open(const char* op) const;
  [[noreturn]] void fail(ProtocolViolation kind, int peer, std::uint64_t epoch,
                         const std::string& detail) const;

  /// Receive-lane state machine step for one drained chunk; disposes of
  /// `undelivered` (this chunk and everything drained after it) back to
  /// the inner pool before throwing so a rejected drain leaks nothing.
  void inspect_arrival(Chunk* chunk, std::span<Chunk* const> undelivered);

  Transport& inner_;
  std::vector<Lane> send_lanes_;
  std::vector<Lane> recv_lanes_;
  detail::ChunkLedger ledger_;
  std::vector<Chunk*> drain_scratch_;
  bool closed_{false};
};

/// Name of the sanitizer baked into this binary, for bench JSON stamping
/// and the harness' refuse-to-publish gate ("none" in plain builds).
[[nodiscard]] constexpr const char* active_sanitizer_name() noexcept {
#if defined(__SANITIZE_THREAD__)
  return "tsan";
#elif defined(__SANITIZE_ADDRESS__)
  return "asan+ubsan";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return "tsan";
#elif __has_feature(address_sanitizer)
  return "asan+ubsan";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

}  // namespace plv::pml
