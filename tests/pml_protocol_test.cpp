// Negative tests for the ValidatingTransport protocol checker: a
// FaultyTransport test double deliberately commits each violation class —
// on the send side by driving the decorator's API the way a buggy caller
// would, on the receive side by scripting protocol-violating frames into
// drain() the way a buggy backend would — and every test asserts the
// checker rejects the transition with the intended ProtocolError kind.
// Positive coverage (the checker stays silent on conforming traffic over
// both real backends) rides along at the bottom.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "pml/aggregator.hpp"
#include "pml/comm.hpp"
#include "pml/mailbox.hpp"
#include "pml/transport.hpp"
#include "pml/transport_check.hpp"
#include "transport_param.hpp"

namespace plv::pml {
namespace {

// ---------------------------------------------------------------------------
// The test double. Chunks are plain heap nodes; release deletes, so ASan
// verifies the checker's dispose-before-throw paths leak nothing.
// ---------------------------------------------------------------------------
class FaultyTransport final : public Transport {
 public:
  enum class CollectiveMode {
    kInOrder,     // conforming: one delivery per source, ascending
    kOutOfOrder,  // delivers source 1 before source 0
    kIncomplete,  // skips the last source entirely
  };

  explicit FaultyTransport(int nranks = 2, int rank = 0) : rank_(rank), nranks_(nranks) {}

  ~FaultyTransport() override {
    for (Chunk* c : scripted_) delete c;
    for (Chunk* c : loopback_) delete c;
  }

  [[nodiscard]] const char* name() const noexcept override { return "faulty"; }
  [[nodiscard]] int rank() const noexcept override { return rank_; }
  [[nodiscard]] int nranks() const noexcept override { return nranks_; }

  void barrier() override {}

  void alltoallv(std::span<const std::span<const std::byte>> /*outgoing*/,
                 CollectiveSink& sink) override {
    switch (collective_mode) {
      case CollectiveMode::kInOrder:
        for (int s = 0; s < nranks_; ++s) sink.deliver(s, {});
        return;
      case CollectiveMode::kOutOfOrder:
        sink.deliver(1, {});
        sink.deliver(0, {});
        for (int s = 2; s < nranks_; ++s) sink.deliver(s, {});
        return;
      case CollectiveMode::kIncomplete:
        for (int s = 0; s + 1 < nranks_; ++s) sink.deliver(s, {});
        return;
    }
  }

  [[nodiscard]] Chunk* acquire_chunk(std::size_t reserve_bytes) override {
    Chunk* c = new Chunk();
    c->reserve(reserve_bytes);
    ++live_chunks;
    return c;
  }

  void release_chunk(Chunk* chunk) override {
    --live_chunks;
    delete chunk;
  }

  void send(int dest, Chunk* chunk) override {
    if (dest == rank_) {
      loopback_.push_back(chunk);  // self lane: delivered by the next drain
      return;
    }
    --live_chunks;
    delete chunk;  // remote lane of a rank-local double: bytes vanish
  }

  std::size_t drain(std::vector<Chunk*>& out) override {
    const std::size_t n = scripted_.size() + loopback_.size();
    out.insert(out.end(), scripted_.begin(), scripted_.end());
    out.insert(out.end(), loopback_.begin(), loopback_.end());
    scripted_.clear();
    loopback_.clear();
    return n;
  }

  void wait_incoming() override {}

  void raise_abort() noexcept override { aborted_ = true; }
  [[nodiscard]] bool aborted() const noexcept override { return aborted_; }

  void trim_pool() override {}
  [[nodiscard]] std::size_t pool_free_count() const noexcept override { return 0; }

  /// Scripts one wire frame for the next drain(): what a (possibly buggy)
  /// backend would deliver. `payload_records` uint64 records ride along.
  Chunk* script_arrival(int source, std::uint64_t epoch, bool control,
                        std::uint64_t control_records, std::size_t payload_records) {
    Chunk* c = new Chunk();
    ++live_chunks;
    c->source = source;
    c->epoch = epoch;
    c->control = control;
    c->control_records = control_records;
    for (std::size_t i = 0; i < payload_records; ++i) {
      const std::uint64_t v = i;
      c->append(&v, sizeof(v));
    }
    scripted_.push_back(c);
    return c;
  }

  CollectiveMode collective_mode{CollectiveMode::kInOrder};
  int live_chunks{0};  // acquired or scripted, not yet deleted

 private:
  int rank_;
  int nranks_;
  std::vector<Chunk*> scripted_;
  std::vector<Chunk*> loopback_;
  bool aborted_{false};
};

/// Catches the ProtocolError thrown by `fn` and returns its kind;
/// ADD_FAILUREs (and returns a sentinel) if nothing was thrown.
template <typename Fn>
ProtocolViolation thrown_violation(Fn&& fn) {
  try {
    fn();
  } catch (const ProtocolError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a ProtocolError, none was thrown";
  return ProtocolViolation{-1};
}

/// A filled outgoing data chunk as Comm would stamp it.
Chunk* make_outgoing(ValidatingTransport& vt, int source, std::uint64_t epoch,
                     std::size_t payload_records, bool control = false,
                     std::uint64_t control_records = 0) {
  Chunk* c = vt.acquire_chunk(payload_records * sizeof(std::uint64_t));
  c->source = source;
  c->epoch = epoch;
  c->control = control;
  c->control_records = control_records;
  for (std::size_t i = 0; i < payload_records; ++i) {
    const std::uint64_t v = i;
    c->append(&v, sizeof(v));
  }
  return c;
}

/// Drains through the checker and releases everything delivered (keeps the
/// ledger clean so later goodbye checks see only the intended state).
/// drain() hands over the chunks it validated before a mid-drain violation
/// throws, so the delivered prefix must be released even on the error path.
void drain_and_release(ValidatingTransport& vt) {
  std::vector<Chunk*> got;
  try {
    vt.drain(got);
  } catch (...) {
    for (Chunk* c : got) vt.release_chunk(c);
    throw;
  }
  for (Chunk* c : got) vt.release_chunk(c);
}

// ---------------------------------------------------------------------------
// Send-side transitions (a buggy caller above the seam).
// ---------------------------------------------------------------------------

TEST(ProtocolChecker, SendAfterGoodbyeIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  vt.finalize();
  EXPECT_EQ(thrown_violation([&] {
              // The node is acquired from the *inner* transport: acquiring
              // through the closed checker would already throw.
              Chunk* c = inner.acquire_chunk(8);
              try {
                vt.send(1, c);
              } catch (...) {
                inner.release_chunk(c);  // checker never owned it
                throw;
              }
            }),
            ProtocolViolation::kTrafficAfterGoodbye);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, AnyTrafficAfterGoodbyeIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  vt.finalize();
  vt.finalize();  // idempotent, still closed
  EXPECT_EQ(thrown_violation([&] { vt.barrier(); }),
            ProtocolViolation::kTrafficAfterGoodbye);
  EXPECT_EQ(thrown_violation([&] { (void)vt.acquire_chunk(8); }),
            ProtocolViolation::kTrafficAfterGoodbye);
  EXPECT_EQ(thrown_violation([&] {
              std::vector<Chunk*> out;
              (void)vt.drain(out);
            }),
            ProtocolViolation::kTrafficAfterGoodbye);
}

TEST(ProtocolChecker, DataAfterFinalMarkerOnSendLaneIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  vt.send(1, make_outgoing(vt, 0, 0, 4));
  vt.send(1, make_outgoing(vt, 0, 0, 0, /*control=*/true, /*control_records=*/4));
  EXPECT_EQ(thrown_violation(
                [&] { vt.send(1, make_outgoing(vt, 0, 0, 2)); }),
            ProtocolViolation::kDataAfterFinalMarker);
  EXPECT_EQ(inner.live_chunks, 0);  // the rejected send disposed of its chunk
}

TEST(ProtocolChecker, DuplicateFinalMarkerOnSendLaneIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  vt.send(1, make_outgoing(vt, 0, 0, 0, /*control=*/true, 0));
  EXPECT_EQ(thrown_violation([&] {
              vt.send(1, make_outgoing(vt, 0, 0, 0, /*control=*/true, 0));
            }),
            ProtocolViolation::kDuplicateFinalMarker);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, EpochSkewOnSendLaneIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  // First phase on a remote lane must be epoch 0; jumping ahead is skew.
  EXPECT_EQ(thrown_violation(
                [&] { vt.send(1, make_outgoing(vt, 0, 2, 1)); }),
            ProtocolViolation::kEpochSkew);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, SelfLaneMaySkipEpochsButNeverRegress) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  // exchange_streaming keeps self phases off the transport, so the next
  // transported self phase may arrive at a later epoch — legal.
  vt.send(0, make_outgoing(vt, 0, 0, 0, /*control=*/true, 0));
  vt.send(0, make_outgoing(vt, 0, 3, 0, /*control=*/true, 0));
  drain_and_release(vt);
  // Ordering still holds: a frame for an already-closed phase is rejected.
  EXPECT_EQ(thrown_violation(
                [&] { vt.send(0, make_outgoing(vt, 0, 1, 1)); }),
            ProtocolViolation::kDataAfterFinalMarker);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, UnderpromisingFinalMarkerOnSendLaneIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  vt.send(1, make_outgoing(vt, 0, 0, 4));  // 32 payload bytes this phase
  EXPECT_EQ(thrown_violation([&] {
              // Marker promises 0 records despite the bytes above.
              vt.send(1, make_outgoing(vt, 0, 0, 0, /*control=*/true, 0));
            }),
            ProtocolViolation::kQuiescenceMismatch);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, SendOfForeignChunkIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  Chunk* c = vt.acquire_chunk(8);
  c->source = 0;
  vt.send(0, c);  // ownership gone (loopback queue holds it)
  EXPECT_EQ(thrown_violation([&] { vt.send(0, c); }),
            ProtocolViolation::kForeignChunk);
  drain_and_release(vt);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, MisstampedSourceOnOutgoingChunkIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  EXPECT_EQ(thrown_violation([&] {
              Chunk* c = make_outgoing(vt, /*source=*/1, 0, 1);  // rank is 0
              vt.send(1, c);
            }),
            ProtocolViolation::kForeignChunk);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, ChunkDoubleReleaseIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  Chunk* c = vt.acquire_chunk(8);
  vt.release_chunk(c);
  EXPECT_EQ(thrown_violation([&] { vt.release_chunk(c); }),
            ProtocolViolation::kChunkDoubleRelease);
}

TEST(ProtocolChecker, ChunkHeldAcrossPhaseBoundaryIsALeak) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  Chunk* c = vt.acquire_chunk(8);
  EXPECT_EQ(thrown_violation([&] { vt.trim_pool(); }),
            ProtocolViolation::kChunkLeak);
  vt.release_chunk(c);
  vt.trim_pool();  // clean after the release
}

TEST(ProtocolChecker, ChunkHeldAtGoodbyeIsALeak) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  Chunk* c = vt.acquire_chunk(8);
  EXPECT_EQ(thrown_violation([&] { vt.finalize(); }),
            ProtocolViolation::kChunkLeak);
  inner.release_chunk(c);  // the checker is closed now; clean up directly
}

// ---------------------------------------------------------------------------
// Receive-side transitions (a buggy backend below the seam).
// ---------------------------------------------------------------------------

TEST(ProtocolChecker, DataAfterFinalMarkerOnRecvLaneIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  inner.script_arrival(1, 0, /*control=*/false, 0, 2);
  inner.script_arrival(1, 0, /*control=*/true, /*control_records=*/2, 0);
  drain_and_release(vt);
  inner.script_arrival(1, 0, /*control=*/false, 0, 1);  // phase 0 is closed
  EXPECT_EQ(thrown_violation([&] { drain_and_release(vt); }),
            ProtocolViolation::kDataAfterFinalMarker);
  EXPECT_EQ(inner.live_chunks, 0);  // rejected arrivals went back to the pool
}

TEST(ProtocolChecker, DuplicateFinalMarkerOnRecvLaneIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  inner.script_arrival(1, 0, /*control=*/true, 0, 0);
  inner.script_arrival(1, 0, /*control=*/true, 0, 0);
  EXPECT_EQ(thrown_violation([&] { drain_and_release(vt); }),
            ProtocolViolation::kDuplicateFinalMarker);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, EpochSkewOnRecvLaneIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  inner.script_arrival(1, 0, /*control=*/true, 0, 0);
  inner.script_arrival(1, 2, /*control=*/false, 0, 1);  // epoch 1 skipped
  EXPECT_EQ(thrown_violation([&] { drain_and_release(vt); }),
            ProtocolViolation::kEpochSkew);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, MiscountedQuiescenceMarkerIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  inner.script_arrival(1, 0, /*control=*/false, 0, 2);  // 16 payload bytes
  inner.script_arrival(1, 0, /*control=*/true, /*control_records=*/3, 0);
  EXPECT_EQ(thrown_violation([&] { drain_and_release(vt); }),
            ProtocolViolation::kQuiescenceMismatch);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, FusedDataMarkerCountsItsOwnPayload) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  // exchange_streaming's wire shape: one control chunk carrying the whole
  // lane payload. 2 records promised, 2 carried — conforming.
  inner.script_arrival(1, 0, /*control=*/true, /*control_records=*/2, 2);
  drain_and_release(vt);
  // Next phase promises 2 but carries 3 — bytes not a multiple.
  inner.script_arrival(1, 1, /*control=*/true, /*control_records=*/3, 2);
  EXPECT_EQ(thrown_violation([&] { drain_and_release(vt); }),
            ProtocolViolation::kQuiescenceMismatch);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, ArrivalWithOutOfRangeSourceIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  inner.script_arrival(7, 0, /*control=*/false, 0, 1);  // fleet has 2 ranks
  EXPECT_EQ(thrown_violation([&] { drain_and_release(vt); }),
            ProtocolViolation::kForeignChunk);
  EXPECT_EQ(inner.live_chunks, 0);
}

// ---------------------------------------------------------------------------
// Collective plane.
// ---------------------------------------------------------------------------

struct CountingSink final : CollectiveSink {
  void deliver(int, std::span<const std::byte>) override { ++deliveries; }
  int deliveries{0};
};

TEST(ProtocolChecker, MalformedCollectiveShapeIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  CountingSink sink;
  std::vector<std::span<const std::byte>> outgoing(1);  // fleet has 2 ranks
  EXPECT_EQ(thrown_violation([&] { vt.alltoallv(outgoing, sink); }),
            ProtocolViolation::kCollectiveShape);
}

TEST(ProtocolChecker, OutOfOrderCollectiveDeliveryIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  inner.collective_mode = FaultyTransport::CollectiveMode::kOutOfOrder;
  CountingSink sink;
  std::vector<std::span<const std::byte>> outgoing(2);
  EXPECT_EQ(thrown_violation([&] { vt.alltoallv(outgoing, sink); }),
            ProtocolViolation::kCollectiveOrder);
}

TEST(ProtocolChecker, IncompleteCollectiveDeliveryIsRejected) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  inner.collective_mode = FaultyTransport::CollectiveMode::kIncomplete;
  CountingSink sink;
  std::vector<std::span<const std::byte>> outgoing(2);
  EXPECT_EQ(thrown_violation([&] { vt.alltoallv(outgoing, sink); }),
            ProtocolViolation::kCollectiveOrder);
  EXPECT_EQ(sink.deliveries, 1);  // delivery 0 reached the sink before the stop
}

// ---------------------------------------------------------------------------
// The folded typed quiescence check (Comm layer, sizeof(T)-exact) and the
// abort exemption.
// ---------------------------------------------------------------------------

TEST(ProtocolChecker, TypedQuiescenceCountMismatchSurfacesThroughComm) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  // Byte-consistent but count-wrong: 2 uint64 records on the wire, marker
  // promises 4 (16 % 4 == 0, so only Comm's sizeof-aware check can see it).
  inner.script_arrival(1, 0, /*control=*/false, 0, 2);
  inner.script_arrival(1, 0, /*control=*/true, /*control_records=*/4, 0);
  Comm comm(vt);
  const ProtocolViolation kind = thrown_violation([&] {
    // This rank's own end of the phase: a marker to each rank, the one to
    // itself looping back through the double's self lane.
    for (int d = 0; d < comm.nranks(); ++d) comm.send_marker(d);
    comm.drain_streaming_finalized<std::uint64_t>(
        [](int, std::span<const std::uint64_t>) {});
  });
  EXPECT_EQ(kind, ProtocolViolation::kQuiescenceMismatch);
  EXPECT_EQ(inner.live_chunks, 0);
}

TEST(ProtocolChecker, ChecksRelaxOnceAborted) {
  FaultyTransport inner;
  ValidatingTransport vt(inner);
  Chunk* held = vt.acquire_chunk(8);
  inner.script_arrival(1, 5, /*control=*/false, 0, 1);  // wild skew
  vt.raise_abort();
  // An aborted fleet unwinds through half-open phases and held chunks;
  // none of that may throw on top of the original failure.
  EXPECT_NO_THROW(drain_and_release(vt));
  EXPECT_NO_THROW(vt.release_chunk(held));
  EXPECT_NO_THROW(vt.trim_pool());
  EXPECT_NO_THROW(vt.finalize());
  EXPECT_EQ(inner.live_chunks, 0);
}

// ---------------------------------------------------------------------------
// Environment knob resolution (PLV_VALIDATE wins, PLV_PARANOID aliases).
// ---------------------------------------------------------------------------

TEST(ValidateEnv, RequestedValuePassesThroughWithoutEnv) {
  EXPECT_TRUE(detail::parse_validate_env(nullptr, nullptr, true));
  EXPECT_FALSE(detail::parse_validate_env(nullptr, nullptr, false));
  EXPECT_TRUE(detail::parse_validate_env("", "", true));
  EXPECT_FALSE(detail::parse_validate_env("", "", false));
}

TEST(ValidateEnv, ValidateVariableOverridesBothWays) {
  EXPECT_TRUE(detail::parse_validate_env("1", nullptr, false));
  EXPECT_FALSE(detail::parse_validate_env("0", nullptr, true));
  // PLV_VALIDATE beats PLV_PARANOID when both are set.
  EXPECT_FALSE(detail::parse_validate_env("0", "1", true));
}

TEST(ValidateEnv, ParanoidAliasEnablesValidation) {
  // Legacy soak scripts export PLV_PARANOID=1; that now means full
  // protocol validation, not just the quiescence count promotion.
  EXPECT_TRUE(detail::parse_validate_env(nullptr, "1", false));
  EXPECT_FALSE(detail::parse_validate_env(nullptr, "0", true));
}

TEST(ValidateEnv, DefaultTracksBuildType) {
#ifdef NDEBUG
  EXPECT_FALSE(kValidateTransportDefault);
#else
  EXPECT_TRUE(kValidateTransportDefault);
#endif
}

// ---------------------------------------------------------------------------
// Positive coverage: conforming traffic over both REAL backends with the
// checker explicitly on, exercising every protocol feature the checker
// models (collectives, aggregated sends, streaming exchange, self lane,
// phase reuse) — the checker must stay silent and results must be right.
// ---------------------------------------------------------------------------

class ValidatedTransports : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override { PLV_SKIP_IF_UNSUPPORTED(GetParam()); }
  void run(int nranks, const std::function<void(Comm&)>& body) const {
    Runtime::run(nranks, body, GetParam(), /*validate=*/true);
  }
};

TEST_P(ValidatedTransports, ConformingTrafficPassesAllPlanes) {
  run(4, [](Comm& comm) {
    const int P = comm.nranks();
    // Collective plane.
    const int sum = comm.allreduce_sum(comm.rank() + 1);
    PLV_RANK_CHECK_EQ(sum, P * (P + 1) / 2);
    comm.barrier();
    // Aggregated fine-grained phase (full chunks, then one fused final
    // chunk or pure marker closes each lane).
    std::uint64_t received = 0;
    {
      Aggregator<std::uint64_t> agg(comm, 8);
      for (int d = 0; d < P; ++d) {
        for (int i = 0; i < 10 + d; ++i) agg.push(d, static_cast<std::uint64_t>(i));
      }
      agg.flush_all_final();
    }
    comm.drain_streaming_finalized<std::uint64_t>(
        [&](int, std::span<const std::uint64_t> recs) { received += recs.size(); });
    PLV_RANK_CHECK_EQ(received, static_cast<std::uint64_t>(P * (10 + comm.rank())));
    // Streaming exchange (fused data+marker chunks + zero-copy self lane),
    // twice, to reuse lanes across epochs.
    for (int round = 0; round < 2; ++round) {
      std::vector<std::vector<std::uint64_t>> out(static_cast<std::size_t>(P));
      for (int d = 0; d < P; ++d) {
        out[static_cast<std::size_t>(d)].assign(
            static_cast<std::size_t>(comm.rank() + d + round), 7);
      }
      std::uint64_t streamed = 0;
      comm.exchange_streaming<std::uint64_t>(
          out, [&](int, std::span<const std::uint64_t> recs) { streamed += recs.size(); });
      std::uint64_t expect = 0;
      for (int s = 0; s < P; ++s) expect += static_cast<std::uint64_t>(s + comm.rank() + round);
      PLV_RANK_CHECK_EQ(streamed, expect);
    }
  });
}

TEST_P(ValidatedTransports, FinalizedAggregatorDrainPasses) {
  run(3, [](Comm& comm) {
    const int P = comm.nranks();
    Aggregator<std::uint64_t> agg(comm, 4);
    for (int d = 0; d < P; ++d) {
      for (int i = 0; i < 5; ++i) agg.push(d, static_cast<std::uint64_t>(d));
    }
    agg.flush_all_final();  // fused final markers, no marker wave
    std::uint64_t received = 0;
    comm.drain_streaming_finalized<std::uint64_t>(
        [&](int, std::span<const std::uint64_t> recs) { received += recs.size(); });
    PLV_RANK_CHECK_EQ(received, static_cast<std::uint64_t>(P * 5));
  });
}

TEST_P(ValidatedTransports, TransportNameIsUnchangedByValidation) {
  run(2, [&](Comm& comm) {
    PLV_RANK_CHECK_EQ(std::string(comm.transport_name()),
                      std::string(transport_kind_name(GetParam())));
  });
}

TEST_P(ValidatedTransports, RankFailureStillPropagatesUnderValidation) {
  // A failing rank aborts the fleet; the checker must not convert the
  // unwind (half-open phases, undrained chunks) into a ProtocolError that
  // masks the original failure. The caller must still see the injected
  // message (verbatim on thread; wrapped in RemoteRankError on proc).
  try {
    run(3, [](Comm& comm) {
      if (comm.rank() == 1) throw std::runtime_error("injected rank failure");
      for (;;) {
        comm.barrier();  // peers park here until the abort wakes them
      }
    });
    ADD_FAILURE() << "expected the injected rank failure to propagate";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("injected rank failure"), std::string::npos)
        << "propagated a different error: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, ValidatedTransports,
                         ::testing::ValuesIn(kAllTransports),
                         [](const ::testing::TestParamInfo<TransportKind>& info) {
                           return transport_test_name(info.param);
                         });

}  // namespace
}  // namespace plv::pml
