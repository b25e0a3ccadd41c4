// Configuration of the parallel Louvain engine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "hashing/hash_fns.hpp"
#include "pml/transport.hpp"
#include "pml/transport_check.hpp"
#include "pml/transport_hybrid.hpp"
#include "pml/transport_tcp.hpp"

namespace plv::core {

// Named values for the knobs whose numeric defaults double as mode
// switches. Use these instead of raw 0/1 literals at call sites — the
// literal alone does not say *which* special behavior it selects.

/// StreamingPlan::rebuild_every_batches — run a full cold rebuild inside
/// the resident fleet on *every* Session::apply. In this mode an apply is
/// exactly a cold run on the updated graph, so its labels are
/// bit-identical to plv::louvain on the same edge list — the
/// exact-equivalence mode the streaming test suite pins.
inline constexpr int kColdRebuildEveryBatch = 1;

/// StreamingPlan::rebuild_every_batches — never schedule a cadence cold
/// rebuild; every batch takes the incremental path (a batch larger than a
/// quarter of the edge list still takes the cold path).
inline constexpr int kNeverColdRebuild = 0;

/// The convergence heuristic's ε(iter) model (paper Section IV-B).
enum class ThresholdModel {
  /// ε = p1 · e^(1 / (p2 · iter)): the paper's Eq. 7. For small p2 this
  /// decays steeply from p1·e^(1/p2) at iteration 1 toward an asymptotic
  /// *floor* of p1 — matching Fig. 2's shape, where the update fraction
  /// drops fast but keeps a few-percent tail out to 30 iterations. The
  /// floor matters: it keeps the top-gain vertices moving until real
  /// convergence instead of freezing the graph. Library default.
  kPaperEq7,
  /// ε = 1 for every iteration: every positive-gain vertex moves — the
  /// "parallel without heuristic" baseline of Fig. 4.
  kNone,
};

/// Fraction of vertices allowed to move at inner iteration `iter` (1-based).
[[nodiscard]] inline double epsilon_of(ThresholdModel model, double p1, double p2,
                                       int iter) noexcept {
  double eps = 1.0;
  switch (model) {
    case ThresholdModel::kPaperEq7:
      eps = p1 * std::exp(1.0 / (p2 * static_cast<double>(iter)));
      break;
    case ThresholdModel::kNone:
      eps = 1.0;
      break;
  }
  return std::clamp(eps, 0.0, 1.0);
}

/// The refinement half of the configuration — every knob that shapes the
/// REFINE inner loop and the level cascade, grouped the way Katana's
/// LouvainClusteringPlan groups its clustering knobs. Lives nested inside
/// ParOptions (ParOptions::refine).
struct RefinePlan {
  // Convergence. The inner loop stops on zero moves or after two
  // consecutive iterations that each fail to beat the level's best Q so
  // far by q_tolerance (one stagnant low-ε iteration is normal, not
  // convergence). Measuring against the best Q, not the previous
  // iteration's, is what ends a limit cycle whose Q alternates between two
  // values (DESIGN.md decision 3).
  double q_tolerance{1e-6};
  int max_inner_iterations{64};
  int max_levels{32};

  // The paper's heuristic (Section IV-B), Eq. 7 with (p1, p2) from our own
  // Fig. 2 regression (bench/fig2_heuristic_regression): ε(1) ≈ 0.84,
  // decaying to a ~3% floor — the same shape as the paper's LFR traces.
  ThresholdModel threshold{ThresholdModel::kPaperEq7};
  double p1{0.03};
  double p2{0.3};

  // Resolution γ of generalized modularity (1 = Newman's Eq. 3). Larger
  // values favor more, smaller communities.
  double resolution{1.0};
};

/// The streaming half of the configuration — how plv::Session turns
/// EdgeDelta batches into new label epochs. Ignored by one-shot
/// plv::louvain runs. An incremental apply re-refines only the disturbed
/// frontier: the endpoints of changed edges, grown by the patches their
/// moves ship. A batch that touches more than a quarter of the current
/// edge list always runs cold (kMaxIncrementalBatchFraction, in
/// louvain_par.cpp).
struct StreamingPlan {
  // Cold-rebuild cadence, in batches: every Nth Session::apply discards
  // the warm state and re-runs from scratch on the updated edge list —
  // the bound on how far incremental refinement may drift from a cold
  // partition. kColdRebuildEveryBatch (1) makes every apply exactly a
  // cold run (the exact-equivalence mode); kNeverColdRebuild (0) never
  // schedules one.
  int rebuild_every_batches{16};

  /// Preset: every apply is a cold run on the updated graph —
  /// bit-identical to one-shot plv::louvain, at cold-start latency.
  [[nodiscard]] static StreamingPlan deterministic() {
    StreamingPlan plan;
    plan.rebuild_every_batches = kColdRebuildEveryBatch;
    return plan;
  }

  /// Preset: minimum update latency — incremental frontier refinement on
  /// every batch, no cadence rebuilds (the batch-size limit still applies).
  [[nodiscard]] static StreamingPlan fast() {
    StreamingPlan plan;
    plan.rebuild_every_batches = kNeverColdRebuild;
    return plan;
  }
};

struct ParOptions {
  int nranks{4};

  // Rank substrate: threads (default, shared-memory zero-copy), forked
  // processes over Unix-domain sockets, or a TCP mesh (multi-host capable).
  // The PLV_TRANSPORT environment variable, when set, overrides this for
  // every entry point that calls pml::resolve_transport — which all core
  // front doors do. Results are bit-identical across backends for fixed
  // seeds.
  pml::TransportKind transport{pml::TransportKind::kThread};

  // TCP mesh shape (kTcp only; see pml::TcpOptions). Both empty/-1 =
  // the loopback self-test fleet: the caller forks one rank per entry of
  // a 127.0.0.1 ephemeral-port mesh — zero configuration, what CI and
  // PLV_TRANSPORT=tcp use. For a real multi-host run, `hosts` carries one
  // "host:port" per rank (the same list on every host; index = rank) and
  // `tcp_rank` says which entry this process is. PLV_HOSTS / PLV_RANK
  // override these at run time, like PLV_TRANSPORT does for `transport`.
  std::vector<std::string> hosts;
  int tcp_rank{-1};

  /// The pml launch options the configured TCP knobs describe.
  [[nodiscard]] pml::TcpOptions tcp_options() const {
    pml::TcpOptions tcp;
    tcp.hosts = hosts;
    tcp.self_rank = tcp_rank;
    return tcp;
  }

  // Hybrid transport shape (kHybrid only; see pml::HybridOptions):
  // consecutive blocks of `ranks_per_proc` ranks share one forked process
  // as threads. 0 = auto (PLV_RANKS_PER_PROC, else 2). A deployment
  // setting only: every shape runs the same flat protocol and gives
  // bit-identical results.
  int ranks_per_proc{0};

  /// The pml launch options the configured hybrid knob describes.
  [[nodiscard]] pml::HybridOptions hybrid_options() const {
    pml::HybridOptions hybrid;
    hybrid.ranks_per_proc = ranks_per_proc;
    return hybrid;
  }

  // Protocol verification: wrap every rank's transport in the
  // ValidatingTransport state-machine checker (pml/transport_check.hpp),
  // which enforces marker ordering, epoch contiguity, quiescence byte
  // conservation, chunk-pool ownership, and collective rank order —
  // throwing ProtocolError on the first violation. Defaults on in Debug
  // builds and off in optimized builds; the PLV_VALIDATE (or legacy
  // PLV_PARANOID) environment variable overrides this for every entry
  // point that calls pml::resolve_validate — which all core front doors
  // do. Costs one extra virtual hop plus a hash update per chunk; keep it
  // off for published benchmark numbers (the benches refuse to publish
  // otherwise).
  bool validate_transport{pml::kValidateTransportDefault};

  // The paper's In_Table hash (Section V-C): Fibonacci hashing at a 1/4
  // load factor. Constants, not settings: the engine's In_Table is a row
  // store, and nothing in it reads them. They remain only for perfbench's
  // hash probe, which times the paper's hash table at these values.
  static constexpr hashing::HashKind hash{hashing::HashKind::kFibonacci};
  static constexpr double table_max_load{0.25};

  // The plan groups (see RefinePlan / StreamingPlan above).
  RefinePlan refine;
  StreamingPlan streaming;

  /// Rejects inconsistent knob combinations with messages that name the
  /// offending field, the offered value, and the accepted range. Called
  /// by every core entry point before any rank is spawned, so a bad
  /// configuration fails on the caller instead of aborting a fleet.
  void validate() const {
    auto fail = [](const std::string& msg) { throw std::invalid_argument("ParOptions: " + msg); };
    if (nranks < 1) {
      fail("nranks must be >= 1, got " + std::to_string(nranks));
    }
    // Negated comparisons so NaN fails the check instead of slipping by.
    if (!(refine.q_tolerance >= 0.0)) {
      fail("q_tolerance must be >= 0, got " + std::to_string(refine.q_tolerance));
    }
    if (refine.max_inner_iterations < 1) {
      fail("max_inner_iterations must be >= 1, got " +
           std::to_string(refine.max_inner_iterations) +
           " (the inner loop needs at least one sweep)");
    }
    if (refine.max_levels < 1) {
      fail("max_levels must be >= 1, got " + std::to_string(refine.max_levels));
    }
    if (refine.threshold != ThresholdModel::kNone) {
      if (!(refine.p1 > 0.0)) {
        fail("p1 must be > 0 when a threshold model is active, got " +
             std::to_string(refine.p1) + " (use ThresholdModel::kNone to disable the heuristic)");
      }
      if (!(refine.p2 > 0.0)) {
        fail("p2 must be > 0 when a threshold model is active, got " +
             std::to_string(refine.p2) + " (use ThresholdModel::kNone to disable the heuristic)");
      }
    }
    if (streaming.rebuild_every_batches < 0) {
      fail("streaming.rebuild_every_batches must be >= 0, got " +
           std::to_string(streaming.rebuild_every_batches) +
           " (kNeverColdRebuild = 0 disables cadence cold rebuilds, "
           "kColdRebuildEveryBatch = 1 makes every apply a cold run)");
    }
    if (!(refine.resolution > 0.0) || !std::isfinite(refine.resolution)) {
      fail("resolution must be a positive finite value, got " +
           std::to_string(refine.resolution));
    }
    if (transport != pml::TransportKind::kThread &&
        transport != pml::TransportKind::kProc &&
        transport != pml::TransportKind::kTcp &&
        transport != pml::TransportKind::kHybrid) {
      fail("transport holds an invalid TransportKind value " +
           std::to_string(static_cast<int>(transport)) +
           " (valid: kThread, kProc, kTcp, kHybrid)");
    }
    // Hybrid group shape: catch an inconsistent fleet here, on the
    // caller, instead of mid-fork inside the launcher.
    if (ranks_per_proc < 0) {
      fail("ranks_per_proc must be >= 1 (or 0 for auto), got " +
           std::to_string(ranks_per_proc));
    }
    if (transport != pml::TransportKind::kHybrid) {
      if (ranks_per_proc != 0) {
        fail("ranks_per_proc is set (" + std::to_string(ranks_per_proc) +
             ") but transport is not kHybrid; the group shape only applies to "
             "the hybrid backend");
      }
    } else if (ranks_per_proc != 0 && nranks % ranks_per_proc != 0) {
      fail("ranks_per_proc " + std::to_string(ranks_per_proc) +
           " does not divide nranks " + std::to_string(nranks) +
           "; hybrid groups are equal consecutive blocks (one forked process "
           "hosting ranks_per_proc thread ranks each)");
    }
    // TCP mesh shape: catch a fleet that could never connect here, on the
    // caller, instead of five seconds later inside connect().
    if (tcp_rank < -1) {
      fail("tcp_rank must be -1 (loopback self-test) or a rank index, got " +
           std::to_string(tcp_rank));
    }
    if (transport != pml::TransportKind::kTcp) {
      if (!hosts.empty()) {
        fail("hosts is set (" + std::to_string(hosts.size()) +
             " entries) but transport is not kTcp; a host list only applies to "
             "the tcp backend (the hybrid backend forks its process groups "
             "locally — a multi-host hybrid tier is not supported)");
      }
      if (tcp_rank != -1) {
        fail("tcp_rank is set (" + std::to_string(tcp_rank) +
             ") but transport is not kTcp");
      }
    } else {
      if (tcp_rank >= 0 && hosts.empty()) {
        fail("transport is kTcp with tcp_rank " + std::to_string(tcp_rank) +
             " but no hosts; a multi-host run needs one host:port per rank "
             "(leave tcp_rank = -1 for the loopback self-test)");
      }
      if (!hosts.empty()) {
        if (static_cast<int>(hosts.size()) != nranks) {
          fail("hosts has " + std::to_string(hosts.size()) + " entries but nranks is " +
               std::to_string(nranks) + "; a tcp fleet needs one host:port per rank");
        }
        if (tcp_rank < 0) {
          fail("hosts is set but tcp_rank is -1; a multi-host tcp run must say "
               "which entry this process is (--rank / PLV_RANK)");
        }
        if (tcp_rank >= nranks) {
          fail("tcp_rank " + std::to_string(tcp_rank) + " out of range for " +
               std::to_string(nranks) + " ranks");
        }
        for (const std::string& entry : hosts) {
          try {
            (void)pml::parse_host_list(entry);
          } catch (const std::invalid_argument& e) {
            fail(std::string("hosts entry invalid: ") + e.what());
          }
        }
      }
    }
  }
};

}  // namespace plv::core
