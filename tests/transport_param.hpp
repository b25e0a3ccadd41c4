// Shared scaffolding for tests that run over both pml transports.
//
// Two things change when a test body runs under TransportKind::kProc
// instead of kThread:
//
//  - gtest EXPECT/ASSERT failures recorded inside a forked child never
//    reach the parent's test result — the child's gtest state dies with
//    the child. Rank bodies must report failures by *throwing* instead
//    (the runtime propagates rank exceptions to the caller on every
//    transport); use PLV_RANK_CHECK / PLV_RANK_CHECK_EQ below.
//
//  - cross-rank shared-memory captures (atomics, vectors written by
//    rank != 0) see copy-on-write copies in child processes. Results
//    must flow through the Comm collectives, or be written by rank 0
//    only (rank 0 always runs in the calling process on both backends).
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "pml/transport.hpp"

namespace plv::pml {

/// Parks any inherited PLV_TRANSPORT for the lifetime of the object and
/// restores it on destruction. Tests that pass explicit transports
/// through ParOptions need this: the CI proc legs export PLV_TRANSPORT
/// binary-wide, and resolve_transport lets the environment win over the
/// options value.
class ScopedTransportEnv {
 public:
  ScopedTransportEnv() {
    const char* value = std::getenv("PLV_TRANSPORT");
    had_env_ = value != nullptr;
    if (had_env_) saved_ = value;
    unsetenv("PLV_TRANSPORT");
  }
  ~ScopedTransportEnv() {
    if (had_env_) setenv("PLV_TRANSPORT", saved_.c_str(), 1);
  }
  ScopedTransportEnv(const ScopedTransportEnv&) = delete;
  ScopedTransportEnv& operator=(const ScopedTransportEnv&) = delete;

 private:
  bool had_env_{false};
  std::string saved_;
};

/// Every backend a parameterized suite should cover. The tcp entry runs
/// the loopback self-test fleet (TcpOptions defaults): forked ranks over
/// 127.0.0.1 ephemeral ports, no configuration. The hybrid entry runs
/// groups of 2 thread ranks per forked process (HybridOptions defaults),
/// so sibling ranks of one process exchange frames over the mesh.
inline constexpr TransportKind kAllTransports[] = {
    TransportKind::kThread, TransportKind::kProc, TransportKind::kTcp,
    TransportKind::kHybrid};

// ThreadSanitizer cannot follow fork(): the child inherits a snapshot of
// the TSan runtime's internal state and deadlocks or reports spurious
// races. The proc and tcp-loopback parameterizations both fork, so both
// skip under TSan builds.
#if defined(__SANITIZE_THREAD__)
#define PLV_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PLV_TSAN_ENABLED 1
#else
#define PLV_TSAN_ENABLED 0
#endif
#else
#define PLV_TSAN_ENABLED 0
#endif

[[nodiscard]] inline constexpr bool transport_supported_in_this_build(
    TransportKind kind) {
  return !(PLV_TSAN_ENABLED &&
           (kind == TransportKind::kProc || kind == TransportKind::kTcp ||
            kind == TransportKind::kHybrid));
}

/// GTEST_SKIP (must run in the test body or SetUp) when `kind` cannot run
/// in this build.
#define PLV_SKIP_IF_UNSUPPORTED(kind)                                        \
  do {                                                                       \
    if (!::plv::pml::transport_supported_in_this_build(kind)) {              \
      GTEST_SKIP() << "forking transport skipped under ThreadSanitizer: "    \
                      "TSan cannot follow fork() (the child inherits a "     \
                      "snapshot of TSan's shadow state and deadlocks); "     \
                      "the forked-child path gets its sanitizer coverage "   \
                      "from the ASan+UBSan CI legs (PLV_SANITIZE), where "   \
                      "proc and tcp run in full";                            \
    }                                                                        \
  } while (0)

/// Throw-based check for use inside rank bodies (see header comment).
#define PLV_RANK_CHECK(cond)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::ostringstream plv_os_;                                         \
      plv_os_ << __FILE__ << ":" << __LINE__                              \
              << ": rank check failed: " #cond;                           \
      throw std::runtime_error(plv_os_.str());                            \
    }                                                                     \
  } while (0)

/// Throw-based equality check; operands must be streamable.
#define PLV_RANK_CHECK_EQ(a, b)                                           \
  do {                                                                    \
    const auto plv_a_ = (a);                                              \
    const auto plv_b_ = (b);                                              \
    if (!(plv_a_ == plv_b_)) {                                            \
      std::ostringstream plv_os_;                                         \
      plv_os_ << __FILE__ << ":" << __LINE__                              \
              << ": rank check failed: " #a " == " #b " (" << plv_a_      \
              << " vs " << plv_b_ << ")";                                 \
      throw std::runtime_error(plv_os_.str());                            \
    }                                                                     \
  } while (0)

/// Name suffix for INSTANTIATE_TEST_SUITE_P over kAllTransports.
[[nodiscard]] inline std::string transport_test_name(TransportKind kind) {
  return transport_kind_name(kind);
}

}  // namespace plv::pml
