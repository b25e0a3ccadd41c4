// Shared main() plumbing for the bench binaries.
//
// Two jobs, both about keeping the published perf trajectory honest:
//
//   1. Stamp every configuration axis that changes measured numbers into
//      the google-benchmark context, so a JSON record always says which
//      transport carried the run, whether the ValidatingTransport protocol
//      checker was active, and which sanitizer (if any) the binary was
//      built with.
//   2. Refuse to produce machine-readable output (--benchmark_out, the
//      publish path the perf scripts consume) when the checker or a
//      sanitizer is active: those runs measure the instrumentation, not
//      the runtime, and must never enter the trajectory. Interactive
//      console runs stay allowed — the stamped context labels them.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string>

#include "pml/transport.hpp"
#include "pml/transport_check.hpp"
#include "pml/transport_hybrid.hpp"

namespace plv::bench {

/// Will Runtime::run / the core front doors wrap transports in the
/// protocol checker for this process? (Build default + env overrides —
/// the same resolution every entry point performs.)
[[nodiscard]] inline bool validation_active() {
  return pml::resolve_validate(pml::kValidateTransportDefault);
}

/// Detects the machine-readable output request. Must run on the raw argv
/// BEFORE benchmark::Initialize, which strips the flags it recognizes.
[[nodiscard]] inline bool wants_machine_output(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) return true;
  }
  return false;
}

/// Stamps transport/validation/sanitizer into the benchmark context and
/// applies the publish gate. Returns false (with a diagnostic) when the
/// run asked for machine output it must not have.
[[nodiscard]] inline bool stamp_context_and_gate(bool machine_output) {
  const char* sanitizer = pml::active_sanitizer_name();
  const bool validating = validation_active();
  const auto kind = pml::resolve_transport(pml::TransportKind::kThread);
  benchmark::AddCustomContext("transport", pml::transport_kind_name(kind));
  // The topology stamp: a hybrid binary records its resolved group shape
  // (PLV_RANKS_PER_PROC thread ranks per forked process); every other
  // backend stamps "flat".
  std::string topology = "flat";
  if (kind == pml::TransportKind::kHybrid) {
    topology = "groups-of-" + std::to_string(pml::resolve_hybrid_options({}).ranks_per_proc);
  }
  benchmark::AddCustomContext("topology", topology);
  benchmark::AddCustomContext("validation", validating ? "on" : "off");
  benchmark::AddCustomContext("sanitizer", sanitizer);
  if (machine_output && (validating || std::strcmp(sanitizer, "none") != 0)) {
    std::cerr << "bench: refusing --benchmark_out: this binary would measure "
                 "instrumentation, not the runtime (validation "
              << (validating ? "on" : "off") << ", sanitizer " << sanitizer
              << "). Rebuild without sanitizers and run with PLV_VALIDATE=0 "
                 "(or a Release build) to publish numbers.\n";
    return false;
  }
  return true;
}

}  // namespace plv::bench
