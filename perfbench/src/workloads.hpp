// The benchmark's four workloads (README.md has why each exists):
//   blinded_round       the weekly blinded round over loopback TCP
//   mux_ingest          closed-loop saturation of the mux ingest path
//   durable_ingest      mux_ingest through DurableBackend
//   audit_under_ingest  open-loop audits beside open-loop reports
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for journals, trace and result files.
  std::string out_dir = ".perfbench";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  /// Output-check failures; empty means every check passed.
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed before the result (self-time table,
  /// stages left for in-program tracing, ...).
  std::vector<std::string> report;
  /// Generator footprint, recorded with the host fingerprint.
  std::size_t generator_threads = 0;
  std::size_t generator_connections = 0;
  /// Conditions of the timed window, recorded with the fingerprint of
  /// every run: the hypervisor's steal share and the open-loop generator's
  /// lateness (no samples in the closed-loop workloads).
  double steal_frac = 0.0;
  double late_p50_ms = 0.0;
  Tail late_tail;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] Outcome run_workload(const Options& options);

}  // namespace perfbench
