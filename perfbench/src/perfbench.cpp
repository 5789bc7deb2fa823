// The repository benchmark's main program:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Hosts the served stack and the load generator in this one process, runs
// the workload for S seconds of whole rounds, checks its outputs, and
// prints as the last line of stdout one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The host fingerprint, with the timed window's steal share
// and generator lateness, is printed on the line before it and written,
// with the result, to DIR/result-<workload>-seed<N>-trace<T>.json.
// Exits 1 when an output check fails, 2 on bad arguments.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "crypto/mont_kernel.hpp"
#include "crypto/sha256_kernel.hpp"
#include "sketch/sketch_kernel.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string fingerprint(const Outcome& out) {
  std::ostringstream j;
  j << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
    << sysconf(_SC_NPROCESSORS_ONLN) << ", \"mont_kernel\": \""
    << eyw::crypto::active_mont_kernel().name << "\", \"sha256_kernel\": \""
    << eyw::crypto::active_sha256_kernel().name << "\", \"sketch_kernel\": \""
    << eyw::sketch::active_sketch_kernel().name << "\", \"compiler\": \""
    << json_escape(__VERSION__) << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\", \"generator_threads\": " << out.generator_threads
    << ", \"generator_connections\": " << out.generator_connections
    << ", \"window\": {\"steal_frac\": " << out.steal_frac
    << ", \"gen_late_p50_ms\": " << out.late_p50_ms
    << ", \"gen_late_p99_ms\": " << out.late_tail.value
    << ", \"gen_late_samples\": " << out.late_tail.samples << "}}";
  return j.str();
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::ostringstream j;
  j.precision(17);
  j << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    j << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
      << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  j << "}";
  return j.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--out") {
        opt.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end())
    usage("unknown workload " + opt.workload);
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Outcome out;
  try {
    out = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  for (const std::string& f : out.check_failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = out.check_failures.empty();
  const std::string fp = fingerprint(out);
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": " +
      metrics_json(opt.trace ? out.per_layer : out.end_to_end) + "}";
  {
    std::ofstream file(opt.out_dir + "/result-" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + "-trace" +
                       (opt.trace ? "1" : "0") + ".json");
    file << "{\"fingerprint\": " << fp << ", \"result\": " << result << "}\n";
  }
  std::printf("fingerprint %s\n%s\n", fp.c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
