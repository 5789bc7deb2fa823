// Machine-readable perf trajectory: both bench binaries accept
// `--json <path>` and append flat records {op, modulus_bits, ns_per_op,
// backend, cores[, stage]} for the operations the PR-over-PR trajectory tracks
// (BENCH_*.json at the repo root). Header-only; no google-benchmark
// dependency, so the plain-main reproduction bench uses it too.
#pragma once

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace eyw::bench {

struct JsonRecord {
  std::string op;           // e.g. "modexp", "oprf_eval_batch"
  std::size_t modulus_bits; // 0 when not a modular operation
  double ns_per_op;
  std::string backend;      // "portable" | "adx" | pipeline label
  std::size_t cores;
  std::string stage = {};   // round stage the op dominates, if any
};

class JsonWriter {
 public:
  void add(JsonRecord rec) { records_.push_back(std::move(rec)); }

  /// Serialize all records as a JSON array. Returns false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::ostringstream out;
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      out << "  {\"op\": \"" << r.op << "\", \"modulus_bits\": "
          << r.modulus_bits << ", \"ns_per_op\": " << r.ns_per_op
          << ", \"backend\": \"" << r.backend << "\", \"cores\": " << r.cores;
      if (!r.stage.empty()) out << ", \"stage\": \"" << r.stage << "\"";
      out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "]\n";
    std::ofstream f(path);
    if (!f) return false;
    f << out.str();
    return f.good();
  }

  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

 private:
  std::vector<JsonRecord> records_;
};

/// Remove `--json <path>` (or `--json=<path>`) from argv before handing
/// the rest to a flag parser that would reject unknown flags
/// (google-benchmark aborts on them). Returns the path, or "" if absent.
inline std::string extract_json_path(int& argc, char** argv) {
  std::string path;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  argv[argc] = nullptr;
  return path;
}

}  // namespace eyw::bench
