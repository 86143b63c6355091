// Structured, machine-readable records of individual measured runs.
//
// One RunRecord captures one algorithm execution on one instance: what ran,
// on which graph family at which n/Δ/seed, how many rounds it took, the
// per-phase Trace, and a free-form scalar metrics map (which is also where a
// MetricsRegistry snapshot lands). Records serialize to single-line JSON
// objects, so a file of them is JSON Lines — the format the bench trajectory
// tooling consumes.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "local/trace.hpp"

namespace ckp {

class MetricsRegistry;

// Optional origin stamp for a measured run: which commit of this repo
// produced the number, when, on which machine, built how. Empty fields are
// omitted from JSON; an all-empty provenance emits nothing at all, so the
// default --json_out stream stays byte-identical unless --provenance is on.
struct RunProvenance {
  std::string git_sha;      // HEAD of the source tree, or "unknown"
  std::string timestamp;    // ISO-8601 UTC, e.g. "2026-08-09T12:00:00Z"
  std::string host;         // gethostname()
  std::string build_flags;  // CMAKE_BUILD_TYPE + CXX flags baked at build
  std::string simd;         // selected SIMD backend: "avx2", "neon", "scalar"

  bool empty() const {
    return git_sha.empty() && timestamp.empty() && host.empty() &&
           build_flags.empty() && simd.empty();
  }
};

// Best-effort snapshot of the current build/process origin: resolves the
// repo's .git/HEAD (following refs, then packed-refs) without invoking git,
// so it works in minimal containers. Never throws; unresolvable fields come
// back as "unknown".
RunProvenance collect_provenance();

struct RunRecord {
  std::string bench;         // experiment id, e.g. "E1_separation"
  std::string algorithm;     // e.g. "thm10", "be_tree_coloring"
  std::string graph_family;  // e.g. "complete_tree", "random_regular"
  std::uint64_t n = 0;
  int delta = 0;
  std::uint64_t seed = 0;    // 0 for deterministic runs
  int rounds = 0;
  double wall_seconds = 0.0;
  bool verified = false;     // output checked by an LCL verifier
  Trace trace;               // optional per-phase structure
  RunProvenance provenance;  // emitted only when non-empty (--provenance)

  // Appends (or overwrites) a named scalar metric.
  void metric(const std::string& name, double value);
  // Folds a MetricsRegistry snapshot into the metrics map.
  void absorb(const MetricsRegistry& registry);

  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

  // One compact JSON object on a single line (no trailing newline).
  // Numbers print as %.12g, so a line parsed by from_json_line prints back
  // byte-identically.
  std::string to_json() const;

  // Parses one JSONL line written by to_json back into a RunRecord (fields,
  // metrics, and trace). Throws CheckFailure on malformed input. Used by
  // ckp_bench_diff and by serve clients that read records back.
  static RunRecord from_json_line(const std::string& line);

 private:
  std::vector<std::pair<std::string, double>> metrics_;
};

// Writes RunRecords as JSON Lines. An empty path makes the writer a no-op
// sink so call sites need no conditionals. The file is truncated on open.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::string path);

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  void write(const RunRecord& record);
  std::size_t rows_written() const { return rows_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t rows_ = 0;
};

}  // namespace ckp
