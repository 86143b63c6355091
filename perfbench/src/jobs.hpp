// Seeded job lists for the three benchmark workloads.
//
// Every list is a pure function of (workload, seed[, seconds]): the same
// arguments give a byte-identical list of request lines. The program under
// test only ever sees the generated request lines.
//
//   seed_sweep  closed loop, workers=1. Units of twelve jobs: three
//               random-family specs at n = 2^19-2^20, each with its own fixed
//               gseed, × the randomized roster, each job with a fresh run
//               seed.
//   det_rounds  closed loop, workers=1. Units of six DetLOCAL jobs with
//               sequential IDs: cycles and paths (R = n rounds) and complete
//               trees (few rounds, large n).
//   mixed_serve open loop, workers=2. A seeded arrival schedule of small
//               jobs, resubmissions of earlier small jobs (memo hits), and a
//               large luby job every few seconds, some with a scheduled
//               cancel, each trailed by a burst of fresh small jobs.
//
// A closed-loop run ends on the first unit boundary after --seconds, so
// every run executes the same job classes in the same proportions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/registry.hpp"

namespace perfbench {

enum class Workload { kSeedSweep, kDetRounds, kMixedServe };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);
bool is_open_loop(Workload w);
// ServerOptions::workers the workload runs with.
int workload_workers(Workload w);

// The server's default round cap; every generated job uses it.
inline constexpr int kMaxRounds = 1 << 20;

// mixed_serve: seconds at the start of the schedule before any small job
// can be a resubmission. Small jobs sent then are all fresh and unstalled,
// so they stay out of the latency sample, which would otherwise depend on
// this warm-in's length.
inline constexpr double kMixedWarmIn = 2.5;

struct JobSpec {
  std::string id;
  std::string algo;
  ckp::GraphSpec graph;
  std::uint64_t seed = 1;
  int max_rounds = kMaxRounds;
  // Open loop: send time in seconds after the measured phase starts, the
  // scheduled cancel time (negative = none), the large-job class, a small
  // job sent before kMixedWarmIn, and the index of the earlier job this one
  // resubmits (-1 = fresh job).
  double send_at = 0.0;
  double cancel_at = -1.0;
  bool large = false;
  bool warm_in = false;
  int resubmit_of = -1;
};

// The {"op":"run",...} request line for `job`.
std::string request_line(const JobSpec& job);

// Closed loops: the jobs of unit `unit` (0, 1, 2, ...). Job ids are
// "u<unit>.<k>", so a job has the same id in every run of one seed.
std::vector<JobSpec> closed_loop_unit(Workload w, std::uint64_t seed,
                                      int unit);

// Open loop: the whole mixed_serve schedule for a measured phase of
// `seconds`, sorted by send time.
std::vector<JobSpec> mixed_schedule(std::uint64_t seed, double seconds);

// True when the job's class halts inside its round budget: no never-halting
// or known-incomplete algorithm, DetLOCAL cycles and paths get more than n
// rounds, and the Δ-colorings get the trees they require.
bool can_finish(const JobSpec& job);

}  // namespace perfbench
