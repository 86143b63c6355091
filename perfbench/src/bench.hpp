// The benchmark's two phases: a serve run that drives the in-process
// JobServer through handle_line, and the traced replay of its jobs through
// the layers' public functions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "tracer.hpp"

namespace perfbench {

// What became of one sent job. Times are seconds since the phase started.
struct Outcome {
  double send = 0;          // scheduled (open loop) or actual send time
  double late = 0;          // open loop: actual minus scheduled send
  double admit_s = 0;       // handle_line duration of the op:"run" request
  double cancel_sent = -1;  // when the op:"cancel" went out; -1 = none
  double done = -1;         // when the terminal response arrived
  std::string line;         // the terminal response

  // Parsed from the terminal response.
  std::string error;
  std::string memo;         // "hit", "miss" or "off"
  std::string stop;
  std::string record;       // the RunRecord JSON, verbatim
  bool cancelled = false;
  bool completed = false;
  bool verified = false;
  int rounds = 0;
  double exec_s = 0;        // record.wall_seconds
  bool success = false;

  double latency() const { return done - send; }
};

struct ServeRun {
  std::vector<JobSpec> jobs;  // every job sent, in send order
  std::vector<Outcome> out;   // parallel to jobs
  double elapsed_s = 0;       // measured phase: first send to last response
  std::vector<double> setup_s;
  double memo_hits = 0;
  double memo_misses = 0;
  double jobs_rejected = 0;
  double pool_utilization = 0;  // over the measured phase
  double pool_wait_s = 0;       // over the measured phase
};

struct ServeOptions {
  Workload workload = Workload::kSeedSweep;
  std::uint64_t seed = 1;
  double seconds = 10;
  int setup_reps = 5;       // extra JobServer set-ups timed before the run
  std::string work_dir;     // memo stores go below it
  Tracer* tracer = nullptr; // spans around handle_line when non-null
};

// Runs one measured phase and checks every job's terminal response. Throws
// CheckFailure when a memo hit differs from the record it replays.
ServeRun run_serve(const ServeOptions& options);

struct ReplayTotals {
  int jobs = 0;               // jobs replayed (computed, not memo hits)
  double build_alloc_bytes = 0;
  double node_rounds = 0;     // Σ n·rounds
  double nodes = 0;           // Σ n
  double engine_bytes = 0;    // Σ engine_bytes
  // Σ replayed execution: build_graph through the verifier, the steps
  // record.wall_seconds covers in the server. The share checks divide by
  // these, so numerator and denominator come from the same calls.
  double exec_s = 0;
  double serve_exec_s = 0;       // Σ serve exec_s of the replayed jobs
  double ring_run_s = 0;         // cycle/path jobs: Σ entry-point time
  double ring_exec_s = 0;        // cycle/path jobs: Σ replayed execution
  double ring_serve_exec_s = 0;  // cycle/path jobs: Σ serve exec_s
};

// Replays every job of `run` that completed uncancelled through
// build_graph, prepare_input, the algo entry point, the LCL verifier,
// RunRecord::to_json and ResultMemo::lookup/insert, with a span around each
// call. Throws CheckFailure when a replayed round count differs from the
// serve run's, or from `reference` for a job id both ran.
ReplayTotals replay(const ServeRun& run, const ServeRun& reference,
                    const std::string& store_dir, Tracer& tracer);

}  // namespace perfbench
