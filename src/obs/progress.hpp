// Rate-limited progress heartbeats for hours-long runs.
//
// A sweep that is quietly working for an hour is
// indistinguishable from one that hung. ProgressMeter gives long loops a
// liveness signal: call step() per completed unit and, at most once every
// `every_seconds`, one self-describing JSON line lands on the sink (stderr
// by default — stdout stays reserved for tables and --json_out artifacts):
//
//   {"progress":"E1_separation.sweep","done":5,"total":24,
//    "elapsed_seconds":12.1,"eta_seconds":45.9,"rss_bytes":73400320}
//
// Events are out-of-band by design: they never enter RunRecords or the
// --json_out stream, so byte-stability of the measurement artifacts is
// untouched (DESIGN.md §10). The process-wide interval is set once by
// BenchReporter from --progress_every (0 = disabled, the default); meters
// constructed with kGlobalInterval inherit it, so a bench's sweep meter
// emits heartbeats without per-call plumbing.
//
// ProgressObserver is the same signal for a single long engine run, fed
// from the per-round observer hooks (round / max_rounds / halted fraction).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

#include "obs/observer.hpp"
#include "util/timer.hpp"

namespace ckp {

// Process-wide default heartbeat interval in seconds; <= 0 disables all
// meters constructed with kGlobalInterval. Set by BenchReporter from
// --progress_every.
void set_progress_interval(double seconds);
double progress_interval();

// Sentinel interval: inherit progress_interval() at construction.
inline constexpr double kGlobalInterval = -1.0;

class ProgressMeter {
 public:
  // `total` == 0 means unknown (events omit total/ETA). `every_seconds` is
  // the minimum spacing between events; kGlobalInterval inherits the
  // process default and <= 0 disables the meter entirely. `sink` defaults
  // to std::cerr; tests inject a stringstream. `now` injects a time source
  // (util/timer.hpp) so rate limiting is testable without sleeping; the
  // default is the real steady clock — never the wall clock, which would
  // make the rate limiter misfire under clock adjustments.
  ProgressMeter(std::string label, std::uint64_t total,
                double every_seconds = kGlobalInterval,
                std::ostream* sink = nullptr, NowFn now = nullptr);
  ~ProgressMeter();

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  bool enabled() const { return every_ > 0.0; }

  // Marks `delta` units done. Thread-safe: trial completion hooks fire on
  // pool workers. Emits when at least `every_seconds` passed since the
  // last event (the first step always emits, so a sweep announces itself).
  void step(std::uint64_t delta = 1);

  // Forces a final event (done == position, "final":true) if the meter is
  // enabled and ever stepped. Idempotent; also run by the destructor.
  void finish();

  std::uint64_t position();

 private:
  void emit(std::uint64_t done, bool final);  // caller holds mu_

  std::string label_;
  std::uint64_t total_;
  double every_ = 0.0;
  std::ostream* sink_;  // not owned
  Timer timer_;
  std::mutex mu_;
  std::uint64_t done_ = 0;
  double last_emit_seconds_ = 0.0;
  bool emitted_any_ = false;
  bool finished_ = false;
};

// Heartbeats for one engine run, driven by the per-round observer hooks:
//   {"progress":label,"round":r,"max_rounds":m,"halted_fraction":f,
//    "elapsed_seconds":e,"rss_bytes":b}
// Rate-limited like ProgressMeter; emits a final event from on_run_end.
// Chain another observer (e.g. MetricsObserver) via `next` to keep a single
// observer slot on run_local.
class ProgressObserver : public EngineObserver {
 public:
  explicit ProgressObserver(std::string label,
                            double every_seconds = kGlobalInterval,
                            std::ostream* sink = nullptr,
                            EngineObserver* next = nullptr,
                            NowFn now = nullptr);

  void on_round_begin(int round) override;
  void on_round_end(const RoundStats& stats) override;
  void on_node_halt(NodeId v, int round) override;
  void on_run_end(const RunStats& stats) override;

  bool enabled() const { return every_ > 0.0; }

 private:
  std::string label_;
  double every_ = 0.0;
  std::ostream* sink_;      // not owned
  EngineObserver* next_;    // not owned; forwarded to when non-null
  Timer timer_;
  double last_emit_seconds_ = 0.0;
};

}  // namespace ckp
