// In-memory span recorder for the traced run.
//
// The benchmark records one span around each call it makes into a layer's
// public function: name, start, end, parent span and job id. Spans stay in
// memory and are written out as a Chrome trace when the run ends. A layer's
// self time is its span's duration minus the time its child spans cover.
//
// Single-threaded by design: every traced call is made from the thread that
// owns the Tracer, so the open-span stack needs no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string job;    // job id; empty for spans outside any job
  double start = 0;   // seconds since the tracer's epoch
  double end = 0;
  int parent = -1;    // index into spans(); -1 = root
};

struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0;  // summed span durations
  double self_s = 0;   // summed durations minus child coverage
};

class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span as a child of the innermost open span.
  int begin(std::string name, std::string job);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }
  double duration(int index) const;
  double self_time(int index) const;

  // Per span name: count, total and self time.
  std::map<std::string, SpanStats> stats() const;

  // Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome_trace(const std::string& path) const;

  // RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

 private:
  double now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<double> child_s_;  // per span: summed child durations
  std::vector<int> open_;
};

}  // namespace perfbench
