#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "obs/run_record.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The job server's sink: keeps every response line with its arrival time and
// counts terminal ones (everything but the "queued" and "cancel_delivered"
// acknowledgements), so the client can wait for them.
class Collector {
 public:
  struct Line {
    Clock::time_point at;
    std::string text;
  };

  void on_line(const std::string& line) {
    const Clock::time_point at = Clock::now();
    const bool terminal =
        line.find("\"queued\":true") == std::string::npos &&
        line.find("\"cancel_delivered\":") == std::string::npos;
    std::lock_guard<std::mutex> lock(mu_);
    if (!terminal) return;
    lines_.push_back({at, line});
    terminal_.store(lines_.size(), std::memory_order_release);
    cv_.notify_all();
  }

  void wait_terminal(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return lines_.size() >= count; });
  }

  // Busy-polls instead of sleeping: waking a sleeping client thread costs a
  // host-dependent wake-up that is the benchmark's, not the server's.
  void spin_terminal(std::size_t count) const {
    while (terminal_.load(std::memory_order_acquire) < count) {
    }
  }

  std::vector<Line> take() {
    std::lock_guard<std::mutex> lock(mu_);
    terminal_.store(0, std::memory_order_release);
    return std::exchange(lines_, {});
  }

 private:
  std::mutex mu_;  // guards lines_
  std::condition_variable cv_;
  std::vector<Line> lines_;
  std::atomic<std::size_t> terminal_{0};  // lines_.size(), readable unlocked
};

// The warm-up job skips the memo: its commit is fsynced, which would make
// the set-up time a measure of the disk rather than of server start.
const char* kWarmup =
    R"({"op":"run","id":"warmup","algo":"luby","graph":{"family":"cycle","n":64},"seed":1,"no_memo":true})";

ckp::ServerOptions server_options(const ServeOptions& options,
                                  const std::string& store) {
  ckp::ServerOptions s;
  s.workers = workload_workers(options.workload);
  s.store_dir = store;
  return s;
}

// Constructs a server, answers the warm-up job, and returns the seconds
// that took (the set-up time a user waits before the first real answer).
double timed_setup(const ServeOptions& options, const std::string& store) {
  Collector sink;
  const Clock::time_point t0 = Clock::now();
  ckp::JobServer server(server_options(options, store),
                        [&sink](const std::string& line) { sink.on_line(line); });
  server.handle_line(kWarmup);
  sink.spin_terminal(1);
  return seconds_between(t0, Clock::now());
}

// Sends one request line, with a span around handle_line when tracing.
double send_line(ckp::JobServer& server, const std::string& line,
                 Tracer* tracer, const char* span, const std::string& job) {
  Tracer::Scope scope(tracer, span, job);
  const Clock::time_point t0 = Clock::now();
  server.handle_line(line);
  return seconds_between(t0, Clock::now());
}

std::string cancel_line(const std::string& id) {
  ckp::JsonWriter w;
  w.begin_object();
  w.key("op").value("cancel");
  w.key("id").value(id);
  w.end_object();
  return w.str();
}

void parse_terminal(Outcome& o) {
  const ckp::JsonValue doc = ckp::json_parse(o.line);
  if (const ckp::JsonValue* err = doc.find("error")) {
    o.error = err->as_string();
    return;
  }
  o.memo = doc.at("memo").as_string();
  o.cancelled = doc.at("cancelled").boolean;
  o.stop = doc.at("stop").as_string();
  // The record is the response's last member; keep its bytes verbatim.
  const std::string key = "\"record\":";
  const std::size_t pos = o.line.find(key);
  CKP_CHECK_MSG(pos != std::string::npos && o.line.back() == '}',
                "response without a record: " << o.line);
  o.record = o.line.substr(pos + key.size(),
                           o.line.size() - pos - key.size() - 1);
  const ckp::RunRecord rec = ckp::RunRecord::from_json_line(o.record);
  o.rounds = rec.rounds;
  o.verified = rec.verified;
  o.exec_s = rec.wall_seconds;
  for (const auto& [name, value] : rec.metrics()) {
    if (name == "completed") o.completed = value != 0.0;
  }
}

// A job succeeds if it completes verified, or ends cancelled when a cancel
// was requested. Cancels nobody requested, errors (queue-full rejections
// included) and unverified completions are failures.
bool succeeded(const JobSpec& job, const Outcome& o) {
  if (!o.error.empty()) return false;
  if (o.cancelled) return job.cancel_at >= 0 && o.stop == "cancelled";
  return o.completed && o.verified && o.stop == "none";
}

// The job's semantic identity: its request line without the id.
std::string request_facts(JobSpec job) {
  job.id.clear();
  return request_line(job);
}

struct PoolSnapshot {
  int threads = 0;
  double busy = 0, wait = 0, dispatch = 0;
};

PoolSnapshot pool_snapshot() {
  const ckp::ThreadPoolStats s = ckp::shared_pool_stats();
  PoolSnapshot p;
  p.threads = s.threads;
  p.dispatch = s.dispatch_seconds;
  for (const double b : s.busy_seconds) p.busy += b;
  for (const double w : s.wait_seconds) p.wait += w;
  return p;
}

}  // namespace

ServeRun run_serve(const ServeOptions& options) {
  ServeRun run;
  for (int r = 0; r < options.setup_reps; ++r) {
    // Spaced out, so that the median samples the host over two seconds
    // rather than one moment: its state, not the server, sets most of the
    // run-to-run difference in a sub-millisecond set-up.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    run.setup_s.push_back(
        timed_setup(options, options.work_dir + "/setup-" + std::to_string(r)));
  }

  Collector sink;
  const Clock::time_point t_setup = Clock::now();
  ckp::JobServer server(server_options(options, options.work_dir + "/store"),
                        [&sink](const std::string& line) { sink.on_line(line); });
  server.handle_line(kWarmup);
  sink.spin_terminal(1);
  run.setup_s.push_back(seconds_between(t_setup, Clock::now()));
  sink.take();

  const PoolSnapshot pool0 = pool_snapshot();
  const Clock::time_point start = Clock::now();
  if (is_open_loop(options.workload)) {
    run.jobs = mixed_schedule(options.seed, options.seconds);
    run.out.resize(run.jobs.size());
    struct Event {
      double at;
      std::size_t job;
      bool cancel;
    };
    std::vector<Event> events;
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
      events.push_back({run.jobs[i].send_at, i, false});
      if (run.jobs[i].cancel_at >= 0) {
        events.push_back({run.jobs[i].cancel_at, i, true});
      }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.at < b.at; });
    for (const Event& ev : events) {
      // Sleep to just before the send time, then spin: a sleeping thread
      // wakes up to tens of microseconds late, which would otherwise show up
      // in every memo hit's latency.
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(ev.at));
      std::this_thread::sleep_until(due - std::chrono::microseconds(200));
      while (Clock::now() < due) {
      }
      const JobSpec& job = run.jobs[ev.job];
      Outcome& o = run.out[ev.job];
      if (ev.cancel) {
        o.cancel_sent = seconds_between(start, Clock::now());
        send_line(server, cancel_line(job.id), options.tracer,
                  "serve.handle_line.cancel", job.id);
      } else {
        o.send = ev.at;
        o.late = seconds_between(start, Clock::now()) - ev.at;
        o.admit_s = send_line(server, request_line(job), options.tracer,
                              "serve.handle_line.run", job.id);
      }
    }
    sink.wait_terminal(run.jobs.size());
  } else {
    for (int unit = 0;; ++unit) {
      for (JobSpec& job : closed_loop_unit(options.workload, options.seed, unit)) {
        Outcome o;
        o.send = seconds_between(start, Clock::now());
        o.admit_s = send_line(server, request_line(job), options.tracer,
                              "serve.handle_line.run", job.id);
        run.jobs.push_back(std::move(job));
        run.out.push_back(std::move(o));
        sink.wait_terminal(run.jobs.size());
      }
      if (seconds_between(start, Clock::now()) >= options.seconds) break;
    }
  }
  const PoolSnapshot pool1 = pool_snapshot();
  run.memo_hits = server.counter("serve.memo_hits");
  run.memo_misses = server.counter("serve.memo_misses");
  run.jobs_rejected = server.counter("serve.jobs_rejected");
  if (pool1.threads > 0 && pool1.dispatch > pool0.dispatch) {
    run.pool_utilization = (pool1.busy - pool0.busy) /
                           (pool1.threads * (pool1.dispatch - pool0.dispatch));
  }
  run.pool_wait_s = pool1.wait - pool0.wait;

  // Match terminal responses to jobs by id.
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < run.jobs.size(); ++i) index[run.jobs[i].id] = i;
  for (Collector::Line& line : sink.take()) {
    const ckp::JsonValue doc = ckp::json_parse(line.text);
    const ckp::JsonValue* id = doc.find("id");
    CKP_CHECK_MSG(id != nullptr, "response without a job id: " << line.text);
    const auto it = index.find(id->as_string());
    CKP_CHECK_MSG(it != index.end(), "response for an unknown job: " << line.text);
    Outcome& o = run.out[it->second];
    CKP_CHECK_MSG(o.done < 0, "second terminal response for " << id->as_string());
    o.done = seconds_between(start, line.at);
    o.line = std::move(line.text);
    parse_terminal(o);
    run.elapsed_s = std::max(run.elapsed_s, o.done);
  }

  // A memo hit must replay, byte for byte, the record of the miss that
  // stored it. A resubmission sent while its original was still queued is a
  // second miss that stores its own record, so the hit may match either.
  std::map<std::string, std::vector<const std::string*>> stored;
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const Outcome& o = run.out[i];
    if (o.memo == "miss" && o.completed && o.verified && !o.cancelled) {
      stored[request_facts(run.jobs[i])].push_back(&o.record);
    }
  }
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const JobSpec& job = run.jobs[i];
    Outcome& o = run.out[i];
    CKP_CHECK_MSG(o.done >= 0, "no terminal response for " << job.id);
    o.success = succeeded(job, o);
    if (o.memo != "hit") continue;
    bool matched = false;
    for (const std::string* record : stored[request_facts(job)]) {
      matched = matched || *record == o.record;
    }
    CKP_CHECK_MSG(matched, "memo hit for " << job.id
                               << " matches no record a miss stored: "
                               << o.record);
  }
  return run;
}

}  // namespace perfbench
