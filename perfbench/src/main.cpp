// ckp_perfbench: the job-level benchmark program.
//
//   ckp_perfbench --workload=seed_sweep|det_rounds|mixed_serve --seed=N
//                 --seconds=S --trace=0|1 --work_dir=DIR [--trace_out=PATH]
//
// --trace=0 runs the untraced serve phase for S seconds and prints the
// end-to-end metrics. --trace=1 runs an untraced and a traced serve phase
// of S/2 seconds each, replays the traced phase's jobs through the layers'
// public functions, and prints the per-layer metrics. Human-readable report
// lines come first; the last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics. Memo stores go below --work_dir.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/resource.hpp"
#include "stats.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kSeedSweep;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  ckp::Flags flags(argc, argv);
  Args args;
  const std::string workload = flags.get_string("workload", "");
  const std::optional<Workload> w = parse_workload(workload);
  CKP_CHECK_MSG(w.has_value(), "unknown or missing --workload: " << workload);
  args.workload = *w;
  const std::int64_t seed = flags.get_int("seed", 1);
  CKP_CHECK_MSG(seed >= 0, "--seed must not be negative");
  args.seed = static_cast<std::uint64_t>(seed);
  args.seconds = flags.get_double("seconds", args.seconds);
  CKP_CHECK_MSG(args.seconds > 0, "--seconds must be positive");
  args.trace = flags.get_bool("trace", false);
  args.work_dir = flags.get_string("work_dir", "");
  CKP_CHECK_MSG(!args.work_dir.empty(), "--work_dir is required");
  args.trace_out = flags.get_string("trace_out", "");
  flags.check_unknown();
  return args;
}

// The latency sample: every job on the closed loops; on mixed_serve the
// small jobs (the class a head-of-line stall hurts) sent after the warm-in.
std::vector<double> latency_sample(const ServeRun& run) {
  std::vector<double> out;
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const JobSpec& job = run.jobs[i];
    if (!job.large && !job.warm_in) out.push_back(run.out[i].latency());
  }
  return out;
}

struct Summary {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double jobs_per_s = 0;
  double rounds_mean = 0;
  std::vector<double> latency;
};

Summary summarize(const ServeRun& run) {
  Summary s;
  s.attempted = run.jobs.size();
  double rounds = 0;
  std::size_t finished = 0;
  for (const Outcome& o : run.out) {
    if (!o.success) {
      ++s.failed;
      continue;
    }
    if (!o.cancelled) {
      rounds += o.rounds;
      ++finished;
    }
  }
  s.jobs_per_s = static_cast<double>(s.attempted - s.failed) / run.elapsed_s;
  s.rounds_mean = finished > 0 ? rounds / static_cast<double>(finished) : 0.0;
  s.latency = latency_sample(run);
  return s;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    w_.key(name).begin_object();
    w_.key("value").value(value);
    w_.key("unit").value(unit);
    w_.end_object();
    std::printf("metric %-34s %.9g %s\n", name.c_str(), value, unit.c_str());
  }

  std::string result(bool correct, std::size_t attempted, std::size_t failed) {
    w_.end_object();
    ckp::JsonWriter out;
    out.begin_object();
    out.key("correct").value(correct);
    out.key("attempted").value(static_cast<std::uint64_t>(attempted));
    out.key("failed").value(static_cast<std::uint64_t>(failed));
    out.key("metrics").raw(w_.str());
    out.end_object();
    return out.str();
  }

  Metrics() { w_.begin_object(); }

 private:
  ckp::JsonWriter w_;
};

void print_percentile(const char* label, const std::vector<double>& sample,
                      double q) {
  std::printf("%s p%g = %.6f s over %zu samples, %zu beyond it\n", label,
              q * 100, quantile(sample, q), sample.size(),
              samples_beyond(sample.size(), static_cast<int>(q * 1000 + 0.5)));
}

void print_run(const char* label, const ServeRun& run, const Summary& s) {
  std::printf("%s: %zu jobs, %zu failed, %.3f s measured, error_rate %.6f\n",
              label, s.attempted, s.failed, run.elapsed_s,
              static_cast<double>(s.failed) / static_cast<double>(s.attempted));
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    if (!run.out[i].success) {
      std::printf("  failed %s: %s\n", run.jobs[i].id.c_str(),
                  run.out[i].line.c_str());
    }
  }
  const int tail = tail_per_mille(s.latency.size());
  if (tail > 0) {
    std::printf("%s: highest percentile with >= 10 samples beyond it: p%g\n",
                label, tail / 10.0);
  }
}

// Open-loop bookkeeping: memo answers to resubmissions, the stall each
// large job caused, and how late the generator ran against its schedule.
void print_open_loop(const ServeRun& run) {
  std::vector<double> late;
  std::size_t resubmits = 0, resubmit_hits = 0;
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    late.push_back(run.out[i].late);
    if (run.jobs[i].resubmit_of >= 0) {
      ++resubmits;
      if (run.out[i].memo == "hit") ++resubmit_hits;
    }
  }
  std::printf("resubmissions: %zu, answered from the memo: %zu\n", resubmits,
              resubmit_hits);
  std::vector<bool> stalled(run.jobs.size(), false);
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    if (!run.jobs[i].large) continue;
    const Outcome& large = run.out[i];
    std::size_t behind = 0;
    double worst = 0;
    for (std::size_t k = 0; k < run.jobs.size(); ++k) {
      const Outcome& o = run.out[k];
      if (!run.jobs[k].large && o.memo != "hit" && o.send > large.send &&
          o.send < large.done) {
        stalled[k] = true;
        ++behind;
        worst = std::max(worst, o.latency());
      }
    }
    std::printf("large %s: sent %.3f s, latency %.3f s, exec %.3f s, stop %s; "
                "%zu fresh small jobs sent meanwhile, slowest %.3f s\n",
                run.jobs[i].id.c_str(), large.send, large.latency(),
                large.exec_s, large.stop.c_str(), behind, worst);
  }
  // The fresh small jobs no large job stalled hold no percentile; the
  // split shows why: much of their latency is the fsync'd memo commit.
  std::vector<double> exec, rest;
  for (std::size_t k = 0; k < run.jobs.size(); ++k) {
    const Outcome& o = run.out[k];
    if (run.jobs[k].large || o.memo == "hit" || stalled[k]) continue;
    exec.push_back(o.exec_s);
    rest.push_back(o.latency() - o.exec_s);
  }
  std::printf("unstalled fresh small jobs: %zu; exec p50 %.6f p90 %.6f s; "
              "latency minus exec p50 %.6f p90 %.6f s\n",
              exec.size(), quantile(exec, 0.5), quantile(exec, 0.9),
              quantile(rest, 0.5), quantile(rest, 0.9));
  std::vector<double> hits;
  for (std::size_t k = 0; k < run.jobs.size(); ++k) {
    if (run.out[k].memo == "hit") hits.push_back(run.out[k].latency());
  }
  std::printf("memo hits: %zu; latency p50 %.6f p90 %.6f p95 %.6f p97 %.6f "
              "p99 %.6f s\n",
              hits.size(), quantile(hits, 0.5), quantile(hits, 0.9),
              quantile(hits, 0.95), quantile(hits, 0.97), quantile(hits, 0.99));
  const double late_p99 = quantile(late, 0.99);
  std::printf("gen_late_p99_s %.6f s%s\n", late_p99,
              late_p99 > 0.01 ? "  WARNING: generator fell behind its schedule"
                              : "");
}

int untraced(const Args& args) {
  ServeOptions so;
  so.workload = args.workload;
  so.seed = args.seed;
  so.seconds = args.seconds;
  so.setup_reps = 20;
  so.work_dir = args.work_dir + "/serve";
  const ServeRun run = run_serve(so);
  const Summary s = summarize(run);
  print_run("serve", run, s);
  std::printf("setup_s over %zu set-ups: min %.6f p25 %.6f p50 %.6f p75 %.6f "
              "max %.6f s\n",
              run.setup_s.size(), quantile(run.setup_s, 0.0),
              quantile(run.setup_s, 0.25), quantile(run.setup_s, 0.5),
              quantile(run.setup_s, 0.75), quantile(run.setup_s, 1.0));
  print_percentile("latency", s.latency, 0.50);
  print_percentile("latency", s.latency, 0.90);
  print_percentile("latency", s.latency, 0.99);
  if (is_open_loop(args.workload)) print_open_loop(run);

  Metrics m;
  m.add("setup_s", quantile(run.setup_s, 0.5), "s");
  m.add("jobs_per_s", s.jobs_per_s, "1/s");
  m.add("latency_p50_s", quantile(s.latency, 0.50), "s");
  m.add("latency_p90_s", quantile(s.latency, 0.90), "s");
  m.add("latency_p99_s", quantile(s.latency, 0.99), "s");
  m.add("peak_rss_mb", static_cast<double>(ckp::peak_rss_bytes()) / (1 << 20),
        "MB");
  m.add("rounds_mean", s.rounds_mean, "rounds");
  std::printf("%s\n", m.result(s.failed == 0, s.attempted, s.failed).c_str());
  return 0;
}

double mean_of(const std::map<std::string, SpanStats>& st,
               const std::string& prefix, bool exact) {
  double self = 0;
  std::uint64_t count = 0;
  for (const auto& [name, s] : st) {
    if (exact ? name == prefix : name.rfind(prefix, 0) == 0) {
      self += s.self_s;
      count += s.count;
    }
  }
  return count > 0 ? self / static_cast<double>(count) : 0.0;
}

double sum_self(const std::map<std::string, SpanStats>& st,
                const std::string& prefix) {
  double self = 0;
  for (const auto& [name, s] : st) {
    if (name.rfind(prefix, 0) == 0) self += s.self_s;
  }
  return self;
}

int traced(const Args& args) {
  ServeOptions so;
  so.workload = args.workload;
  so.seed = args.seed;
  so.seconds = args.seconds / 2;
  so.setup_reps = 0;
  so.work_dir = args.work_dir + "/untraced";
  const ServeRun plain = run_serve(so);
  const Summary ps = summarize(plain);
  print_run("untraced", plain, ps);

  Tracer tracer;
  so.work_dir = args.work_dir + "/traced";
  so.tracer = &tracer;
  const ServeRun run = run_serve(so);
  const Summary s = summarize(run);
  print_run("traced", run, s);
  const ReplayTotals totals =
      replay(run, plain, args.work_dir + "/replay", tracer);
  if (!args.trace_out.empty()) {
    tracer.write_chrome_trace(args.trace_out);
    std::printf("trace written to %s (%zu spans)\n", args.trace_out.c_str(),
                tracer.spans().size());
  }

  const std::map<std::string, SpanStats> st = tracer.stats();
  std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, x] : st) {
    std::printf("%-34s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(x.count), x.total_s, x.self_s);
  }
  const double p50_plain = quantile(ps.latency, 0.5);
  const double p50_traced = quantile(s.latency, 0.5);
  std::printf("tracing overhead: latency_p50_s traced %.6f - untraced %.6f = %+.6f s\n",
              p50_traced, p50_plain, p50_traced - p50_plain);

  // Serve-side per-job numbers of the traced phase: the computed jobs (memo
  // hits replay another job's execution) and the cancelled ones.
  std::vector<double> exec, wait, small_exec, small_wait;
  double cancel_to_done = 0;
  int cancels = 0;
  double admit = 0;
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const Outcome& o = run.out[i];
    admit += o.admit_s;
    if (o.cancel_sent >= 0) {
      cancel_to_done += o.done - o.cancel_sent;
      ++cancels;
    }
    if (!o.success || o.memo == "hit") continue;
    exec.push_back(o.exec_s);
    wait.push_back(o.latency() - o.exec_s);
    if (!run.jobs[i].large) {
      small_exec.push_back(o.exec_s);
      small_wait.push_back(o.latency() - o.exec_s);
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double t = 0;
    for (const double x : v) t += x;
    return v.empty() ? 0.0 : t / static_cast<double>(v.size());
  };
  const double build_s = sum_self(st, "graph.build.");
  const double build_share = totals.exec_s > 0 ? build_s / totals.exec_s : 0.0;
  print_percentile("small-job serve.wait_s", small_wait, 0.99);
  print_percentile("small-job serve.exec_s", small_exec, 0.99);
  // Shares divide replay times by replay times; the ratio to the serve
  // phase's exec_s (another execution, so not a share) is printed beside.
  std::printf("graph.build_share %.4f (build %.3f s of replayed exec %.3f s; "
              "serve.exec_s of the same jobs %.3f s)\n",
              build_share, build_s, totals.exec_s, totals.serve_exec_s);
  if (totals.ring_exec_s > 0) {
    std::printf("cycle/path jobs: local.run %.3f s of replayed exec %.3f s "
                "(share %.4f; serve.exec_s of the same jobs %.3f s)\n",
                totals.ring_run_s, totals.ring_exec_s,
                totals.ring_run_s / totals.ring_exec_s,
                totals.ring_serve_exec_s);
  }

  Metrics m;
  m.add("graph.build_s", mean_of(st, "graph.build.", false), "s");
  for (const char* family : {"bipartite_regular", "random_regular", "cycle",
                             "path", "complete_tree"}) {
    m.add(std::string("graph.build_s.") + family,
          mean_of(st, std::string("graph.build.") + family, true), "s");
  }
  const double builds = static_cast<double>(totals.jobs);
  m.add("graph.build_alloc_bytes",
        builds > 0 ? totals.build_alloc_bytes / builds : 0.0, "B");
  m.add("graph.build_share", build_share, "ratio");
  for (const char* algo : {"luby", "ghaffari", "matching_rand", "plus_one",
                           "greedy", "matching_det", "thm10", "thm11"}) {
    m.add(std::string("local.run_s.") + algo,
          mean_of(st, std::string("local.run.") + algo, true), "s");
  }
  const double run_s = sum_self(st, "local.run.");
  m.add("local.node_rounds_per_s", run_s > 0 ? totals.node_rounds / run_s : 0.0,
        "1/s");
  m.add("local.engine_bytes_per_node",
        totals.nodes > 0 ? totals.engine_bytes / totals.nodes : 0.0, "B");
  m.add("local.round1_s", mean_of(st, "local.round1", true), "s");
  m.add("registry.prepare_input_s",
        mean_of(st, "registry.prepare_input", true), "s");
  for (const char* verifier :
       {"verify_mis", "verify_maximal_matching", "verify_coloring"}) {
    m.add(std::string("lcl.verify_s.") + verifier,
          mean_of(st, std::string("lcl.verify.") + verifier, true), "s");
  }
  m.add("memo.lookup_s", mean_of(st, "memo.lookup", true), "s");
  m.add("memo.insert_s", mean_of(st, "memo.insert", true), "s");
  const double lookups = run.memo_hits + run.memo_misses;
  m.add("serve.memo_hit_ratio", lookups > 0 ? run.memo_hits / lookups : 0.0,
        "ratio");
  m.add("obs.record_json_s", mean_of(st, "obs.record_json", true), "s");
  m.add("serve.admit_s", admit / static_cast<double>(run.jobs.size()), "s");
  m.add("serve.exec_s", mean(exec), "s");
  m.add("serve.wait_s", mean(wait), "s");
  m.add("serve.cancel_to_done_s", cancels > 0 ? cancel_to_done / cancels : 0.0,
        "s");
  m.add("serve.jobs_rejected", run.jobs_rejected, "count");
  m.add("pool.utilization", run.pool_utilization, "ratio");
  m.add("pool.wait_seconds", run.pool_wait_s, "s");
  const std::size_t attempted = ps.attempted + s.attempted;
  const std::size_t failed = ps.failed + s.failed;
  std::printf("%s\n", m.result(failed == 0, attempted, failed).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                perfbench::workload_name(args.workload),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    return args.trace ? perfbench::traced(args) : perfbench::untraced(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "ckp_perfbench: %s\n", e.what());
    return 1;
  }
}
