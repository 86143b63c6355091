#include "obs/reporter.hpp"

#include <fstream>
#include <iostream>
#include <utility>

#include "graph/bfs_kernel.hpp"
#include "obs/progress.hpp"
#include "obs/resource.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace ckp {

void add_kernel_metrics(RunRecord& record, const BfsKernelCounters& before) {
  const BfsKernelCounters now = bfs_kernel_counters();
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  record.metric("bfs_kernel.queries", delta(now.queries, before.queries));
  record.metric("bfs_kernel.nodes_touched",
                delta(now.nodes_touched, before.nodes_touched));
  record.metric("bfs_kernel.resumes", delta(now.resumes, before.resumes));
  record.metric("bfs_kernel.view_queries",
                delta(now.view_queries, before.view_queries));
  record.metric("bfs_kernel.view_cache_hits",
                delta(now.view_cache_hits, before.view_cache_hits));
  record.metric("bfs_kernel.view_cache_extends",
                delta(now.view_cache_extends, before.view_cache_extends));
}

void add_resource_run_metrics(RunRecord& record, const ThreadPoolStats& since) {
  record.metric("peak_rss_bytes", static_cast<double>(peak_rss_bytes()));
  const ThreadPoolStats now = shared_pool_stats();
  double busy = 0.0;
  for (const double s : now.busy_seconds) busy += s;
  for (const double s : since.busy_seconds) busy -= s;
  const double window = now.dispatch_seconds - since.dispatch_seconds;
  double utilization = 0.0;
  if (now.threads > 0 && window > 0.0) {
    utilization = busy / (static_cast<double>(now.threads) * window);
  }
  record.metric("pool_utilization", utilization);
}

BenchReporter::BenchReporter(Flags& flags, std::string bench_name)
    : bench_name_(std::move(bench_name)),
      csv_(flags.get_bool("csv", false)),
      threads_(flags.get_threads()),
      trace_path_(flags.get_string("trace_out", "")),
      metrics_path_(flags.get_string("metrics_out", "")),
      provenance_enabled_(flags.get_bool("provenance", false)),
      jsonl_(flags.get_string("json_out", "")) {
  set_default_engine_threads(threads_);
  set_progress_interval(flags.get_double("progress_every", 0.0));
  if (provenance_enabled_) provenance_ = collect_provenance();
}

BenchReporter::~BenchReporter() { finish(); }

RunRecord BenchReporter::make_record() const {
  RunRecord record;
  record.bench = bench_name_;
  record.metric("threads", static_cast<double>(threads_));
  return record;
}

void BenchReporter::add(RunRecord record) {
  if (record.bench.empty()) record.bench = bench_name_;
  // Stamp records that carry no provenance of their own.
  if (provenance_enabled_ && record.provenance.empty()) {
    record.provenance = provenance_;
  }
  jsonl_.write(record);
  ++records_;
  metrics_.add("bench.records");
  if (record.wall_seconds > 0.0) {
    metrics_
        .histogram("bench.wall_seconds",
                   {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0})
        .add(record.wall_seconds);
  }
  if (trace_path_.empty()) return;
  if (!have_phase_trace_ && !record.trace.empty()) {
    have_phase_trace_ = true;
    phase_trace_ = record.trace;
    phase_trace_label_ = record.algorithm;
  }
  if (!have_phase_trace_ && record.wall_seconds > 0.0) {
    std::string name = record.algorithm.empty() ? bench_name_
                                                : record.algorithm;
    flat_spans_.add_complete(std::move(name), flat_cursor_seconds_,
                             record.wall_seconds);
    flat_cursor_seconds_ += record.wall_seconds;
  }
}

void BenchReporter::print(const Table& table, std::ostream& os) const {
  if (csv_) {
    table.print_csv(os);
  } else {
    table.print(os);
  }
}

void BenchReporter::finish() {
  if (finished_) return;
  finished_ = true;
  if (jsonl_.enabled() && jsonl_.rows_written() > 0) {
    std::cout << "[obs] wrote " << jsonl_.rows_written()
              << " run records to " << jsonl_.path() << '\n';
  }
  if (!metrics_path_.empty()) {
    record_resource_metrics(metrics_);
    std::ofstream out(metrics_path_, std::ios::trunc);
    CKP_CHECK_MSG(out.good(), "cannot open metrics output file "
                                  << metrics_path_);
    out << metrics_.to_json() << '\n';
    CKP_CHECK_MSG(out.good(), "metrics write failed for " << metrics_path_);
    std::cout << "[obs] wrote metrics snapshot to " << metrics_path_ << '\n';
  }
  if (trace_path_.empty()) return;
  if (have_phase_trace_) {
    SpanTracer tracer;
    tracer.add_trace(phase_trace_);
    tracer.write_chrome_json(trace_path_);
    std::cout << "[obs] wrote Chrome trace (" << tracer.size()
              << " phase spans of " << phase_trace_label_ << ") to "
              << trace_path_ << '\n';
  } else if (flat_spans_.size() > 0) {
    flat_spans_.write_chrome_json(trace_path_);
    std::cout << "[obs] wrote Chrome trace (" << flat_spans_.size()
              << " run spans) to " << trace_path_ << '\n';
  } else {
    std::cout << "[obs] no timed runs recorded; " << trace_path_
              << " not written\n";
  }
}

}  // namespace ckp
