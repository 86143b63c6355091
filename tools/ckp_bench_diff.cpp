// Joins two BENCH_*.json JSON Lines files and flags per-metric regressions.
//
// Each line is one RunRecord (see obs/run_record.hpp). Records are grouped
// by the identity key (bench, algorithm, graph_family, n, delta, threads) —
// seeds aggregate into a mean per metric — and the two files are joined on
// that key. For every requested metric (lower is better: wall times, round
// counts), a joined key regresses when
//
//   baseline > 0  AND  current >= --min-abs  AND  current/baseline > --max-ratio
//
// The --min-abs floor keeps microsecond-scale rows (pure timer noise at PR
// sweep sizes) from tripping the gate; --max-ratio is the slowdown budget.
// Regressions print as a table naming the offending record and metric, and
// the exit status is the gate: 0 = clean, 1 = at least one regression,
// 2 = usage/parse error. Keys present on only one side are reported as
// warnings, never failures — sweeps legitimately grow and shrink across PRs.
//
//   ckp_bench_diff --baseline=BENCH_PR.json --current=BENCH_NEW.json
//       [--metrics=wall_seconds] [--max-ratio=1.25] [--min-abs=0.001] [--all]
//
// Metric names resolve against the RunRecord fields wall_seconds and rounds
// first, then the record's metrics map. scripts/check_bench_regress.sh wraps
// this binary for CI use.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/run_record.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace ckp;

struct MetricAgg {
  double sum = 0.0;
  std::uint64_t count = 0;

  void add(double v) {
    sum += v;
    ++count;
  }
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

// Identity key -> metric name -> aggregate. std::map keeps the report in a
// stable, diff-friendly order regardless of input line order.
using KeyedMetrics = std::map<std::string, std::map<std::string, MetricAgg>>;

std::string record_key(const RunRecord& rec) {
  double threads = 1.0;
  for (const auto& [name, value] : rec.metrics()) {
    if (name == "threads") threads = value;
  }
  std::ostringstream key;
  key << rec.bench << '/' << rec.algorithm;
  if (!rec.graph_family.empty()) key << '/' << rec.graph_family;
  if (rec.n != 0) key << "/n=" << rec.n;
  if (rec.delta != 0) key << "/d=" << rec.delta;
  key << "/t=" << static_cast<std::uint64_t>(threads);
  return key.str();
}

// The value of `metric` in `rec`, if present: record fields first, then the
// metrics map.
bool metric_value(const RunRecord& rec, const std::string& metric,
                  double* out) {
  if (metric == "wall_seconds") {
    if (rec.wall_seconds <= 0.0) return false;
    *out = rec.wall_seconds;
    return true;
  }
  if (metric == "rounds") {
    if (rec.rounds <= 0) return false;
    *out = static_cast<double>(rec.rounds);
    return true;
  }
  for (const auto& [name, value] : rec.metrics()) {
    if (name == metric) {
      *out = value;
      return true;
    }
  }
  return false;
}

KeyedMetrics load_jsonl(const std::string& path,
                        const std::vector<std::string>& metrics) {
  std::ifstream in(path);
  CKP_CHECK_MSG(in.good(), "cannot open " << path);
  KeyedMetrics out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    RunRecord rec;
    try {
      rec = RunRecord::from_json_line(line);
    } catch (const CheckFailure& e) {
      CKP_CHECK_MSG(false, path << ':' << lineno
                                << ": bad run record: " << e.what());
    }
    auto& agg = out[record_key(rec)];
    for (const std::string& metric : metrics) {
      double value = 0.0;
      if (metric_value(rec, metric, &value)) agg[metric].add(value);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const std::string baseline_path = flags.get_string("baseline", "");
    const std::string current_path = flags.get_string("current", "");
    // Strict list semantics (same splitter as --algo rosters): a typo like
    // --metrics=wall_seconds, used to silently drop the empty tail item.
    const std::vector<std::string> metrics =
        flags.get_strings("metrics", {"wall_seconds"});
    const double max_ratio = flags.get_double("max-ratio", 1.25);
    const double min_abs = flags.get_double("min-abs", 1e-3);
    const bool show_all = flags.get_bool("all", false);
    flags.check_unknown();
    CKP_CHECK_MSG(!baseline_path.empty() && !current_path.empty(),
                  "usage: ckp_bench_diff --baseline=OLD.json "
                  "--current=NEW.json [--metrics=wall_seconds] "
                  "[--max-ratio=1.25] [--min-abs=1e-3] [--all]");
    CKP_CHECK_MSG(!metrics.empty(), "--metrics must name at least one metric");
    CKP_CHECK_MSG(max_ratio > 0.0, "--max-ratio must be positive");

    const KeyedMetrics baseline = load_jsonl(baseline_path, metrics);
    const KeyedMetrics current = load_jsonl(current_path, metrics);

    std::size_t joined = 0;
    std::size_t regressions = 0;
    std::size_t improvements = 0;
    Table report({"record", "metric", "baseline", "current", "ratio",
                  "verdict"});
    for (const auto& [key, base_metrics] : baseline) {
      const auto cur_it = current.find(key);
      if (cur_it == current.end()) {
        std::cerr << "[diff] warning: '" << key << "' only in baseline\n";
        continue;
      }
      for (const auto& [metric, base_agg] : base_metrics) {
        const auto cur_metric = cur_it->second.find(metric);
        if (cur_metric == cur_it->second.end()) {
          std::cerr << "[diff] warning: '" << key << "' lacks metric '"
                    << metric << "' in current\n";
          continue;
        }
        ++joined;
        const double base = base_agg.mean();
        const double cur = cur_metric->second.mean();
        const double ratio = base > 0.0 ? cur / base : 0.0;
        const bool regressed =
            base > 0.0 && cur >= min_abs && ratio > max_ratio;
        const bool improved = base >= min_abs && base > 0.0 &&
                              ratio < 1.0 / max_ratio;
        if (regressed) ++regressions;
        if (improved) ++improvements;
        if (regressed || show_all) {
          report.add_row({key, metric, Table::cell(base, 6),
                          Table::cell(cur, 6),
                          base > 0.0 ? Table::cell(ratio, 2) : "-",
                          regressed ? "REGRESSED"
                                    : (improved ? "improved" : "ok")});
        }
      }
    }
    for (const auto& [key, unused] : current) {
      (void)unused;
      if (baseline.find(key) == baseline.end()) {
        std::cerr << "[diff] warning: '" << key << "' only in current\n";
      }
    }

    if (report.rows() > 0) report.print(std::cout);
    std::cout << "[diff] " << joined << " (record, metric) pairs joined on "
              << metrics.size() << " metric(s); " << regressions
              << " regression(s), " << improvements << " improvement(s) at "
              << "max-ratio=" << max_ratio << " min-abs=" << min_abs << '\n';
    if (regressions > 0) {
      std::cout << "[diff] FAIL: current is slower than baseline beyond the "
                << "threshold on the rows above\n";
      return 1;
    }
    std::cout << "[diff] OK: no regressions\n";
    return 0;
  } catch (const ckp::CheckFailure& e) {
    std::cerr << "ckp_bench_diff: " << e.what() << '\n';
    return 2;
  }
}
