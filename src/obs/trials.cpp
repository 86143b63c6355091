#include "obs/trials.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ckp {

std::vector<RunRecord> run_trials(int trials, int threads,
                                  const TrialFn& trial_fn) {
  CKP_CHECK_MSG(trials >= 0, "negative trial count");
  std::vector<std::vector<RunRecord>> per_trial(
      static_cast<std::size_t>(trials));
  const int chunks = std::clamp(threads, 1, std::max(trials, 1));
  if (chunks <= 1 || in_parallel_worker()) {
    for (int t = 0; t < trials; ++t) {
      per_trial[static_cast<std::size_t>(t)] = trial_fn(t);
    }
  } else {
    shared_pool(chunks).parallel_for(
        0, trials, chunks,
        [&](std::int64_t begin, std::int64_t end, int /*chunk*/) {
          for (std::int64_t t = begin; t < end; ++t) {
            per_trial[static_cast<std::size_t>(t)] =
                trial_fn(static_cast<int>(t));
          }
        });
  }
  std::vector<RunRecord> out;
  for (std::vector<RunRecord>& records : per_trial) {
    for (RunRecord& record : records) out.push_back(std::move(record));
  }
  return out;
}

double metric_or(const RunRecord& record, const std::string& name,
                 double def) {
  for (const auto& [key, value] : record.metrics()) {
    if (key == name) return value;
  }
  return def;
}

}  // namespace ckp
