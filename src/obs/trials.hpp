// Multi-seed trial fan-out for the benches.
//
// Sharpening empirical failure-probability estimates needs orders of
// magnitude more random trials than the historical 3-seed sweeps, and
// independent seeds are embarrassingly parallel. run_trials executes
// trial_fn(0..trials-1) on the shared thread pool and returns the
// concatenated RunRecords in trial order, so JSONL output, tables, and
// accumulated statistics are byte-identical for every thread count.
//
// Trial bodies must be independent: derive inputs and seeds from the trial
// index, share only const data (the Graph under test), and never touch the
// reporter — records are handed back and added on the calling thread.
// run_local calls inside a trial detect the fan-out and run sequentially
// (no nested parallelism), which keeps the outer, better-grained
// parallelism.
#pragma once

#include <functional>
#include <vector>

#include "obs/run_record.hpp"

namespace ckp {

// One trial may measure several algorithm executions, hence the vector.
using TrialFn = std::function<std::vector<RunRecord>(int trial)>;

std::vector<RunRecord> run_trials(int trials, int threads,
                                  const TrialFn& trial_fn);

// The value of metric `name` on `record`, or `def` when absent. The benches
// rebuild their summary tables from the records run_trials hands back, so
// lookups of the metrics stashed by the trial bodies are common.
double metric_or(const RunRecord& record, const std::string& name, double def);

}  // namespace ckp
