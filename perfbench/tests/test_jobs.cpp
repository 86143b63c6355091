// Tests of the benchmark's job lists and percentile helper.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "jobs.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

const Workload kAll[] = {Workload::kSeedSweep, Workload::kDetRounds,
                         Workload::kMixedServe};

std::vector<JobSpec> job_list(Workload w, std::uint64_t seed) {
  if (is_open_loop(w)) return mixed_schedule(seed, 25.0);
  std::vector<JobSpec> jobs;
  for (int unit = 0; unit < 4; ++unit) {
    for (JobSpec& j : closed_loop_unit(w, seed, unit)) jobs.push_back(j);
  }
  return jobs;
}

std::string rendered(const std::vector<JobSpec>& jobs) {
  std::string out;
  for (const JobSpec& j : jobs) {
    out += request_line(j);
    out += " send=" + std::to_string(j.send_at);
    out += " cancel=" + std::to_string(j.cancel_at);
    out += " of=" + std::to_string(j.resubmit_of) + "\n";
  }
  return out;
}

TEST(JobList, SameSeedGivesIdenticalList) {
  for (const Workload w : kAll) {
    for (const std::uint64_t seed : {1u, 7u, 12345u}) {
      const std::string a = rendered(job_list(w, seed));
      EXPECT_FALSE(a.empty()) << workload_name(w);
      EXPECT_EQ(a, rendered(job_list(w, seed))) << workload_name(w);
    }
  }
}

TEST(JobList, DifferentSeedGivesDifferentList) {
  for (const Workload w : kAll) {
    EXPECT_NE(rendered(job_list(w, 1)), rendered(job_list(w, 2)))
        << workload_name(w);
  }
}

TEST(JobList, EveryJobCanFinishInsideItsRoundBudget) {
  for (const Workload w : kAll) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      for (const JobSpec& j : job_list(w, seed)) {
        EXPECT_TRUE(can_finish(j)) << workload_name(w) << " " << request_line(j);
      }
    }
  }
}

TEST(JobList, CanFinishRejectsKnownNonFinishers) {
  JobSpec j;
  j.algo = "sinkless";
  j.graph.family = "bipartite_regular";
  j.graph.n = 4096;
  EXPECT_FALSE(can_finish(j));
  j.algo = "spin";
  EXPECT_FALSE(can_finish(j));
  j.algo = "greedy";
  j.graph.family = "cycle";
  j.max_rounds = 4096;  // a DetLOCAL cycle needs n rounds, plus the halt
  EXPECT_FALSE(can_finish(j));
  j.max_rounds = kMaxRounds;
  EXPECT_TRUE(can_finish(j));
  j.algo = "thm10";
  j.graph.family = "complete_tree";
  j.graph.d = 3;
  EXPECT_FALSE(can_finish(j));
}

TEST(JobList, MixedScheduleShape) {
  const std::vector<JobSpec> jobs = mixed_schedule(3, 25.0);
  int large = 0, cancels = 0, resubmits = 0, sampled = 0, burst = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& j = jobs[i];
    if (i > 0) {
      EXPECT_LE(jobs[i - 1].send_at, j.send_at);
    }
    EXPECT_LT(j.send_at, 25.0);
    EXPECT_EQ(j.warm_in, !j.large && j.send_at < kMixedWarmIn);
    if (j.warm_in) EXPECT_LT(j.resubmit_of, 0);
    if (!j.large && !j.warm_in) ++sampled;
    if (j.large) {
      ++large;
      // Fresh small jobs sent within 0.25 s after a large job wait it out.
      for (const JobSpec& b : jobs) {
        if (!b.large && b.resubmit_of < 0 && b.send_at > j.send_at &&
            b.send_at <= j.send_at + 0.25) {
          ++burst;
        }
      }
    }
    if (j.cancel_at >= 0) {
      ++cancels;
      EXPECT_TRUE(j.large);
      EXPECT_GT(j.cancel_at, j.send_at);
    }
    if (j.resubmit_of >= 0) {
      ++resubmits;
      const JobSpec& orig = jobs[static_cast<std::size_t>(j.resubmit_of)];
      EXPECT_FALSE(orig.large);
      EXPECT_LT(orig.resubmit_of, 0);
      EXPECT_GE(j.send_at - orig.send_at, 2.5);
      EXPECT_EQ(orig.algo, j.algo);
      EXPECT_EQ(orig.graph.canonical(), j.graph.canonical());
      EXPECT_EQ(orig.seed, j.seed);
    }
  }
  EXPECT_EQ(large, 6);
  EXPECT_EQ(cancels, 3);
  // p50 falls among the memo hits, p90 among the jobs that wait out a large
  // job, and p99 has ten samples beyond it.
  EXPECT_GT(resubmits, sampled * 6 / 10);
  EXPECT_GT(burst, sampled * 15 / 100);
  EXPECT_GE(samples_beyond(static_cast<std::size_t>(sampled), 990), 10u);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_per_mille(0), 0);
  EXPECT_EQ(tail_per_mille(19), 0);
  EXPECT_EQ(tail_per_mille(20), 500);
  EXPECT_EQ(tail_per_mille(39), 500);
  EXPECT_EQ(tail_per_mille(40), 750);
  EXPECT_EQ(tail_per_mille(100), 900);
  EXPECT_EQ(tail_per_mille(199), 900);
  EXPECT_EQ(tail_per_mille(200), 950);
  EXPECT_EQ(tail_per_mille(999), 950);
  EXPECT_EQ(tail_per_mille(1000), 990);
  EXPECT_EQ(tail_per_mille(9999), 990);
  EXPECT_EQ(tail_per_mille(10000), 999);
  EXPECT_EQ(samples_beyond(1000, 990), 10u);
  EXPECT_EQ(samples_beyond(999, 990), 9u);
}

TEST(Percentile, NearestRankQuantile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(quantile(v, 0.5), 50);
  EXPECT_EQ(quantile(v, 0.9), 90);
  EXPECT_EQ(quantile(v, 0.99), 99);
  EXPECT_EQ(quantile(v, 1.0), 100);
  EXPECT_EQ(quantile({}, 0.5), 0);
  EXPECT_EQ(quantile({7.0}, 0.99), 7.0);
}

}  // namespace
}  // namespace perfbench
