#include "jobs.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "util/json.hpp"

namespace perfbench {

namespace {

// SplitMix64: a small, portable generator, so job lists do not depend on the
// standard library's distribution implementations.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  // Request seeds stay below 2^40: the protocol rejects integers above 1e15.
  std::uint64_t request_seed() { return 1 + (next() >> 24); }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  Mix m(seed ^ (a * 0xd6e8feb86659fd93ULL) ^ (b * 0xa0761d6478bd642fULL));
  return m.next();
}

ckp::GraphSpec spec(std::string family, std::uint64_t n, int d,
                    std::uint64_t gseed = 0) {
  ckp::GraphSpec g;
  g.family = std::move(family);
  g.n = n;
  g.d = d;
  g.seed = gseed;
  return g;
}

const std::vector<std::string>& randomized_roster() {
  static const std::vector<std::string> kAlgos = {"luby", "ghaffari",
                                                  "matching_rand", "plus_one"};
  return kAlgos;
}

std::vector<JobSpec> seed_sweep_unit(std::uint64_t seed, int unit) {
  // Each spec has its own fixed gseed, so a spec repeats across run seeds
  // exactly as in a user's seed sweep. The gseeds do not follow the workload
  // seed: the generators' repair loops make build time depend on the gseed,
  // and the workload must cost the same whatever its seed.
  const std::vector<ckp::GraphSpec> specs = {
      spec("bipartite_regular", 1u << 20, 3, 11),
      spec("random_regular", 1u << 19, 3, 12),
      spec("random_regular", 1u << 19, 4, 13),
  };
  // A unit is every spec × the roster once: specs in a fixed order (the
  // allocation pattern, and with it peak RSS, depends on it), the roster
  // shuffled within each spec, a fresh run seed per job.
  Mix mix(derive(seed, 3, static_cast<std::uint64_t>(unit)));
  std::vector<JobSpec> jobs;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::vector<std::string> algos = randomized_roster();
    mix.shuffle(algos);
    for (const std::string& algo : algos) {
      JobSpec j;
      j.id = "u" + std::to_string(unit) + "." + std::to_string(jobs.size());
      j.algo = algo;
      j.graph = specs[s];
      j.seed = mix.request_seed();
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

std::vector<JobSpec> det_rounds_unit(std::uint64_t seed, int unit) {
  // Fixed classes, seeded order and request seeds: the DetLOCAL algorithms
  // ignore the seed, so the round counts of a unit never depend on it.
  struct Class {
    const char* algo;
    ckp::GraphSpec graph;
  };
  std::vector<Class> classes = {
      {"greedy", spec("cycle", 1u << 13, 0)},
      {"matching_det", spec("cycle", 1u << 12, 0)},
      {"greedy", spec("path", 1u << 12, 0)},
      {"matching_det", spec("path", 1u << 13, 0)},
      {"greedy", spec("complete_tree", 1u << 20, 3)},
      {"matching_det", spec("complete_tree", 1u << 20, 16)},
  };
  Mix mix(derive(seed, 4, static_cast<std::uint64_t>(unit)));
  mix.shuffle(classes);
  std::vector<JobSpec> jobs;
  for (std::size_t k = 0; k < classes.size(); ++k) {
    JobSpec j;
    j.id = "u" + std::to_string(unit) + "." + std::to_string(k);
    j.algo = classes[k].algo;
    j.graph = classes[k].graph;
    j.seed = mix.request_seed();
    jobs.push_back(std::move(j));
  }
  return jobs;
}

// The graph families a small mixed_serve job of `algo` may use at size n:
// ones the algorithm finishes on (DetLOCAL kept off cycles and paths, where
// it needs n rounds; the Δ-colorings on the trees they require).
std::vector<ckp::GraphSpec> small_families(const std::string& algo,
                                           std::uint64_t n,
                                           std::uint64_t gseed) {
  if (algo == "thm10") return {spec("complete_tree", n, 16)};
  if (algo == "thm11") {
    return {spec("complete_tree", n, 7), spec("complete_tree", n, 16)};
  }
  if (algo == "greedy" || algo == "matching_det") {
    return {spec("bipartite_regular", n, 3, gseed),
            spec("random_regular", n, 3, gseed), spec("complete_tree", n, 3),
            spec("complete_tree", n, 16)};
  }
  return {spec("bipartite_regular", n, 3, gseed),
          spec("random_regular", n, 3, gseed),
          spec("random_regular", n, 4, gseed), spec("cycle", n, 0),
          spec("path", n, 0), spec("complete_tree", n, 3)};
}

// mixed_serve rates and shares. Resubmissions are answered at admission
// and never queue. After the warm-in, fresh small jobs arrive spread out at
// ~6/s, plus a burst of kBurstSize just after each large job: small jobs
// admitted right after a large one wait out its whole batch (head-of-line
// blocking). A stall (~1.9-2.7 s) queues the burst and ~15 others, about
// 45 jobs, below the default queue_limit of 64. The shares keep each
// reported percentile inside one population, away from its edges: of the
// small jobs sent after the warm-in, p50 falls among the memo hits (~72%),
// p90 and p99 among the bursts (~15%). A burst job's latency is about one
// large job's, so p90 and p99 follow it one to one. Spread-out fresh jobs
// in their place put p90 at a fixed rank inside the stalls, about L - 1.2 s
// for a stall of L, which moves twice as much as L. The fresh jobs that ran
// without a stall hold no percentile: their few milliseconds of exec and
// fsync'd memo commit swing by 2-3x from run to run on a shared host.
// 22.5 s after the warm-in give ~1060 small jobs, so p99 has ten samples
// beyond it.
constexpr double kSmallRate = 40.0;       // spread-out small jobs per second
constexpr double kResubmitShare = 0.85;   // share resubmitted, once possible
constexpr double kResubmitMinAge = kMixedWarmIn;  // seconds after the original
constexpr double kLargeFirst = kMixedWarmIn;      // first large job's send time
constexpr double kLargePeriod = 3.5;      // seconds between large jobs
constexpr double kLargeTail = 2.5;        // no large job this close to the end
constexpr int kBurstSize = 27;            // fresh small jobs after each large job
constexpr double kBurstDelay = 0.05;      // seconds from a large job to its burst
constexpr double kBurstSpread = 0.2;      // seconds a burst is spread over

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "seed_sweep") return Workload::kSeedSweep;
  if (name == "det_rounds") return Workload::kDetRounds;
  if (name == "mixed_serve") return Workload::kMixedServe;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSeedSweep:
      return "seed_sweep";
    case Workload::kDetRounds:
      return "det_rounds";
    case Workload::kMixedServe:
      return "mixed_serve";
  }
  return "?";
}

bool is_open_loop(Workload w) { return w == Workload::kMixedServe; }

int workload_workers(Workload w) { return is_open_loop(w) ? 2 : 1; }

std::string request_line(const JobSpec& job) {
  ckp::JsonWriter w;
  w.begin_object();
  w.key("op").value("run");
  w.key("id").value(job.id);
  w.key("algo").value(job.algo);
  w.key("graph").begin_object();
  w.key("family").value(job.graph.family);
  w.key("n").value(job.graph.n);
  if (job.graph.d != 0) w.key("d").value(job.graph.d);
  if (job.graph.seed != 0) w.key("gseed").value(job.graph.seed);
  w.end_object();
  w.key("seed").value(job.seed);
  w.key("max_rounds").value(job.max_rounds);
  w.end_object();
  return w.str();
}

std::vector<JobSpec> closed_loop_unit(Workload w, std::uint64_t seed,
                                      int unit) {
  if (w == Workload::kSeedSweep) return seed_sweep_unit(seed, unit);
  if (w == Workload::kDetRounds) return det_rounds_unit(seed, unit);
  return {};
}

std::vector<JobSpec> mixed_schedule(std::uint64_t seed, double seconds) {
  Mix mix(derive(seed, 5));
  std::vector<JobSpec> jobs;
  std::vector<int> fresh_small;  // indices of fresh small jobs, by send time

  // Fresh small jobs come from a deck of every (algorithm, n = 2^10..2^14)
  // pair, reshuffled every full pass, and each algorithm rotates through its
  // families: every run has the same job mix up to one partial pass, so the
  // percentiles do not move with the seed's luck.
  const std::vector<std::string> roster = {
      "luby",   "ghaffari", "matching_rand", "plus_one",
      "greedy", "matching_det", "thm10",     "thm11"};
  std::vector<std::pair<std::size_t, int>> deck;  // (roster index, log2 n)
  std::vector<std::uint64_t> family_turn(roster.size());
  for (std::uint64_t& turn : family_turn) turn = mix.below(6);
  const auto fresh_job = [&](double t) {
    if (deck.empty()) {
      for (std::size_t a = 0; a < roster.size(); ++a) {
        for (int log_n = 10; log_n <= 14; ++log_n) deck.emplace_back(a, log_n);
      }
      mix.shuffle(deck);
    }
    const auto [a, log_n] = deck.back();
    deck.pop_back();
    const std::vector<ckp::GraphSpec> families = small_families(
        roster[a], std::uint64_t{1} << log_n, mix.request_seed());
    JobSpec j;
    j.algo = roster[a];
    j.graph = families[family_turn[a]++ % families.size()];
    j.seed = mix.request_seed();
    j.send_at = t;
    j.warm_in = t < kMixedWarmIn;
    return j;
  };
  double resubmit_credit = 0.0;

  const int small_count = static_cast<int>(seconds * kSmallRate);
  for (int k = 0; k < small_count; ++k) {
    const double t = (k + 0.5 + 0.8 * (mix.unit() - 0.5)) / kSmallRate;
    // Resubmit a fresh small job sent at least kResubmitMinAge earlier, once
    // there is one. Error diffusion keeps the resubmitted share exact.
    const auto old_enough = std::upper_bound(
        fresh_small.begin(), fresh_small.end(), t - kResubmitMinAge,
        [&jobs](double limit, int idx) {
          return limit < jobs[static_cast<std::size_t>(idx)].send_at;
        });
    const auto candidates = old_enough - fresh_small.begin();
    if (candidates > 0) resubmit_credit += kResubmitShare;
    if (resubmit_credit >= 1.0) {
      const int orig =
          fresh_small[mix.below(static_cast<std::uint64_t>(candidates))];
      JobSpec j = jobs[static_cast<std::size_t>(orig)];
      j.resubmit_of = orig;
      j.send_at = t;
      j.warm_in = false;
      jobs.push_back(std::move(j));
      resubmit_credit -= 1.0;
    } else {
      fresh_small.push_back(static_cast<int>(jobs.size()));
      jobs.push_back(fresh_job(t));
    }
  }

  // The large luby jobs, each done well before the schedule ends; every
  // second one gets a cancel 0.3-0.9 s after it is sent. The k-th large job
  // always builds the same graph (see seed_sweep_unit on fixed gseeds). Each
  // is followed by a burst of fresh small jobs, which wait out its batch.
  for (int k = 0;; ++k) {
    const double t = kLargeFirst + k * kLargePeriod + 0.4 * mix.unit();
    if (t + kLargeTail >= seconds) break;
    JobSpec j;
    j.algo = "luby";
    j.graph = spec("bipartite_regular", 1u << 20, 3, 101 + k);
    j.seed = mix.request_seed();
    j.send_at = t;
    j.large = true;
    j.cancel_at = k % 2 == 1 ? t + 0.3 + 0.6 * mix.unit() : -1.0;
    jobs.push_back(std::move(j));
    for (int b = 0; b < kBurstSize; ++b) {
      jobs.push_back(fresh_job(t + kBurstDelay + kBurstSpread * mix.unit()));
    }
  }

  // Sort by send time, then name jobs in send order and remap resubmission
  // indices.
  std::vector<int> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&jobs](int a, int b) {
    return jobs[static_cast<std::size_t>(a)].send_at <
           jobs[static_cast<std::size_t>(b)].send_at;
  });
  std::vector<int> where(jobs.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    where[static_cast<std::size_t>(order[pos])] = static_cast<int>(pos);
  }
  std::vector<JobSpec> sorted;
  sorted.reserve(jobs.size());
  for (const int idx : order) {
    JobSpec j = jobs[static_cast<std::size_t>(idx)];
    if (j.resubmit_of >= 0) {
      j.resubmit_of = where[static_cast<std::size_t>(j.resubmit_of)];
    }
    j.id = (j.large ? "L" : "w") + std::to_string(sorted.size());
    sorted.push_back(std::move(j));
  }
  return sorted;
}

bool can_finish(const JobSpec& job) {
  const ckp::GraphSpec& g = job.graph;
  if (g.n == 0 || g.n > (1u << 20)) return false;
  if (job.algo == "sinkless" || job.algo == "spin") return false;
  const bool ring = g.family == "cycle" || g.family == "path";
  if ((job.algo == "greedy" || job.algo == "matching_det") && ring) {
    return static_cast<std::uint64_t>(job.max_rounds) > g.n;
  }
  if (job.algo == "thm10") {
    return g.family == "complete_tree" && g.d >= 16 && g.d <= 511;
  }
  if (job.algo == "thm11") {
    return g.family == "complete_tree" && g.d >= 7 && g.d <= 511;
  }
  return job.max_rounds >= 1;
}

}  // namespace perfbench
