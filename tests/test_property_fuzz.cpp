// Randomized property tests ("fuzzing" the theory machinery): random LCL
// descriptions through the cycle classifier + solver, and random bipartite
// problems through the round-elimination operator. These catch the cases no
// hand-picked catalog covers.
#include <gtest/gtest.h>

#include "core/cycle_lcl.hpp"
#include "core/roundelim.hpp"
#include "graph/generators.hpp"
#include "local/ids.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace ckp {
namespace {

CycleLcl random_cycle_lcl(Rng& rng) {
  CycleLcl p;
  p.num_labels = 2 + static_cast<int>(rng.next_below(2));  // 2 or 3
  p.window = 2 + static_cast<int>(rng.next_below(2));      // 2 or 3
  const int total = static_cast<int>(ipow_sat(
      static_cast<std::uint64_t>(p.num_labels),
      static_cast<unsigned>(p.window)));
  // Include each window with probability 1/2; regenerate if empty.
  do {
    p.allowed.clear();
    for (int w = 0; w < total; ++w) {
      if (!rng.next_bit()) continue;
      std::vector<int> win(static_cast<std::size_t>(p.window));
      int x = w;
      for (int i = p.window - 1; i >= 0; --i) {
        win[static_cast<std::size_t>(i)] = x % p.num_labels;
        x /= p.num_labels;
      }
      p.allowed.push_back(std::move(win));
    }
  } while (p.allowed.empty());
  p.validate();
  return p;
}

TEST(FuzzCycleLcl, ClassifierAndSolverAgree) {
  Rng rng(2201);
  int solvable_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto lcl = random_cycle_lcl(rng);
    const auto cls = classify_cycle_lcl(lcl);
    // Solve on two cycle sizes; consistency requirements:
    //  * kUnsolvable => solver reports infeasible;
    //  * kConstant/kLogStar => solver succeeds and output validates;
    //  * kGlobal => if the solver reports feasible, the output validates.
    for (const NodeId n : {48, 120}) {
      const Graph g = make_cycle(n);
      const auto ids = random_ids(
          n, 2 * ceil_log2(static_cast<std::uint64_t>(n)), rng);
      RoundLedger ledger;
      const auto r = solve_cycle_lcl(lcl, g, ids, ledger);
      switch (cls.complexity) {
        case CycleComplexity::kUnsolvable:
          EXPECT_FALSE(r.feasible) << "trial " << trial;
          break;
        case CycleComplexity::kConstant:
        case CycleComplexity::kLogStar:
          ASSERT_TRUE(r.feasible) << "trial " << trial;
          EXPECT_TRUE(cycle_labeling_valid(lcl, r.labels))
              << "trial " << trial << " n=" << n;
          ++solvable_seen;
          break;
        case CycleComplexity::kGlobal:
          if (r.feasible) {
            EXPECT_TRUE(cycle_labeling_valid(lcl, r.labels))
                << "trial " << trial << " n=" << n;
          }
          break;
      }
    }
  }
  // The random ensemble must actually exercise the solvable paths.
  EXPECT_GT(solvable_seen, 10);
}

TEST(FuzzCycleLcl, ConstantClassImpliesMonochromaticWindow) {
  Rng rng(2203);
  for (int trial = 0; trial < 80; ++trial) {
    const auto lcl = random_cycle_lcl(rng);
    const auto cls = classify_cycle_lcl(lcl);
    bool has_mono = false;
    for (int l = 0; l < lcl.num_labels; ++l) {
      const std::vector<int> mono(static_cast<std::size_t>(lcl.window), l);
      if (std::find(lcl.allowed.begin(), lcl.allowed.end(), mono) !=
          lcl.allowed.end()) {
        has_mono = true;
      }
    }
    EXPECT_EQ(cls.complexity == CycleComplexity::kConstant, has_mono)
        << "trial " << trial;
  }
}

BipartiteProblem random_bipartite_problem(Rng& rng) {
  BipartiteProblem p;
  p.active_degree = 2 + static_cast<int>(rng.next_below(2));
  p.passive_degree = 2;
  p.label_names = {"a", "b"};
  auto random_configs = [&](int degree) {
    std::set<std::vector<int>> out;
    // Enumerate all multisets of size `degree` over 2 labels: degree+1 of
    // them (by count of label 1); include each with probability 1/2.
    do {
      out.clear();
      for (int ones = 0; ones <= degree; ++ones) {
        if (!rng.next_bit()) continue;
        std::vector<int> cfg(static_cast<std::size_t>(degree), 0);
        for (int i = 0; i < ones; ++i) {
          cfg[static_cast<std::size_t>(degree - 1 - i)] = 1;
        }
        std::sort(cfg.begin(), cfg.end());
        out.insert(cfg);
      }
    } while (out.empty());
    return out;
  };
  p.active = random_configs(p.active_degree);
  p.passive = random_configs(p.passive_degree);
  p.validate();
  return p;
}

TEST(FuzzRoundElim, PreservesSolvabilityForward) {
  // If Π is 0-round solvable, R(Π) must be too (elimination can only make
  // problems easier).
  Rng rng(2207);
  int solvable_seen = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const auto p = random_bipartite_problem(rng);
    if (!zero_round_solvable(p)) continue;
    ++solvable_seen;
    BipartiteProblem r;
    try {
      r = round_eliminate(p);
    } catch (const CheckFailure&) {
      continue;  // empty elimination: skip (p may be vacuous)
    }
    EXPECT_TRUE(zero_round_solvable(r)) << "trial " << trial;
  }
  EXPECT_GT(solvable_seen, 10);
}

TEST(FuzzRoundElim, StructuralInvariants) {
  Rng rng(2213);
  for (int trial = 0; trial < 80; ++trial) {
    const auto p = random_bipartite_problem(rng);
    BipartiteProblem r;
    try {
      r = round_eliminate(p);
    } catch (const CheckFailure&) {
      continue;
    }
    EXPECT_EQ(r.active_degree, p.passive_degree);
    EXPECT_EQ(r.passive_degree, p.active_degree);
    EXPECT_GE(r.num_labels(), 1);
    EXPECT_FALSE(r.active.empty());
    // Isomorphism is reflexive on the output.
    EXPECT_TRUE(problems_isomorphic(r, r));
  }
}

// A wider random ensemble than random_bipartite_problem: 2-4 labels,
// degrees 2-3 on both sides, arbitrary non-empty configuration sets. This
// is the differential-fuzz generator for the packed kernel vs the seed
// reference implementation.
BipartiteProblem random_wide_problem(Rng& rng) {
  BipartiteProblem p;
  p.active_degree = 2 + static_cast<int>(rng.next_below(2));
  p.passive_degree = 2 + static_cast<int>(rng.next_below(2));
  const int labels = 2 + static_cast<int>(rng.next_below(3));
  for (int l = 0; l < labels; ++l) {
    p.label_names.push_back(std::string(1, static_cast<char>('a' + l)));
  }
  auto random_configs = [&](int degree) {
    std::set<std::vector<int>> out;
    do {
      out.clear();
      enumerate_multisets(labels, degree, [&](const std::vector<int>& cfg) {
        if (rng.next_bit()) out.insert(cfg);
      });
    } while (out.empty());
    return out;
  };
  p.active = random_configs(p.active_degree);
  p.passive = random_configs(p.passive_degree);
  p.validate();
  return p;
}

TEST(FuzzRoundElim, PackedKernelMatchesReference) {
  // The packed kernel must agree with the seed reference implementation
  // configuration-for-configuration — same label names, same active and
  // passive sets — and both must fail on exactly the same inputs (the
  // empty-elimination CheckFailure).
  Rng rng(2221);
  int compared = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto p = random_wide_problem(rng);
    BipartiteProblem opt;
    bool opt_threw = false;
    try {
      opt = round_eliminate(p);
    } catch (const CheckFailure&) {
      opt_threw = true;
    }
    BipartiteProblem ref;
    bool ref_threw = false;
    try {
      ref = round_eliminate_reference(p);
    } catch (const CheckFailure&) {
      ref_threw = true;
    }
    EXPECT_EQ(opt_threw, ref_threw) << "trial " << trial;
    if (opt_threw || ref_threw) continue;
    ++compared;
    EXPECT_TRUE(problems_identical(opt, ref)) << "trial " << trial;
  }
  EXPECT_GT(compared, 50);
}

TEST(FuzzRoundElim, OutputInvariantUnderThreadCount) {
  // Bit-identical output at 1, 2, and 8 threads: the parallel fan-out
  // merges per-chunk buffers in chunk order, so the thread count must be
  // unobservable in the result.
  Rng rng(2237);
  int compared = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const auto p = random_wide_problem(rng);
    BipartiteProblem base;
    try {
      base = round_eliminate(p, 64, 1);
    } catch (const CheckFailure&) {
      continue;
    }
    ++compared;
    for (int threads : {2, 8}) {
      EXPECT_TRUE(problems_identical(base, round_eliminate(p, 64, threads)))
          << "trial " << trial << " threads " << threads;
    }
  }
  EXPECT_GT(compared, 20);
}

}  // namespace
}  // namespace ckp
