// Experiment E8 — sinkless orientation (Section IV / Theorem 5 shape):
// deterministic Θ(log_Δ n) vs randomized ~O(1) on the same high-girth
// Δ-regular instances.
//
// Every instance's girth is sampled and reported (the substitution check of
// DESIGN.md: we use random bipartite Δ-regular graphs instead of explicit
// high-girth constructions). Outputs are verified sinkless orientations.
#include <iostream>
#include <string>

#include "core/sinkless.hpp"
#include "graph/bfs_kernel.hpp"
#include "graph/girth.hpp"
#include "graph/ramanujan.hpp"
#include "graph/regular.hpp"
#include "local/ids.hpp"
#include "obs/reporter.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ckp;
  Flags flags(argc, argv);
  const int seeds = static_cast<int>(flags.get_int("seeds", 3));
  const int max_exp = static_cast<int>(flags.get_int("max-exp", 15));
  BenchReporter reporter(flags, "E8_sinkless");
  flags.check_unknown();

  std::cout << "E8: sinkless orientation — deterministic vs randomized\n"
            << "random bipartite Δ-regular instances; girth sampled\n\n";
  Table t({"Δ", "n", "girth<=", "det rounds", "log_Δ n", "rand rounds",
           "init sinks", "det/rand"});
  for (int delta : {3, 4, 6}) {
    for (int e = 9; e <= max_exp; e += 2) {
      const NodeId side = static_cast<NodeId>(1) << (e - 1);
      const std::uint64_t gen_seed =
          mix_seed(0xE8, static_cast<std::uint64_t>(delta),
                   static_cast<std::uint64_t>(side));
      Rng gen(gen_seed);
      const EdgeColoredGraph inst =
          make_random_bipartite_regular(side, delta, gen);
      const Graph& g = inst.graph;
      Rng rng(mix_seed(0xE8F, static_cast<std::uint64_t>(delta),
                       static_cast<std::uint64_t>(side)));
      const int girth_bound = girth_upper_bound_sampled(g, 32, rng);

      const auto ids = random_ids(g.num_nodes(),
                                  2 * ceil_log2(static_cast<std::uint64_t>(
                                          g.num_nodes())),
                                  rng);
      RoundLedger det_ledger;
      const BfsKernelCounters det_before = bfs_kernel_counters();
      const auto det = sinkless_orientation_deterministic(g, ids, det_ledger);
      CKP_CHECK(verify_sinkless_orientation(g, det.orient).ok);
      {
        RunRecord rec = reporter.make_record();
        rec.algorithm = "sinkless_det";
        rec.graph_family = "bipartite_regular";
        rec.n = g.num_nodes();
        rec.delta = delta;
        rec.rounds = det.rounds;
        rec.verified = true;
        rec.metric("girth_upper_bound", static_cast<double>(girth_bound));
        add_kernel_metrics(rec, det_before);
        reporter.add(std::move(rec));
      }

      Accumulator rand_rounds, init_sinks;
      for (int s = 0; s < seeds; ++s) {
        RoundLedger rl;
        const auto r = sinkless_orientation_randomized(
            g, static_cast<std::uint64_t>(s) + 1, rl);
        CKP_CHECK(r.completed);
        CKP_CHECK(verify_sinkless_orientation(g, r.orient).ok);
        rand_rounds.add(rl.rounds());
        init_sinks.add(r.sinks_after_claims);
        {
          RunRecord rec = reporter.make_record();
          rec.algorithm = "sinkless_rand";
          rec.graph_family = "bipartite_regular";
          rec.n = g.num_nodes();
          rec.delta = delta;
          rec.seed = static_cast<std::uint64_t>(s) + 1;
          rec.rounds = rl.rounds();
          rec.verified = true;
          rec.metric("sinks_after_claims",
                     static_cast<double>(r.sinks_after_claims));
          reporter.add(std::move(rec));
        }
      }
      t.add_row({Table::cell(delta),
                 Table::cell(static_cast<std::int64_t>(g.num_nodes())),
                 Table::cell(girth_bound), Table::cell(det.rounds),
                 Table::cell(ilog_base(static_cast<std::uint64_t>(delta),
                                       static_cast<std::uint64_t>(g.num_nodes()))),
                 Table::cell(rand_rounds.mean(), 1),
                 Table::cell(init_sinks.mean(), 0),
                 Table::cell(det.rounds / rand_rounds.mean(), 1)});
    }
  }
  reporter.print(t, std::cout);

  std::cout << "\nE8/Table B: the same comparison on *explicit* LPS Ramanujan"
            << " graphs\n(certified girth >= bound — the substitution"
            << " cross-check of DESIGN.md)\n\n";
  {
    Table lps_table({"p", "q", "Δ", "n", "girth bound", "girth<=",
                     "det rounds", "rand rounds"});
    for (const auto& [pp, qq] : std::vector<std::pair<int, int>>{
             {5, 13}, {5, 17}, {5, 29}, {13, 17}}) {
      LpsGraph lps = lps_parameters(pp, qq);
      lps.graph = make_lps_ramanujan(pp, qq).graph;
      const Graph& g = lps.graph;
      Rng rng(mix_seed(0xE8B, static_cast<std::uint64_t>(pp),
                       static_cast<std::uint64_t>(qq)));
      const auto ids = random_ids(
          g.num_nodes(),
          2 * ceil_log2(static_cast<std::uint64_t>(g.num_nodes())), rng);
      RoundLedger ld;
      const BfsKernelCounters det_before = bfs_kernel_counters();
      const auto det = sinkless_orientation_deterministic(g, ids, ld);
      CKP_CHECK(verify_sinkless_orientation(g, det.orient).ok);
      {
        RunRecord rec = reporter.make_record();
        rec.algorithm = "sinkless_det";
        rec.graph_family = "lps_ramanujan";
        rec.n = g.num_nodes();
        rec.delta = pp + 1;
        rec.rounds = ld.rounds();
        rec.verified = true;
        rec.metric("girth_lower_bound", lps.girth_lower_bound);
        add_kernel_metrics(rec, det_before);
        reporter.add(std::move(rec));
      }
      Accumulator rand_rounds;
      for (int s2 = 0; s2 < seeds; ++s2) {
        RoundLedger lr;
        const auto r = sinkless_orientation_randomized(
            g, static_cast<std::uint64_t>(s2) + 1, lr);
        CKP_CHECK(r.completed);
        rand_rounds.add(lr.rounds());
      }
      lps_table.add_row(
          {Table::cell(pp), Table::cell(qq), Table::cell(pp + 1),
           Table::cell(static_cast<std::int64_t>(g.num_nodes())),
           Table::cell(lps.girth_lower_bound, 1),
           Table::cell(girth_upper_bound_sampled(g, 32, rng)),
           Table::cell(ld.rounds()), Table::cell(rand_rounds.mean(), 1)});
    }
    reporter.print(lps_table, std::cout);
  }

  std::cout << "\nExpected shape: det rounds track log_Δ n (diameter);"
            << " rand rounds stay O(1)-ish; the ratio widens with n —\n"
            << "the Section IV separation, and girth grows with n"
            << " (substitution validated).\n";
  return 0;
}
