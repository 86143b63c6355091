#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "algo/delta_coloring_local.hpp"
#include "algo/greedy_color.hpp"
#include "algo/matching_local.hpp"
#include "algo/mis_ghaffari.hpp"
#include "algo/mis_luby.hpp"
#include "algo/plus_one_coloring.hpp"
#include "bench.hpp"
#include "lcl/verify_coloring.hpp"
#include "lcl/verify_matching.hpp"
#include "lcl/verify_mis.hpp"
#include "obs/resource.hpp"
#include "obs/run_record.hpp"
#include "serve/memo.hpp"
#include "store/artifact_store.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// What one algo entry point returned, in the form its verifier takes.
struct EntryRun {
  int rounds = 0;
  bool completed = false;
  std::uint64_t engine_bytes = 0;
  std::vector<char> flags;  // MIS membership or matched edges
  std::vector<int> colors;
};

// Calls the src/algo entry point the registry adapter for `algo` wraps,
// with the adapter's default params.
EntryRun run_entry(const std::string& algo, const ckp::LocalInput& input,
                   int max_rounds, const ckp::EngineOptions& eo) {
  EntryRun out;
  const auto take = [&out](auto&& r) {
    out.rounds = r.rounds;
    out.completed = r.completed;
    out.engine_bytes = r.engine_bytes;
  };
  if (algo == "luby") {
    ckp::MisResult r = ckp::mis_luby(input, max_rounds, eo);
    take(r);
    out.flags = std::move(r.in_set);
  } else if (algo == "ghaffari") {
    ckp::GhaffariLocalResult r =
        ckp::mis_ghaffari_local(input, max_rounds, eo, ckp::GhaffariMisParams{});
    take(r);
    out.flags = std::move(r.in_set);
  } else if (algo == "matching_rand" || algo == "matching_det") {
    ckp::MatchingLocalResult r =
        algo == "matching_rand"
            ? ckp::matching_randomized_local(input, max_rounds, eo)
            : ckp::matching_deterministic_local(input, max_rounds, eo);
    take(r);
    out.flags = std::move(r.in_matching);
  } else if (algo == "plus_one") {
    ckp::PlusOneLocalResult r = ckp::plus_one_local(input, 0, max_rounds, eo);
    take(r);
    out.colors = std::move(r.colors);
  } else if (algo == "greedy") {
    ckp::GreedyColorLocalResult r =
        ckp::greedy_color_local(input, 0, max_rounds, eo);
    take(r);
    out.colors = std::move(r.colors);
  } else if (algo == "thm10") {
    ckp::Thm10LocalResult r = ckp::delta_coloring_thm10_local(
        input, max_rounds, eo, ckp::Thm10Params{});
    take(r);
    out.colors = std::move(r.colors);
  } else if (algo == "thm11") {
    ckp::Thm11LocalResult r =
        ckp::delta_coloring_thm11_local(input, max_rounds, eo);
    take(r);
    out.colors = std::move(r.colors);
  } else {
    CKP_CHECK_MSG(false, "no replay entry point for algorithm " << algo);
  }
  return out;
}

// The src/lcl verifier the registry adapter checks `algo` with.
const char* verifier_name(const std::string& algo) {
  if (algo == "luby" || algo == "ghaffari") return "verify_mis";
  if (algo == "matching_rand" || algo == "matching_det") {
    return "verify_maximal_matching";
  }
  return "verify_coloring";
}

bool run_verifier(const std::string& algo, const ckp::LocalInput& input,
                  const EntryRun& r) {
  const ckp::Graph& g = *input.graph;
  const std::string verifier = verifier_name(algo);
  if (verifier == "verify_mis") return ckp::verify_mis(g, r.flags).ok;
  if (verifier == "verify_maximal_matching") {
    return ckp::verify_maximal_matching(g, r.flags).ok;
  }
  const int k = algo == "thm10" || algo == "thm11" ? input.effective_delta()
                                                   : g.max_degree() + 1;
  return ckp::verify_coloring(g, r.colors, k).ok;
}

}  // namespace

ReplayTotals replay(const ServeRun& run, const ServeRun& reference,
                    const std::string& store_dir, Tracer& tracer) {
  std::map<std::string, int> reference_rounds;
  for (std::size_t i = 0; i < reference.jobs.size(); ++i) {
    const Outcome& o = reference.out[i];
    if (o.success && !o.cancelled) reference_rounds[reference.jobs[i].id] = o.rounds;
  }

  const ckp::ArtifactStore store(store_dir);
  const ckp::ResultMemo memo(&store);
  ReplayTotals totals;
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const JobSpec& job = run.jobs[i];
    const Outcome& served = run.out[i];
    if (!served.success || served.cancelled) continue;
    const std::unique_ptr<ckp::Algorithm> algo = ckp::make_algorithm(job.algo);
    ckp::MemoFacts facts;
    facts.algorithm = algo->name();
    facts.algo_version = algo->version();
    facts.graph = job.graph;
    facts.seed = job.seed;
    facts.max_rounds = job.max_rounds;

    std::optional<ckp::BuiltGraph> built;
    std::optional<ckp::LocalInput> input;
    {
      Tracer::Scope job_span(&tracer, "job", job.id);
      std::optional<std::string> hit;
      {
        Tracer::Scope s(&tracer, "memo.lookup", job.id);
        hit = memo.lookup(facts);
      }
      if (hit) continue;  // a resubmission: answered from the memo

      const Clock::time_point exec_start = Clock::now();
      {
        Tracer::Scope s(&tracer, "graph.build." + job.graph.family, job.id);
        const ckp::AllocScope alloc;
        built.emplace(ckp::build_graph(job.graph));
        totals.build_alloc_bytes += static_cast<double>(alloc.bytes());
      }
      {
        Tracer::Scope s(&tracer, "registry.prepare_input", job.id);
        input.emplace(ckp::prepare_input(*algo, *built, job.seed));
      }
      EntryRun r;
      const Clock::time_point run_start = Clock::now();
      {
        Tracer::Scope s(&tracer, "local.run." + job.algo, job.id);
        r = run_entry(job.algo, *input, job.max_rounds, ckp::EngineOptions{});
      }
      const double run_s = seconds_since(run_start);
      bool verified = false;
      {
        Tracer::Scope s(&tracer, std::string("lcl.verify.") + verifier_name(job.algo),
                        job.id);
        verified = r.completed && run_verifier(job.algo, *input, r);
      }
      const double exec_s = seconds_since(exec_start);
      if (job.graph.family == "cycle" || job.graph.family == "path") {
        totals.ring_run_s += run_s;
        totals.ring_exec_s += exec_s;
        totals.ring_serve_exec_s += served.exec_s;
      }
      ckp::RunRecord rec;
      rec.bench = "serve";
      rec.algorithm = job.algo;
      rec.graph_family = job.graph.family;
      rec.n = job.graph.n;
      rec.delta = job.graph.d;
      rec.seed = job.seed;
      rec.rounds = r.rounds;
      rec.verified = verified;
      rec.metric("completed", r.completed ? 1.0 : 0.0);
      rec.metric("cancelled", 0.0);
      rec.metric("engine_bytes", static_cast<double>(r.engine_bytes));
      std::string record_json;
      {
        Tracer::Scope s(&tracer, "obs.record_json", job.id);
        record_json = rec.to_json();
      }
      {
        Tracer::Scope s(&tracer, "memo.insert", job.id);
        memo.insert(facts, record_json);
      }

      CKP_CHECK_MSG(verified, "replay of " << job.id << " did not verify");
      CKP_CHECK_MSG(r.rounds == served.rounds,
                    "replay of " << job.id << " ran " << r.rounds
                                 << " rounds, the serve run " << served.rounds);
      const auto ref = reference_rounds.find(job.id);
      CKP_CHECK_MSG(ref == reference_rounds.end() || ref->second == r.rounds,
                    "replay of " << job.id << " ran " << r.rounds
                                 << " rounds, the untraced run " << ref->second);
      totals.jobs += 1;
      const auto n = static_cast<double>(job.graph.n);
      totals.nodes += n;
      totals.node_rounds += n * r.rounds;
      totals.engine_bytes += static_cast<double>(r.engine_bytes);
      totals.exec_s += exec_s;
      totals.serve_exec_s += served.exec_s;
    }
    // Engine setup plus one full round: the outside proxy for setup cost,
    // kept out of the job span so it does not inflate the job's total.
    {
      Tracer::Scope s(&tracer, "local.round1", job.id);
      run_entry(job.algo, *input, 1, ckp::EngineOptions{});
    }
  }
  return totals;
}

}  // namespace perfbench
