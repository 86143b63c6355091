// Experiment E9 — mechanical round elimination (the engine behind the
// Brandt et al. bounds that Theorem 4 extends).
//
// For Δ = 3..8 the harness eliminates sinkless orientation twice and checks
// isomorphism with the original problem — the fixed-point certificate — and
// shows the collapsing control (a trivially solvable problem stays 0-round
// solvable). Every row is produced by the packed kernel and, up to
// --ref-max-delta, cross-checked configuration-for-configuration against
// the seed reference implementation; both per-double-elimination timings
// land in the RunRecords (roundelim.opt_seconds / roundelim.ref_seconds /
// roundelim.speedup) together with per-step wall times and intermediate
// problem sizes, so the kernel speedup is tracked across PRs.
#include <cstdint>
#include <iostream>

#include "core/roundelim.hpp"
#include "obs/progress.hpp"
#include "obs/reporter.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

// Seconds per call, measured over adaptively many repetitions so that even
// microsecond-scale eliminations get a stable reading.
template <typename Fn>
double seconds_per_call(Fn&& fn, double min_seconds) {
  ckp::Timer first;
  fn();
  double elapsed = first.seconds();
  std::uint64_t calls = 1;
  std::uint64_t batch = 1;
  while (elapsed < min_seconds && calls < (1ULL << 20)) {
    batch = std::min<std::uint64_t>(batch * 2, 1ULL << 14);
    ckp::Timer timer;
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    elapsed += timer.seconds();
    calls += batch;
  }
  return elapsed / static_cast<double>(calls);
}

std::string micros(double seconds) {
  return ckp::Table::cell(seconds * 1e6, 2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ckp;
  Flags flags(argc, argv);
  BenchReporter reporter(flags, "E9_roundelim");
  const int max_delta = static_cast<int>(flags.get_int("max-delta", 8));
  const int ref_max_delta =
      static_cast<int>(flags.get_int("ref-max-delta", 6));
  const double min_time_s = flags.get_double("min-time-ms", 20.0) * 1e-3;
  flags.check_unknown();

  std::cout << "E9: round-elimination fixed point for sinkless orientation\n\n";
  Table t({"Δ", "form", "|Σ|", "|A|", "|P|", "RR≅canonical", "0-round",
           "opt µs", "ref µs", "speedup"});
  // Elimination cost grows sharply with Δ, so the large-Δ tail of this loop
  // is where --progress_every heartbeats earn their keep.
  ProgressMeter meter("E9_roundelim.sweep",
                      static_cast<std::uint64_t>(
                          max_delta >= 3 ? (max_delta - 2) * 2 : 0));
  for (int delta = 3; delta <= max_delta; ++delta) {
    const auto canonical = sinkless_orientation_canonical(delta);
    for (const bool natural_form : {false, true}) {
      const auto p = natural_form ? sinkless_orientation_problem(delta)
                                  : canonical;
      // One instrumented double elimination.
      Timer step1_timer;
      const auto r1 = round_eliminate(p);
      const double step1_seconds = step1_timer.seconds();
      Timer step2_timer;
      const auto rr = round_eliminate(r1);
      const double step2_seconds = step2_timer.seconds();
      const bool fixed_point = problems_isomorphic(rr, canonical);

      const double opt_seconds = seconds_per_call(
          [&] { round_eliminate(round_eliminate(p)); }, min_time_s);
      const bool have_ref = delta <= ref_max_delta;
      double ref_seconds = 0.0;
      bool matches_reference = true;
      if (have_ref) {
        matches_reference = problems_identical(
            round_eliminate_reference(round_eliminate_reference(p)), rr);
        ref_seconds = seconds_per_call(
            [&] { round_eliminate_reference(round_eliminate_reference(p)); },
            min_time_s);
      }

      {
        RunRecord rec = reporter.make_record();
        rec.algorithm =
            natural_form ? "roundelim_natural" : "roundelim_canonical";
        rec.delta = delta;
        rec.verified = fixed_point && matches_reference;
        rec.wall_seconds = step1_seconds + step2_seconds;
        rec.metric("labels", static_cast<double>(p.num_labels()));
        rec.metric("active", static_cast<double>(p.active.size()));
        rec.metric("passive", static_cast<double>(p.passive.size()));
        rec.metric("zero_round_solvable", zero_round_solvable(p) ? 1.0 : 0.0);
        rec.metric("roundelim.step1_seconds", step1_seconds);
        rec.metric("roundelim.step2_seconds", step2_seconds);
        rec.metric("roundelim.step1_labels",
                   static_cast<double>(r1.num_labels()));
        rec.metric("roundelim.step1_active",
                   static_cast<double>(r1.active.size()));
        rec.metric("roundelim.step1_passive",
                   static_cast<double>(r1.passive.size()));
        rec.metric("roundelim.step2_labels",
                   static_cast<double>(rr.num_labels()));
        rec.metric("roundelim.step2_active",
                   static_cast<double>(rr.active.size()));
        rec.metric("roundelim.step2_passive",
                   static_cast<double>(rr.passive.size()));
        rec.metric("roundelim.opt_seconds", opt_seconds);
        if (have_ref) {
          rec.metric("roundelim.ref_seconds", ref_seconds);
          rec.metric("roundelim.speedup", ref_seconds / opt_seconds);
          rec.metric("roundelim.matches_reference",
                     matches_reference ? 1.0 : 0.0);
        }
        reporter.add(std::move(rec));
      }
      t.add_row({Table::cell(delta), natural_form ? "O/I" : "M/U",
                 Table::cell(p.num_labels()),
                 Table::cell(static_cast<std::uint64_t>(p.active.size())),
                 Table::cell(static_cast<std::uint64_t>(p.passive.size())),
                 fixed_point && matches_reference ? "yes" : "NO",
                 zero_round_solvable(p) ? "yes" : "no",
                 micros(opt_seconds),
                 have_ref ? micros(ref_seconds) : "-",
                 have_ref ? Table::cell(ref_seconds / opt_seconds, 1) : "-"});
      meter.step();
    }
  }
  meter.finish();
  reporter.print(t, std::cout);

  std::cout << "\nControl: trivially solvable problem stays 0-round solvable"
            << " through elimination\n\n";
  Table c({"Δ", "0-round before", "0-round after R"});
  for (int delta : {3, 4}) {
    const auto p = free_problem(delta, 2, 2);
    const auto r = round_eliminate(p);
    c.add_row({Table::cell(delta), zero_round_solvable(p) ? "yes" : "no",
               zero_round_solvable(r) ? "yes" : "no"});
  }
  reporter.print(c, std::cout);
  std::cout << "\nExpected shape: RR≅orig = yes and 0-round = no for every Δ"
            << " — sinkless orientation is a round-elimination fixed point,\n"
            << "certifying that no fixed-round algorithm exists (the paper's"
            << " lower-bound engine). Rows up to Δ=" << ref_max_delta
            << " are cross-checked against the brute-force reference kernel;\n"
            << "'opt µs' vs 'ref µs' is the packed-kernel speedup on one"
            << " double elimination.\n";
  return 0;
}
