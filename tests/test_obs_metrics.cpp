#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "local/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/run_record.hpp"
#include "obs/trace_span.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace ckp {
namespace {

// ---- JSON writer / parser round trips ----

TEST(Json, WriterProducesParseableObject) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("a \"quoted\" \\ string\nwith newline");
  w.key("count").value(std::int64_t{-42});
  w.key("ratio").value(1.5);
  w.key("flag").value(true);
  w.key("nothing").null();
  w.key("list").begin_array().value(1).value(2).value(3).end_array();
  w.key("nested").begin_object().key("x").value(0).end_object();
  w.end_object();

  const JsonValue v = json_parse(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").as_string(), "a \"quoted\" \\ string\nwith newline");
  EXPECT_EQ(v.at("count").as_number(), -42.0);
  EXPECT_EQ(v.at("ratio").as_number(), 1.5);
  EXPECT_TRUE(v.at("flag").boolean);
  EXPECT_TRUE(v.at("nothing").is_null());
  ASSERT_TRUE(v.at("list").is_array());
  EXPECT_EQ(v.at("list").array.size(), 3u);
  EXPECT_EQ(v.at("nested").at("x").as_number(), 0.0);
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  const JsonValue v = json_parse(w.str());
  ASSERT_EQ(v.array.size(), 2u);
  EXPECT_TRUE(v.array[0].is_null());
  EXPECT_TRUE(v.array[1].is_null());
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), CheckFailure);
  EXPECT_THROW(json_parse("{"), CheckFailure);
  EXPECT_THROW(json_parse("{\"a\":1,}"), CheckFailure);
  EXPECT_THROW(json_parse("[1 2]"), CheckFailure);
  EXPECT_THROW(json_parse("{\"a\":1} trailing"), CheckFailure);
  EXPECT_THROW(json_parse("'single'"), CheckFailure);
}

// ---- Histogram semantics ----

TEST(Histogram, BucketPlacementAndOverflow) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.counts().size(), 4u);  // 3 bounds + overflow
  h.add(0.5);   // <= 1       -> bucket 0
  h.add(1.0);   // == bound   -> bucket 0 (first bound >= sample)
  h.add(1.5);   // <= 2       -> bucket 1
  h.add(4.0);   // == bound   -> bucket 2
  h.add(100.0); // overflow
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.summary().count(), 5u);
  EXPECT_DOUBLE_EQ(h.summary().max(), 100.0);
}

TEST(Histogram, RejectsUnsortedOrEmptyBounds) {
  EXPECT_THROW(Histogram({4.0, 1.0, 2.0}), CheckFailure);
  EXPECT_THROW(Histogram({}), CheckFailure);
}

TEST(Histogram, PowersOfTwoShape) {
  const auto bounds = Histogram::powers_of_two(5);
  EXPECT_EQ(bounds, (std::vector<double>{1.0, 2.0, 4.0, 8.0, 16.0}));
}

// ---- Histogram serialization alignment ----
//
// The serialized form is read back by ckp_bench_diff and ad-hoc analysis
// scripts, which index counts[i] against bounds[i]. These tests pin the
// alignment contract: counts has exactly one more entry than bounds (the
// overflow bucket), the pairing survives a write→parse round trip, and the
// bucket totals reconcile with the summary count.

TEST(Histogram, SerializedBoundsAndCountsStayAligned) {
  Histogram h({1.0, 2.0, 4.0});
  h.add(0.5);
  h.add(1.0);
  h.add(3.0);
  h.add(99.0);  // overflow

  JsonWriter w;
  h.write_json(w);
  const JsonValue v = json_parse(w.str());
  ASSERT_TRUE(v.is_object());
  const auto& bounds = v.at("bounds").array;
  const auto& counts = v.at("counts").array;
  ASSERT_EQ(bounds.size(), 3u);
  ASSERT_EQ(counts.size(), bounds.size() + 1);  // trailing overflow bucket

  // Every serialized bucket pairs with the in-memory one, index for index.
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i].as_number(), h.upper_bounds()[i]);
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<std::uint64_t>(counts[i].as_number());
    EXPECT_EQ(c, h.counts()[i]) << "bucket " << i;
    total += c;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(v.at("count").as_number()));
  EXPECT_DOUBLE_EQ(v.at("min").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(v.at("max").as_number(), 99.0);
}

TEST(Histogram, EmptyHistogramSerializesAlignedAndWithoutSummary) {
  Histogram h({1.0, 10.0});
  JsonWriter w;
  h.write_json(w);
  const JsonValue v = json_parse(w.str());
  ASSERT_EQ(v.at("counts").array.size(), v.at("bounds").array.size() + 1);
  for (const JsonValue& c : v.at("counts").array) {
    EXPECT_EQ(c.as_number(), 0.0);
  }
  EXPECT_EQ(v.at("count").as_number(), 0.0);
  // min/mean/max of zero samples are meaningless; the writer must omit them
  // rather than emit NaN-turned-null.
  EXPECT_EQ(v.find("mean"), nullptr);
  EXPECT_EQ(v.find("min"), nullptr);
  EXPECT_EQ(v.find("max"), nullptr);
}

TEST(Histogram, ParsedBoundsRebuildAnIdenticallyBucketingHistogram) {
  // Alignment across a serialize→parse→reconstruct cycle: a histogram built
  // from the parsed bounds places boundary samples into the same buckets.
  Histogram original(Histogram::powers_of_two(4));  // {1,2,4,8}
  JsonWriter w;
  original.write_json(w);
  const JsonValue v = json_parse(w.str());
  std::vector<double> parsed_bounds;
  for (const JsonValue& b : v.at("bounds").array) {
    parsed_bounds.push_back(b.as_number());
  }
  Histogram rebuilt(parsed_bounds);
  const double samples[] = {0.0, 1.0, 2.0, 4.0, 8.0, 8.5};
  for (const double s : samples) {
    original.add(s);
    rebuilt.add(s);
  }
  EXPECT_EQ(rebuilt.counts(), original.counts());
}

// ---- MetricsRegistry semantics ----

TEST(MetricsRegistry, CountersAccumulateGaugesOverwrite) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter("c"), 0.0);  // absent reads as zero
  reg.add("c");
  reg.add("c", 2.5);
  EXPECT_DOUBLE_EQ(reg.counter("c"), 3.5);
  reg.set("g", 7.0);
  reg.set("g", 9.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), 9.0);
  EXPECT_FALSE(reg.empty());
}

TEST(MetricsRegistry, HistogramGetOrCreateChecksBounds) {
  MetricsRegistry reg;
  auto& h = reg.histogram("h", {1.0, 2.0});
  h.add(1.5);
  auto& again = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(&h, &again);
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), CheckFailure);
  EXPECT_NE(reg.find_histogram("h"), nullptr);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
}

TEST(MetricsRegistry, SnapshotFlattensHistograms) {
  MetricsRegistry reg;
  reg.add("runs", 2);
  reg.set("last", 4.0);
  reg.histogram("sizes", {10.0, 100.0}).add(5.0);
  reg.histogram("sizes", {10.0, 100.0}).add(50.0);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 6u);  // 1 counter + 1 gauge + 4 histogram scalars
  EXPECT_EQ(snap[0].first, "runs");
  EXPECT_DOUBLE_EQ(snap[0].second, 2.0);
  EXPECT_EQ(snap[1].first, "last");
  EXPECT_EQ(snap[2].first, "sizes.count");
  EXPECT_DOUBLE_EQ(snap[2].second, 2.0);
  EXPECT_EQ(snap[3].first, "sizes.mean");
  EXPECT_DOUBLE_EQ(snap[3].second, 27.5);
  EXPECT_EQ(snap[4].first, "sizes.min");
  EXPECT_EQ(snap[5].first, "sizes.max");
}

TEST(MetricsRegistry, ToJsonParses) {
  MetricsRegistry reg;
  reg.add("engine.rounds", 12);
  reg.set("engine.halted_fraction", 1.0);
  reg.histogram("engine.active_nodes", Histogram::powers_of_two(4)).add(3.0);

  const JsonValue v = json_parse(reg.to_json());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("counters").at("engine.rounds").as_number(), 12.0);
  EXPECT_EQ(v.at("gauges").at("engine.halted_fraction").as_number(), 1.0);
  const JsonValue& h = v.at("histograms").at("engine.active_nodes");
  EXPECT_EQ(h.at("counts").array.size(), 5u);  // 4 bounds + overflow
}

// ---- Trace serialization ----

TEST(Trace, ToJsonRoundTrips) {
  Trace trace;
  trace.record("phase1", 10, 3, 0.25);
  trace.record("phase2", 0);  // zero detail/seconds omitted
  EXPECT_EQ(trace.total_rounds(), 10);
  EXPECT_DOUBLE_EQ(trace.total_seconds(), 0.25);

  const JsonValue v = json_parse(trace.to_json());
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.array.size(), 2u);
  EXPECT_EQ(v.array[0].at("name").as_string(), "phase1");
  EXPECT_EQ(v.array[0].at("rounds").as_number(), 10.0);
  EXPECT_EQ(v.array[0].at("detail").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(v.array[0].at("seconds").as_number(), 0.25);
  EXPECT_EQ(v.array[1].find("detail"), nullptr);
  EXPECT_EQ(v.array[1].find("seconds"), nullptr);
}

// ---- RunRecord serialization ----

TEST(RunRecord, ToJsonCarriesAllFields) {
  RunRecord rec;
  rec.bench = "E1_separation";
  rec.algorithm = "thm10";
  rec.graph_family = "complete_tree";
  rec.n = 1024;
  rec.delta = 16;
  rec.seed = 7;
  rec.rounds = 42;
  rec.wall_seconds = 0.125;
  rec.verified = true;
  rec.trace.record("phase1", 40, 0, 0.1);
  rec.metric("bad_vertices", 3.0);
  rec.metric("bad_vertices", 5.0);  // upsert, not duplicate
  rec.metric("ratio", 0.5);

  const std::string line = rec.to_json();
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single line

  const JsonValue v = json_parse(line);
  EXPECT_EQ(v.at("bench").as_string(), "E1_separation");
  EXPECT_EQ(v.at("algorithm").as_string(), "thm10");
  EXPECT_EQ(v.at("graph_family").as_string(), "complete_tree");
  EXPECT_EQ(v.at("n").as_number(), 1024.0);
  EXPECT_EQ(v.at("delta").as_number(), 16.0);
  EXPECT_EQ(v.at("seed").as_number(), 7.0);
  EXPECT_EQ(v.at("rounds").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(v.at("wall_seconds").as_number(), 0.125);
  EXPECT_TRUE(v.at("verified").boolean);
  ASSERT_TRUE(v.at("trace").is_array());
  EXPECT_EQ(v.at("trace").array[0].at("name").as_string(), "phase1");
  EXPECT_DOUBLE_EQ(v.at("metrics").at("bad_vertices").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(v.at("metrics").at("ratio").as_number(), 0.5);
}

TEST(RunRecord, AbsorbFoldsRegistrySnapshot) {
  MetricsRegistry reg;
  reg.add("engine.rounds", 9);
  reg.set("engine.all_halted", 1.0);
  RunRecord rec;
  rec.absorb(reg);
  const JsonValue v = json_parse(rec.to_json());
  EXPECT_EQ(v.at("metrics").at("engine.rounds").as_number(), 9.0);
  EXPECT_EQ(v.at("metrics").at("engine.all_halted").as_number(), 1.0);
}

TEST(JsonlWriter, EveryLineParses) {
  const std::string path = ::testing::TempDir() + "/obs_records.jsonl";
  {
    JsonlWriter out(path);
    ASSERT_TRUE(out.enabled());
    for (int i = 0; i < 3; ++i) {
      RunRecord rec;
      rec.bench = "E_test";
      rec.algorithm = "algo" + std::to_string(i);
      rec.n = static_cast<std::uint64_t>(100 + i);
      rec.rounds = i;
      out.write(rec);
    }
    EXPECT_EQ(out.rows_written(), 3u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    const JsonValue v = json_parse(line);
    EXPECT_EQ(v.at("bench").as_string(), "E_test");
    EXPECT_EQ(v.at("n").as_number(), 100.0 + lines);
    ++lines;
  }
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(JsonlWriter, EmptyPathIsNoopSink) {
  JsonlWriter out("");
  EXPECT_FALSE(out.enabled());
  RunRecord rec;
  out.write(rec);  // must not crash or create a file
  EXPECT_EQ(out.rows_written(), 0u);
}

// ---- SpanTracer / Chrome trace export ----

TEST(SpanTracer, TraceExportsOneCompleteEventPerPhase) {
  Trace trace;
  trace.record("schedule", 5, 0, 0.010);
  trace.record("phase1", 20, 0, 0.050);
  trace.record("phase2", 2);  // no wall time: synthetic duration

  SpanTracer tracer;
  const double end = tracer.add_trace(trace);
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_GT(end, 0.06);  // at least the two measured phases

  const JsonValue v = json_parse(tracer.chrome_json());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("displayTimeUnit").as_string(), "ms");
  const JsonValue& events = v.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 3u);
  double cursor = 0.0;
  for (std::size_t i = 0; i < events.array.size(); ++i) {
    const JsonValue& ev = events.array[i];
    EXPECT_EQ(ev.at("ph").as_string(), "X");  // complete event
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
    // Spans are laid end-to-end: each starts where the previous ended.
    EXPECT_NEAR(ev.at("ts").as_number(), cursor, 1e-6);
    cursor += ev.at("dur").as_number();
  }
  EXPECT_EQ(events.array[0].at("name").as_string(), "schedule");
  EXPECT_EQ(events.array[2].at("name").as_string(), "phase2");
}

TEST(SpanTracer, ScopedSpansCloseOnDestruction) {
  SpanTracer tracer;
  { auto s = tracer.span("outer"); }
  tracer.add_complete("manual", 1.0, 0.5);
  const JsonValue v = json_parse(tracer.chrome_json());
  const auto& events = v.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").as_string(), "outer");
  EXPECT_GE(events[0].at("dur").as_number(), 0.0);  // closed, not -1
  EXPECT_DOUBLE_EQ(events[1].at("ts").as_number(), 1e6);
  EXPECT_DOUBLE_EQ(events[1].at("dur").as_number(), 5e5);
}

// ---- RunRecord::from_json_line ----

RunRecord make_rec(int trial, int copy) {
  RunRecord rec;
  rec.bench = "test_record";
  rec.algorithm = copy == 0 ? "alpha" : "beta";
  rec.graph_family = "none";
  rec.n = 100 + static_cast<std::uint64_t>(trial);
  rec.delta = 3;
  rec.seed = static_cast<std::uint64_t>(trial) + 1;
  rec.rounds = 7 * trial + copy;
  rec.wall_seconds = 0.125 * trial;  // exactly representable
  rec.verified = true;
  rec.metric("copy", copy);
  return rec;
}

TEST(RunRecordJson, RoundTripPreservesFieldsAndBytes) {
  RunRecord rec = make_rec(3, 1);
  rec.trace.record("phase_a", 5, 42, 0.25);
  rec.trace.record("phase_b", 2, 0, 0.5);
  rec.metric("extra.metric", -1.5);
  const std::string line = rec.to_json();

  const RunRecord parsed = RunRecord::from_json_line(line);
  EXPECT_EQ(parsed.to_json(), line) << "verbatim re-emission";
  EXPECT_EQ(parsed.bench, rec.bench);
  EXPECT_EQ(parsed.algorithm, rec.algorithm);
  EXPECT_EQ(parsed.graph_family, rec.graph_family);
  EXPECT_EQ(parsed.n, rec.n);
  EXPECT_EQ(parsed.delta, rec.delta);
  EXPECT_EQ(parsed.seed, rec.seed);
  EXPECT_EQ(parsed.rounds, rec.rounds);
  EXPECT_DOUBLE_EQ(parsed.wall_seconds, rec.wall_seconds);
  EXPECT_EQ(parsed.verified, rec.verified);
  ASSERT_EQ(parsed.trace.phases().size(), rec.trace.phases().size());
  EXPECT_EQ(parsed.trace.phases()[0].name, "phase_a");
  EXPECT_EQ(parsed.trace.phases()[0].rounds, 5);
  EXPECT_EQ(parsed.metrics(), rec.metrics());
}

TEST(RunRecordJson, MutationDropsVerbatimCache) {
  RunRecord rec = make_rec(1, 0);
  const std::string line = rec.to_json();
  RunRecord parsed = RunRecord::from_json_line(line);
  parsed.metric("copy", 99.0);
  EXPECT_NE(parsed.to_json(), line);
}

TEST(RunRecordJson, RejectsMalformedInput) {
  EXPECT_THROW(RunRecord::from_json_line("not json"), CheckFailure);
  EXPECT_THROW(RunRecord::from_json_line("[1,2,3]"), CheckFailure);
  EXPECT_THROW(RunRecord::from_json_line("{\"verified\": \"yes\"}"),
               CheckFailure);
}

}  // namespace
}  // namespace ckp
