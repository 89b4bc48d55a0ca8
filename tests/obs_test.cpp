/// obs — metrics registry, span tracer, sampler, and trace validation.
///
/// The load-bearing guarantees:
///  * registry snapshots are deterministic: entries export sorted by
///    (component, name) regardless of registration order, so identical
///    update sequences serialize byte-identical JSON;
///  * trace export orders spans by simulated time with stable ties, and
///    round-trips through the trace_check parser/validator;
///  * sampler buckets fold by the channel's declared reduction, and
///    WindowSeries::fold reproduces the soak-window arithmetic.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_check.hpp"
#include "serve/fleet.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace cxlgraph {
namespace {

// ------------------------------------------------------------ metrics ----

TEST(MetricsRegistry, HandlesAreStableAndSharedByName) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("sim", "events");
  a.add(3);
  // Same (component, name) → the same instrument; other names are new.
  EXPECT_EQ(&reg.counter("sim", "events"), &a);
  EXPECT_NE(&reg.counter("sim", "other"), &a);
  EXPECT_EQ(reg.counter("sim", "events").value(), 3u);
  EXPECT_EQ(reg.size(), 2u);
  // Re-registering under a different kind is a programming error.
  EXPECT_THROW(reg.gauge("sim", "events"), std::logic_error);
  EXPECT_THROW(reg.histogram("sim", "events"), std::logic_error);
}

TEST(MetricsRegistry, SnapshotIsSortedAndRegistrationOrderInvariant) {
  const auto snapshot = [](bool reversed) {
    obs::MetricsRegistry reg;
    const auto update = [&reg]() {
      reg.counter("serve", "admitted").add(7);
      reg.gauge("cluster", "skew").set(1.5);
      reg.histogram("runtime", "step_ns").add(1024);
    };
    const auto update_reversed = [&reg]() {
      reg.histogram("runtime", "step_ns").add(1024);
      reg.gauge("cluster", "skew").set(1.5);
      reg.counter("serve", "admitted").add(7);
    };
    reversed ? update_reversed() : update();
    std::ostringstream os;
    reg.write_json(os);
    return os.str();
  };
  const std::string forward = snapshot(false);
  EXPECT_EQ(forward, snapshot(true));
  // Sorted by (component, name): cluster < runtime < serve.
  EXPECT_LT(forward.find("cluster"), forward.find("runtime"));
  EXPECT_LT(forward.find("runtime"), forward.find("serve"));
  // And it parses as JSON with one entry per instrument.
  const obs::JsonValue doc = obs::parse_json(forward);
  ASSERT_NE(doc.find("metrics"), nullptr);
  EXPECT_EQ(doc.find("metrics")->array.size(), 3u);
}

TEST(MetricsRegistry, GaugeTracksHighWaterMark) {
  obs::Gauge g;
  g.set(2.0);
  g.set(5.0);
  g.set(1.0);
  EXPECT_EQ(g.value(), 1.0);
  EXPECT_EQ(g.max(), 5.0);
  EXPECT_EQ(g.updates(), 3u);
}

TEST(MetricsRegistry, LabelsScopeDistinctInstruments) {
  obs::MetricsRegistry reg;
  obs::Counter& unlabeled = reg.counter("fleet", "served");
  obs::Counter& r0 = reg.counter("fleet", "served", "replica=0");
  obs::Counter& r1 = reg.counter("fleet", "served", "replica=1");
  EXPECT_NE(&unlabeled, &r0);
  EXPECT_NE(&r0, &r1);
  EXPECT_EQ(&reg.counter("fleet", "served", "replica=0"), &r0);
  unlabeled.add(1);
  r0.add(10);
  r1.add(20);
  EXPECT_EQ(reg.size(), 3u);
  // Kind conflicts are detected per (component, name, label).
  EXPECT_THROW(reg.gauge("fleet", "served", "replica=0"), std::logic_error);

  std::ostringstream os;
  reg.write_json(os);
  const obs::JsonValue doc = obs::parse_json(os.str());
  ASSERT_NE(doc.find("metrics"), nullptr);
  const auto& entries = doc.find("metrics")->array;
  ASSERT_EQ(entries.size(), 3u);
  // Sorted: unlabeled ("") before replica=0 before replica=1; the
  // "label" field appears only on labeled entries.
  EXPECT_EQ(entries[0].find("label"), nullptr);
  EXPECT_EQ(entries[0].find("value")->number, 1.0);
  ASSERT_NE(entries[1].find("label"), nullptr);
  EXPECT_EQ(entries[1].find("label")->string, "replica=0");
  EXPECT_EQ(entries[1].find("value")->number, 10.0);
  EXPECT_EQ(entries[2].find("label")->string, "replica=1");
}

TEST(MetricsRegistry, UnlabeledSnapshotBytesUnchangedByLabelSupport) {
  // A registry that never uses labels must serialize exactly as before
  // the label dimension existed — no "label" field, no key changes.
  obs::MetricsRegistry reg;
  reg.counter("serve", "admitted").add(7);
  reg.gauge("cluster", "skew").set(1.5);
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_EQ(os.str().find("label"), std::string::npos);
}

TEST(MetricsJson, EscapeAndNumberEdgeCases) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::json_number(42.0), "42");
  EXPECT_EQ(obs::json_number(-3.0), "-3");
  // Non-finite values must not leak into JSON.
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()),
            "0");
}

// ------------------------------------------------------------- tracer ----

TEST(SpanTracer, TracksGetStablePidsAndTids) {
  obs::SpanTracer tracer;
  const std::uint16_t a = tracer.track("device", "ssd[0]");
  const std::uint16_t b = tracer.track("device", "ssd[1]");
  const std::uint16_t c = tracer.track("runtime", "supersteps");
  EXPECT_EQ(tracer.track("device", "ssd[0]"), a);  // idempotent
  const auto& tracks = tracer.tracks();
  ASSERT_EQ(tracks.size(), 3u);
  EXPECT_EQ(tracks[a].pid, tracks[b].pid);  // same process
  EXPECT_NE(tracks[a].tid, tracks[b].tid);
  EXPECT_NE(tracks[c].pid, tracks[a].pid);  // distinct process
}

TEST(SpanTracer, ExportOrdersBySimulatedTimeWithStableTies) {
  obs::SpanTracer tracer;
  const std::uint16_t t = tracer.track("runtime", "supersteps");
  const std::uint32_t name = tracer.intern("step");
  // Recorded out of order; ties at ts=100 must keep emission order.
  tracer.complete(t, name, /*start=*/300, /*dur=*/50);
  tracer.complete(t, name, /*start=*/100, /*dur=*/10, tracer.intern("k"),
                  /*arg=*/1);
  tracer.instant(t, tracer.intern("mark"), /*at=*/100);

  std::ostringstream os;
  obs::write_chrome_trace(os, tracer);
  const obs::JsonValue doc = obs::parse_json(os.str());
  const obs::TraceCheckResult check = obs::check_trace(doc);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.spans, 2u);
  EXPECT_EQ(check.instants, 1u);

  // Non-metadata events appear time-sorted: 100 (span), 100 (instant,
  // recorded after the tied span), 300.
  std::vector<double> ts;
  std::vector<std::string> phases;
  for (const obs::JsonValue& ev : doc.find("traceEvents")->array) {
    if (ev.find("ph")->string == "M") continue;
    ts.push_back(ev.find("ts")->number);
    phases.push_back(ev.find("ph")->string);
  }
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0], ts[1]);
  EXPECT_LT(ts[1], ts[2]);
  EXPECT_EQ(phases[0], "X");
  EXPECT_EQ(phases[1], "i");
  // Same tracer contents → byte-identical serialization.
  std::ostringstream again;
  obs::write_chrome_trace(again, tracer);
  EXPECT_EQ(os.str(), again.str());
}

TEST(SpanTracer, SummaryFoldsBusyTimePerTrack) {
  obs::SpanTracer tracer;
  const std::uint16_t t = tracer.track("serve", "stack");
  const std::uint32_t name = tracer.intern("quantum");
  // Two spans of 2 us and 3 us within a 10 us window.
  tracer.complete(t, name, 0, 2 * util::kPsPerUs);
  tracer.complete(t, name, 7 * util::kPsPerUs, 3 * util::kPsPerUs);
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer);
  const std::vector<obs::TrackSummary> rows =
      obs::summarize_trace(obs::parse_json(os.str()));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].process, "serve");
  EXPECT_EQ(rows[0].thread, "stack");
  EXPECT_EQ(rows[0].spans, 2u);
  EXPECT_DOUBLE_EQ(rows[0].busy_us, 5.0);
  EXPECT_DOUBLE_EQ(rows[0].utilization(), 0.5);
}

TEST(SpanTracer, FlowEventsChainAcrossTracksAndValidate) {
  obs::SpanTracer tracer;
  const std::uint16_t r0 = tracer.track("serve", "replica0");
  const std::uint16_t r1 = tracer.track("serve", "replica1");
  const std::uint32_t name = tracer.intern("query");
  // One query's causal chain: admitted on r0, a quantum there, handed
  // off to r1 (migration), completed there.
  tracer.flow_start(r0, name, /*at=*/1 * util::kPsPerUs, /*id=*/42);
  tracer.flow_step(r0, name, 2 * util::kPsPerUs, 42);
  tracer.flow_step(r1, name, 5 * util::kPsPerUs, 42);
  tracer.flow_end(r1, name, 9 * util::kPsPerUs, 42);

  std::ostringstream os;
  obs::write_chrome_trace(os, tracer);
  const obs::JsonValue doc = obs::parse_json(os.str());
  const obs::TraceCheckResult check = obs::check_trace(doc);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.flows, 1u);
  EXPECT_EQ(check.flow_events, 4u);

  // Every flow phase carries the binding cat + id; the finish carries
  // the binding-point marker the viewer needs.
  std::size_t finishes = 0;
  for (const obs::JsonValue& ev : doc.find("traceEvents")->array) {
    const std::string ph = ev.find("ph")->string;
    if (ph != "s" && ph != "t" && ph != "f") continue;
    ASSERT_NE(ev.find("cat"), nullptr);
    EXPECT_EQ(ev.find("cat")->string, "query");
    ASSERT_NE(ev.find("id"), nullptr);
    EXPECT_EQ(ev.find("id")->number, 42.0);
    if (ph == "f") {
      ++finishes;
      ASSERT_NE(ev.find("bp"), nullptr);
      EXPECT_EQ(ev.find("bp")->string, "e");
    }
  }
  EXPECT_EQ(finishes, 1u);

  // The summary attributes two flow events to each replica track.
  for (const obs::TrackSummary& t : obs::summarize_trace(doc)) {
    EXPECT_EQ(t.flow_events, 2u) << t.thread;
  }
}

TEST(TraceCheck, FlowValidationCatchesBrokenChains) {
  const auto check = [](const char* events) {
    return obs::check_trace(obs::parse_json(
        std::string(R"({"traceEvents":[)") + events + "]}"));
  };
  const char* start =
      R"({"name":"q","ph":"s","ts":1,"pid":1,"tid":1,"cat":"q","id":7})";
  // A started flow must finish.
  EXPECT_FALSE(check(start).ok);
  EXPECT_NE(check(start).error.find("never finishes"), std::string::npos);
  // A second start on a live id is a duplicate.
  EXPECT_NE(check((std::string(start) + "," + start).c_str())
                .error.find("duplicate flow start"),
            std::string::npos);
  // Steps and finishes need a live start.
  const char* orphan_step =
      R"({"name":"q","ph":"t","ts":2,"pid":1,"tid":1,"cat":"q","id":9})";
  EXPECT_NE(check(orphan_step).error.find("no start"), std::string::npos);
  // Timestamps along a flow must be non-decreasing.
  const char* early_finish =
      R"({"name":"q","ph":"f","bp":"e","ts":0,"pid":1,"tid":1,"cat":"q","id":7})";
  EXPECT_NE(check((std::string(start) + "," + early_finish).c_str())
                .error.find("decrease"),
            std::string::npos);
  // And a well-formed chain passes.
  const char* good_finish =
      R"({"name":"q","ph":"f","bp":"e","ts":3,"pid":1,"tid":1,"cat":"q","id":7})";
  EXPECT_TRUE(check((std::string(start) + "," + good_finish).c_str()).ok);
}

TEST(TraceCheck, RejectsMalformedEvents) {
  // A complete span without a duration violates the trace-event schema.
  const obs::JsonValue no_dur = obs::parse_json(
      R"({"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]})");
  EXPECT_FALSE(obs::check_trace(no_dur).ok);
  const obs::JsonValue bad_root = obs::parse_json(R"([1,2,3])");
  EXPECT_FALSE(obs::check_trace(bad_root).ok);
  EXPECT_THROW(obs::parse_json("{\"truncated\":"), std::runtime_error);
}

// ------------------------------------------------------------ sampler ----

TEST(TimeSeriesSampler, BucketsFoldByDeclaredReduction) {
  obs::TimeSeriesSampler sampler;
  const util::SimTime q = obs::TimeSeriesSampler::kQuantum;
  const std::uint32_t last = sampler.channel("q/depth");
  const std::uint32_t sum =
      sampler.channel("q/bytes", obs::TimeSeriesSampler::Reduce::kSum);
  const std::uint32_t max =
      sampler.channel("q/peak", obs::TimeSeriesSampler::Reduce::kMax);
  EXPECT_EQ(sampler.channel("q/depth"), last);  // deduped by name
  for (const auto& [t, v] : std::vector<std::pair<util::SimTime, double>>{
           {q / 10, 3.0}, {q / 2, 7.0}, {q * 9 / 10, 5.0},
           {q * 5 / 2, 2.0}}) {
    sampler.record(last, t, v);
    sampler.record(sum, t, v);
    sampler.record(max, t, v);
  }
  // Bucket [0, q) folded three samples; bucket [2q, 3q) one.
  ASSERT_EQ(sampler.series(last).size(), 2u);
  const auto& b0 = sampler.series(last)[0];
  EXPECT_EQ(b0.index, 0u);
  EXPECT_EQ(b0.count, 3u);
  EXPECT_EQ(b0.reduced(obs::TimeSeriesSampler::Reduce::kLast), 5.0);
  EXPECT_EQ(sampler.series(sum)[0].reduced(
                obs::TimeSeriesSampler::Reduce::kSum),
            15.0);
  EXPECT_EQ(sampler.series(max)[0].reduced(
                obs::TimeSeriesSampler::Reduce::kMax),
            7.0);
  EXPECT_EQ(sampler.series(last)[1].index, 2u);
  EXPECT_FALSE(sampler.empty());
}

TEST(WindowSeries, FoldMatchesSoakWindowArithmetic) {
  // 8 samples over a 4-second horizon into 4 windows; the hand-rolled
  // reference is the soak's per-window bookkeeping (bucket rounding,
  // percentile rank) that bench_serve --soak reports.
  obs::WindowSeries series;
  const std::vector<std::pair<double, double>> samples = {
      {0.1, 10.0}, {0.9, 20.0}, {1.5, 30.0}, {1.6, 40.0},
      {2.2, 50.0}, {3.3, 60.0}, {3.9, 70.0}, {4.0, 80.0}};  // at horizon
  for (const auto& [t, v] : samples) series.record(t, v);
  const auto windows = series.fold(4, 4.0);
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].start_sec, 0.0);
  EXPECT_EQ(windows[0].end_sec, 1.0);
  EXPECT_EQ(windows[0].count, 2u);
  EXPECT_EQ(windows[1].count, 2u);
  EXPECT_EQ(windows[2].count, 1u);
  // The sample at exactly the horizon lands in the last window.
  EXPECT_EQ(windows[3].count, 3u);
  EXPECT_EQ(windows[0].p50,
            util::percentile(std::vector<double>{10.0, 20.0}, 50.0));
  EXPECT_EQ(windows[3].p99,
            util::percentile(std::vector<double>{60.0, 70.0, 80.0}, 99.0));
  // Degenerate folds are empty, not UB.
  EXPECT_TRUE(series.fold(0, 4.0).empty());
  EXPECT_TRUE(series.fold(4, 0.0).empty());
  EXPECT_TRUE(obs::WindowSeries{}.fold(4, 4.0).empty());
}

TEST(WindowSeries, FoldDropsAndCountsSamplesPastHorizon) {
  // Regression: samples strictly past the horizon used to clamp into the
  // last window, silently inflating its count and percentiles. They are
  // dropped and reported instead; a sample at exactly the horizon still
  // belongs to the last window (the soak convention).
  obs::WindowSeries series;
  series.record(0.5, 10.0);
  series.record(1.5, 20.0);
  series.record(2.0, 30.0);   // exactly at horizon: last window
  series.record(2.01, 999.0); // past horizon: dropped
  series.record(7.0, 999.0);  // far past horizon: dropped
  std::uint32_t dropped = 123;
  const auto windows = series.fold(2, 2.0, &dropped);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(windows[0].count, 1u);
  EXPECT_EQ(windows[1].count, 2u);
  // The outliers' values never leak into the last window's tail.
  EXPECT_EQ(windows[1].p99,
            util::percentile(std::vector<double>{20.0, 30.0}, 99.0));
  // The counter resets even on degenerate folds.
  dropped = 123;
  EXPECT_TRUE(series.fold(0, 2.0, &dropped).empty());
  EXPECT_EQ(dropped, 0u);
  // Without outliers the fold is untouched and the counter reads zero.
  obs::WindowSeries clean;
  clean.record(0.5, 10.0);
  dropped = 123;
  EXPECT_EQ(clean.fold(2, 2.0, &dropped).size(), 2u);
  EXPECT_EQ(dropped, 0u);
}

// ------------------------------------------------------------- health ----

TEST(HealthMonitor, SaturationOpensEscalatesAndCloses) {
  obs::HealthMonitor mon;
  using Verdict = obs::HealthMonitor::DepthVerdict;
  const auto observe = [&mon](util::SimTime now, double depth) {
    return mon.observe_depth(now, depth, /*depth_high=*/8.0,
                             /*depth_low=*/1.0);
  };

  EXPECT_EQ(observe(100, 4.0), Verdict::kNominal);
  EXPECT_EQ(mon.open_incident(obs::IncidentKind::kSaturation), -1);
  EXPECT_EQ(observe(200, 9.0), Verdict::kOverloaded);
  const std::int64_t id = mon.open_incident(obs::IncidentKind::kSaturation);
  ASSERT_GE(id, 0);
  // Threshold comparisons are strict, mirroring the elastic controller:
  // exactly depth_high is nominal and closes the incident.
  EXPECT_EQ(observe(300, 8.0), Verdict::kNominal);
  EXPECT_EQ(mon.open_incident(obs::IncidentKind::kSaturation), -1);

  // Reopen and push past 1.5x the threshold: severity escalates.
  EXPECT_EQ(observe(400, 10.0), Verdict::kOverloaded);
  EXPECT_EQ(observe(500, 13.0), Verdict::kOverloaded);
  EXPECT_EQ(observe(600, 0.5), Verdict::kUnderloaded);

  const auto& incidents = mon.incidents();
  ASSERT_EQ(incidents.size(), 3u);  // saturation, saturation, underload
  const obs::Incident& first = incidents[0];
  EXPECT_EQ(first.kind, obs::IncidentKind::kSaturation);
  EXPECT_EQ(first.severity, obs::IncidentSeverity::kWarning);
  EXPECT_EQ(first.subject, "fleet");
  EXPECT_EQ(first.opened_ps, 200u);
  EXPECT_EQ(first.closed_ps, 300u);
  EXPECT_FALSE(first.open);
  EXPECT_EQ(first.peak, 9.0);
  const obs::Incident& second = incidents[1];
  EXPECT_EQ(second.severity, obs::IncidentSeverity::kCritical);
  EXPECT_EQ(second.peak, 13.0);
  EXPECT_EQ(second.observations, 2u);
  // The underload incident is open at "end of run".
  EXPECT_EQ(incidents[2].kind, obs::IncidentKind::kUnderload);
  EXPECT_TRUE(incidents[2].open);
  EXPECT_EQ(mon.open_incident(obs::IncidentKind::kUnderload),
            incidents[2].id);
}

TEST(HealthMonitor, QueueTrendFiresOnConsecutiveRisingSamples) {
  obs::HealthMonitor mon;
  const auto observe = [&mon](util::SimTime now, double depth) {
    // Thresholds out of the way of saturation and underload.
    mon.observe_depth(now, depth, /*depth_high=*/100.0, /*depth_low=*/0.0);
  };
  observe(0, 2.0);
  observe(10, 3.0);  // run = 1
  observe(20, 4.0);  // run = 2
  observe(30, 5.0);  // run = 3
  EXPECT_EQ(mon.open_incident(obs::IncidentKind::kQueueTrend), -1);
  observe(40, 6.0);  // run = 4 -> opens
  EXPECT_GE(mon.open_incident(obs::IncidentKind::kQueueTrend), 0);
  observe(50, 6.0);  // not strictly rising -> closes
  EXPECT_EQ(mon.open_incident(obs::IncidentKind::kQueueTrend), -1);
  ASSERT_EQ(mon.incidents().size(), 1u);
  EXPECT_EQ(mon.incidents()[0].opened_ps, 40u);
  EXPECT_EQ(mon.incidents()[0].closed_ps, 50u);
  EXPECT_EQ(mon.incidents()[0].threshold, 4.0);
}

TEST(HealthMonitor, ThrottleIncidentsArePerReplica) {
  obs::HealthMonitor mon;
  mon.observe_throttle(100, /*replica=*/2, true);
  mon.observe_throttle(200, /*replica=*/0, true);
  mon.observe_throttle(300, /*replica=*/2, false);
  ASSERT_EQ(mon.incidents().size(), 2u);
  EXPECT_EQ(mon.incidents()[0].kind, obs::IncidentKind::kThrottle);
  EXPECT_EQ(mon.incidents()[0].subject, "replica2");
  EXPECT_FALSE(mon.incidents()[0].open);
  EXPECT_EQ(mon.incidents()[0].closed_ps, 300u);
  EXPECT_EQ(mon.incidents()[1].subject, "replica0");
  EXPECT_TRUE(mon.incidents()[1].open);
}

TEST(HealthMonitor, IncidentKindNamesRoundTripEveryEnumerator) {
  // Every enumerator must stringify to a distinct, non-"?" name — a new
  // kind that misses its to_string case trips this immediately.
  const std::vector<obs::IncidentKind> kinds = {
      obs::IncidentKind::kSaturation,    obs::IncidentKind::kUnderload,
      obs::IncidentKind::kQueueTrend,    obs::IncidentKind::kThrottle,
      obs::IncidentKind::kSloViolations, obs::IncidentKind::kReplicaDown,
      obs::IncidentKind::kIoErrorBurst,  obs::IncidentKind::kLinkDegraded,
  };
  std::set<std::string> names;
  for (const obs::IncidentKind kind : kinds) {
    const std::string name = obs::to_string(kind);
    EXPECT_NE(name, "?") << "unmapped IncidentKind "
                         << static_cast<int>(kind);
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kinds.size());  // all distinct
  // An out-of-range value degrades to "?" instead of reading past the
  // switch.
  EXPECT_STREQ(obs::to_string(static_cast<obs::IncidentKind>(255)), "?");
  EXPECT_STREQ(obs::to_string(static_cast<obs::IncidentSeverity>(255)),
               "?");
}

TEST(HealthMonitor, FaultObserversOpenAndCloseIncidents) {
  obs::HealthMonitor mon;
  // Crash opens a critical replica-down incident; revival closes it.
  const std::int64_t id = mon.observe_crash(100, /*replica=*/1, true);
  ASSERT_GE(id, 0);
  EXPECT_EQ(mon.observe_crash(200, 1, false), id);
  // I/O burst windows and link degradation are warning-severity spans.
  mon.observe_io_burst(300, /*replica=*/0, true, 0.25);
  mon.observe_io_errors(350, 0, 3);
  mon.observe_io_burst(400, 0, false, 0.0);
  mon.observe_link(500, true, 0.5);
  mon.observe_link(600, false, 1.0);
  const auto& incidents = mon.incidents();
  ASSERT_EQ(incidents.size(), 3u);
  EXPECT_EQ(incidents[0].kind, obs::IncidentKind::kReplicaDown);
  EXPECT_EQ(incidents[0].severity, obs::IncidentSeverity::kCritical);
  EXPECT_EQ(incidents[0].subject, "replica1");
  EXPECT_EQ(incidents[0].opened_ps, 100u);
  EXPECT_EQ(incidents[0].closed_ps, 200u);
  EXPECT_FALSE(incidents[0].open);
  EXPECT_EQ(incidents[1].kind, obs::IncidentKind::kIoErrorBurst);
  EXPECT_EQ(incidents[1].subject, "replica0");
  EXPECT_EQ(incidents[1].observations, 2u);  // open + error touch
  EXPECT_FALSE(incidents[1].open);
  EXPECT_EQ(incidents[2].kind, obs::IncidentKind::kLinkDegraded);
  EXPECT_EQ(incidents[2].subject, "fleet");
  EXPECT_EQ(incidents[2].closed_ps, 600u);
}

TEST(HealthMonitor, SloViolationRateNeedsAFullWindow) {
  obs::HealthMonitor mon;
  // Fifteen violations in the first fifteen completions: the 16-slot
  // window is not full yet, so no incident.
  util::SimTime now = 0;
  for (int i = 0; i < 15; ++i) mon.observe_completion(now += 10, true);
  EXPECT_EQ(mon.open_incident(obs::IncidentKind::kSloViolations), -1);
  mon.observe_completion(now += 10, false);  // full: rate 15/16 > 0.5
  EXPECT_GE(mon.open_incident(obs::IncidentKind::kSloViolations), 0);
  EXPECT_EQ(mon.incidents()[0].opened_ps, now);
  // Each clean completion evicts one violation: at 9/16 the incident
  // stays open, at 8/16 (not > 0.5) it closes.
  for (int i = 0; i < 6; ++i) mon.observe_completion(now += 10, false);
  EXPECT_GE(mon.open_incident(obs::IncidentKind::kSloViolations), 0);
  mon.observe_completion(now += 10, false);
  EXPECT_EQ(mon.open_incident(obs::IncidentKind::kSloViolations), -1);
  ASSERT_EQ(mon.incidents().size(), 1u);
  EXPECT_EQ(mon.incidents()[0].opened_ps, 160u);
  EXPECT_EQ(mon.incidents()[0].closed_ps, 230u);
  EXPECT_EQ(mon.incidents()[0].threshold, 0.5);
}

TEST(HealthMonitor, IncidentLogRoundTripsThroughJson) {
  obs::HealthMonitor mon;
  mon.observe_depth(1'000'000, 9.5, /*depth_high=*/8.0, /*depth_low=*/1.0);
  mon.observe_depth(2'000'000, 2.0, /*depth_high=*/8.0, /*depth_low=*/1.0);
  mon.observe_throttle(3'000'000, 1, true);
  // The fleet's incident log writes each incident with
  // obs::write_incident_json.
  serve::FleetReport report;
  report.incidents = mon.incidents();
  std::ostringstream os;
  serve::write_incident_log(os, report);
  const obs::JsonValue doc = obs::parse_json(os.str());
  ASSERT_NE(doc.find("incidents"), nullptr);
  const auto& arr = doc.find("incidents")->array;
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[0].find("kind")->string, "saturation");
  EXPECT_EQ(arr[0].find("severity")->string, "warning");
  EXPECT_EQ(arr[0].find("opened_ps")->number, 1'000'000.0);
  EXPECT_EQ(arr[0].find("closed_ps")->number, 2'000'000.0);
  EXPECT_FALSE(arr[0].find("open")->boolean);
  EXPECT_EQ(arr[0].find("peak")->number, 9.5);
  EXPECT_EQ(arr[0].find("threshold")->number, 8.0);
  EXPECT_EQ(arr[1].find("kind")->string, "throttle");
  EXPECT_EQ(arr[1].find("subject")->string, "replica1");
  EXPECT_TRUE(arr[1].find("open")->boolean);
  // Identical monitors serialize byte-identically.
  std::ostringstream again;
  serve::write_incident_log(again, report);
  EXPECT_EQ(os.str(), again.str());
}

// ---------------------------------------------------------- telemetry ----

TEST(Telemetry, EmptyTraceStillValidates) {
  obs::Telemetry telemetry;
  std::ostringstream os;
  telemetry.write_trace_json(os);
  const obs::TraceCheckResult check =
      obs::check_trace(obs::parse_json(os.str()));
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.spans, 0u);
}

/// The parsed command line of a product that offers the two outputs.
util::CliParser outputs_cli(const std::vector<std::string>& args) {
  util::CliParser cli;
  obs::add_telemetry_options(cli, "trace");
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  return cli;
}

bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

TEST(Telemetry, OutputsOpenOnlyWhenAPathIsNamed) {
  EXPECT_EQ(obs::make_telemetry(outputs_cli({})), nullptr);
  std::ostringstream quiet;
  EXPECT_EQ(obs::save_telemetry(outputs_cli({}), nullptr, quiet), 0);
  EXPECT_TRUE(quiet.str().empty());

  const std::string dir = ::testing::TempDir();
  for (const auto& [trace, metrics] :
       {std::pair{true, false}, std::pair{false, true},
        std::pair{true, true}}) {
    const std::string stem = dir + "/obs_outputs_" +
                             std::to_string(trace) + std::to_string(metrics);
    const std::string trace_path = stem + "_trace.json";
    const std::string metrics_path = stem + "_metrics.json";
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
    std::vector<std::string> args;
    if (trace) args.insert(args.end(), {"--trace-out", trace_path});
    if (metrics) args.insert(args.end(), {"--metrics-out", metrics_path});
    const util::CliParser cli = outputs_cli(args);

    const std::unique_ptr<obs::Telemetry> telemetry = obs::make_telemetry(cli);
    ASSERT_NE(telemetry, nullptr);
    obs::SpanTracer& tracer = telemetry->tracer();
    tracer.complete(tracer.track("test", "lane"), tracer.intern("span"), 0,
                    10);
    telemetry->metrics().counter("test", "spans").add(1);
    std::ostringstream err;
    EXPECT_EQ(obs::save_telemetry(cli, telemetry.get(), err), 0);
    EXPECT_TRUE(err.str().empty()) << err.str();

    EXPECT_EQ(file_exists(trace_path), trace);
    EXPECT_EQ(file_exists(metrics_path), metrics);
    if (trace) {
      std::ifstream in(trace_path);
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      const obs::TraceCheckResult check =
          obs::check_trace(obs::parse_json(text));
      EXPECT_TRUE(check.ok) << check.error;
      EXPECT_EQ(check.spans, 1u);
    }
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
  }

  const std::string unwritable = dir + "/obs_outputs_missing_dir/t.json";
  const util::CliParser cli = outputs_cli({"--trace-out", unwritable});
  const std::unique_ptr<obs::Telemetry> telemetry = obs::make_telemetry(cli);
  ASSERT_NE(telemetry, nullptr);
  std::ostringstream err;
  EXPECT_NE(obs::save_telemetry(cli, telemetry.get(), err), 0);
  EXPECT_NE(err.str().find(unwritable), std::string::npos) << err.str();
}

}  // namespace
}  // namespace cxlgraph
