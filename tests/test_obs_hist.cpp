// Tests for the distribution/post-mortem half of the observability layer
// (DESIGN.md §13): histogram bucket and quantile math against a reference
// sort, bit-identical multi-threaded merges (the TSan target), the flight
// recorder's wraparound and dump-on-unwind contract, records landing in the
// installed run's registry, and the zero-registry guarantee when
// observability is disabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "map/driver.hpp"
#include "obs/flight.hpp"
#include "obs/hist.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"

namespace imodec::obs {
namespace {

/// Isolation: these tests touch the process registry and the enable flag;
/// start clean and restore afterwards.
class ObsHistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(false);
    Registry::instance().reset();
  }
  void TearDown() override {
    Registry::instance().reset();
    set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

/// A value mix covering the exact region, every power-of-two row, and the
/// extremes — deterministic so failures reproduce.
std::vector<std::uint64_t> sample_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> vals;
  vals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Exponentially distributed magnitude: pick a bit width, then a value.
    const unsigned bits = static_cast<unsigned>(rng.below(64)) + 1;
    vals.push_back(rng.next() >> (64 - bits));
  }
  return vals;
}

TEST_F(ObsHistTest, BucketBoundsRoundTrip) {
  // Every value lies inside its bucket and both bounds map back to it.
  std::vector<std::uint64_t> probe;
  for (std::uint64_t v = 0; v < 4096; ++v) probe.push_back(v);
  for (unsigned b = 12; b < 64; ++b) {
    const std::uint64_t p = std::uint64_t{1} << b;
    probe.insert(probe.end(), {p - 1, p, p + 1});
  }
  probe.push_back(~std::uint64_t{0});
  for (const std::uint64_t v : probe) {
    const unsigned i = Histogram::bucket_index(v);
    ASSERT_LT(i, Histogram::kBuckets) << v;
    EXPECT_LE(Histogram::bucket_lo(i), v) << v;
    EXPECT_GE(Histogram::bucket_hi(i), v) << v;
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lo(i)), i) << v;
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_hi(i)), i) << v;
  }
  // Buckets tile the value axis in order: each lo is the previous hi + 1.
  for (unsigned i = 1; i < Histogram::kBuckets; ++i)
    ASSERT_EQ(Histogram::bucket_lo(i), Histogram::bucket_hi(i - 1) + 1) << i;
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
}

TEST_F(ObsHistTest, QuantilesMatchReferenceSort) {
  Histogram h;
  std::vector<std::uint64_t> vals = sample_values(10000, 0xC0FFEE);
  std::uint64_t sum = 0, max = 0;
  for (const std::uint64_t v : vals) {
    h.record(v);
    sum += v;
    max = std::max(max, v);
  }
  EXPECT_EQ(h.count(), vals.size());
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.max(), max);

  std::sort(vals.begin(), vals.end());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const std::size_t rank = std::min<std::size_t>(
        vals.size(),
        std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(vals.size())))));
    const std::uint64_t ref = vals[rank - 1];
    // The estimate is the upper bound of the bucket holding the true order
    // statistic: same bucket, and never below the true value.
    EXPECT_EQ(h.quantile(q),
              Histogram::bucket_hi(Histogram::bucket_index(ref)))
        << "q=" << q;
    EXPECT_GE(h.quantile(q), ref) << "q=" << q;
  }
  const Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, vals.size());
  EXPECT_EQ(s.p50, h.quantile(0.5));
  EXPECT_EQ(s.p90, h.quantile(0.9));
  EXPECT_EQ(s.p99, h.quantile(0.99));
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
}

TEST_F(ObsHistTest, ConcurrentRecordingMergesBitIdentical) {
  // 8 threads record disjoint deterministic streams into one histogram; the
  // merged snapshot must equal the serial recording of the same multiset
  // (addition commutes), and TSan must see no races (ctest -L parallel).
  constexpr unsigned kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  Histogram concurrent, serial;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&concurrent, t] {
      const auto vals = sample_values(kPerThread, 0xBEEF00 + t);
      for (const std::uint64_t v : vals) concurrent.record(v);
    });
  }
  for (std::thread& w : workers) w.join();
  for (unsigned t = 0; t < kThreads; ++t)
    for (const std::uint64_t v : sample_values(kPerThread, 0xBEEF00 + t))
      serial.record(v);

  EXPECT_EQ(concurrent.count(), kThreads * kPerThread);
  EXPECT_EQ(concurrent.count(), serial.count());
  EXPECT_EQ(concurrent.sum(), serial.sum());
  EXPECT_EQ(concurrent.max(), serial.max());
  EXPECT_EQ(concurrent.buckets(), serial.buckets());
}

TEST_F(ObsHistTest, FlightRecorderWraparound) {
  const auto ring = std::make_unique<FlightRecorder>();
  FlightRecorder& rec = *ring;
  const TraceScope scope({nullptr, -1, nullptr, &rec});
  constexpr std::uint64_t kTotal = FlightRecorder::kCapacity + 100;
  for (std::uint64_t i = 0; i < kTotal; ++i)
    flight(FlightKind::gc, "wrap", i, 2 * i, 3 * i);
  EXPECT_EQ(rec.total_recorded(), kTotal);

  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
  // Oldest first: the ring keeps exactly the last kCapacity events.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t ticket = 100 + i;
    EXPECT_EQ(events[i].a, ticket);
    EXPECT_EQ(events[i].b, 2 * ticket);
    EXPECT_EQ(events[i].c, 3 * ticket);
    EXPECT_STREQ(events[i].what, "wrap");
    EXPECT_EQ(events[i].kind, FlightKind::gc);
  }

  const Json dump = flight_json(rec.snapshot(), rec.total_recorded());
  EXPECT_EQ(dump.find("recorded")->as_number(), static_cast<double>(kTotal));
  EXPECT_EQ(dump.find("events")->size(), FlightRecorder::kCapacity);

  // Labels longer than the slot are truncated, never unterminated.
  flight(FlightKind::cache, "a-label-much-longer-than-a-slot-can-hold", 1);
  const std::vector<FlightEvent> more = rec.snapshot();
  EXPECT_LT(std::string(more.back().what).size(), sizeof more.back().what);
}

TEST_F(ObsHistTest, FlightDisabledCostsNothing) {
  // flight() records into the calling thread's ring only: a ring that no
  // run installed sees nothing.
  const auto rec = std::make_unique<FlightRecorder>();
  ASSERT_EQ(FlightRecorder::current(), nullptr);
  flight(FlightKind::phase, "ignored", 1, 2, 3);
  EXPECT_EQ(rec->total_recorded(), 0u);
  EXPECT_TRUE(rec->snapshot().empty());
}

TEST_F(ObsHistTest, GovernedTripDumpsFlightOnUnwind) {
  // A deterministic node-budget trip in fail mode must unwind out of
  // run_synthesis *and* leave a flight trail ending in a trip event — the
  // post-mortem contract for CLI exit code 5 and the fault-injection sweeps.
  // (Governed runs keep a ring of their own; obs stays off.) The ring dies
  // with the run, so the trail is read from the driver's stderr dump.
  SynthesisConfig cfg;
  cfg.node_budget = 8;  // far below what 5xp1's engine runs need
  cfg.on_exhaustion = OnExhaustion::fail;
  cfg.verify = VerifyMode::off;
  cfg.threads = 1;
  const auto net = circuits::make_benchmark("5xp1");
  ASSERT_TRUE(net);
  Network mapped;
  ::testing::internal::CaptureStderr();
  EXPECT_THROW(run_synthesis(*net, cfg, mapped), util::ResourceExhausted);
  const std::string err = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(FlightRecorder::current(), nullptr);  // scope restored
  const std::string marker = "flight recorder dump:\n";
  const std::size_t at = err.find(marker);
  ASSERT_NE(at, std::string::npos) << err;
  const std::size_t from = at + marker.size();
  const std::optional<Json> dump =
      Json::parse(err.substr(from, err.find('\n', from) - from));
  ASSERT_TRUE(dump) << err;
  const Json::Array& events = dump->find("events")->items();
  ASSERT_FALSE(events.empty());
  bool saw_phase = false;
  for (const Json& e : events)
    saw_phase = saw_phase || e.find("kind")->as_string() == "phase";
  EXPECT_TRUE(saw_phase);
  const Json& last = events.back();
  EXPECT_EQ(last.find("kind")->as_string(), "trip");
  EXPECT_EQ(last.find("what")->as_string(),
            util::to_string(util::ResourceKind::bdd_nodes));
}

TEST_F(ObsHistTest, DisabledRunLeavesRegistryEmpty) {
  // The zero-overhead contract: with obs off, an ungoverned synthesis run
  // creates no registry entries (counters, gauges or histograms) and records
  // no flight events.
  ASSERT_FALSE(enabled());
  SynthesisConfig cfg;
  cfg.verify = VerifyMode::off;
  cfg.threads = 1;
  const auto net = circuits::make_benchmark("rd53");
  ASSERT_TRUE(net);
  Network mapped;
  const DriverReport rep = run_synthesis(*net, cfg, mapped);
  EXPECT_TRUE(Registry::instance().counters().empty());
  EXPECT_TRUE(Registry::instance().gauges().empty());
  EXPECT_TRUE(Registry::instance().histograms().empty());
  EXPECT_EQ(rep.metrics, nullptr);
  EXPECT_TRUE(rep.flight.empty());
  EXPECT_EQ(rep.flight_recorded, 0u);
}

TEST_F(ObsHistTest, RecordsGoToTheInstalledRun) {
  // With a run's registry installed, the gated helpers and every thread
  // that reinstalls the context record there; without one they fall back
  // to the process registry.
  set_enabled(true);
  Registry run;
  {
    const TraceScope scope({nullptr, -1, &run, nullptr});
    EXPECT_EQ(&Registry::current(), &run);
    count("t.runs");
    gauge_set("t.live", 7);
    const TraceContext ctx = TraceContext::current();
    std::thread([ctx] {
      const TraceScope worker(ctx);
      observe("t.us", 5);
    }).join();
  }
  EXPECT_EQ(&Registry::current(), &Registry::instance());
  count("t.runs");
  EXPECT_EQ(run.counter("t.runs").value(), 1u);
  EXPECT_EQ(run.gauge("t.live").max(), 7);
  EXPECT_EQ(run.histogram("t.us").count(), 1u);
  EXPECT_EQ(Registry::instance().counter("t.runs").value(), 1u);
  EXPECT_TRUE(Registry::instance().gauges().empty());
  EXPECT_NE(run.serial(), Registry::instance().serial());
}

TEST_F(ObsHistTest, MergeSumsCountersAndHistogramsAndKeepsGaugePeaks) {
  Registry total, run;
  total.counter("c").add(2);
  total.gauge("g").set(100);
  total.histogram("h").record(3);
  run.counter("c").add(5);
  run.gauge("g").set(40);
  run.gauge("g").set(1);
  run.histogram("h").record(3);
  run.histogram("h").record(1000);
  total.merge(run);
  EXPECT_EQ(total.counter("c").value(), 7u);
  EXPECT_EQ(total.gauge("g").value(), 1);
  EXPECT_EQ(total.gauge("g").max(), 100);
  const Histogram::Summary s = total.histogram("h").summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 1006u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_EQ(s.p50, 3u);
}

}  // namespace
}  // namespace imodec::obs
