// Tests for the observability layer (src/obs/): histogram bucket-edge
// math, registry determinism-class enforcement, byte-identical snapshot
// merges across thread counts, timing-gated metrics absent while timing is
// off, span nesting in the Chrome trace output, and the disabled path's
// zero-allocation guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// Global operator new replacement counting every allocation in the test
// binary, so the disabled-path test can assert a Span construction loop
// allocates nothing.  (The default operator new[] forwards here too.)
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace eqc::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket semantics

TEST(Histogram, BucketEdgesAreLowerInclusive) {
  Histogram h({1.0, 2.0, 5.0});
  h.record(0.5);   // bucket 0: v < b0
  h.record(1.0);   // bucket 1: exactly b0 (lower-inclusive)
  h.record(1.99);  // bucket 1
  h.record(2.0);   // bucket 2: exactly b1
  h.record(4.99);  // bucket 2
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // n boundaries -> n+1 buckets
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(h.count(), 5u);
}

TEST(Histogram, OverflowBucketCatchesEverythingAtOrAboveLastBoundary) {
  Histogram h({1.0, 2.0, 5.0});
  h.record(5.0);     // exactly the last boundary -> overflow
  h.record(1e9);     // far overflow
  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0 + 1e9);
}

TEST(Histogram, RejectsMalformedBoundaries) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Registry semantics

TEST(Registry, LookupIsIdempotentAndEnforcesDetAgreement) {
  Registry reg;
  Counter& c1 = reg.counter("x.count", Det::Stable);
  Counter& c2 = reg.counter("x.count", Det::Stable);
  EXPECT_EQ(&c1, &c2);
  c1.add(5);
  EXPECT_EQ(c2.value(), 5u);
  EXPECT_THROW(reg.counter("x.count", Det::Runtime), std::logic_error);
}

TEST(Registry, HistogramReRegistrationMustAgreeOnBoundaries) {
  Registry reg;
  Histogram& h1 = reg.histogram("x.ms", {1.0, 2.0}, Det::Runtime);
  Histogram& h2 = reg.histogram("x.ms", {1.0, 2.0}, Det::Runtime);
  EXPECT_EQ(&h1, &h2);
  EXPECT_THROW(reg.histogram("x.ms", {1.0, 3.0}, Det::Runtime),
               std::logic_error);
  EXPECT_THROW(reg.histogram("x.ms", {1.0, 2.0}, Det::Stable),
               std::logic_error);
}

TEST(Registry, SnapshotSplitsSectionsByDetClass) {
  Registry reg;
  reg.counter("stable.items", Det::Stable).add(3);
  reg.counter("runtime.polls", Det::Runtime).add(7);
  reg.gauge("stable.progress", Det::Stable).set(-2);
  reg.histogram("runtime.lat_ms", {1.0}, Det::Runtime).record(0.5);

  const json::Value snap = reg.snapshot();
  EXPECT_EQ(snap.at("kind").as_string(), "eqc_metrics");
  EXPECT_EQ(snap.at("schema_version").as_u64(), 1u);

  const json::Value& stable = snap.at("metrics");
  const json::Value& runtime = snap.at("runtime");
  EXPECT_EQ(stable.at("counters").at("stable.items").as_u64(), 3u);
  EXPECT_EQ(stable.at("gauges").at("stable.progress").as_i64(), -2);
  EXPECT_EQ(stable.find("counters")->find("runtime.polls"), nullptr);
  EXPECT_EQ(runtime.at("counters").at("runtime.polls").as_u64(), 7u);
  const json::Value& hist = runtime.at("histograms").at("runtime.lat_ms");
  EXPECT_EQ(hist.at("count").as_u64(), 1u);
  EXPECT_EQ(hist.at("counts").as_array().size(), 2u);
}

// The tentpole guarantee: N threads hammering the striped cells merge to
// the exact same snapshot bytes as one thread doing the same work.
TEST(Registry, ThreadedMergeIsByteIdenticalToSerial) {
  constexpr unsigned kThreads = 8;
  constexpr int kRounds = 250;
  // Every recorded value and every partial sum is exactly representable,
  // so the atomic-double sum is order-independent.
  const std::vector<double> samples = {0.5, 1.5, 7.0};

  auto work = [&](Registry& reg, int rounds) {
    Counter& items = reg.counter("work.items", Det::Stable);
    Histogram& lat = reg.histogram("work.ms", {1.0, 5.0}, Det::Runtime);
    Gauge& depth = reg.gauge("work.depth", Det::Runtime);
    for (int r = 0; r < rounds; ++r) {
      items.add(1);
      for (double v : samples) lat.record(v);
      depth.set(7);
    }
  };

  Registry serial;
  work(serial, kRounds * kThreads);

  Registry threaded;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t)
    pool.emplace_back([&] { work(threaded, kRounds); });
  for (auto& th : pool) th.join();

  EXPECT_EQ(serial.snapshot().dump(), threaded.snapshot().dump());
}

TEST(LatencyTimer, RecordsOnlyWhileTimingIsEnabled) {
  Histogram h({1e6});  // one huge boundary: everything lands in bucket 0
  enable_timing(false);
  { LatencyTimer t(h); }
  EXPECT_EQ(h.count(), 0u);
  enable_timing(true);
  { LatencyTimer t(h); }
  enable_timing(false);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
}

// ---------------------------------------------------------------------------
// No silent zeros: timing-gated metrics are absent while timing is off

TEST(Parallel, BusyIdleCountersExistOnlyOnceTimingIsOn) {
  auto runtime_counters = [] {
    return Registry::global().snapshot().at("runtime").at("counters");
  };
  enable_timing(false);
  parallel::for_each_shard(4, 2, [](unsigned) {});
  const json::Value off = runtime_counters();
  EXPECT_NE(off.find("parallel.pools"), nullptr);
  EXPECT_EQ(off.find("parallel.busy_us"), nullptr);
  EXPECT_EQ(off.find("parallel.idle_us"), nullptr);

  enable_timing(true);
  parallel::for_each_shard(4, 2, [](unsigned) {});
  enable_timing(false);
  const json::Value on = runtime_counters();
  EXPECT_NE(on.find("parallel.busy_us"), nullptr);
  EXPECT_NE(on.find("parallel.idle_us"), nullptr);
}

// ---------------------------------------------------------------------------
// Trace spans

const json::Value* find_event(const json::Value& doc, const std::string& name) {
  for (const auto& ev : doc.at("traceEvents").as_array())
    if (ev.at("name").as_string() == name) return &ev;
  return nullptr;
}

TEST(Trace, NestedSpansRecordOrderedCompleteEvents) {
  install_trace_sink();
  {
    Span outer("test.outer");
    outer.arg("items", 3);
    {
      Span inner("test.inner", "cell-a");
      inner.arg("index", 1).arg("size", 2);
    }
  }
  const json::Value doc = json::Value::parse(trace_json());
  shutdown_trace_sink();

  const json::Value* outer = find_event(doc, "test.outer");
  const json::Value* inner = find_event(doc, "test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  for (const json::Value* ev : {outer, inner}) {
    EXPECT_EQ(ev->at("ph").as_string(), "X");
    EXPECT_EQ(ev->at("cat").as_string(), "eqc");
    EXPECT_EQ(ev->at("pid").as_u64(), 1u);
  }
  // Nesting: the inner span starts no earlier and ends no later.
  const double o_ts = outer->at("ts").as_double();
  const double o_end = o_ts + outer->at("dur").as_double();
  const double i_ts = inner->at("ts").as_double();
  const double i_end = i_ts + inner->at("dur").as_double();
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_end, o_end);
  // Args round-trip, including the string detail.
  EXPECT_EQ(outer->at("args").at("items").as_u64(), 3u);
  EXPECT_EQ(inner->at("args").at("detail").as_string(), "cell-a");
  EXPECT_EQ(inner->at("args").at("index").as_u64(), 1u);
  EXPECT_EQ(inner->at("args").at("size").as_u64(), 2u);
}

TEST(Trace, ThreadLabelsEmitMetadataEventsWithTheWorkerTid) {
  install_trace_sink();
  unsigned worker_tid = 0;
  std::thread worker([&] {
    set_thread_label("worker-test");
    worker_tid = thread_slot();
    Span s("test.worker_span");
  });
  worker.join();
  const json::Value doc = json::Value::parse(trace_json());
  shutdown_trace_sink();

  const json::Value* meta = nullptr;
  for (const auto& ev : doc.at("traceEvents").as_array())
    if (ev.at("name").as_string() == "thread_name" &&
        ev.at("args").at("name").as_string() == "worker-test")
      meta = &ev;
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->at("ph").as_string(), "M");
  EXPECT_EQ(meta->at("tid").as_u64(), worker_tid);
  const json::Value* span = find_event(doc, "test.worker_span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->at("tid").as_u64(), worker_tid);
}

TEST(Trace, ShutdownDropsEventsAndDisablesTiming) {
  install_trace_sink();
  EXPECT_TRUE(trace_active());
  EXPECT_TRUE(timing_enabled());
  { Span s("test.dropped"); }
  shutdown_trace_sink();
  EXPECT_FALSE(trace_active());
  EXPECT_FALSE(timing_enabled());
  const json::Value doc = json::Value::parse(trace_json());
  EXPECT_EQ(find_event(doc, "test.dropped"), nullptr);
}

TEST(Trace, DisabledSpansPerformZeroAllocations) {
  shutdown_trace_sink();  // make sure the sink is off
  ASSERT_FALSE(trace_active());
  // Warm the thread slot so its one-time registration doesn't count.
  (void)thread_slot();

  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 1000; ++i) {
    Span s("test.cold", "never-stored");
    s.arg("a", 1).arg("b", 2).arg("c", 3).arg("d", 4).arg("extra", 5);
  }
  const std::uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace eqc::obs
