/**
 * @file
 * Unit tests for the telemetry subsystem: log2 histograms and
 * percentiles, the packet-lifecycle tracer's ring/sink semantics, the
 * interval sampler's window boundaries and warm-up handling, and the
 * JSON writer/parser round trip.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"
#include "telemetry/interval.hh"
#include "telemetry/json.hh"
#include "telemetry/probe.hh"
#include "telemetry/trace.hh"

namespace stacknoc {
namespace {

using telemetry::IntervalSampler;
using telemetry::JsonValue;
using telemetry::JsonWriter;
using telemetry::MemoryTraceSink;
using telemetry::PacketTracer;
using telemetry::TraceEvent;
using telemetry::TraceRecord;

// --- Histogram ------------------------------------------------------

TEST(Histogram, BucketBounds)
{
    using stats::Histogram;
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(~0ULL), 64u);
    for (std::size_t b = 0; b < stats::Histogram::kNumBuckets; ++b) {
        // Every bucket's bounds map back into the bucket itself.
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLo(b)), b);
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketHi(b)), b);
    }
}

TEST(Histogram, CountSumMinMax)
{
    stats::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    h.sample(10);
    h.sample(20);
    h.sample(5);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 35u);
    EXPECT_EQ(h.minValue(), 5u);
    EXPECT_EQ(h.maxValue(), 20u);
    EXPECT_DOUBLE_EQ(h.mean(), 35.0 / 3.0);
}

TEST(Histogram, PercentilesClampToObservedRange)
{
    stats::Histogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(100);
    // All mass on one value: every percentile is that value.
    EXPECT_DOUBLE_EQ(h.percentile(0.01), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 100.0);
}

TEST(Histogram, PercentilesOrderedAndBracketed)
{
    stats::Histogram h;
    // 90 fast samples and 10 slow ones: p50 must sit in the fast
    // bucket's range and p99 in the slow one's.
    for (int i = 0; i < 90; ++i)
        h.sample(8);
    for (int i = 0; i < 10; ++i)
        h.sample(1000);
    const double p50 = h.percentile(0.50);
    const double p95 = h.percentile(0.95);
    const double p99 = h.percentile(0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, 8.0); // inside the fast samples' bucket [8, 15]
    EXPECT_LE(p50, 15.0);
    EXPECT_GE(p99, 512.0); // inside the slow samples' bucket
    EXPECT_LE(p99, 1000.0);
}

TEST(Histogram, WeightedSamplesAndReset)
{
    stats::Histogram h;
    h.sample(4, 10);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_EQ(h.sum(), 40u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
}

TEST(Histogram, GroupIntegration)
{
    stats::Group g("test");
    auto &h = g.histogram("lat");
    h.sample(7);
    // Same name: a second writer, and reads sum both.
    auto &h2 = g.histogram("lat");
    EXPECT_NE(&h2, &h);
    EXPECT_EQ(h2.count(), 1u);
    ASSERT_NE(g.findHistogram("lat"), nullptr);
    EXPECT_EQ(g.findHistogram("lat")->count(), 1u);
    EXPECT_EQ(g.findHistogram("nope"), nullptr);
    g.reset();
    EXPECT_EQ(h.count(), 0u);
}

// --- PacketTracer ---------------------------------------------------

TEST(PacketTracer, SamplingFilter)
{
    PacketTracer t(16, 4);
    EXPECT_TRUE(t.tracked(0));
    EXPECT_FALSE(t.tracked(1));
    EXPECT_TRUE(t.tracked(8));
    PacketTracer all(16, 1);
    EXPECT_TRUE(all.tracked(7));
}

TEST(PacketTracer, RingWraparoundWithoutSink)
{
    PacketTracer t(4, 1);
    for (std::uint64_t i = 0; i < 10; ++i)
        t.record(TraceEvent::Inject, i, 0, 0, i);
    // Sinkless ring keeps the newest `capacity` records.
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().packetId, 6u); // oldest retained
    EXPECT_EQ(snap.back().packetId, 9u);  // newest
}

TEST(PacketTracer, SinkDrainsOnOverflowAndFlush)
{
    MemoryTraceSink sink;
    PacketTracer t(4, 1);
    t.setSink(&sink);
    for (std::uint64_t i = 0; i < 10; ++i)
        t.record(TraceEvent::RouterArrive, i, 0, 3, i);
    t.flush();
    // With a sink nothing is lost, in order.
    ASSERT_EQ(sink.records().size(), 10u);
    EXPECT_EQ(t.dropped(), 0u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(sink.records()[i].packetId, i);
    EXPECT_EQ(t.size(), 0u); // flushed
}

TEST(PacketTracer, GlobalInstallUninstall)
{
    EXPECT_EQ(telemetry::tracer(), nullptr);
    PacketTracer t;
    telemetry::setTracer(&t);
    EXPECT_EQ(telemetry::tracer(), &t);
    telemetry::setTracer(nullptr);
    EXPECT_EQ(telemetry::tracer(), nullptr);
}

// --- IntervalSampler ------------------------------------------------

TEST(IntervalSampler, WindowBoundaries)
{
    stats::Group g("net");
    auto &c = g.counter("pkts");
    IntervalSampler s(100);
    s.addGroup(&g);
    // onCycle(now) fires after cycle `now`; the first window of 100
    // cycles is 0..99, so the snapshot lands at now == 99.
    for (Cycle now = 0; now < 250; ++now) {
        c.inc();
        s.onCycle(now);
    }
    ASSERT_EQ(s.snapshots().size(), 2u);
    EXPECT_EQ(s.snapshots()[0].cycle, 99u);
    EXPECT_EQ(s.snapshots()[1].cycle, 199u);
    // Snapshots carry cumulative values: 100 then 200 increments.
    ASSERT_FALSE(s.snapshots()[0].values.empty());
    EXPECT_EQ(s.snapshots()[0].values[0].first, "net.pkts");
    EXPECT_DOUBLE_EQ(s.snapshots()[0].values[0].second, 100.0);
    EXPECT_DOUBLE_EQ(s.snapshots()[1].values[0].second, 200.0);
}

TEST(IntervalSampler, WarmupSeparation)
{
    stats::Group g("net");
    g.counter("pkts");
    IntervalSampler s(50);
    s.addGroup(&g);
    for (Cycle now = 0; now < 120; ++now)
        s.onCycle(now);
    // Reset mid-run: earlier snapshots become warm-up and the period
    // phase re-anchors at the reset cycle.
    s.onReset(120);
    for (Cycle now = 120; now < 240; ++now)
        s.onCycle(now);
    const auto &snaps = s.snapshots();
    ASSERT_EQ(snaps.size(), 4u);
    EXPECT_TRUE(snaps[0].warmup);
    EXPECT_TRUE(snaps[1].warmup);
    EXPECT_FALSE(snaps[2].warmup);
    EXPECT_FALSE(snaps[3].warmup);
    EXPECT_EQ(snaps[2].cycle, 169u); // 120 + 50 - 1
    EXPECT_EQ(snaps[3].cycle, 219u);
    EXPECT_EQ(s.measureStart(), 120u);
}

TEST(IntervalSampler, SnapshotCap)
{
    stats::Group g("net");
    IntervalSampler s(10, 3);
    s.addGroup(&g);
    for (Cycle now = 0; now < 100; ++now)
        s.onCycle(now);
    EXPECT_EQ(s.snapshots().size(), 3u);
    EXPECT_EQ(s.droppedSnapshots(), 7u);
}

TEST(ProbeHub, FanOut)
{
    struct CountingProbe : telemetry::Probe
    {
        int cycles = 0, warmups = 0, resets = 0;
        void onCycle(Cycle) override { ++cycles; }
        void onWarmupBegin(Cycle) override { ++warmups; }
        void onReset(Cycle) override { ++resets; }
    };
    CountingProbe a, b;
    telemetry::ProbeHub hub;
    EXPECT_TRUE(hub.empty());
    hub.add(&a);
    hub.add(&b);
    EXPECT_EQ(hub.size(), 2u);
    hub.onCycle(1);
    hub.onWarmupBegin(2);
    hub.onReset(3);
    EXPECT_EQ(a.cycles, 1);
    EXPECT_EQ(b.resets, 1);
    EXPECT_EQ(b.warmups, 1);
}

// --- JSON -----------------------------------------------------------

TEST(Json, WriterEscapingAndStructure)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("s", std::string("a\"b\\c\n"));
    w.key("arr");
    w.beginArray();
    w.value(1);
    w.value(2.5);
    w.value(true);
    w.null();
    w.endArray();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\"s\":\"a\\\"b\\\\c\\n\",\"arr\":[1,2.5,true,null]}");
}

TEST(Json, ParserBasics)
{
    auto v = JsonValue::parse(
        R"({"a": [1, 2, 3], "b": {"c": "x"}, "d": -1.5e2, "e": null})");
    ASSERT_TRUE(v.has_value());
    ASSERT_TRUE(v->isObject());
    ASSERT_NE(v->find("a"), nullptr);
    EXPECT_EQ(v->find("a")->size(), 3u);
    EXPECT_DOUBLE_EQ(v->find("a")->at(1)->asDouble(), 2.0);
    EXPECT_EQ(v->find("b")->find("c")->asString(), "x");
    EXPECT_DOUBLE_EQ(v->find("d")->asDouble(), -150.0);
    EXPECT_TRUE(v->find("e")->isNull());

    std::string err;
    EXPECT_FALSE(JsonValue::parse("{broken", &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(Json, GroupRoundTrip)
{
    stats::Group g("net");
    g.counter("pkts").inc(42);
    g.average("lat").sample(10.0);
    g.average("lat").sample(20.0);
    auto &h = g.histogram("lat_hist");
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<std::uint64_t>(i + 1));

    std::ostringstream os;
    JsonWriter w(os);
    telemetry::writeGroupJson(w, g);

    auto v = JsonValue::parse(os.str());
    ASSERT_TRUE(v.has_value()) << os.str();
    EXPECT_DOUBLE_EQ(v->find("counters")->find("pkts")->asDouble(), 42.0);
    EXPECT_DOUBLE_EQ(
        v->find("averages")->find("lat")->find("mean")->asDouble(), 15.0);
    const JsonValue *hist = v->find("histograms")->find("lat_hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->find("count")->asDouble(), 100.0);
    EXPECT_DOUBLE_EQ(hist->find("max")->asDouble(), 100.0);
    EXPECT_GT(hist->find("p99")->asDouble(),
              hist->find("p50")->asDouble());
    // Non-empty buckets serialise as [lo, hi, count] triples that add
    // back up to the total count.
    double total = 0;
    for (const auto &b : hist->find("buckets")->elements())
        total += b.at(2)->asDouble();
    EXPECT_DOUBLE_EQ(total, 100.0);
}

TEST(Json, IntervalRoundTrip)
{
    stats::Group g("net");
    auto &c = g.counter("pkts");
    IntervalSampler s(10);
    s.addGroup(&g);
    for (Cycle now = 0; now < 35; ++now) {
        c.inc();
        s.onCycle(now);
    }
    std::ostringstream os;
    JsonWriter w(os);
    telemetry::writeIntervalJson(w, s);

    auto v = JsonValue::parse(os.str());
    ASSERT_TRUE(v.has_value()) << os.str();
    EXPECT_DOUBLE_EQ(v->find("period")->asDouble(), 10.0);
    ASSERT_EQ(v->find("snapshots")->size(), 3u);
    const JsonValue *last = v->find("snapshots")->at(2);
    EXPECT_DOUBLE_EQ(last->find("cycle")->asDouble(), 29.0);
    EXPECT_DOUBLE_EQ(last->find("values")->find("net.pkts")->asDouble(),
                     30.0);
}

} // namespace
} // namespace stacknoc
