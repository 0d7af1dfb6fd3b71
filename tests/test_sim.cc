/**
 * @file
 * Unit tests for the simulation kernel: channels, simulator, statistics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/channel.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace stacknoc {
namespace {

TEST(Channel, LatencyOne)
{
    Channel<int> ch(1);
    ch.push(10, 7);
    EXPECT_FALSE(ch.receive(10).has_value());
    auto v = ch.receive(11);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
    EXPECT_FALSE(ch.receive(12).has_value());
}

TEST(Channel, LatencyThree)
{
    Channel<int> ch(3);
    ch.push(0, 1);
    EXPECT_FALSE(ch.ready(2));
    EXPECT_TRUE(ch.ready(3));
    EXPECT_EQ(*ch.receive(3), 1);
}

TEST(Channel, FifoOrder)
{
    Channel<int> ch(1);
    ch.push(0, 1);
    ch.push(0, 2);
    ch.push(1, 3);
    EXPECT_EQ(*ch.receive(1), 1);
    EXPECT_EQ(*ch.receive(1), 2);
    EXPECT_FALSE(ch.receive(1).has_value());
    EXPECT_EQ(*ch.receive(2), 3);
}

TEST(Channel, LateReceiveStillDelivers)
{
    Channel<int> ch(1);
    ch.push(0, 9);
    EXPECT_EQ(*ch.receive(100), 9);
}

class CountingComponent : public Ticking
{
  public:
    CountingComponent() : Ticking("counter") {}
    void tick(Cycle now) override
    {
        ++ticks;
        lastCycle = now;
    }
    int ticks = 0;
    Cycle lastCycle = 0;
};

TEST(Simulator, TicksComponents)
{
    Simulator sim;
    CountingComponent a, b;
    sim.add(&a);
    sim.add(&b);
    sim.run(10);
    EXPECT_EQ(a.ticks, 10);
    EXPECT_EQ(b.ticks, 10);
    EXPECT_EQ(a.lastCycle, 9u);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, CycleEndCallback)
{
    Simulator sim;
    CountingComponent a;
    sim.add(&a);
    int calls = 0;
    sim.onCycleEnd([&](Cycle) { ++calls; });
    sim.run(5);
    EXPECT_EQ(calls, 5);
}

TEST(Stats, Counter)
{
    stats::Group g("g");
    auto &c = g.counter("x");
    c.inc();
    c.inc(4);
    EXPECT_EQ(g.counter("x").value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, CounterIdentityByName)
{
    stats::Group g("g");
    g.counter("x").inc(3);
    EXPECT_EQ(g.counter("x").value(), 3u);
    EXPECT_EQ(g.counter("y").value(), 0u);
}

TEST(Stats, Average)
{
    stats::Group g("g");
    auto &a = g.average("lat");
    a.sample(10);
    a.sample(21);
    EXPECT_DOUBLE_EQ(a.mean(), 15.5);
    EXPECT_EQ(a.sum(), 31u);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Stats, AverageSumIsExact)
{
    // A double sum would round 2^53 + 1 back down to 2^53.
    constexpr std::uint64_t kBig = std::uint64_t{1} << 53;
    stats::Average a;
    a.sample(kBig);
    a.sample(1);
    const std::uint64_t sum = a.sum();
    EXPECT_EQ(sum, kBig + 1);
    EXPECT_EQ(a.count(), 2u);
}

/** One writer of each stat kind, as one component registers them. */
struct StatWriters
{
    explicit StatWriters(stats::Group &g)
        : counter(g.counter("c")), average(g.average("a")),
          dist(g.distribution("d", {16, 33, 66})), hist(g.histogram("h"))
    {
    }

    stats::Counter &counter;
    stats::Average &average;
    stats::Distribution &dist;
    stats::Histogram &hist;
};

void
sampleFirstBatch(StatWriters &w)
{
    w.counter.inc(3);
    w.average.sample(40);
    w.dist.sample(20);
    w.hist.sample(7);
    w.hist.sample(1000, 2);
}

void
sampleSecondBatch(StatWriters &w)
{
    w.counter.inc();
    w.average.sample(5);
    w.dist.sample(70, 3);
    w.hist.sample(3);
    w.hist.sample(300);
    w.hist.sample(40, 4);
}

/** Expect every read accessor of @p w to read exactly like @p ref. */
void
expectSameReads(const StatWriters &w, const StatWriters &ref)
{
    EXPECT_EQ(w.counter.value(), ref.counter.value());
    EXPECT_EQ(w.average.sum(), ref.average.sum());
    EXPECT_EQ(w.average.count(), ref.average.count());
    EXPECT_EQ(w.average.mean(), ref.average.mean());
    EXPECT_EQ(w.dist.total(), ref.dist.total());
    for (std::size_t i = 0; i < ref.dist.numBins(); ++i) {
        EXPECT_EQ(w.dist.binCount(i), ref.dist.binCount(i)) << "bin " << i;
        EXPECT_EQ(w.dist.binFraction(i), ref.dist.binFraction(i));
    }
    EXPECT_EQ(w.hist.count(), ref.hist.count());
    EXPECT_EQ(w.hist.sum(), ref.hist.sum());
    EXPECT_EQ(w.hist.mean(), ref.hist.mean());
    EXPECT_EQ(w.hist.minValue(), ref.hist.minValue());
    EXPECT_EQ(w.hist.maxValue(), ref.hist.maxValue());
    EXPECT_EQ(w.hist.percentile(0.5), ref.hist.percentile(0.5));
    EXPECT_EQ(w.hist.percentile(0.95), ref.hist.percentile(0.95));
    for (std::size_t i = 0; i < stats::Histogram::kNumBuckets; ++i) {
        EXPECT_EQ(w.hist.bucketCount(i), ref.hist.bucketCount(i))
            << "bucket " << i;
    }
}

TEST(Stats, WritersSumOnRead)
{
    stats::Group single("single");
    StatWriters ref(single);
    sampleFirstBatch(ref);
    sampleSecondBatch(ref);
    ASSERT_EQ(ref.counter.value(), 4u);
    ASSERT_EQ(ref.hist.count(), 9u);
    ASSERT_EQ(ref.hist.minValue(), 3u);
    ASSERT_EQ(ref.hist.maxValue(), 1000u);

    // Three writers of every stat: two split the samples, one stays
    // empty and must not pull minValue() down to 0.
    stats::Group g("g");
    StatWriters first(g);
    StatWriters second(g);
    StatWriters empty(g);
    sampleFirstBatch(first);
    sampleSecondBatch(second);
    ASSERT_NE(&first.counter, &second.counter);
    for (const StatWriters *w : {&first, &second, &empty})
        expectSameReads(*w, ref);
    EXPECT_EQ(g.findCounter("c")->value(), 4u);
    EXPECT_EQ(g.findHistogram("h")->percentile(0.5),
              ref.hist.percentile(0.5));

    g.reset();
    for (const StatWriters *w : {&first, &second, &empty}) {
        EXPECT_EQ(w->counter.value(), 0u);
        EXPECT_EQ(w->average.count(), 0u);
        EXPECT_EQ(w->average.sum(), 0u);
        EXPECT_EQ(w->dist.total(), 0u);
        EXPECT_EQ(w->hist.count(), 0u);
        EXPECT_EQ(w->hist.sum(), 0u);
        EXPECT_EQ(w->hist.minValue(), 0u);
        EXPECT_EQ(w->hist.maxValue(), 0u);
        EXPECT_EQ(w->hist.percentile(0.5), 0.0);
    }
}

TEST(Stats, DistributionPaperBins)
{
    // The Figure-3 binning: [0,16) [16,33) [33,66) [66,99) [99,132)
    // [132,165) and 165+.
    stats::Distribution d({16, 33, 66, 99, 132, 165});
    EXPECT_EQ(d.numBins(), 7u);
    d.sample(0);
    d.sample(15);
    d.sample(16);
    d.sample(32);
    d.sample(33);
    d.sample(164);
    d.sample(165);
    d.sample(1000);
    EXPECT_EQ(d.binCount(0), 2u);
    EXPECT_EQ(d.binCount(1), 2u);
    EXPECT_EQ(d.binCount(2), 1u);
    EXPECT_EQ(d.binCount(5), 1u);
    EXPECT_EQ(d.binCount(6), 2u);
    EXPECT_EQ(d.total(), 8u);
    EXPECT_DOUBLE_EQ(d.binFraction(0), 0.25);
    EXPECT_EQ(d.binLabel(0), "[0,16)");
    EXPECT_EQ(d.binLabel(6), "165+");
}

TEST(Stats, GroupDumpContainsNames)
{
    stats::Group g("net");
    g.counter("flits").inc(2);
    g.average("lat").sample(3.0);
    std::ostringstream os;
    g.dump(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("net.flits 2"), std::string::npos);
    EXPECT_NE(s.find("net.lat"), std::string::npos);
}

TEST(Stats, GroupReset)
{
    stats::Group g("g");
    g.counter("c").inc(5);
    g.average("a").sample(1.0);
    auto &d = g.distribution("d", {10});
    d.sample(3);
    g.reset();
    EXPECT_EQ(g.counter("c").value(), 0u);
    EXPECT_EQ(g.average("a").count(), 0u);
    EXPECT_EQ(d.total(), 0u);
}

TEST(Stats, DistributionWeightedSamples)
{
    stats::Distribution d({10, 20});
    d.sample(5, 3);
    d.sample(15, 2);
    EXPECT_EQ(d.total(), 5u);
    EXPECT_EQ(d.binCount(0), 3u);
    EXPECT_EQ(d.binCount(1), 2u);
    EXPECT_DOUBLE_EQ(d.binFraction(0), 0.6);
}

TEST(Stats, DistributionBadEdgesPanic)
{
    EXPECT_DEATH(stats::Distribution({10, 10}),
                 "strictly increasing");
}

TEST(Channel, ZeroLatencyPanics)
{
    EXPECT_DEATH(Channel<int>(0), "latency must be");
}

TEST(Channel, StressInterleavedPushReceive)
{
    Channel<int> ch(2);
    int received = 0, sent = 0;
    for (Cycle t = 0; t < 1000; ++t) {
        if (t % 3 == 0) {
            ch.push(t, static_cast<int>(t));
            ++sent;
        }
        while (auto v = ch.receive(t)) {
            // FIFO and latency: value pushed at *v arrives at *v + 2.
            EXPECT_EQ(static_cast<Cycle>(*v) + 2, t);
            ++received;
        }
    }
    EXPECT_GT(received, 300);
    EXPECT_EQ(ch.inFlight(), static_cast<std::size_t>(sent - received));
}

} // namespace
} // namespace stacknoc
