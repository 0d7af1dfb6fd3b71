/**
 * @file
 * Unit tests for the simulation kernel: rings, channels, simulator,
 * statistics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "sim/channel.hh"
#include "sim/ring.hh"
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

TEST(Ring, FifoOrderAcrossManyWraparounds)
{
    Ring<int> r;
    r.reserve(4);
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 1000; ++round) {
        const int burst = 1 + round % 4;
        for (int i = 0; i < burst && r.size() < 4; ++i)
            r.push_back(next_in++);
        while (r.size() > static_cast<std::size_t>(round % 3)) {
            ASSERT_EQ(r.front(), next_out++);
            r.pop_front();
        }
    }
    while (!r.empty()) {
        ASSERT_EQ(r.front(), next_out++);
        r.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
    EXPECT_EQ(r.capacity(), 4u);
}

TEST(Ring, GrowthWithHeadMidBlockKeepsOrder)
{
    Ring<int> r;
    r.reserve(4);
    for (int i = 0; i < 4; ++i)
        r.push_back(i);
    r.pop_front();
    r.pop_front();
    r.push_back(4);
    r.push_back(5); // full, head at slot 2: the next push grows
    ASSERT_EQ(r.capacity(), 4u);
    r.push_back(6);
    EXPECT_EQ(r.capacity(), 8u);
    ASSERT_EQ(r.size(), 5u);
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], static_cast<int>(i) + 2);
    EXPECT_EQ(r.back(), 6);
}

TEST(Ring, RotatingAFullRingKeepsTheValue)
{
    Ring<std::shared_ptr<int>> r;
    r.reserve(2);
    r.push_back(std::make_shared<int>(1));
    r.push_back(std::make_shared<int>(2));
    // Regrows while the argument still lives in the old block.
    r.push_back(std::move(r.front()));
    r.pop_front();
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(*r[0], 2);
    ASSERT_NE(r[1], nullptr);
    EXPECT_EQ(*r[1], 1);
}

TEST(Ring, PopFrontReleasesTheHeldValue)
{
    Ring<std::shared_ptr<int>> r;
    auto held = std::make_shared<int>(7);
    r.emplace_back(held);
    r.push_back(std::make_shared<int>(8));
    EXPECT_EQ(held.use_count(), 2);
    r.pop_front();
    EXPECT_EQ(held.use_count(), 1);
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(Ring, IterationIsOldestFirstAfterAWrap)
{
    Ring<int> r;
    r.reserve(4);
    for (int i = 0; i < 3; ++i)
        r.push_back(i);
    r.pop_front();
    r.pop_front();
    for (int i = 3; i < 6; ++i)
        r.push_back(i); // slots 3, 0, 1: the ring wraps
    EXPECT_EQ(r.capacity(), 4u);
    const std::vector<int> seen(r.begin(), r.end());
    EXPECT_EQ(seen, (std::vector<int>{2, 3, 4, 5}));
}

TEST(Ring, ReservedRingNeverRegrowsWithinItsBound)
{
    for (const std::size_t n : {1u, 3u, 5u, 8u}) {
        Ring<int> r;
        r.reserve(n);
        const std::size_t cap = r.capacity();
        EXPECT_GE(cap, n);
        for (std::size_t i = 0; i < n; ++i)
            r.push_back(static_cast<int>(i));
        for (int cycle = 0; cycle < 500; ++cycle) {
            const std::size_t pops = 1 + static_cast<std::size_t>(cycle) % n;
            for (std::size_t i = 0; i < pops; ++i)
                r.pop_front();
            while (r.size() < n)
                r.push_back(cycle);
            ASSERT_EQ(r.capacity(), cap) << "n=" << n;
        }
    }
}

TEST(Ring, MovedFromRingIsEmptyAndUsable)
{
    Ring<int> a;
    a.push_back(1);
    a.push_back(2);
    Ring<int> b(std::move(a));
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.capacity(), 0u);
    a.push_back(3);
    EXPECT_EQ(a.front(), 3);
    b = std::move(a);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b.front(), 3);
    EXPECT_TRUE(a.empty());
}

#ifdef _GLIBCXX_ASSERTIONS
TEST(Ring, CheckedPreconditionsPanic)
{
    EXPECT_DEATH(Ring<int>().pop_front(), "Ring::pop_front");
    EXPECT_DEATH(Ring<int>().front(), "Ring::front");
    EXPECT_DEATH(Ring<int>().back(), "Ring::back");
    Ring<int> r;
    r.push_back(1);
    EXPECT_DEATH((void)r[1], "Ring::operator\\[\\]");
}
#endif

TEST(Channel, OrderSurvivesQueueWrap)
{
    Channel<int> ch(2);
    int next_in = 0, next_out = 0;
    for (Cycle t = 0; t < 400; ++t) {
        // Two pushes then one receive per cycle for a while (the queue
        // grows), then drain with one push per cycle: the live queue
        // wraps its block many times.
        const int pushes = t < 100 ? 2 : (t < 300 ? 1 : 0);
        for (int i = 0; i < pushes; ++i)
            ch.push(t, next_in++);
        std::vector<int> flight;
        ch.forEachInFlight([&](int v) { flight.push_back(v); });
        ASSERT_EQ(flight.size(), ch.inFlight());
        for (std::size_t i = 0; i < flight.size(); ++i)
            ASSERT_EQ(flight[i], next_out + static_cast<int>(i));
        if (auto v = ch.receive(t)) {
            ASSERT_EQ(*v, next_out++);
        }
    }
    while (auto v = ch.receive(1000))
        ASSERT_EQ(*v, next_out++);
    EXPECT_EQ(next_out, next_in);
    EXPECT_EQ(ch.inFlight(), 0u);
}

} // namespace
} // namespace stacknoc
