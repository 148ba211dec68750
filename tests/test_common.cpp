/**
 * @file
 * Unit and property tests for the common layer: address helpers, RNG,
 * bounded queue, saturating counters, stat sets.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/queue.h"
#include "common/rng.h"
#include "common/sat_counter.h"
#include "common/stats.h"
#include "common/types.h"

namespace dcfb {
namespace {

TEST(Types, BlockAlignment)
{
    EXPECT_EQ(blockAlign(0x1000), 0x1000u);
    EXPECT_EQ(blockAlign(0x103f), 0x1000u);
    EXPECT_EQ(blockAlign(0x1040), 0x1040u);
    EXPECT_EQ(blockNumber(0x1040), 0x41u);
    EXPECT_EQ(blockOffset(0x107b), 0x3bu);
}

TEST(Types, InstrSlot)
{
    EXPECT_EQ(instrSlot(0x1000), 0u);
    EXPECT_EQ(instrSlot(0x1004), 1u);
    EXPECT_EQ(instrSlot(0x103c), 15u);
}

TEST(Types, SameBlock)
{
    EXPECT_TRUE(sameBlock(0x1000, 0x103f));
    EXPECT_FALSE(sameBlock(0x103f, 0x1040));
}

TEST(Types, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
}

TEST(Types, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(65));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all values hit
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ZipfSkewBiasesTowardZero)
{
    Rng rng(17);
    std::uint64_t low_skewed = 0, low_flat = 0;
    for (int i = 0; i < 20000; ++i) {
        low_skewed += rng.zipf(100, 0.9) < 10;
        low_flat += rng.zipf(100, 0.0) < 10;
    }
    EXPECT_GT(low_skewed, low_flat * 2);
}

TEST(Rng, ZipfStaysInRange)
{
    Rng rng(19);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(rng.zipf(37, 0.7), 37u);
}

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    EXPECT_EQ(q.front(), 1);
    q.pop();
    EXPECT_EQ(q.front(), 2);
}

TEST(BoundedQueue, RejectsWhenFull)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(3));
    EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, ReusableAfterDrain)
{
    BoundedQueue<int> q(2);
    q.push(1);
    q.push(2);
    q.pop();
    q.pop();
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.push(5));
    EXPECT_EQ(q.front(), 5);
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2);
    for (int i = 0; i < 10; ++i)
        c.up();
    EXPECT_EQ(c.raw(), 3u);
    EXPECT_TRUE(c.taken());
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.down();
    EXPECT_EQ(c.raw(), 0u);
    EXPECT_FALSE(c.taken());
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, WeakDetection)
{
    SatCounter c(3, 4); // 3-bit, mid = 4
    EXPECT_TRUE(c.weak());
    c.set(3);
    EXPECT_TRUE(c.weak());
    c.set(7);
    EXPECT_FALSE(c.weak());
}

TEST(SatCounter, TakenThreshold)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.taken());
    c.up();
    EXPECT_TRUE(c.taken());
}

TEST(StatSet, AddAndGet)
{
    StatSet s;
    obs::Counter hits = s.counter("hits");
    hits.add();
    hits.add(4);
    EXPECT_EQ(s.get("hits"), 5u);
    EXPECT_EQ(s.get("absent"), 0u);
}

TEST(StatSet, Ratio)
{
    StatSet s;
    s.counter("hits").add(3);
    s.counter("accesses").add(4);
    EXPECT_DOUBLE_EQ(s.ratio("hits", "accesses"), 0.75);
    EXPECT_DOUBLE_EQ(s.ratio("hits", "absent"), 0.0);
}

TEST(StatSet, ResetZeroesEverything)
{
    StatSet s;
    s.counter("a").add(10);
    obs::Counter b = s.counter("b");
    b.add(20);
    s.reset();
    EXPECT_EQ(s.get("a"), 0u);
    EXPECT_EQ(s.get("b"), 0u);
    EXPECT_EQ(s.all().size(), 2u); // names survive reset
    b.add();
    EXPECT_EQ(s.get("b"), 1u); // a bound handle keeps its slot
}

TEST(StatSet, DumpContainsNames)
{
    StatSet s;
    s.counter("cycles").add(123);
    EXPECT_NE(s.dump().find("cycles = 123"), std::string::npos);
}

} // namespace
} // namespace dcfb
