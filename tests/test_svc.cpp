/**
 * @file
 * Result-cache tests: fingerprint/key stability, result-cache
 * hit/miss/crash-safety behaviour, and the `--cache`-off parity and
 * warm-sweep speedup guarantees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "svc/fingerprint.h"
#include "svc/result_cache.h"
#include "workload/profiles.h"

namespace dcfb {
namespace {

/** Shrink a config so one simulation is fast but non-trivial. */
void
shrink(sim::SystemConfig &cfg)
{
    cfg.profile.numFunctions = 24;
    cfg.profile.dataFootprint = 1ull << 20;
    cfg.functionalWarmInstrs = 40000;
}

sim::SystemConfig
tinyConfig(sim::Preset preset = sim::Preset::Baseline)
{
    sim::SystemConfig cfg =
        sim::makeConfig(workload::serverProfile("Web (Apache)"), preset);
    shrink(cfg);
    return cfg;
}

sim::RunWindows
tinyWindows()
{
    return sim::RunWindows{4000, 6000};
}

/** RAII guard: no process-global result cache leaks across tests. */
struct GlobalCacheGuard
{
    ~GlobalCacheGuard() { svc::ResultCache::closeGlobal(); }
};

/** Result-cache tests: each gets fresh scratch directories under
 *  TMPDIR, removed with their entries when the test ends. */
class SvcResultCache : public ::testing::Test
{
  protected:
    std::string
    scratchDir(const std::string &tag)
    {
        std::string templ =
            ::testing::TempDir() + "dcfb_svc_" + tag + "_XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        const char *made = ::mkdtemp(buf.data());
        EXPECT_NE(made, nullptr);
        dirs.push_back(made ? made : templ);
        return dirs.back();
    }

    void
    TearDown() override
    {
        for (const std::string &dir : dirs)
            std::filesystem::remove_all(dir);
    }

  private:
    std::vector<std::string> dirs;
};

// -- fingerprint ----------------------------------------------------------

TEST(SvcFingerprint, Fnv1aReferenceVectors)
{
    // Standard FNV-1a 64-bit vectors pin the hash function itself.
    EXPECT_EQ(svc::fnv1aHex(""), "cbf29ce484222325");
    EXPECT_EQ(svc::fnv1aHex("a"), "af63dc4c8601ec8c");
    EXPECT_EQ(svc::fnv1aHex("foobar"), "85944171f73967e8");
}

TEST(SvcFingerprint, StableAcrossCalls)
{
    sim::SystemConfig cfg = tinyConfig(sim::Preset::SN4L);
    auto fp1 = svc::fingerprint(cfg, tinyWindows());
    auto fp2 = svc::fingerprint(cfg, tinyWindows());
    EXPECT_EQ(fp1, fp2);
    EXPECT_EQ(svc::cacheKey(cfg, tinyWindows()),
              svc::cacheKey(cfg, tinyWindows()));
    EXPECT_EQ(svc::cacheKey(cfg, tinyWindows()).size(), 16u);
    const obs::JsonValue *schema = fp1.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), svc::kCacheSchema);
}

TEST(SvcFingerprint, ReferenceKeyIsPinned)
{
    // A fingerprint change without a kCacheSchema bump would serve stale
    // entries; a deliberate change (with the bump) updates this value.
    sim::SystemConfig cfg = sim::makeConfig(
        workload::serverProfile("Web Search"), sim::Preset::SN4LDisBtb);
    EXPECT_EQ(svc::cacheKey(cfg, sim::RunWindows{20000, 150000}),
              "685db63b4ed39e35");
}

TEST(SvcFingerprint, EveryResultShapingKnobChangesTheKey)
{
    sim::SystemConfig base = tinyConfig(sim::Preset::SN4L);
    sim::RunWindows w = tinyWindows();
    std::string key = svc::cacheKey(base, w);

    sim::SystemConfig c = base;
    c.preset = sim::Preset::Baseline;
    EXPECT_NE(svc::cacheKey(c, w), key);

    c = base;
    c.runSeed += 1;
    EXPECT_NE(svc::cacheKey(c, w), key);

    c = base;
    c.profile.numFunctions += 1;
    EXPECT_NE(svc::cacheKey(c, w), key);

    c = base;
    c.btbEntries *= 2;
    EXPECT_NE(svc::cacheKey(c, w), key);

    c = base;
    c.faults = rt::parseFaultPlan("drop:rate=0.5,seed=3").value();
    EXPECT_NE(svc::cacheKey(c, w), key);

    sim::RunWindows w2 = w;
    w2.measure += 1;
    EXPECT_NE(svc::cacheKey(base, w2), key);
}

// -- result cache ---------------------------------------------------------

TEST_F(SvcResultCache, MissThenHitRoundTripsExactly)
{
    svc::ResultCache cache(scratchDir("hit"));
    ASSERT_TRUE(cache.open().ok());

    sim::SystemConfig cfg = tinyConfig();
    auto fp = svc::fingerprint(cfg, tinyWindows());
    std::string key = svc::fnv1aHex(fp.dump());

    EXPECT_FALSE(cache.get(key, fp).has_value());
    sim::RunResult result = sim::simulate(cfg, tinyWindows());
    ASSERT_TRUE(cache.put(key, fp, result).ok());

    auto hit = cache.get(key, fp);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, result); // bit-identical counters and histograms

    svc::ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.rejects, 0u);
}

TEST_F(SvcResultCache, CacheOffIsExactlyTheDirectSimulator)
{
    svc::ResultCache::closeGlobal();
    sim::SystemConfig cfg = tinyConfig(sim::Preset::SN4L);
    sim::RunResult direct = sim::simulate(cfg, tinyWindows());
    sim::RunResult routed = svc::simulateCached(cfg, tinyWindows());
    EXPECT_EQ(direct, routed);
    EXPECT_EQ(sim::toJson(direct).dump(), sim::toJson(routed).dump());
}

TEST_F(SvcResultCache, StrayTempFileFromKilledWriterIsIgnored)
{
    svc::ResultCache cache(scratchDir("tmp"));
    ASSERT_TRUE(cache.open().ok());

    sim::SystemConfig cfg = tinyConfig();
    auto fp = svc::fingerprint(cfg, tinyWindows());
    std::string key = svc::fnv1aHex(fp.dump());

    // A writer killed mid-put leaves only the temp file behind; lookups
    // must treat that as a clean miss.
    {
        std::ofstream stray(cache.entryPath(key) + ".tmp.9999");
        stray << "{\"schema\": \"dcfb-cache-v4\", \"trunca";
    }
    EXPECT_FALSE(cache.get(key, fp).has_value());

    sim::RunResult result = sim::simulate(cfg, tinyWindows());
    ASSERT_TRUE(cache.put(key, fp, result).ok());
    auto hit = cache.get(key, fp);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, result);
}

TEST_F(SvcResultCache, CorruptEntryIsRejectedAndRecomputed)
{
    svc::ResultCache cache(scratchDir("corrupt"));
    ASSERT_TRUE(cache.open().ok());

    sim::SystemConfig cfg = tinyConfig();
    auto fp = svc::fingerprint(cfg, tinyWindows());
    std::string key = svc::fnv1aHex(fp.dump());
    sim::RunResult result = sim::simulate(cfg, tinyWindows());
    ASSERT_TRUE(cache.put(key, fp, result).ok());

    // Corrupt the entry on disk (torn write / bit rot).
    {
        std::ofstream out(cache.entryPath(key),
                          std::ios::out | std::ios::trunc);
        out << "{\"schema\": \"dcfb-cache-v4\", this is not json";
    }
    auto load = cache.load(key, fp);
    ASSERT_FALSE(load.ok()); // typed error, not a crash
    EXPECT_EQ(load.error().kind, rt::ErrorKind::Result);

    // get() applies the production policy: reject, unlink, recompute.
    EXPECT_FALSE(cache.get(key, fp).has_value());
    EXPECT_EQ(cache.stats().rejects, 1u);
    std::ifstream gone(cache.entryPath(key));
    EXPECT_FALSE(gone.is_open()) << "rejected entry must be unlinked";

    ASSERT_TRUE(cache.put(key, fp, result).ok());
    auto hit = cache.get(key, fp);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, result);
}

TEST_F(SvcResultCache, TruncatedEntryIsRejected)
{
    svc::ResultCache cache(scratchDir("trunc"));
    ASSERT_TRUE(cache.open().ok());

    sim::SystemConfig cfg = tinyConfig();
    auto fp = svc::fingerprint(cfg, tinyWindows());
    std::string key = svc::fnv1aHex(fp.dump());
    ASSERT_TRUE(cache.put(key, fp, sim::simulate(cfg, tinyWindows())).ok());

    // Chop the entry in half (crash mid-rewrite on a non-atomic fs).
    std::string text;
    {
        std::ifstream in(cache.entryPath(key));
        std::getline(in, text, '\0');
    }
    {
        std::ofstream out(cache.entryPath(key),
                          std::ios::out | std::ios::trunc);
        out << text.substr(0, text.size() / 2);
    }
    EXPECT_FALSE(cache.get(key, fp).has_value());
    EXPECT_EQ(cache.stats().rejects, 1u);
}

TEST_F(SvcResultCache, FingerprintMismatchGuardsAgainstCollisions)
{
    svc::ResultCache cache(scratchDir("collide"));
    ASSERT_TRUE(cache.open().ok());

    sim::SystemConfig a = tinyConfig(sim::Preset::Baseline);
    sim::SystemConfig b = tinyConfig(sim::Preset::SN4L);
    auto fp_a = svc::fingerprint(a, tinyWindows());
    auto fp_b = svc::fingerprint(b, tinyWindows());
    std::string key = svc::fnv1aHex(fp_a.dump());

    // Force a "collision": b's result stored under a's key.
    ASSERT_TRUE(cache.put(key, fp_b, sim::simulate(b, tinyWindows())).ok());
    auto load = cache.load(key, fp_a);
    ASSERT_FALSE(load.ok());
    EXPECT_FALSE(cache.get(key, fp_a).has_value());
    EXPECT_EQ(cache.stats().rejects, 1u);
}

TEST_F(SvcResultCache, WarmGridSweepIsTenTimesFasterAndIdentical)
{
    GlobalCacheGuard guard;
    ASSERT_TRUE(svc::ResultCache::openGlobal(scratchDir("warm")).ok());

    // A fig11-style sweep: one workload, several designs, through the
    // parallel grid runner with the global cache open.
    std::vector<sim::Preset> presets = {
        sim::Preset::Baseline, sim::Preset::NL, sim::Preset::SN4L,
        sim::Preset::SN4LDisBtb};
    std::vector<std::string> workloads = {"Web (Apache)"};
    // Windows long enough that the cold sweep (about 0.1 s) stays far
    // above ten warm ones (0.5-4 ms each, whatever the windows).
    sim::RunWindows windows{80000, 120000};

    auto sweep = [&](sim::ExperimentGrid &grid) {
        auto t0 = std::chrono::steady_clock::now();
        grid.run(workloads);
        auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };

    sim::ExperimentGrid cold(presets, windows, shrink);
    double cold_s = sweep(cold);
    svc::ResultCacheStats after_cold = svc::ResultCache::global()->stats();
    EXPECT_EQ(after_cold.misses, presets.size());
    EXPECT_EQ(after_cold.stores, presets.size());
    EXPECT_EQ(after_cold.hits, 0u);

    // The fastest of three warm sweeps, each served wholly from the
    // cache, so a scheduler stall in one sweep cannot break the ratio.
    double warm_s = 0.0;
    for (std::size_t i = 1; i <= 3; ++i) {
        sim::ExperimentGrid warm(presets, windows, shrink);
        double t = sweep(warm);
        warm_s = i == 1 ? t : std::min(warm_s, t);
        svc::ResultCacheStats after_warm =
            svc::ResultCache::global()->stats();
        EXPECT_EQ(after_warm.hits, i * presets.size());
        EXPECT_EQ(after_warm.misses, after_cold.misses); // no new sims
        for (sim::Preset p : presets)
            EXPECT_EQ(cold.at("Web (Apache)", p), warm.at("Web (Apache)", p));
    }

    EXPECT_GE(cold_s, 10.0 * warm_s)
        << "warm sweep took " << warm_s << "s vs cold " << cold_s << "s";
}

TEST_F(SvcResultCache, StrayTempFilesAreReapedAtOpen)
{
    std::string dir = scratchDir("reap");
    // Two writers killed mid-put left temp files; a finished entry and
    // an unrelated file must survive the sweep.
    { std::ofstream(dir + "/aaaa.json.tmp.101") << "{\"trunc"; }
    { std::ofstream(dir + "/bbbb.json.tmp.102") << "{\"trunc"; }
    { std::ofstream(dir + "/cccc.json") << "{}"; }
    { std::ofstream(dir + "/README") << "not a cache file"; }

    svc::ResultCache cache(dir);
    ASSERT_TRUE(cache.open().ok());
    EXPECT_EQ(cache.stats().tmpReaped, 2u);
    EXPECT_FALSE(std::ifstream(dir + "/aaaa.json.tmp.101").is_open());
    EXPECT_FALSE(std::ifstream(dir + "/bbbb.json.tmp.102").is_open());
    EXPECT_TRUE(std::ifstream(dir + "/cccc.json").is_open());
    EXPECT_TRUE(std::ifstream(dir + "/README").is_open());
}

} // namespace
} // namespace dcfb
