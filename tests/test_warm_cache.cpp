/**
 * @file
 * Tests for the shared functional-warmup checkpoints (sim::WarmCache):
 * a cell that restores a checkpoint must produce exactly the RunResult
 * of a cell that walked the warmup itself, for every preset, serially
 * and on a 4-worker pool, and whichever BTB geometry built the
 * checkpoint; a key is walked once however many workers ask for it at
 * the same time; an entry lives no longer than its image and never
 * serves a different image, seed or cache geometry; and a sweep submits
 * one cell per key first.  Part of the exec suites, so the
 * ThreadSanitizer job runs it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "sim/experiment.h"
#include "sim/simulator.h"
#include "sim/system.h"
#include "sim/warm_cache.h"
#include "workload/profiles.h"

namespace dcfb::sim {
namespace {

const std::vector<std::string> kSweepProfiles = {
    "OLTP (DB A)", "Web (Apache)", "Web Frontend"};

RunWindows
shortWindows()
{
    return RunWindows{4000, 6000};
}

void
shortWarm(SystemConfig &cfg)
{
    cfg.functionalWarmInstrs = 60000;
}

/** A small stock-shaped profile, for tests that only construct Systems
 *  (@p vl: the VL-ISA flavour, which turns on DV-LLC). */
workload::WorkloadProfile
smallProfile(bool vl = false)
{
    auto profile = workload::serverProfile("Web (Apache)", vl);
    profile.numFunctions = 24;
    profile.dataFootprint = 1ull << 20;
    return profile;
}

SystemConfig
smallConfig(Preset preset, workload::ProgramRef program, bool vl = false)
{
    SystemConfig cfg = makeConfig(smallProfile(vl), preset);
    cfg.functionalWarmInstrs = 20000;
    cfg.program = std::move(program);
    return cfg;
}

workload::ProgramRef
freshImage(bool vl = false)
{
    return std::make_shared<const workload::Program>(
        workload::buildProgram(smallProfile(vl)));
}

TEST(WarmCache, SharedImageMatchesPrivateImageForEveryPreset)
{
    // Reference: every cell walks its own warmup over a private image.
    std::map<std::pair<std::string, Preset>, RunResult> reference;
    for (const auto &name : kSweepProfiles) {
        for (Preset preset : allPresets()) {
            SystemConfig cfg =
                makeConfig(workload::serverProfile(name), preset);
            shortWarm(cfg);
            reference.emplace(std::make_pair(name, preset),
                              simulate(cfg, shortWindows()));
        }
    }

    auto &warm = WarmCache::global();
    for (unsigned jobs : {1u, 4u}) {
        // Fresh images, so this grid walks (and then restores) every key.
        workload::ImageCache::global().clear();
        std::size_t builds = warm.builds();
        std::size_t hits = warm.hits();
        ExperimentGrid grid(allPresets(), shortWindows(), shortWarm);
        grid.run(kSweepProfiles, jobs);
        for (const auto &name : kSweepProfiles) {
            for (Preset preset : allPresets()) {
                EXPECT_EQ(grid.at(name, preset),
                          reference.at(std::make_pair(name, preset)))
                    << name << "/" << presetName(preset) << " at --jobs "
                    << jobs;
            }
        }
        // One walk per profile; the other 17 presets restore.
        EXPECT_EQ(warm.builds() - builds, kSweepProfiles.size());
        EXPECT_EQ(warm.hits() - hits, kSweepProfiles.size() * 17);
    }
    workload::ImageCache::global().clear();
}

TEST(WarmCache, RestoredCellInternsTheWalksStatisticKeys)
{
    // With no timed cycles, a restored cell must still list the TAGE
    // keys (and, under DV-LLC only, the LLC footprint keys) of the cell
    // that walked: they come from construction, not from the walk.
    for (bool vl : {false, true}) {
        RunResult reference =
            simulate(smallConfig(Preset::Baseline, nullptr, vl), {0, 0});
        ASSERT_EQ(reference.stats.count("tage.tage_predictions"), 1u);
        ASSERT_EQ(reference.stats.count("llc.bf_record_attempts"),
                  vl ? 1u : 0u);
        auto image = freshImage(vl);
        for (int run = 0; run < 2; ++run) { // build, then restore
            EXPECT_EQ(simulate(smallConfig(Preset::Baseline, image, vl),
                               {0, 0}),
                      reference)
                << (vl ? "VL-ISA" : "fixed-length") << " run " << run;
        }
    }
}

TEST(WarmCache, ConcurrentRequestsForOneKeyWalkOnce)
{
    constexpr int kWorkers = 4;
    WarmCache cache;
    SystemConfig cfg = smallConfig(Preset::Baseline, freshImage());
    std::atomic<int> walks{0};
    std::latch start(kWorkers);
    std::vector<std::shared_ptr<const WarmCheckpoint>> got(kWorkers);
    std::vector<std::thread> threads;
    for (int i = 0; i < kWorkers; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            got[i] = cache.get(cfg, [&] {
                           ++walks;
                           // Long enough that every worker arrives
                           // while the walk is still running.
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(100));
                           return WarmCheckpoint();
                       }).state;
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(walks.load(), 1);
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<std::size_t>(kWorkers - 1));
    for (const auto &state : got)
        EXPECT_EQ(state, got[0]);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(WarmCache, EntriesDieWithTheirImage)
{
    auto &warm = WarmCache::global();
    workload::ImageCache::global().clear();
    ASSERT_EQ(warm.entries(), 0u);
    {
        auto profile = smallProfile();
        std::vector<SystemConfig> configs;
        for (Preset preset : {Preset::Baseline, Preset::NL, Preset::Fdip})
            configs.push_back(smallConfig(
                preset, workload::ImageCache::global().get(profile)));
        for (const auto &cfg : configs)
            System system(cfg);
        EXPECT_EQ(warm.entries(), 1u);
        workload::ImageCache::global().clear();
        EXPECT_EQ(warm.entries(), 1u); // the configs still own the image
    }
    EXPECT_EQ(warm.entries(), 0u);
}

TEST(WarmCache, RebuiltImageNeverHitsStaleEntry)
{
    auto &warm = WarmCache::global();
    std::size_t builds = warm.builds();
    std::size_t hits = warm.hits();

    const void *freed = nullptr;
    {
        // A second image of the same profile, while the first is alive.
        auto first = freshImage();
        freed = first.get();
        System a(smallConfig(Preset::Baseline, first));
        System b(smallConfig(Preset::Baseline, freshImage()));
        EXPECT_EQ(warm.builds() - builds, 2u);
    }
    // Both images are gone; pruning frees their entries, so the
    // allocator may hand the first one's address to the next build.
    warm.entries();
    auto third = freshImage();
    RecordProperty("address_reused", third.get() == freed ? "yes" : "no");
    System c(smallConfig(Preset::Baseline, third));
    EXPECT_EQ(warm.builds() - builds, 3u);
    EXPECT_EQ(warm.hits() - hits, 0u);
}

TEST(WarmCache, KeySplitsOnSeedNotOnFetchKnobsOrBtbGeometry)
{
    auto &warm = WarmCache::global();
    auto image = freshImage();
    std::size_t builds = warm.builds();
    std::size_t hits = warm.hits();

    System base(smallConfig(Preset::Baseline, image));
    EXPECT_EQ(warm.builds() - builds, 1u);

    // NL turns on the L1i prefetch buffer: not read by the warmup.
    SystemConfig nl = smallConfig(Preset::NL, image);
    ASSERT_TRUE(nl.l1i.usePrefetchBuffer);
    System restored(nl);
    EXPECT_EQ(warm.hits() - hits, 1u);

    SystemConfig seed = smallConfig(Preset::Baseline, image);
    seed.runSeed = 7;
    System other_seed(seed);
    EXPECT_EQ(warm.builds() - builds, 2u);

    // Another BTB geometry restores the rest and replays its own BTB.
    SystemConfig btb = smallConfig(Preset::Baseline, image);
    btb.btbEntries = 4096;
    RunResult replayed = simulate(btb, shortWindows());
    EXPECT_EQ(warm.builds() - builds, 2u);
    EXPECT_EQ(warm.hits() - hits, 2u);
    btb.program = nullptr;
    EXPECT_EQ(replayed, simulate(btb, shortWindows()));
}

TEST(WarmCache, BtbGeometryReplaysWhicheverCellBuilds)
{
    // Confluence's 16 K-entry BTB and Baseline's 2 K-entry one share a
    // key: the builder's BTB goes into the checkpoint, and the other
    // cell replays its own, in either order.
    std::map<Preset, RunResult> reference;
    for (Preset preset : {Preset::Baseline, Preset::Confluence})
        reference.emplace(preset, simulate(smallConfig(preset, nullptr),
                                           shortWindows()));

    auto &warm = WarmCache::global();
    for (auto order : {std::pair{Preset::Confluence, Preset::Baseline},
                       std::pair{Preset::Baseline, Preset::Confluence}}) {
        auto image = freshImage();
        std::size_t builds = warm.builds();
        std::size_t hits = warm.hits();
        for (Preset preset : {order.first, order.second}) {
            EXPECT_EQ(simulate(smallConfig(preset, image), shortWindows()),
                      reference.at(preset))
                << presetName(preset) << " after "
                << presetName(order.first);
        }
        EXPECT_EQ(warm.builds() - builds, 1u);
        EXPECT_EQ(warm.hits() - hits, 1u);
    }
}

TEST(WarmCache, BtbSweepOnOneImageWalksOnce)
{
    // Fig. 18's sweep: the conventional BTB of SN4L+Dis+BTB and the
    // Shotgun tables shrink together, all on one image.
    std::vector<SystemConfig> cells;
    for (unsigned div : {1u, 2u, 4u, 8u}) {
        SystemConfig ours = smallConfig(Preset::SN4LDisBtb, nullptr);
        ours.btbEntries = 2048 / div;
        cells.push_back(ours);
        SystemConfig sg = smallConfig(Preset::Shotgun, nullptr);
        sg.shotgunBtb.ubtbEntries = 1536 / div;
        sg.shotgunBtb.cbtbEntries = std::max(128u / div, 16u);
        sg.shotgunBtb.ribEntries = std::max(512u / div, 32u);
        cells.push_back(sg);
    }
    std::vector<RunResult> reference;
    for (const SystemConfig &cfg : cells)
        reference.push_back(simulate(cfg, shortWindows()));

    auto &warm = WarmCache::global();
    std::size_t builds = warm.builds();
    std::size_t hits = warm.hits();
    auto image = freshImage();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SystemConfig cfg = cells[i];
        cfg.program = image;
        EXPECT_EQ(simulate(cfg, shortWindows()), reference[i])
            << "cell " << i;
    }
    EXPECT_EQ(warm.builds() - builds, 1u);
    EXPECT_EQ(warm.hits() - hits, cells.size() - 1);
}

TEST(WarmCache, LeadersFirstSubmitsOneCellPerKeyFirst)
{
    auto a = freshImage();
    auto b = freshImage();
    SystemConfig other_seed = smallConfig(Preset::Baseline, a);
    other_seed.runSeed = 7;
    std::vector<SystemConfig> cfgs = {
        smallConfig(Preset::Baseline, a),       // 0: leads a
        smallConfig(Preset::Confluence, a),     // 1: a (BTB size no key)
        smallConfig(Preset::Baseline, b),       // 2: leads b
        smallConfig(Preset::NL, b),             // 3: b
        smallConfig(Preset::Baseline, nullptr), // 4: private, own leader
        smallConfig(Preset::Shotgun, a),        // 5: a
        other_seed,                             // 6: leads a at seed 7
    };
    std::vector<const SystemConfig *> ptrs;
    for (const auto &cfg : cfgs)
        ptrs.push_back(&cfg);
    EXPECT_EQ(warmLeadersFirst(ptrs),
              (std::vector<std::size_t>{0, 2, 4, 6, 1, 3, 5}));
    EXPECT_TRUE(warmLeadersFirst({}).empty());
}

} // namespace
} // namespace dcfb::sim
