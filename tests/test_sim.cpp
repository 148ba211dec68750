/**
 * @file
 * Integration tests for the simulator: end-to-end runs of every preset,
 * ordering sanity (prefetchers reduce frontend stalls; perfect frontend
 * dominates), decoupled-engine behaviour (FTQ/empty-FTQ stalls, Shotgun
 * footprint misses), determinism, and metric identities.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "workload/profiles.h"

namespace dcfb::sim {
namespace {

/** Small fast windows for integration testing. */
RunWindows
fastWindows()
{
    return RunWindows{40000, 60000};
}

workload::WorkloadProfile
testProfile()
{
    auto p = workload::serverProfile("Web (Apache)");
    return p;
}

SystemConfig
fastConfig(Preset preset)
{
    SystemConfig cfg = makeConfig(testProfile(), preset);
    cfg.functionalWarmInstrs = 400000;
    return cfg;
}

/** One cached baseline for the ordering tests. */
const RunResult &
baselineRun()
{
    static RunResult res =
        simulate(fastConfig(Preset::Baseline), fastWindows());
    return res;
}

TEST(Simulator, BaselineProducesSaneIpc)
{
    const auto &res = baselineRun();
    EXPECT_GT(res.ipc(), 0.2);
    EXPECT_LT(res.ipc(), 3.0);
    EXPECT_GT(res.instructions, 10000u);
    // Stat identity: hits + misses = accesses.
    EXPECT_EQ(res.stat("l1i.l1i_hits") + res.stat("l1i.l1i_misses"),
              res.stat("l1i.l1i_accesses"));
    // Miss classes partition misses.
    EXPECT_EQ(res.stat("l1i.l1i_seq_misses") +
                  res.stat("l1i.l1i_disc_misses"),
              res.stat("l1i.l1i_misses"));
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto a = simulate(fastConfig(Preset::SN4L), fastWindows());
    auto b = simulate(fastConfig(Preset::SN4L), fastWindows());
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stat("l1i.l1i_misses"), b.stat("l1i.l1i_misses"));
}

TEST(Simulator, DifferentSeedsDiffer)
{
    auto cfg = fastConfig(Preset::Baseline);
    cfg.runSeed = 1234;
    auto a = simulate(cfg, fastWindows());
    EXPECT_NE(a.instructions, baselineRun().instructions);
}

TEST(Simulator, PrefetchingImprovesOverBaseline)
{
    auto sn4l = simulate(fastConfig(Preset::SN4L), fastWindows());
    EXPECT_GT(speedup(sn4l, baselineRun()), 1.02);
    EXPECT_LT(sn4l.stat("l1i.l1i_misses"),
              baselineRun().stat("l1i.l1i_misses"));
    EXPECT_GT(fscr(sn4l, baselineRun()), 0.05);
}

TEST(Simulator, FullProposalBeatsSn4lAlone)
{
    auto sn4l = simulate(fastConfig(Preset::SN4L), fastWindows());
    auto full = simulate(fastConfig(Preset::SN4LDisBtb), fastWindows());
    EXPECT_GE(speedup(full, baselineRun()),
              speedup(sn4l, baselineRun()) * 0.99);
}

TEST(Simulator, SelectivityBeatsPlainN4lOnAccuracy)
{
    auto n4l = simulate(fastConfig(Preset::N4LPlain), fastWindows());
    auto sn4l = simulate(fastConfig(Preset::SN4L), fastWindows());
    double n4l_acc = n4l.ratio("l1i.pf_useful", "l1i.pf_issued");
    double sn4l_acc = sn4l.ratio("l1i.pf_useful", "l1i.pf_issued");
    EXPECT_GT(sn4l_acc, n4l_acc);
}

TEST(Simulator, PerfectL1iEliminatesInstructionMisses)
{
    auto perfect = simulate(fastConfig(Preset::PerfectL1i), fastWindows());
    EXPECT_EQ(perfect.stat("l1i.l1i_misses"), 0u);
    EXPECT_GT(speedup(perfect, baselineRun()), 1.1);
}

TEST(Simulator, PerfectBtbAddsOnTopOfPerfectL1i)
{
    auto p1 = simulate(fastConfig(Preset::PerfectL1i), fastWindows());
    auto p2 = simulate(fastConfig(Preset::PerfectL1iBtb), fastWindows());
    EXPECT_GE(p2.ipc(), p1.ipc());
    EXPECT_EQ(p2.stat("fe.fe_btb_redirects"), 0u);
}

TEST(Simulator, NxlDepthIncreasesBandwidth)
{
    auto nl = simulate(fastConfig(Preset::NL), fastWindows());
    auto n8 = simulate(fastConfig(Preset::N8L), fastWindows());
    EXPECT_GT(n8.stat("l1i.l1i_external_requests"),
              nl.stat("l1i.l1i_external_requests"));
}

TEST(Simulator, ConfluenceUsesBigBtbAndPrefetches)
{
    auto conf = simulate(fastConfig(Preset::Confluence), fastWindows());
    EXPECT_GT(conf.stat("pf.shift_issued"), 0u);
    EXPECT_GT(speedup(conf, baselineRun()), 1.0);
}

TEST(Simulator, BoomerangRunsAndPrefetches)
{
    auto boom = simulate(fastConfig(Preset::Boomerang), fastWindows());
    EXPECT_GT(boom.ipc(), 0.2);
    EXPECT_GT(boom.stat("fe.ftq_pushes"), 1000u);
    EXPECT_GT(boom.stat("l1i.pf_issued"), 0u);
}

TEST(Simulator, ShotgunRunsWithFootprints)
{
    auto sg = simulate(fastConfig(Preset::Shotgun), fastWindows());
    EXPECT_GT(sg.ipc(), 0.2);
    EXPECT_GT(sg.stat("sg.ubtb_lookups"), 0u);
    EXPECT_GT(sg.stat("fe.sg_footprint_prefetches"), 0u);
    // Footprint misses exist but are not universal (Fig. 1: 4-31 %).
    double fp_miss = sg.ratio("sg.ubtb_footprint_misses",
                              "sg.ubtb_lookups");
    EXPECT_GT(fp_miss, 0.0);
    EXPECT_LT(fp_miss, 0.9);
}

TEST(Simulator, ShotgunEmptyFtqStallsExist)
{
    auto sg = simulate(fastConfig(Preset::Shotgun), fastWindows());
    EXPECT_GT(sg.stat("fe.fe_empty_ftq_stall_cycles"), 0u);
}

TEST(Simulator, CmalWithinUnitInterval)
{
    auto sn4l = simulate(fastConfig(Preset::SN4L), fastWindows());
    double c = sn4l.cmal();
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    EXPECT_GT(c, 0.3); // SN4L is a timely prefetcher
}

TEST(Simulator, ProposalReducesFrontendStallsMost)
{
    auto full = simulate(fastConfig(Preset::SN4LDisBtb), fastWindows());
    auto nl = simulate(fastConfig(Preset::NL), fastWindows());
    EXPECT_GT(fscr(full, baselineRun()), fscr(nl, baselineRun()));
}

TEST(Simulator, ZeroMeasureWindowCountsNothing)
{
    // Every reported stat set is reset at the warm/measure boundary, so
    // an empty measure window reports nothing the warm window counted.
    auto program = workload::ImageCache::global().get(testProfile());
    for (Preset preset : allPresets()) {
        SystemConfig cfg = makeConfig(testProfile(), preset);
        cfg.program = program;
        cfg.functionalWarmInstrs = 40000;
        RunResult res = simulate(cfg, RunWindows{20000, 0});
        EXPECT_EQ(res.instructions, 0u) << presetName(preset);
        for (const auto &[key, value] : res.stats)
            EXPECT_EQ(value, 0u) << presetName(preset) << ": " << key;
        EXPECT_TRUE(res.hists.empty()) << presetName(preset);
    }
}

TEST(Simulator, KeySetDoesNotDependOnWindows)
{
    // Components register every counter at construction, so which keys
    // a RunResult lists is fixed by the design, not by what fired.
    auto keys = [](const RunResult &res) {
        std::set<std::string> out;
        for (const auto &kv : res.stats)
            out.insert(kv.first);
        return out;
    };
    auto program = workload::ImageCache::global().get(testProfile());
    for (Preset preset : allPresets()) {
        SystemConfig cfg = makeConfig(testProfile(), preset);
        cfg.program = program;
        cfg.functionalWarmInstrs = 40000;
        RunResult idle = simulate(cfg, RunWindows{0, 0});
        RunResult timed = simulate(cfg, RunWindows{5000, 20000});
        EXPECT_EQ(keys(idle), keys(timed)) << presetName(preset);
    }
}

TEST(Experiment, GridRunsSubset)
{
    ExperimentGrid grid({Preset::Baseline, Preset::SN4L},
                        RunWindows{20000, 30000});
    grid.run({"Web Frontend"});
    const auto &b = grid.at("Web Frontend", Preset::Baseline);
    const auto &s = grid.at("Web Frontend", Preset::SN4L);
    EXPECT_GT(b.ipc(), 0.0);
    EXPECT_GE(grid.gmeanSpeedup(Preset::SN4L, Preset::Baseline), 0.9);
    EXPECT_GT(grid.mean(Preset::SN4L,
                        [](const RunResult &r) { return r.ipc(); }),
              0.0);
    (void)s;
}

TEST(Report, TableRendersAligned)
{
    Table t({"a", "bbb"});
    t.addRow({"x", "y"});
    std::string out = t.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(Table::pct(0.1234), "12.3%");
    EXPECT_EQ(Table::num(1.5, 1), "1.5");
}

TEST(Config, PresetNamesUnique)
{
    std::set<std::string> names;
    for (Preset preset : allPresets())
        EXPECT_TRUE(names.insert(presetName(preset)).second)
            << presetName(preset);
    EXPECT_EQ(names.size(), static_cast<std::size_t>(Preset::MicroBtb) + 1);
}

TEST(Config, VlProfileEnablesDvLlc)
{
    auto p = workload::serverProfile("Web Frontend", true);
    auto cfg = makeConfig(p, Preset::SN4LDisBtb);
    EXPECT_TRUE(cfg.llc.dvllc);
    EXPECT_TRUE(cfg.l1i.fetchFootprints);
    EXPECT_TRUE(cfg.sn4l.disTable.byteOffsets);
}

} // namespace
} // namespace dcfb::sim
