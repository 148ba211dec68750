/**
 * @file
 * Diagnostic example: run one (workload, design) pair and dump every
 * counter the simulator collects.  Useful for understanding where
 * cycles go and how the prefetcher behaves.
 *
 * Usage: inspect_run [workload] [design]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/simulator.h"
#include "workload/profiles.h"

int
main(int argc, char **argv)
{
    using namespace dcfb;

    std::string name = argc > 1 ? argv[1] : "Web (Apache)";
    std::string design = argc > 2 ? argv[2] : "SN4L+Dis+BTB";

    const auto presets = sim::allPresets();
    auto found = std::find_if(presets.begin(), presets.end(),
                              [&](sim::Preset p) {
                                  return sim::presetName(p) == design;
                              });
    if (found == presets.end()) {
        std::fprintf(stderr, "inspect_run: unknown design '%s'; valid:",
                     design.c_str());
        for (sim::Preset p : presets)
            std::fprintf(stderr, " '%s'", sim::presetName(p).c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }
    sim::Preset preset = *found;

    auto profile = workload::serverProfile(name);
    sim::RunWindows windows;
    if (argc > 4) {
        windows.warm = static_cast<dcfb::Cycle>(std::atoll(argv[3]));
        windows.measure = static_cast<dcfb::Cycle>(std::atoll(argv[4]));
    }
    auto res = sim::simulate(sim::makeConfig(profile, preset), windows);

    std::printf("workload=%s design=%s cycles=%llu instrs=%llu ipc=%.3f\n",
                res.workload.c_str(), res.design.c_str(),
                static_cast<unsigned long long>(res.cycles),
                static_cast<unsigned long long>(res.instructions),
                res.ipc());
    for (const auto &kv : res.stats) {
        std::printf("  %-40s %llu\n", kv.first.c_str(),
                    static_cast<unsigned long long>(kv.second));
    }
    return 0;
}
