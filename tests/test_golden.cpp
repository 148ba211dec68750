/**
 * @file
 * Golden-result regression suite: re-simulates every cell pinned in
 * `golden_cells.h` and asserts the result is *bit-identical* to the
 * RunResult JSON committed under `tests/golden/`.
 *
 * This is the license for hot-path optimization of the simulator core:
 * any change that flips one counter, adds or removes a stats key, or
 * perturbs a histogram in any cell fails here.  Intentional result
 * changes must regenerate the corpus with `scripts/update_golden.py`
 * (which refuses to run over a dirty git tree) and commit the diff.
 *
 * Comparison is on the serialized form (`sim::toJson(...).dump(2)`),
 * the exact bytes the generator wrote: this covers every counter key,
 * every histogram bucket, and the serialization itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "golden_cells.h"
#include "sim/report.h"
#include "sim/warm_cache.h"

#ifndef DCFB_GOLDEN_DIR
#error "DCFB_GOLDEN_DIR must point at the committed corpus directory"
#endif

namespace dcfb {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in.is_open())
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class GoldenCell : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GoldenCell, ReproducesCommittedResultBitForBit)
{
    const golden::Cell cell = golden::cells()[GetParam()];
    const std::string path =
        std::string(DCFB_GOLDEN_DIR) + "/" + golden::fileName(cell);

    std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing golden file " << path
        << " -- run scripts/update_golden.py";

    sim::RunResult result =
        sim::simulate(golden::config(cell), golden::windows());
    std::string actual = sim::toJson(result).dump(2) + "\n";

    if (actual != expected) {
        // The full documents are large; point at the first divergence so
        // the failure names the counter, not just "differs".
        std::size_t at = 0;
        while (at < actual.size() && at < expected.size() &&
               actual[at] == expected[at]) {
            ++at;
        }
        std::size_t from = at > 120 ? at - 120 : 0;
        FAIL() << golden::fileName(cell) << " diverges at byte " << at
               << "\n  expected ..."
               << expected.substr(from, 240) << "\n  actual   ..."
               << actual.substr(from, 240);
    }
}

std::string
cellName(const ::testing::TestParamInfo<std::size_t> &info)
{
    std::string file = golden::fileName(golden::cells()[info.param]);
    std::string out;
    for (char c : file.substr(0, file.size() - 5)) // strip ".json"
        out += (c == '-' || c == '.') ? '_' : c;
    return out;
}

// golden::config() leaves cfg.program null, so the cells above always
// walk their own warmup.  Here every cell runs twice through shared
// images, in a shuffled order, so each sharing preset's first run walks
// and captures the warmup checkpoint and its later runs (and the other
// presets of its image) restore it; every run must still reproduce the
// committed bytes.
TEST(GoldenCorpus, SharedImageCheckpoint)
{
    workload::ImageCache images; // fresh images: the first run builds
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < golden::cells().size(); ++i)
        order.insert(order.end(), {i, i});
    std::shuffle(order.begin(), order.end(), std::mt19937(20200530));

    auto &warm = sim::WarmCache::global();
    std::size_t hits = warm.hits();
    for (std::size_t i : order) {
        const golden::Cell cell = golden::cells()[i];
        std::string expected = readFile(std::string(DCFB_GOLDEN_DIR) + "/" +
                                        golden::fileName(cell));
        sim::SystemConfig cfg = golden::config(cell);
        cfg.program = images.get(cfg.profile);
        sim::RunResult result = sim::simulate(cfg, golden::windows());
        EXPECT_TRUE(sim::toJson(result).dump(2) + "\n" == expected)
            << golden::fileName(cell) << " diverges through a shared image";
    }
    EXPECT_GT(warm.hits(), hits); // the restored path actually ran
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenCell,
                         ::testing::Range<std::size_t>(
                             0, golden::cells().size()),
                         cellName);

// The corpus must cover every prefetcher family exactly once per
// (workload, preset, vl) combination -- duplicate cells would silently
// halve coverage because both write the same file.
TEST(GoldenCorpus, CellFileNamesAreUnique)
{
    auto cs = golden::cells();
    for (std::size_t i = 0; i < cs.size(); ++i) {
        for (std::size_t j = i + 1; j < cs.size(); ++j) {
            EXPECT_NE(golden::fileName(cs[i]), golden::fileName(cs[j]))
                << "cells " << i << " and " << j << " collide";
        }
    }
}

} // namespace
} // namespace dcfb
