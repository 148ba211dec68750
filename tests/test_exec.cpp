/**
 * @file
 * Tests for the parallel experiment engine: exec::Pool semantics
 * (bounded queue, exception propagation, drain-on-destruction), the
 * jobs-resolution rules, workload::ImageCache sharing, and -- the
 * contract everything else rests on -- that `--jobs 1` and `--jobs 4`
 * grids produce identical RunResults for every cell of every preset.
 * The parallel grid tests double as the TSan target: CI runs this
 * binary under ThreadSanitizer to prove the concurrency model clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <latch>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/pool.h"
#include "exec/schedule.h"
#include "obs/trace.h"
#include "rt/watchdog.h"
#include "sim/experiment.h"
#include "workload/profiles.h"

namespace dcfb {
namespace {

TEST(Pool, RunsEveryTask)
{
    exec::Pool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
    EXPECT_EQ(pool.tasksRun(), 100u);
    EXPECT_EQ(pool.workers(), 4u);
}

TEST(Pool, DefaultQueueCapacityIsTwiceWorkers)
{
    exec::Pool pool(3);
    EXPECT_EQ(pool.queueCapacity(), 6u);
}

TEST(Pool, BoundedQueueBlocksSubmitter)
{
    exec::Pool pool(1, /*queue_capacity=*/1);

    std::mutex m;
    std::condition_variable cv;
    bool release = false;

    // Occupy the single worker so submitted tasks stay queued.
    pool.submit([&] {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return release; });
    });
    // Give the worker a moment to pick the blocker up, then fill the
    // one queue slot.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.submit([] {});

    // A further submit must block until the worker frees the slot.
    std::atomic<bool> submitted{false};
    std::thread producer([&] {
        pool.submit([] {});
        submitted = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(submitted.load());

    {
        std::unique_lock<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    producer.join();
    EXPECT_TRUE(submitted.load());
    pool.wait();
    EXPECT_EQ(pool.tasksRun(), 3u);
}

TEST(Pool, FirstExceptionRethrownAtBarrier)
{
    exec::Pool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&ran, i] {
            ++ran;
            if (i == 3)
                throw std::runtime_error("cell failure");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // Every task still ran: one bad cell does not cancel its siblings.
    EXPECT_EQ(ran.load(), 8);
    // The barrier cleared the error; the pool remains usable.
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 9);
}

TEST(Pool, LaterExceptionsAreCountedNotLost)
{
    exec::Pool pool(2);
    for (int i = 0; i < 4; ++i)
        pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(pool.exceptionsDropped(), 3u);
}

TEST(Pool, DestructorDrainsPendingWork)
{
    std::atomic<int> count{0};
    {
        exec::Pool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&count] { ++count; });
        // No wait(): shutdown must still complete all submitted work.
    }
    EXPECT_EQ(count.load(), 32);
}

TEST(Pool, BusySecondsAccumulate)
{
    exec::Pool pool(2);
    for (int i = 0; i < 4; ++i) {
        pool.submit([] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        });
    }
    pool.wait();
    EXPECT_GE(pool.busySeconds(), 0.015);
}

TEST(Schedule, ResolveJobsPrecedence)
{
    unsigned saved = exec::defaultJobs();
    exec::setDefaultJobs(3);
    EXPECT_EQ(exec::resolveJobs(), 3u);
    EXPECT_EQ(exec::resolveJobs(2), 2u); // explicit request wins
    exec::setDefaultJobs(0);
    EXPECT_EQ(exec::resolveJobs(), exec::hardwareJobs()); // auto
    exec::setDefaultJobs(saved);
}

TEST(Schedule, ParallelForMatchesSerialLoop)
{
    std::vector<int> serial(64), parallel(64);
    for (std::size_t i = 0; i < serial.size(); ++i)
        serial[i] = static_cast<int>(i * i + 1);
    exec::parallelFor(parallel.size(), 4, [&](std::size_t i) {
        parallel[i] = static_cast<int>(i * i + 1);
    });
    EXPECT_EQ(parallel, serial);
}

TEST(Schedule, RunIndexedReportsCellsAndOccupancy)
{
    auto report = exec::runIndexed(
        "unit", 6, 2,
        [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        },
        [](std::size_t i) { return "cell-" + std::to_string(i); });
    EXPECT_EQ(report.label, "unit");
    EXPECT_EQ(report.jobs, 2u);
    EXPECT_EQ(report.cells, 6u);
    ASSERT_EQ(report.cellTimes.size(), 6u);
    EXPECT_EQ(report.cellTimes[5].label, "cell-5");
    EXPECT_GT(report.cellTimes[0].seconds, 0.0);
    EXPECT_GT(report.wallSeconds, 0.0);
    EXPECT_GT(report.occupancy(), 0.0);
    EXPECT_LE(report.occupancy(), 1.0 + 1e-9);
}

TEST(Schedule, RunIndexedOrderKeepsReportIndexedByCell)
{
    // Submitted last-first to two workers: the first two cells to start
    // hold each other at a latch, so cells 3 and 2 start before 1 and 0
    // whatever the thread timing.  Cell i sleeps i + 1 ms, and its time
    // and label still land in its own slot.
    const std::vector<std::size_t> reversed{3, 2, 1, 0};
    std::mutex mutex;
    std::vector<std::size_t> started;
    std::latch first_two(2);
    auto report = exec::runIndexed(
        "ordered", 4, 2,
        [&](std::size_t i) {
            bool early = false;
            {
                std::lock_guard<std::mutex> lock(mutex);
                started.push_back(i);
                early = started.size() <= 2;
            }
            if (early)
                first_two.arrive_and_wait();
            std::this_thread::sleep_for(std::chrono::milliseconds(i + 1));
        },
        [](std::size_t i) { return "cell-" + std::to_string(i); },
        reversed);
    ASSERT_EQ(started.size(), 4u);
    EXPECT_EQ(std::max(started[0], started[1]), 3u);
    EXPECT_EQ(std::min(started[0], started[1]), 2u);
    EXPECT_EQ(std::max(started[2], started[3]), 1u);
    EXPECT_EQ(std::min(started[2], started[3]), 0u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(report.cellTimes[i].label, "cell-" + std::to_string(i));
        EXPECT_GE(report.cellTimes[i].seconds, (i + 1) * 1e-3);
    }

    // One job runs in index order whatever the submission order.
    std::vector<std::size_t> seen;
    exec::runIndexed(
        "serial", 4, 1, [&](std::size_t i) { seen.push_back(i); }, {},
        reversed);
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Schedule, ExecLogDrainsPushedReports)
{
    exec::ExecLog::drain(); // discard whatever earlier tests logged
    exec::ExecReport r;
    r.label = "probe";
    r.jobs = 2;
    exec::ExecLog::push(r);
    auto drained = exec::ExecLog::drain();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].label, "probe");
    EXPECT_TRUE(exec::ExecLog::drain().empty());
}

TEST(ImageCache, SharesOneBuildPerProfile)
{
    workload::ImageCache cache;
    auto a = cache.server("Web (Apache)");
    auto b = cache.server("Web (Apache)");
    EXPECT_EQ(a.get(), b.get()); // the same immutable program
    EXPECT_EQ(cache.built(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // The VL-ISA flavour is a different image, cached separately.
    auto vl = cache.server("Web (Apache)", true);
    EXPECT_NE(vl.get(), a.get());
    EXPECT_EQ(cache.built(), 2u);

    // A tweaked profile must not alias the stock entry.
    auto profile = workload::serverProfile("Web (Apache)");
    profile.numFunctions += 1;
    auto tweaked = cache.get(profile);
    EXPECT_NE(tweaked.get(), a.get());
    EXPECT_EQ(cache.built(), 3u);
}

TEST(ImageCache, SharedProgramsSurviveClear)
{
    workload::ImageCache cache;
    auto a = cache.server("Web Frontend");
    cache.clear();
    EXPECT_GT(a->codeBytes(), 0u); // our ref keeps the image alive
    auto b = cache.server("Web Frontend");
    EXPECT_NE(a.get(), b.get()); // rebuilt after clear
    EXPECT_EQ(a->codeEnd, b->codeEnd); // deterministic build
}

TEST(Watchdog, TripCarriesCellLabel)
{
    rt::Watchdog wd(100);
    wd.setCell("Web (Apache)/SN4L");
    wd.rearm(0, 10, 10);
    EXPECT_FALSE(wd.observe(50, 10, 10).has_value());
    auto err = wd.observe(500, 10, 10);
    ASSERT_TRUE(err.has_value());
    bool found = false;
    for (const auto &kv : err->context)
        found |= kv.first == "cell" && kv.second == "Web (Apache)/SN4L";
    EXPECT_TRUE(found);
}

// -- Grid-level determinism and sharing ---------------------------------

sim::RunWindows
gridWindows()
{
    return sim::RunWindows{10000, 15000};
}

sim::ExperimentGrid::ConfigHook
fastWarmHook()
{
    return [](sim::SystemConfig &cfg) { cfg.functionalWarmInstrs = 150000; };
}

TEST(ParallelGrid, JobsOneMatchesJobsFourAcrossAllPresets)
{
    const std::vector<std::string> workloads = {"Web Frontend"};

    sim::ExperimentGrid serial(sim::allPresets(), gridWindows(),
                               fastWarmHook());
    serial.run(workloads, 1);
    sim::ExperimentGrid parallel(sim::allPresets(), gridWindows(),
                                 fastWarmHook());
    parallel.run(workloads, 4);

    for (const auto &name : workloads) {
        for (auto preset : sim::allPresets()) {
            const auto &a = serial.at(name, preset);
            const auto &b = parallel.at(name, preset);
            // Full structural equality: counters, histograms, identity.
            EXPECT_EQ(a, b) << name << "/" << sim::presetName(preset);
        }
    }
    EXPECT_EQ(serial.execReport().jobs, 1u);
    EXPECT_EQ(parallel.execReport().jobs, 4u);
    EXPECT_EQ(parallel.execReport().cells, sim::allPresets().size());
}

TEST(ParallelGrid, GridReusesCachedImagesAcrossRuns)
{
    auto &cache = workload::ImageCache::global();
    sim::ExperimentGrid first({sim::Preset::Baseline, sim::Preset::SN4L},
                              gridWindows(), fastWarmHook());
    first.run({"Web (Apache)"}, 2);
    std::size_t after_first = cache.built();

    sim::ExperimentGrid second({sim::Preset::Baseline, sim::Preset::SN4L},
                               gridWindows(), fastWarmHook());
    second.run({"Web (Apache)"}, 2);
    // Same profile, same knobs: the second grid built nothing new.
    EXPECT_EQ(cache.built(), after_first);
    EXPECT_EQ(first.at("Web (Apache)", sim::Preset::SN4L),
              second.at("Web (Apache)", sim::Preset::SN4L));
}

/** The tracer merges per-thread run buffers at close in a canonical
 *  (workload, design) order, so the stream written by a parallel grid
 *  must be byte-identical to the serial one.  This is the regression
 *  gate for removing the PR 3 serial-only trace clamp. */
TEST(ParallelGrid, TraceMergeIsJobCountInvariant)
{
    auto tracedGrid = [](const std::string &path, unsigned jobs) {
        ASSERT_TRUE(obs::Tracing::open(path));
        sim::ExperimentGrid grid(
            {sim::Preset::Baseline, sim::Preset::NL, sim::Preset::SN4L,
             sim::Preset::SN4LDisBtb},
            gridWindows(), fastWarmHook());
        grid.run({"Web Frontend", "Web (Apache)"}, jobs);
        obs::Tracing::close();
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    };

    const std::string serial_path = "trace_merge_serial.jsonl";
    const std::string parallel_path = "trace_merge_parallel.jsonl";
    tracedGrid(serial_path, 1);
    tracedGrid(parallel_path, 4);

    std::string serial = slurp(serial_path);
    std::string parallel = slurp(parallel_path);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
}

/** The TSan workhorse: several workers simulating concurrently, every
 *  cell of one workload sharing one immutable image. */
TEST(ParallelGrid, ParallelRunIsRaceFree)
{
    sim::ExperimentGrid grid(
        {sim::Preset::Baseline, sim::Preset::SN4L, sim::Preset::SN4LDisBtb,
         sim::Preset::Shotgun},
        gridWindows(), fastWarmHook());
    grid.run({"Web Frontend", "Web (Apache)"}, 4);
    EXPECT_GT(grid.at("Web Frontend", sim::Preset::Baseline).ipc(), 0.0);
    EXPECT_EQ(grid.execReport().cells, 8u);
    EXPECT_GT(grid.execReport().occupancy(), 0.0);
}

} // namespace
} // namespace dcfb
