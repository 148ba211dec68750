/**
 * @file
 * The DCFB benchmark binary: times one workload's grid through the
 * public entry points of each layer and prints one JSON report.
 *
 *   dcfb_perfbench --workload grid_serial --seed 42 --seconds 20
 *                  --trace 0 --golden-dir tests/golden --work-dir DIR
 *
 * Layers timed, from the outside in:
 *   workload::ImageCache::get       image builds (set-up)
 *   exec::runIndexed                one pass over the workload's cells
 *   sim::trySimulate                one cell (set-up, warm, measure)
 *   svc::simulateCached             one cell through the result cache
 *
 * With --trace 0 the passes run with every telemetry switch off and
 * give the end-to-end metrics.  With --trace 1 untraced and traced
 * passes alternate; the traced ones switch obs::Profiler on and give
 * the per-layer split plus the tracing overhead.  model.* metrics are
 * simulated counters and repeat exactly for a seed.
 *
 * Each simulated cell is preceded by a run of the host-speed probe
 * (host_probe.h), timed apart from the cell.  The end-to-end timings
 * are scaled to the reference host by the probe's median over the
 * pass; the per-layer timings are left as measured, and
 * host.probe_s gives the probe's median beside them.
 *
 * Correctness, checked outside all timing: every cell returns ok() with
 * cycles == measure window, every pass reproduces the first pass's
 * digest, replayed results equal the stored ones, the parallel grid
 * matches serial re-simulation cell for cell, and the sixteen golden
 * cells reproduce tests/golden/ byte for byte.  Each failed check
 * counts one failed cell.  perfbench/run.py builds this binary, adds
 * provenance and prints the metrics; README.md there has the metric
 * map.
 */

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/schedule.h"
#include "golden_cells.h"
#include "host_probe.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "sim/config.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "svc/fingerprint.h"
#include "svc/result_cache.h"
#include "workload/profiles.h"

namespace {

using namespace dcfb;
namespace fs = std::filesystem;

// -- options -------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false; //!< self-test scale: short windows, one pass
    std::string goldenDir = "tests/golden";
    std::string workDir = ".bench_build/perfbench-work";
};

// -- workloads -----------------------------------------------------------

struct CellSpec
{
    std::string profile;
    bool vl = false;
    sim::Preset preset = sim::Preset::Baseline;
    std::uint64_t runSeed = 42;
};

struct Workload
{
    std::string name;
    std::vector<CellSpec> cells;
    sim::RunWindows windows;
    std::uint64_t functionalWarm = 0; //!< 0: makeConfig's default
    unsigned jobs = 1;
    bool replay = false; //!< cache_replay: passes read svc::ResultCache
    /** Pass time on the reference machine (README.md); sets how many
     *  passes fill --seconds so every run measures the same count. */
    double nominalPassSeconds = 1.0;
    int setupReps = 30;
};

const std::vector<std::string> kSweepProfiles = {
    "OLTP (DB A)", "Web (Apache)", "Web Frontend"};

std::vector<sim::Preset>
allPresets()
{
    std::vector<sim::Preset> out;
    for (int p = 0; p <= static_cast<int>(sim::Preset::MicroBtb); ++p)
        out.push_back(static_cast<sim::Preset>(p));
    return out;
}

/** Metric-name slug of a preset, as in tests/golden file names. */
std::string
slug(const std::string &s)
{
    std::string out;
    bool gap = false;
    for (char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            if (gap && !out.empty())
                out += '_';
            gap = false;
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        } else {
            gap = true;
        }
    }
    return out;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    using sim::Preset;
    const Cycle bench = tiny ? 3000 : 150000;
    Workload w;
    w.name = name;
    if (name == "grid_serial") {
        for (const auto &p : kSweepProfiles)
            for (Preset preset : allPresets())
                w.cells.push_back({p, false, preset, seed});
        w.windows = {bench, bench};
        w.nominalPassSeconds = 9.0;
    } else if (name == "long_window") {
        const std::vector<std::pair<std::string, Preset>> picks = {
            {"Media Streaming", Preset::Baseline},
            {"OLTP (DB A)", Preset::SN4LDisBtb},
            {"OLTP (DB B)", Preset::Shotgun},
            {"Web (Apache)", Preset::Fdip},
            {"Web (Zeus)", Preset::Boomerang},
        };
        std::uint64_t i = 0;
        for (const auto &[profile, preset] : picks)
            w.cells.push_back({profile, false, preset, seed + i++});
        w.cells.push_back({"Web Search", true, Preset::SN4LDisBtb, seed + i});
        w.windows = {bench * 10, bench * 10};
        w.nominalPassSeconds = 5.5;
    } else if (name == "grid_parallel") {
        const std::vector<Preset> presets = {
            Preset::Baseline, Preset::NL,         Preset::SN4LDisBtb,
            Preset::Shotgun,  Preset::Confluence, Preset::Fdip,
            Preset::MicroBtb};
        for (const auto &p : workload::serverWorkloadNames())
            for (Preset preset : presets)
                w.cells.push_back({p, false, preset, seed});
        w.windows = {bench, bench};
        w.jobs = 3;
        w.nominalPassSeconds = 3.3;
    } else if (name == "cache_replay") {
        // Short windows: a RunResult's size, and so the cost of a cache
        // read, does not depend on them, and short cells keep the
        // population cheap enough to repeat for a median set-up time.
        const std::vector<Preset> presets = {
            Preset::Baseline, Preset::NL, Preset::SN4LDisBtb,
            Preset::Shotgun, Preset::Fdip};
        for (const auto &p : kSweepProfiles)
            for (Preset preset : presets)
                w.cells.push_back({p, false, preset, seed});
        w.windows = tiny ? sim::RunWindows{2000, 2000}
                         : sim::RunWindows{10000, 10000};
        w.functionalWarm = 100000;
        w.nominalPassSeconds = 0.0022;
        w.setupReps = 15;
        w.replay = true;
    } else {
        return std::nullopt;
    }
    if (tiny) {
        w.functionalWarm = 20000;
        w.setupReps = 2;
    }
    return w;
}

// -- helpers -------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::in | std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
label(const CellSpec &c)
{
    return c.profile + (c.vl ? " [VL]" : "") + "/" +
        sim::presetName(c.preset);
}

/** The outcome of every check, counted per cell. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    fail(const std::string &what)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
};

/** One pass over the workload's cells.  wall, cpu, busy and
 *  cellSeconds leave out the host-speed probes run between cells. */
struct Pass
{
    double wall = 0.0;
    double cpu = 0.0;
    double busy = 0.0; //!< summed cell time across workers
    std::vector<double> cellSeconds; //!< index order
    std::vector<double> probe; //!< probe time before each cell
    exec::ExecReport exec;
    std::vector<std::optional<sim::RunResult>> results;
    std::vector<std::string> errors; //!< why a result slot is empty
    std::vector<obs::ProfRecord> prof; //!< traced passes only
};

// -- the benchmark -------------------------------------------------------

class Bench
{
  public:
    Bench(Options opts_, Workload w_)
        : opts(std::move(opts_)), w(std::move(w_))
    {
    }

    /** Set up the workload @p reps times; the last set-up is kept. */
    void
    setUp(int reps)
    {
        const bool prof = opts.trace && w.replay; // replay simulates here
        for (int r = 0; r < reps; ++r) {
            double t0 = obs::profNow();
            workload::ImageCache::global().clear();
            std::map<std::string, double> firstGet;
            configs.clear();
            for (const CellSpec &c : w.cells) {
                auto profile = workload::serverProfile(c.profile, c.vl);
                std::string key = workload::profileKey(profile);
                double g0 = obs::profNow();
                auto program = workload::ImageCache::global().get(profile);
                if (!firstGet.count(key))
                    firstGet[key] = obs::profNow() - g0;
                sim::SystemConfig cfg = sim::makeConfig(profile, c.preset);
                cfg.runSeed = c.runSeed;
                if (w.functionalWarm)
                    cfg.functionalWarmInstrs = w.functionalWarm;
                cfg.program = std::move(program);
                configs.push_back(std::move(cfg));
            }
            if (w.replay) {
                obs::Profiler::setEnabled(prof);
                populate(populations++);
                obs::Profiler::setEnabled(false);
                populationProf = obs::Profiler::drain(); // keep the last
            }
            setupTimes.push_back(obs::profNow() - t0);
            double build = 0.0;
            for (const auto &kv : firstGet)
                build += kv.second;
            imageBuildTimes.push_back(build / firstGet.size());
        }
    }

    /** Run the timed passes. */
    void
    run()
    {
        int passes = opts.tiny ? 1
                               : std::max(1, static_cast<int>(std::lround(
                                                 opts.seconds /
                                                 w.nominalPassSeconds)));
        if (opts.trace)
            passes = std::max(2, passes + passes % 2);
        // The set-ups are spread over passes + 1 slots, before each pass
        // and after the last, so setup_s samples the host over the whole
        // run as the passes do, not only its first seconds.
        const int slots = passes + 1;
        auto repsBefore = [&](int slot) {
            return (slot * w.setupReps + slots - 1) / slots;
        };
        double lastProbe = -1.0;
        for (int p = 0; p < passes; ++p) {
            setUp(repsBefore(p + 1) - repsBefore(p));
            if (w.replay && obs::profNow() - lastProbe > 0.05) {
                probes.push_back(perfbench::hostProbe());
                lastProbe = obs::profNow();
            }
            bool traced = opts.trace && p % 2 == 1;
            obs::Profiler::setEnabled(traced);
            Pass pass = runPass();
            obs::Profiler::setEnabled(false);
            if (traced)
                pass.prof = obs::Profiler::drain();
            verifyPass(pass, p);
            pass.results = {}; // verified; only timings are kept
            (traced ? tracedPasses : plainPasses).push_back(std::move(pass));
        }
        setUp(w.setupReps - repsBefore(passes));
    }

    /** One set-up and one pass, unverified: the peak-RSS child. */
    void
    runOnce()
    {
        setUp(1);
        runPass();
    }

    /** Peak RSS of one set-up and pass, measured in a child process. */
    double isolatedRss = 0.0;

    /** Every check that runs outside the timed passes. */
    void
    verify()
    {
        if (isolatedRss <= 0.0)
            checks.fail("peak-RSS child process failed");
        if (w.name == "grid_parallel")
            crossCheckSerial();
        goldenCheck();
    }

    obs::JsonValue report() const;

  private:
    void populate(int rep);
    Pass runPass();
    void verifyPass(const Pass &pass, int index);
    void crossCheckSerial();
    void goldenCheck();
    void addEndToEnd(obs::JsonValue &metrics) const;
    void addPerLayer(obs::JsonValue &metrics) const;
    void addModel(obs::JsonValue &metrics) const;
    double hostFactor(const Pass &pass) const;

    Options opts;
    Workload w;
    std::vector<sim::SystemConfig> configs;
    int populations = 0; //!< cache_replay: result caches populated
    std::vector<double> setupTimes;
    std::vector<double> imageBuildTimes;
    std::vector<double> storeTimes;  //!< per put() of the population
    std::vector<double> lookupTimes; //!< per replayed cell
    std::vector<obs::ProfRecord> populationProf;
    svc::ResultCacheStats replayStats; //!< replay passes only
    svc::ResultCacheStats setupStats;  //!< population only
    std::vector<sim::RunResult> reference; //!< first pass / population
    std::string referenceDigest;
    std::vector<Pass> plainPasses;
    std::vector<Pass> tracedPasses;
    std::vector<double> probes; //!< every host-speed probe of the run
    Checks checks;
};

/** Host seconds per reference-host second while @p pass ran: the
 *  median of its probes, or, for cache_replay, whose cells are too
 *  short to probe one by one, of the probes run between its passes. */
double
Bench::hostFactor(const Pass &pass) const
{
    return perfbench::hostFactor(
        median(pass.probe.empty() ? probes : pass.probe));
}

/** Simulate every cell into a fresh ResultCache (the replay source). */
void
Bench::populate(int rep)
{
    std::string dir = opts.workDir + "/cache-" + std::to_string(rep);
    fs::remove_all(dir);
    if (auto opened = svc::ResultCache::openGlobal(dir); !opened.ok()) {
        checks.fail("cannot open result cache " + dir);
        return;
    }
    svc::ResultCache &cache = *svc::ResultCache::global();
    reference.clear();
    for (const sim::SystemConfig &cfg : configs) {
        ++checks.attempted;
        obs::JsonValue fp = svc::fingerprint(cfg, w.windows);
        std::string key = svc::cacheKey(cfg, w.windows);
        if (cache.get(key, fp))
            checks.fail("fresh cache hit for " + key);
        auto res = sim::trySimulate(cfg, w.windows);
        if (!res.ok()) {
            checks.fail("populate " + cfg.profile.name + ": " +
                        res.error().message);
            reference.emplace_back();
            continue;
        }
        double t0 = obs::profNow();
        auto put = cache.put(key, fp, res.value());
        storeTimes.push_back(obs::profNow() - t0);
        if (!put.ok())
            checks.fail("store " + key + ": " + put.error().message);
        reference.push_back(std::move(res).value());
    }
    setupStats = cache.stats();
}

Pass
Bench::runPass()
{
    Pass pass;
    pass.results.resize(configs.size());
    pass.errors.resize(configs.size());
    if (!w.replay)
        pass.probe.resize(configs.size());
    svc::ResultCache *cache = svc::ResultCache::global();
    if (w.replay && !cache) { // populate() could not open it
        for (auto &e : pass.errors)
            e = "no result cache to replay from";
        return pass;
    }
    svc::ResultCacheStats before;
    if (w.replay)
        before = cache->stats();
    double cpu0 = cpuSeconds();
    double t0 = obs::profNow();
    pass.exec = exec::runIndexed(
        "perfbench." + w.name, configs.size(), w.jobs,
        [&](std::size_t i) {
            if (w.replay) {
                double l0 = obs::profNow();
                try {
                    pass.results[i] =
                        svc::simulateCached(configs[i], w.windows);
                } catch (const std::exception &e) {
                    pass.errors[i] = e.what();
                }
                // Serial (jobs 1), so the vector is not shared.
                lookupTimes.push_back(obs::profNow() - l0);
                return;
            }
            pass.probe[i] = perfbench::hostProbe();
            auto res = sim::trySimulate(configs[i], w.windows);
            if (res.ok())
                pass.results[i] = std::move(res).value();
            else
                pass.errors[i] = res.error().message;
        },
        [&](std::size_t i) { return label(w.cells[i]); });
    pass.wall = obs::profNow() - t0;
    pass.cpu = cpuSeconds() - cpu0;
    // Take the probes out: all of their time from the cells, the CPU
    // time and the busy time, and an even share per worker from the
    // wall (all of it when serial).
    double probed = 0.0;
    for (std::size_t i = 0; i < pass.exec.cellTimes.size(); ++i) {
        double p = i < pass.probe.size() ? pass.probe[i] : 0.0;
        probed += p;
        pass.cellSeconds.push_back(pass.exec.cellTimes[i].seconds - p);
    }
    pass.wall -= probed / w.jobs;
    pass.cpu -= probed;
    pass.busy = pass.exec.busySeconds - probed;
    probes.insert(probes.end(), pass.probe.begin(), pass.probe.end());
    if (w.replay) {
        svc::ResultCacheStats after = cache->stats();
        replayStats.hits += after.hits - before.hits;
        replayStats.misses += after.misses - before.misses;
        replayStats.rejects += after.rejects - before.rejects;
        if (after.misses != before.misses)
            checks.fail("replay pass missed the result cache");
    }
    return pass;
}

std::string
digestOf(const std::vector<sim::RunResult> &results)
{
    std::string all;
    for (const auto &r : results)
        all += sim::toJson(r).dump();
    return svc::fnv1aHex(all);
}

void
Bench::verifyPass(const Pass &pass, int index)
{
    std::vector<sim::RunResult> got;
    for (std::size_t i = 0; i < pass.results.size(); ++i) {
        ++checks.attempted;
        const auto &r = pass.results[i];
        if (!r) {
            checks.fail(label(w.cells[i]) + ": " + pass.errors[i]);
            got.emplace_back();
            continue;
        }
        if (r->cycles != w.windows.measure) {
            checks.fail(label(w.cells[i]) + ": cycles " +
                        std::to_string(r->cycles) + " != measure window");
        }
        if (w.replay && i < reference.size() && !(*r == reference[i]))
            checks.fail(label(w.cells[i]) + ": replay differs from store");
        got.push_back(*r);
    }
    if (index == 0) {
        reference = std::move(got);
        referenceDigest = digestOf(reference);
    } else if (!w.replay) { // replay cells were compared one by one
        std::string digest = digestOf(got);
        if (digest != referenceDigest) {
            checks.fail("pass " + std::to_string(index) + " digest " +
                        digest + " != first pass " + referenceDigest);
        }
    }
}

/** The parallel grid's cells must equal serial re-simulation: every
 *  cell on a sweep profile, which is the grid_serial cell with the same
 *  profile, preset, windows and seed. */
void
Bench::crossCheckSerial()
{
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const CellSpec &c = w.cells[i];
        if (std::find(kSweepProfiles.begin(), kSweepProfiles.end(),
                      c.profile) == kSweepProfiles.end()) {
            continue;
        }
        ++checks.attempted;
        auto res = sim::trySimulate(configs[i], w.windows);
        if (!res.ok() || !(res.value() == reference[i]))
            checks.fail(label(c) + ": parallel != serial");
    }
}

void
Bench::goldenCheck()
{
    for (const golden::Cell &cell : golden::cells()) {
        ++checks.attempted;
        std::string path = opts.goldenDir + "/" + golden::fileName(cell);
        std::string expected = readFile(path);
        auto res = sim::trySimulate(golden::config(cell), golden::windows());
        if (expected.empty() || !res.ok() ||
            sim::toJson(res.value()).dump(2) + "\n" != expected) {
            checks.fail("golden " + golden::fileName(cell));
        }
    }
}

// -- metrics -------------------------------------------------------------

void
put(obs::JsonValue &metrics, const std::string &name, double value,
    const char *unit, std::size_t n)
{
    obs::JsonValue m = obs::JsonValue::object();
    m["value"] = std::isfinite(value) ? value : 0.0;
    m["unit"] = unit;
    m["n"] = static_cast<std::uint64_t>(n);
    metrics[name] = std::move(m);
}

void
Bench::addEndToEnd(obs::JsonValue &m) const
{
    // Every timing in reference-host seconds (host_probe.h).
    std::vector<double> walls, cpus, cells;
    std::vector<std::vector<double>> perCell(w.cells.size());
    double cellWall = 0.0, cycles = 0.0;
    for (const Pass &p : plainPasses) {
        double f = hostFactor(p);
        walls.push_back(p.wall / f);
        cpus.push_back(p.cpu / f);
        for (std::size_t i = 0; i < p.cellSeconds.size(); ++i) {
            double c = p.cellSeconds[i] / f;
            cells.push_back(c);
            cellWall += c;
            perCell[i].push_back(c);
        }
        cycles += static_cast<double>(w.windows.warm + w.windows.measure) *
            static_cast<double>(p.cellSeconds.size());
    }
    double wall = median(walls);
    put(m, "wall_s", wall, "s", walls.size());
    put(m, "cells_per_s", static_cast<double>(w.cells.size()) / wall, "1/s",
        walls.size());
    // The fastest set-up: host interference only ever adds time, and a
    // set-up is short enough that some of them miss it.  Set-ups run
    // between the passes, so the whole run's probes scale it.
    double runFactor = perfbench::hostFactor(median(probes));
    put(m, "setup_s",
        *std::min_element(setupTimes.begin(), setupTimes.end()) / runFactor,
        "s", setupTimes.size());
    put(m, "cpu_s", median(cpus), "s", cpus.size());
    put(m, "sim_cycles_per_s", cycles / cellWall, "1/s", cells.size());
    put(m, "cell_p50_s", median(cells), "s", cells.size());
    // The highest percentile with at least ten cells beyond it, over
    // each cell's median across passes.  The median leaves out host
    // bursts that slow a few cells of a pass; over all runs of all
    // cells the percentile lands inside such bursts (README.md).
    std::vector<double> typical;
    for (const auto &runs : perCell)
        typical.push_back(median(runs));
    std::sort(typical.begin(), typical.end());
    std::size_t n = typical.size();
    put(m, "cell_tail_s", typical[n > 10 ? n - 11 : n - 1], "s", n);
    m["cell_tail_s"]["percentile"] =
        100.0 * static_cast<double>(n > 10 ? n - 10 : n) /
        static_cast<double>(n);
    put(m, "peak_rss_mb", isolatedRss, "MB", 1);
}

/** Profiler records summed over one traced pass. */
struct ProfSums
{
    double setup = 0, warm = 0, measure = 0, cycles = 0;
    obs::PhaseSeconds phases{};

    void
    add(const obs::ProfRecord &r)
    {
        setup += r.setupSeconds;
        warm += r.warmSeconds;
        measure += r.measureSeconds;
        cycles += static_cast<double>(r.cycles);
        for (unsigned i = 0; i < obs::kProfPhases; ++i)
            phases[i] += r.phaseSeconds[i];
    }
};

void
Bench::addPerLayer(obs::JsonValue &m) const
{
    put(m, "workload.image_build_s", median(imageBuildTimes), "s",
        imageBuildTimes.size());

    // Simulator split: the traced passes, or for cache_replay (whose
    // passes do not simulate) the traced population.
    std::vector<std::vector<obs::ProfRecord>> sets;
    for (const Pass &p : tracedPasses)
        if (!p.prof.empty())
            sets.push_back(p.prof);
    if (sets.empty())
        sets.push_back(populationProf);
    std::vector<double> setup, share, warm, measure, ns;
    std::array<std::vector<double>, obs::kProfPhases> phases;
    std::map<std::string, ProfSums> perPreset;
    for (const auto &recs : sets) {
        ProfSums s;
        for (const auto &r : recs) {
            s.add(r);
            perPreset[r.design].add(r);
        }
        setup.push_back(s.setup);
        share.push_back(s.setup / (s.setup + s.warm + s.measure));
        warm.push_back(s.warm);
        measure.push_back(s.measure);
        ns.push_back((s.warm + s.measure) / s.cycles * 1e9);
        for (unsigned i = 0; i < obs::kProfPhases; ++i)
            phases[i].push_back(s.phases[i]);
    }
    std::size_t n = sets.size();
    put(m, "sim.setup_s", median(setup), "s", n);
    put(m, "sim.setup_share", median(share), "ratio", n);
    put(m, "sim.warm_s", median(warm), "s", n);
    put(m, "sim.measure_s", median(measure), "s", n);
    put(m, "sim.step_ns_per_cycle", median(ns), "ns", n);
    const std::pair<obs::ProfPhase, const char *> phaseNames[] = {
        {obs::ProfPhase::Fetch, "step.fetch_s"},
        {obs::ProfPhase::Dispatch, "step.dispatch_s"},
        {obs::ProfPhase::Prefetcher, "step.prefetcher_s"},
        {obs::ProfPhase::L1iTick, "step.l1i_tick_s"},
        {obs::ProfPhase::Backend, "step.backend_s"},
        {obs::ProfPhase::Integrity, "rt.integrity_s"},
    };
    for (const auto &[phase, name] : phaseNames)
        put(m, name, median(phases[static_cast<unsigned>(phase)]), "s", n);
    for (sim::Preset preset : allPresets()) {
        std::string design = sim::presetName(preset);
        auto it = perPreset.find(design);
        double v = it == perPreset.end()
            ? 0.0
            : (it->second.warm + it->second.measure) / it->second.cycles *
                1e9;
        put(m, "step_ns_per_cycle." + slug(design), v, "ns", n);
    }

    std::vector<double> occ, busy, makespan, slowest;
    for (const Pass &p : plainPasses) {
        occ.push_back(p.wall > 0 ? p.busy / (p.wall * w.jobs) : 0.0);
        busy.push_back(p.busy);
        makespan.push_back(p.wall);
        double s = 0.0;
        for (double c : p.cellSeconds)
            s = std::max(s, c);
        slowest.push_back(s);
    }
    n = plainPasses.size();
    put(m, "exec.occupancy", median(occ), "ratio", n);
    put(m, "exec.busy_s", median(busy), "s", n);
    put(m, "exec.makespan_s", median(makespan), "s", n);
    put(m, "exec.slowest_cell_s", median(slowest), "s", n);

    // cache_replay: reads from the replay passes, writes from the
    // population.  The other workloads do not use svc and read 0.
    const svc::ResultCacheStats &reads = replayStats;
    const svc::ResultCacheStats &writes = setupStats;
    double lookups = static_cast<double>(reads.hits + reads.misses);
    put(m, "svc.hits", static_cast<double>(reads.hits), "count", 1);
    put(m, "svc.misses", static_cast<double>(reads.misses), "count", 1);
    put(m, "svc.stores", static_cast<double>(writes.stores), "count", 1);
    put(m, "svc.rejects", static_cast<double>(reads.rejects + writes.rejects),
        "count", 1);
    put(m, "svc.hit_ratio", lookups > 0 ? reads.hits / lookups : 0.0,
        "ratio", 1);
    put(m, "svc.lookup_s", median(lookupTimes), "s", lookupTimes.size());
    put(m, "svc.store_s", median(storeTimes), "s", storeTimes.size());

    // Scaled, as the two kinds of pass alternate through host drift.
    std::vector<double> plain, traced;
    for (const Pass &p : plainPasses)
        plain.push_back(p.wall / hostFactor(p));
    for (const Pass &p : tracedPasses)
        traced.push_back(p.wall / hostFactor(p));
    put(m, "obs.trace_overhead_pct",
        (median(traced) / median(plain) - 1.0) * 100.0, "%",
        traced.size() + plain.size());
    put(m, "host.probe_s", median(probes), "s", probes.size());

    addModel(m);
}

/** Simulated metrics over the first pass's results; 0 where a preset
 *  is not run (or, for speedup, has no same-profile Baseline). */
void
Bench::addModel(obs::JsonValue &m) const
{
    struct Agg
    {
        double instr = 0, l1i = 0, btb = 0, stall = 0, issued = 0,
               useful = 0, logSpeedup = 0;
        int pairs = 0;
    };
    std::map<sim::Preset, Agg> agg;
    std::map<std::pair<std::string, std::uint64_t>, double> baseIpc;
    for (std::size_t i = 0; i < reference.size(); ++i)
        if (w.cells[i].preset == sim::Preset::Baseline)
            baseIpc[{label(w.cells[i]), w.cells[i].runSeed}] =
                reference[i].ipc();
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const sim::RunResult &r = reference[i];
        Agg &a = agg[w.cells[i].preset];
        a.instr += static_cast<double>(r.instructions);
        a.l1i += static_cast<double>(r.stat("l1i.l1i_misses"));
        // Each design's own BTB: conventional, Shotgun U/C/RIB, or
        // Boomerang's basic-block BTB.
        a.btb += static_cast<double>(
            r.stat("btb.btb_misses") + r.stat("sg.ubtb_misses") +
            r.stat("sg.cbtb_misses") + r.stat("sg.rib_misses") +
            r.stat("bb.bbbtb_misses"));
        a.stall += static_cast<double>(r.frontendStalls());
        a.issued += static_cast<double>(r.stat("l1i.pf_issued"));
        a.useful += static_cast<double>(r.stat("l1i.pf_useful"));
        CellSpec base = w.cells[i];
        base.preset = sim::Preset::Baseline;
        auto b = baseIpc.find({label(base), base.runSeed});
        if (b != baseIpc.end() && b->second > 0) {
            a.logSpeedup += std::log(r.ipc() / b->second);
            ++a.pairs;
        }
    }
    for (sim::Preset preset : allPresets()) {
        std::string s = slug(sim::presetName(preset));
        Agg a = agg.count(preset) ? agg.at(preset) : Agg{};
        auto pki = [&](double v) {
            return a.instr > 0 ? v / a.instr * 1e3 : 0.0;
        };
        if (preset != sim::Preset::Baseline) {
            put(m, "model.speedup." + s,
                a.pairs ? std::exp(a.logSpeedup / a.pairs) : 0.0, "x",
                a.pairs);
        }
        put(m, "model.l1i_mpki." + s, pki(a.l1i), "1/kinstr", 1);
        put(m, "model.btb_mpki." + s, pki(a.btb), "1/kinstr", 1);
        put(m, "model.fe_stall_pki." + s, pki(a.stall), "1/kinstr", 1);
        put(m, "model.pf_accuracy." + s,
            a.issued > 0 ? a.useful / a.issued : 0.0, "ratio", 1);
    }
    // 48 bits of the digest: exact as a JSON (double) number.
    put(m, "model.digest",
        static_cast<double>(std::stoull(referenceDigest, nullptr, 16) >> 16),
        "hash", 1);
}

obs::JsonValue
Bench::report() const
{
    obs::JsonValue doc = obs::JsonValue::object();
    doc["workload"] = w.name;
    doc["seed"] = opts.seed;
    doc["trace"] = opts.trace;
    doc["correct"] = checks.failed == 0;
    doc["attempted"] = checks.attempted;
    doc["failed"] = checks.failed;
    obs::JsonValue failures = obs::JsonValue::array();
    for (const auto &f : checks.failures)
        failures.push(f);
    doc["failures"] = std::move(failures);

    obs::JsonValue metrics = obs::JsonValue::object();
    addEndToEnd(metrics);
    if (opts.trace)
        addPerLayer(metrics);
    doc["metrics"] = std::move(metrics);

    obs::JsonValue prov = obs::JsonValue::object();
    prov["build_type"] = DCFB_BUILD_TYPE;
    prov["build_flags"] = DCFB_BUILD_FLAGS;
    prov["cells"] = static_cast<std::uint64_t>(w.cells.size());
    prov["jobs"] = static_cast<std::uint64_t>(w.jobs);
    prov["passes"] =
        static_cast<std::uint64_t>(plainPasses.size() + tracedPasses.size());
    prov["setup_reps"] = static_cast<std::uint64_t>(w.setupReps);
    prov["warm_cycles"] = static_cast<std::uint64_t>(w.windows.warm);
    prov["measure_cycles"] = static_cast<std::uint64_t>(w.windows.measure);
    prov["functional_warm_instrs"] =
        w.functionalWarm ? w.functionalWarm
                         : sim::SystemConfig{}.functionalWarmInstrs;
    doc["provenance"] = std::move(prov);

    // Per-cell digests (the self-test matches grid_parallel against
    // grid_serial) and the traced accounting of cell wall.
    obs::JsonValue cells = obs::JsonValue::object();
    for (std::size_t i = 0; i < reference.size(); ++i) {
        std::string key = label(w.cells[i]) + "@" +
            std::to_string(w.cells[i].runSeed);
        cells[key] = svc::fnv1aHex(sim::toJson(reference[i]).dump());
    }
    doc["cell_digests"] = std::move(cells);

    // Timings behind the end-to-end medians, as measured: divide by
    // host_factor for the reference-host values.
    obs::JsonValue samples = obs::JsonValue::object();
    auto list = [](const std::vector<double> &v) {
        obs::JsonValue a = obs::JsonValue::array();
        for (double x : v)
            a.push(x);
        return a;
    };
    samples["setup_s"] = list(setupTimes);
    samples["probe_s"] = list(probes);
    std::vector<double> walls, factors;
    obs::JsonValue passCells = obs::JsonValue::array();
    for (const Pass &p : plainPasses) {
        walls.push_back(p.wall);
        factors.push_back(hostFactor(p));
        passCells.push(list(p.cellSeconds));
    }
    samples["wall_s"] = list(walls);
    samples["host_factor"] = list(factors);
    if (!w.replay) // cache_replay's cells are ~10^5 lookups
        samples["cell_s"] = std::move(passCells);
    doc["samples"] = std::move(samples);
    if (opts.trace) {
        double profiled = 0.0, wall = 0.0;
        for (const Pass &p : tracedPasses) {
            for (const auto &r : p.prof)
                profiled += r.setupSeconds + r.simSeconds();
            for (double c : p.cellSeconds)
                wall += c;
        }
        obs::JsonValue acc = obs::JsonValue::object();
        acc["profiled_s"] = profiled;
        acc["cell_wall_s"] = wall;
        doc["accounting"] = std::move(acc);
    }
    return doc;
}

/** Peak RSS of one set-up and one pass of @p w in a forked child with
 *  glibc's mmap threshold fixed at 128 KiB.  Under the default settings,
 *  which the timed passes keep, the peak depends on allocation history:
 *  the dynamic mmap threshold and, with several workers, the per-thread
 *  arenas keep freed cell memory in the heap (grid_serial read 74 to
 *  217 MB over ten seeds on the reference machine).  With the fixed
 *  threshold every large block goes back to the kernel when freed, and
 *  the peak is the live memory.  Forked before this process starts any
 *  thread; 0 on error. */
double
isolatedPeakRssMb(const Options &opts, const Workload &w)
{
    int fds[2];
    if (pipe(fds) != 0)
        return 0.0;
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return 0.0;
    }
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL); // a killed parent takes it along
        close(fds[0]);
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        Bench bench(opts, w);
        bench.runOnce();
        double mb = peakRssMb();
        _exit(write(fds[1], &mb, sizeof mb) == sizeof mb ? 0 : 1);
    }
    close(fds[1]);
    double mb = 0.0;
    if (read(fds[0], &mb, sizeof mb) != sizeof mb)
        mb = 0.0;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? mb : 0.0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: dcfb_perfbench --workload "
                 "grid_serial|long_window|grid_parallel|cache_replay\n"
                 "       [--seed N] [--seconds S] [--trace 0|1] [--tiny]\n"
                 "       [--golden-dir DIR] [--work-dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc)
                return std::nullopt;
            return std::string(argv[++i]);
        };
        std::optional<std::string> v;
        if (a == "--tiny") {
            opts.tiny = true;
            continue;
        }
        if (!(v = value()))
            return usage();
        try {
            if (a == "--workload")
                opts.workload = *v;
            else if (a == "--seed")
                opts.seed = std::stoull(*v);
            else if (a == "--seconds")
                opts.seconds = std::stod(*v);
            else if (a == "--trace")
                opts.trace = *v == "1";
            else if (a == "--golden-dir")
                opts.goldenDir = *v;
            else if (a == "--work-dir")
                opts.workDir = *v;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }
    auto w = makeWorkload(opts.workload, opts.seed, opts.tiny);
    if (!w)
        return usage();
    fs::create_directories(opts.workDir);

    Bench bench(opts, *w);
    bench.isolatedRss = isolatedPeakRssMb(opts, *w);
    double t0 = obs::profNow();
    bench.run();
    double t1 = obs::profNow();
    bench.verify();
    std::fprintf(stderr,
                 "perfbench: set-ups and passes %.2f s, checks %.2f s\n",
                 t1 - t0, obs::profNow() - t1);
    svc::ResultCache::closeGlobal();
    std::printf("%s\n", bench.report().dump().c_str());
    return 0;
}
