#include "exec/schedule.h"

#include <cassert>
#include <chrono>
#include <mutex>
#include <optional>

#include "exec/pool.h"
#include "obs/span.h"

namespace dcfb::exec {

namespace {

unsigned gDefaultJobs = 0; // 0 = auto; written once at CLI parse

std::mutex gLogMutex;
std::vector<ExecReport> gLog;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

void
setDefaultJobs(unsigned jobs)
{
    gDefaultJobs = jobs;
}

unsigned
defaultJobs()
{
    return gDefaultJobs;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested)
        return requested;
    if (gDefaultJobs)
        return gDefaultJobs;
    return hardwareJobs();
}

double
ExecReport::occupancy() const
{
    double denom = wallSeconds * static_cast<double>(jobs ? jobs : 1);
    return denom > 0.0 ? busySeconds / denom : 0.0;
}

ExecReport
runIndexed(std::string label, std::size_t n, unsigned jobs,
           const std::function<void(std::size_t)> &body,
           const std::function<std::string(std::size_t)> &cell_label,
           const std::vector<std::size_t> &order)
{
    assert(order.empty() || order.size() == n);
    ExecReport report;
    report.label = std::move(label);
    report.jobs = jobs ? jobs : 1;
    report.cells = n;
    report.cellTimes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (cell_label)
            report.cellTimes[i].label = cell_label(i);
    }

    // One span per cell (serial and pooled paths alike): the timeline
    // then shows every worker's occupancy, labelled with the cell.
    auto traced_body = [&](std::size_t i) {
        std::optional<obs::SpanScope> cell;
        if (obs::Spans::enabled())
            cell.emplace("exec.cell", report.cellTimes[i].label);
        body(i);
    };

    auto t0 = std::chrono::steady_clock::now();
    if (report.jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            auto c0 = std::chrono::steady_clock::now();
            traced_body(i);
            report.cellTimes[i].seconds = secondsSince(c0);
            report.busySeconds += report.cellTimes[i].seconds;
        }
        report.wallSeconds = secondsSince(t0);
        return report;
    }

    {
        Pool pool(report.jobs);
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t i = order.empty() ? k : order[k];
            pool.submit([&, i] {
                auto c0 = std::chrono::steady_clock::now();
                traced_body(i);
                // Each slot is written by exactly one task; the
                // pool barrier publishes them to the caller.
                report.cellTimes[i].seconds = secondsSince(c0);
            });
        }
        pool.wait(); // rethrows the first cell failure
        report.busySeconds = pool.busySeconds();
    }
    report.wallSeconds = secondsSince(t0);
    return report;
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    runIndexed("", n, jobs, body);
}

void
ExecLog::push(ExecReport report)
{
    std::unique_lock<std::mutex> lock(gLogMutex);
    gLog.push_back(std::move(report));
}

std::vector<ExecReport>
ExecLog::drain()
{
    std::unique_lock<std::mutex> lock(gLogMutex);
    std::vector<ExecReport> out;
    out.swap(gLog);
    return out;
}

} // namespace dcfb::exec
