#include "host_probe.h"

#include <chrono>
#include <cmath>
#include <cstdint>

namespace perfbench {

namespace {

volatile std::uint64_t sink; //!< keeps the loop's result live

constexpr int kProbeIterations = 250000;

} // namespace

double
hostProbe()
{
    auto t0 = std::chrono::steady_clock::now();
    // xorshift64 with data-dependent branches: integer and branch work,
    // no memory traffic.
    std::uint64_t x = 88172645463325252ull, acc = 0;
    for (int i = 0; i < kProbeIterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x & 1)
            acc += x >> 3;
        else
            acc ^= x * 3;
        if ((x >> 9) % 3 == 0)
            acc = (acc << 1) | (acc >> 63);
    }
    sink = acc;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double
hostFactor(double probeSeconds)
{
    return std::pow(probeSeconds / kProbeReferenceSeconds, kProbeExponent);
}

} // namespace perfbench
