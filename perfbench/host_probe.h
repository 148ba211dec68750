/**
 * @file
 * A fixed integer loop that measures how fast the host runs right now.
 *
 * The shared host this benchmark runs on changes speed by a third over
 * minutes, and CPU time moves with wall time, so no run length averages
 * it away.  The benchmark runs this probe beside its timed work and
 * divides each timing by hostFactor() of the probe's median time, which
 * turns host seconds into reference-host seconds.  The probe is built
 * in a library of its own, with none of the dcfb library's flags, so a
 * change to the simulator cannot change it.
 */

#ifndef DCFB_PERFBENCH_HOST_PROBE_H
#define DCFB_PERFBENCH_HOST_PROBE_H

namespace perfbench {

/** The probe's median time, in seconds, on the reference machine of
 *  README.md ("Host-speed scaling") in a quiet period: at this probe
 *  time the scaling leaves timings as measured. */
constexpr double kProbeReferenceSeconds = 0.0022;

/** How much faster than the probe's time the simulator's time moves
 *  with the host's speed, in logarithms.  The simulator's memory
 *  traffic slows more than the probe's integer loop when the host is
 *  busy: on the reference machine, log pass time against log probe time
 *  over 660 passes of 120 runs had slope 1.4 (grid_serial) and 1.55
 *  (grid_parallel), correlation 0.96 and 0.97 (README.md). */
constexpr double kProbeExponent = 1.5;

/** Run the probe once; returns its wall time in seconds. */
double hostProbe();

/** Host seconds per reference-host second for a median probe time of
 *  @p probeSeconds. */
double hostFactor(double probeSeconds);

} // namespace perfbench

#endif // DCFB_PERFBENCH_HOST_PROBE_H
