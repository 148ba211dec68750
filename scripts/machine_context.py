"""Machine context for benchmark reports.

Absolute simulator throughput is machine-sensitive, so a benchmark
report records where it was measured: CPU model, core count and the
cpufreq governor.  perfbench/run.py stamps collect() into its report.
"""

import os
import pathlib


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def governor():
    path = pathlib.Path(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def collect():
    """The machine-context dict recorded in a benchmark report."""
    return {
        "cpu_model": cpu_model(),
        "cores": os.cpu_count() or 0,
        "governor": governor(),
    }
