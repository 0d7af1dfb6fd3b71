/**
 * @file
 * Machine-readable run output: serialises a finished CmpSystem — run
 * identity, headline metrics, every statistics group (with histogram
 * percentiles), the interval time-series and the occupancy probe — as
 * one JSON document, and the activity table's views as grid files.
 */

#ifndef STACKNOC_SYSTEM_STATS_EXPORT_HH
#define STACKNOC_SYSTEM_STATS_EXPORT_HH

#include <iosfwd>
#include <string>

#include "common/types.hh"
#include "system/cmp_system.hh"

namespace stacknoc::system {

/** Identity of the run being exported (echoed under "run"). */
struct RunInfo
{
    std::string scenario;
    std::string app;
    std::uint64_t seed = 0;
    Cycle warmupCycles = 0;
    Cycle measuredCycles = 0;

    /** Run was cut short by a wall-clock --timeout-sec guard. */
    bool timedOut = false;

    /** Run was warm-started from a checkpoint (--restore). */
    bool restored = false;

    /** Cycle the restored checkpoint was captured at. */
    Cycle restoredFromCycle = 0;

    /** Emit the stats digest under "run" (set by --digest). */
    bool hasStatsDigest = false;
    std::uint64_t statsDigest = 0;
};

/**
 * Write the full JSON stats document for @p sys to @p os. The output is
 * a single compact line, suitable for JSONL aggregation across runs.
 */
void writeJsonStats(std::ostream &os, const CmpSystem &sys,
                    const RunInfo &info);

/**
 * Write the activity table's views as heatmap-schema grid files
 * renderable by tools/heatmap_render.py, one per metric:
 * <prefix>.{flits,occupancy,tsb,holds}.json, plus .power.json (watts)
 * and .temperature.json (Celsius) when those views are on. Each is
 * { "metric", "width", "height", "layers", "period", "frames_dropped",
 *   "frames": [{"start", "end", "grids": [[...], [...]]}] }.
 * @return false when any file could not be opened; true (writing
 * nothing) when the table is off.
 */
bool writeGridFiles(const CmpSystem &sys, const std::string &prefix);

} // namespace stacknoc::system

#endif // STACKNOC_SYSTEM_STATS_EXPORT_HH
