/**
 * @file
 * Figure 8: uncore (cache + interconnect) energy of the design
 * scenarios, normalised to SRAM-64TSB. The paper's key result is the
 * ~54% average reduction from STT-RAM's low leakage.
 *
 * Energy is the run's metrics().energy: telemetry::energyOf() over
 * the window's event counters, the same formula every power frame
 * uses (tests/test_power_thermal.cc pins the counters and the frame
 * sums together).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace stacknoc;

namespace {

void
runPanel(const char *title, const std::vector<std::string> &apps,
         const bench::BenchEnv &e, double *sum, int *count)
{
    const auto scenarios = system::scenarios::figureSix();
    std::printf("\n-- %s --\n", title);
    bench::printLabel("app");
    for (const auto &sc : scenarios)
        bench::printHeader(sc.name);
    bench::endRow();
    bench::printRule(16 + 10 * 6);
    for (const auto &app : apps) {
        bench::printLabel(app);
        double base = 0.0;
        for (std::size_t s = 0; s < scenarios.size(); ++s) {
            const auto r = bench::runOne(scenarios[s], {app}, e);
            if (s == 0)
                base = r.energyUJ;
            const double norm = base > 0 ? r.energyUJ / base : 0.0;
            bench::printCell(norm);
            if (s == scenarios.size() - 1) {
                *sum += norm;
                ++*count;
            }
        }
        bench::endRow();
    }
}

} // namespace

int
main()
{
    setVerbose(false);
    const bench::BenchEnv e = bench::env();
    bench::banner("Figure 8: uncore energy normalised to SRAM-64TSB", e);

    double wb_sum = 0.0;
    int wb_count = 0;
    runPanel("SERVER", bench::capApps({"sap", "sjbb", "tpcc", "sjas"}, e),
             e, &wb_sum, &wb_count);
    runPanel("PARSEC",
             bench::capApps({"ferret", "facesim", "vips", "canneal",
                             "dedup", "streamcluster", "blackscholes",
                             "bodytrack", "fluidanimate", "freqmine",
                             "raytrace", "swaptions", "x264"}, e),
             e, &wb_sum, &wb_count);
    runPanel("SPEC2006",
             bench::capApps({"soplex", "cactus", "lbm", "hmmer", "gobmk",
                             "milc", "libquantum", "gemsfdtd", "mcf",
                             "xalancbmk", "leslie", "omnetpp", "povray"},
                            e),
             e, &wb_sum, &wb_count);

    if (wb_count > 0) {
        std::printf("\nMRAM-4TSB-WB mean energy vs SRAM-64TSB: %.1f%% "
                    "(paper: ~46%%, i.e. 54%% saving)\n",
                    100.0 * wb_sum / wb_count);
    }
    return 0;
}
