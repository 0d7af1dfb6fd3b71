/**
 * @file
 * The design scenarios evaluated in the paper (Section 4.1), plus the
 * Section 4.4 write-buffer baselines.
 */

#ifndef STACKNOC_SYSTEM_SCENARIO_HH
#define STACKNOC_SYSTEM_SCENARIO_HH

#include <array>
#include <optional>
#include <string>

#include "mem/tech.hh"
#include "sttnoc/estimator.hh"
#include "sttnoc/region_map.hh"

namespace stacknoc::system {

/** One point of the design space. */
struct Scenario
{
    std::string name = "MRAM-4TSB-WB";

    /** L2 bank technology. */
    mem::CacheTech tech = mem::CacheTech::SttRam;

    /**
     * Number of logical cache regions / core-to-cache TSBs; 0 keeps all
     * vertical links unrestricted (the 64TSB baselines).
     */
    int tsbRegions = 4;

    /** Placement of the region TSBs (Figure 11). */
    sttnoc::TsbPlacement placement = sttnoc::TsbPlacement::Corner;

    /**
     * STT-RAM-aware arbitration scheme; nullopt disables re-ordering
     * (plain round-robin arbitration).
     */
    std::optional<sttnoc::EstimatorKind> scheme =
        sttnoc::EstimatorKind::Window;

    /** Re-ordering distance H (Section 4.3 settles on 2). */
    int parentHops = 2;

    /** How delayed writes are expressed (see sttnoc::DelayMode). */
    sttnoc::DelayMode delayMode = sttnoc::DelayMode::Priority;

    /** Enable the 20-entry per-bank write buffer (BUFF-20 baseline). */
    bool writeBuffer = false;

    /** Write-buffer capacity when writeBuffer is set. */
    int writeBufferEntries = 20;

    /**
     * Bank-level read priority + read preemption without a write buffer
     * (the complementary mechanism of the paper's Section 5 discussion;
     * combinable with the network scheme).
     */
    bool readPriority = false;

    /** VCs per virtual network; {2,3,1,1} is the "+1 VC" variant
     *  (one extra lane for the re-ordered write class). */
    std::array<int, 4> vcsPerVnet{2, 2, 1, 1};
};

namespace scenarios {

/** SRAM-64TSB: the paper's normalisation baseline. */
Scenario sram64Tsb();

/** MRAM-64TSB: naive SRAM->STT-RAM swap, full path diversity. */
Scenario sttram64Tsb();

/** MRAM-4TSB: path restriction only, no re-ordering. */
Scenario sttram4Tsb();

/** MRAM-4TSB-SS / -RCA / -WB: the three proposed schemes. */
Scenario sttram4TsbSS();
Scenario sttram4TsbRca();
Scenario sttram4TsbWb();

/** STT-RAM with per-bank 20-entry write buffers (Sun et al. baseline). */
Scenario sttramBuff20();

/** WB scheme with one extra request VC instead of write buffers. */
Scenario sttram4TsbWbPlus1Vc();

/** Extension: bank-level read priority/preemption alone. */
Scenario sttramReadPriority();

/** Extension: the WB network scheme combined with bank read priority —
 *  the complementarity Section 5 of the paper conjectures. */
Scenario sttram4TsbWbReadPriority();

/** The six Figure-6/8 design scenarios in presentation order. */
std::array<Scenario, 6> figureSix();

/**
 * Look up a scenario by the name a run prints (e.g. "MRAM-4TSB-WB");
 * "+1VC" is accepted as an alias of "MRAM-4TSB-WB+1VC".
 * @return true and fill @p out on success; false for unknown names.
 */
bool byName(const std::string &name, Scenario &out);

/** The accepted scenario names, for error messages / usage text. */
const char *knownNames();

} // namespace scenarios

} // namespace stacknoc::system

#endif // STACKNOC_SYSTEM_SCENARIO_HH
