/**
 * @file
 * User-facing description of a fault-injection campaign: which fault
 * classes are active and at what rates. Parsed from the `--fault-spec`
 * command-line grammar; every field is validated on parse so a bad spec
 * is a clean configuration error, never an assert deep in the model.
 */

#ifndef STACKNOC_FAULT_FAULT_SPEC_HH
#define STACKNOC_FAULT_FAULT_SPEC_HH

#include <string>

#include "common/types.hh"

namespace stacknoc::fault {

/**
 * The fault model of one run. All rates default to zero, i.e. a
 * default-constructed spec injects nothing and a system built with it
 * behaves bit-identically to one built without fault support at all.
 */
struct FaultSpec
{
    /** Per-write probability that an STT-RAM array write fails and the
     *  bank must run another full write-verify-retry service round. */
    double sttWriteBer = 0.0;

    /** Extra service rounds a failing write may take before the line is
     *  handed to ECC and the write completes as "abandoned". */
    int sttWriteRetries = 3;

    /** Per-flit, per-vertical-hop (TSB/TSV) corruption probability. */
    double tsbFlitBer = 0.0;

    /** Per-flit, per-mesh-hop (horizontal link) corruption probability. */
    double linkFlitBer = 0.0;

    /** Retransmissions the NI requests before dropping the packet. */
    int flitRetries = 4;

    /** Cycles one NACK + retransmission round trip costs the ejector. */
    Cycle flitRetryPenalty = 48;

    /** Router wedged (ticks suppressed) during [stuckFrom, stuckTo]. */
    NodeId stuckRouter = kInvalidNode;
    Cycle stuckFrom = 0;
    Cycle stuckTo = 0;

    /** @return true when any fault class can actually fire. */
    bool
    any() const
    {
        return sttWriteBer > 0.0 || tsbFlitBer > 0.0 || linkFlitBer > 0.0
            || stuckRouter != kInvalidNode;
    }

    /** @return true when either link BER is non-zero. */
    bool
    linkFaultsActive() const
    {
        return tsbFlitBer > 0.0 || linkFlitBer > 0.0;
    }

    /** Canonical key=value rendering (round-trips through the parser). */
    std::string toString() const;
};

/**
 * Parse the `--fault-spec` grammar into @p spec.
 *
 * @param text comma-separated key=value list, e.g.
 *             "stt_write_ber=1e-3,tsb_flit_ber=1e-6,router_stuck=4:2200-2400".
 * @param spec filled on success (starts from defaults).
 * @param error one-line reason on failure.
 * @return true on success.
 */
bool parseFaultSpec(const std::string &text, FaultSpec &spec,
                    std::string &error);

} // namespace stacknoc::fault

#endif // STACKNOC_FAULT_FAULT_SPEC_HH
