#include "fault/fault_injector.hh"

namespace stacknoc::fault {

namespace {

enum : std::uint64_t {
    kSiteBankWrite = 1,
    kSiteNiLink = 2,
};

} // namespace

std::uint64_t
FaultInjector::siteSeed(std::uint64_t seed, std::uint64_t kind,
                        std::uint64_t site)
{
    // One warm-up scramble so nearby (seed, site) tuples land far apart
    // in SplitMix64's state space.
    SplitMix64 mixer(seed ^ (kind << 56) ^ (site + 1) * 0xd1b54a32d192ed03ULL);
    return mixer.next();
}

FaultInjector::FaultInjector(const FaultSpec &spec, std::uint64_t seed,
                             const MeshShape &shape, int num_banks)
    : spec_(spec), shape_(shape),
      stats_("faults"),
      sttWriteFailures_(stats_, "stt_write_failures", num_banks),
      sttWriteRetryRounds_(stats_, "stt_write_retry_rounds", num_banks),
      sttWritesRecovered_(stats_, "stt_writes_recovered", num_banks),
      sttWritesAbandoned_(stats_, "stt_writes_abandoned", num_banks),
      busyNacksSent_(stats_, "busy_nacks_sent", num_banks),
      retriesPerWriteHist_(stats_, "retries_per_write", num_banks),
      writeRecoveryLatencyHist_(stats_, "write_recovery_latency", num_banks),
      linkPacketsCorrupted_(stats_, "link_packets_corrupted", nodes()),
      linkRetransmits_(stats_, "link_retransmits", nodes()),
      linkFlitsRetransmitted_(stats_, "link_flits_retransmitted", nodes()),
      linkPacketsRecovered_(stats_, "link_packets_recovered", nodes()),
      linkPacketsDropped_(stats_, "link_packets_dropped", nodes()),
      routerStuckCycles_(stats_, "router_stuck_cycles", nodes()),
      retransmitsPerPacketHist_(stats_, "retransmits_per_packet", nodes()),
      linkRecoveryLatencyHist_(stats_, "link_recovery_latency", nodes())
{
    bankStreams_.reserve(static_cast<std::size_t>(num_banks));
    for (int b = 0; b < num_banks; ++b)
        bankStreams_.emplace_back(
            siteSeed(seed, kSiteBankWrite, static_cast<std::uint64_t>(b)));

    niStreams_.reserve(static_cast<std::size_t>(shape_.totalNodes()));
    for (int n = 0; n < shape_.totalNodes(); ++n)
        niStreams_.emplace_back(
            siteSeed(seed, kSiteNiLink, static_cast<std::uint64_t>(n)));
}

} // namespace stacknoc::fault
