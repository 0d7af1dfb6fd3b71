#include "noc/packet.hh"

#include <array>

#include "common/logging.hh"

namespace stacknoc::noc {

int
vnetOf(PacketClass cls)
{
    switch (cls) {
      case PacketClass::ReadReq:
      case PacketClass::WriteReq:
      case PacketClass::MemReq:
        return kVnetReq;
      case PacketClass::StoreWrite:
      case PacketClass::WritebackReq:
      case PacketClass::MemWrite:
        return kVnetWb;
      case PacketClass::DataResp:
      case PacketClass::Ack:
      case PacketClass::MemResp:
      case PacketClass::ProbeAck:
      case PacketClass::BusyNack:
        return kVnetResp;
      case PacketClass::CohCtrl:
      case PacketClass::CohData:
        return kVnetCoh;
      default:
        panic("vnetOf: bad packet class %d", static_cast<int>(cls));
    }
}

const char *
packetClassName(PacketClass cls)
{
    switch (cls) {
      case PacketClass::ReadReq: return "ReadReq";
      case PacketClass::WriteReq: return "WriteReq";
      case PacketClass::StoreWrite: return "StoreWrite";
      case PacketClass::WritebackReq: return "WritebackReq";
      case PacketClass::CohCtrl: return "CohCtrl";
      case PacketClass::CohData: return "CohData";
      case PacketClass::DataResp: return "DataResp";
      case PacketClass::Ack: return "Ack";
      case PacketClass::MemReq: return "MemReq";
      case PacketClass::MemWrite: return "MemWrite";
      case PacketClass::MemResp: return "MemResp";
      case PacketClass::ProbeAck: return "ProbeAck";
      case PacketClass::BusyNack: return "BusyNack";
      default: return "Unknown";
    }
}

bool
isRestrictedRequest(PacketClass cls)
{
    return cls == PacketClass::ReadReq || cls == PacketClass::WriteReq ||
           cls == PacketClass::StoreWrite ||
           cls == PacketClass::WritebackReq;
}

bool
isLongBankWrite(PacketClass cls)
{
    return cls == PacketClass::StoreWrite ||
           cls == PacketClass::WritebackReq;
}

std::string
Packet::toString() const
{
    return detail::format("pkt%llu %s %d->%d flits=%d addr=%llx",
                          static_cast<unsigned long long>(id),
                          packetClassName(cls), src, dest, numFlits,
                          static_cast<unsigned long long>(addr));
}

namespace {

bool
isLineTransfer(PacketClass cls)
{
    switch (cls) {
      case PacketClass::CohData:
      case PacketClass::DataResp:
      case PacketClass::MemWrite:
      case PacketClass::MemResp:
        return true;
      default:
        return false;
    }
}

// One id stream per source node: slot 0 is kInvalidNode (tests may mint
// packets with no source), slots 1..4096 are nodes 0..4095. Streams are
// plain (non-atomic) because each is only ever advanced by components at
// its node, which all tick on the same shard; distinct streams are
// distinct memory locations, so no two threads touch the same counter.
constexpr int kIdStreamShift = 40;
std::array<std::uint64_t, kMaxIdStreams> next_seq{};

} // namespace

void
resetPacketIds()
{
    next_seq.fill(0);
}

std::vector<std::pair<std::uint32_t, std::uint64_t>>
savePacketIdStreams()
{
    std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
    for (std::size_t i = 0; i < kMaxIdStreams; ++i) {
        if (next_seq[i] != 0)
            out.emplace_back(static_cast<std::uint32_t>(i), next_seq[i]);
    }
    return out;
}

void
restorePacketIdStreams(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>> &streams)
{
    next_seq.fill(0);
    for (const auto &[idx, seq] : streams) {
        panic_if(idx >= kMaxIdStreams,
                 "restorePacketIdStreams: stream %u out of range", idx);
        next_seq[idx] = seq;
    }
}

PacketPtr
makePacket(PacketClass cls, NodeId src, NodeId dest, BlockAddr addr,
           int data_flits)
{
    const auto stream = static_cast<std::size_t>(src + 1);
    panic_if(src < -1 || stream >= kMaxIdStreams,
             "makePacket: source node %d outside the id-stream range",
             src);
    const std::uint64_t seq = ++next_seq[stream];
    panic_if(seq >= (1ULL << kIdStreamShift),
             "makePacket: id stream for node %d overflowed", src);
    auto pkt = std::make_shared<Packet>();
    pkt->id = (static_cast<std::uint64_t>(stream) << kIdStreamShift) | seq;
    pkt->cls = cls;
    pkt->src = src;
    pkt->dest = dest;
    pkt->addr = addr;
    pkt->numFlits = cls == PacketClass::WritebackReq
                        ? kWritebackFlits
                        : cls == PacketClass::StoreWrite
                              ? kStoreWriteFlits
                              : (isLineTransfer(cls) ? data_flits : 1);
    return pkt;
}

} // namespace stacknoc::noc
