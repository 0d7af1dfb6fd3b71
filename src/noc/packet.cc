#include "noc/packet.hh"

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

} // namespace

PacketPtr
makePacket(PacketClass cls, NodeId src, NodeId dest, BlockAddr addr,
           int data_flits)
{
    auto pkt = std::make_shared<Packet>();
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
