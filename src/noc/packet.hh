/**
 * @file
 * Packets and flits: the units of transport in the stacknoc network.
 *
 * Following the paper's configuration, a data-carrying message is eight
 * 128-bit flits plus one header flit (9 flits total) and an address-only
 * message is a single header flit.
 */

#ifndef STACKNOC_NOC_PACKET_HH
#define STACKNOC_NOC_PACKET_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"

namespace stacknoc::noc {

/**
 * Semantic class of a packet. The class determines the virtual network,
 * the size, whether TSB path restriction applies, and whether the
 * STT-RAM-aware arbiter treats the packet as a long bank write.
 */
enum class PacketClass : std::uint8_t {
    ReadReq,      //!< L1 GetS to an L2 bank (1 flit)
    WriteReq,     //!< L1 GetM / upgrade to an L2 bank (1 flit)
    StoreWrite,   //!< no-allocate store miss written to L2 (2 flits)
    WritebackReq, //!< L1 PutM dirty writeback (2 flits, long bank write)
    CohCtrl,      //!< Inv / Recall / InvAck and friends (1 flit)
    CohData,      //!< Recall data from an L1 owner (9 flits)
    DataResp,     //!< L2 -> L1 fill data (9 flits)
    Ack,          //!< short response, e.g. writeback ack (1 flit)
    MemReq,       //!< L2 bank -> memory controller read (1 flit)
    MemWrite,     //!< L2 bank -> memory controller writeback (9 flits)
    MemResp,      //!< memory controller -> L2 bank fill (9 flits)
    ProbeAck,     //!< window-based estimator timestamp echo (1 flit)
    BusyNack,     //!< bank busy past predicted window; retry later (1 flit)
    NumClasses
};

/**
 * Number of virtual networks (message classes) for deadlock avoidance.
 * Writebacks ride their own virtual network so that a bank refusing new
 * read/write requests (bounded request queue) can never strand the
 * dirty data it needs to make progress.
 */
constexpr int kNumVnets = 4;

/** Virtual network indices. */
enum Vnet : int { kVnetReq = 0, kVnetWb = 1, kVnetResp = 2, kVnetCoh = 3 };

/** @return the virtual network a packet class travels on. */
int vnetOf(PacketClass cls);

/** @return human-readable class name. */
const char *packetClassName(PacketClass cls);

/**
 * @return whether the class is a core-layer-to-cache-layer request that is
 * (a) restricted to the per-region TSBs and (b) subject to STT-RAM-aware
 * re-ordering at parent routers.
 */
bool isRestrictedRequest(PacketClass cls);

/** @return whether servicing this packet occupies the bank's write port. */
bool isLongBankWrite(PacketClass cls);

/**
 * Protocol payload carried by a packet. The network treats this as opaque;
 * the coherence and memory layers define the meaning of each field.
 */
struct ProtoInfo
{
    std::uint8_t kind = 0;   //!< protocol opcode
    std::uint8_t flags = 0;  //!< protocol flag bits
    std::uint16_t aux = 0;   //!< e.g. expected ack count
    std::uint32_t origin = 0; //!< requesting core / unit id
};

/**
 * A network packet. Created by a NetworkInterface client, serialised into
 * flits for transport, reassembled and delivered at the destination NI.
 */
struct Packet
{
    std::uint64_t id = 0;          //!< unique in its system; 0 until sent
    PacketClass cls = PacketClass::ReadReq;
    NodeId src = kInvalidNode;     //!< source node
    NodeId dest = kInvalidNode;    //!< destination node
    int numFlits = 1;

    BlockAddr addr = 0;            //!< block address (protocol use)
    BankId destBank = kInvalidBank; //!< bank targeted, for cache requests
    ProtoInfo info;                //!< opaque protocol payload

    Cycle createdAt = 0;           //!< handed to the source NI
    Cycle injectedAt = kCycleNever; //!< head flit entered the network
    Cycle ejectedAt = kCycleNever;  //!< tail flit left the network

    /** Window-based estimator: timestamp (< 0 when untagged). */
    std::int16_t probeStamp = -1;
    /** Window-based estimator: parent node expecting the echo. */
    NodeId probeParent = kInvalidNode;
    /** First cycle an STT-RAM-aware parent router held this packet. */
    Cycle firstHeldAt = kCycleNever;

    std::string toString() const;
};

using PacketPtr = std::shared_ptr<Packet>;

/** One flow-control unit of a packet. */
struct Flit
{
    PacketPtr pkt;
    int seq = 0;          //!< 0 = head
    Cycle arrivedAt = 0;  //!< written into the current input buffer at

    bool head() const { return seq == 0; }
    bool tail() const { return seq == pkt->numFlits - 1; }
};

/** What travels on a physical link: a flit plus its virtual channel. */
struct LinkFlit
{
    Flit flit;
    int vc = 0;
};

/** Backward flow-control token freeing one buffer slot of a VC. */
struct Credit
{
    int vc = 0;
};

/**
 * Writeback size in flits: header plus the dirty words. The baseline
 * system (like the paper's, which builds on redundant-write elimination
 * at the cell level) tracks dirty words and writes back only those, so
 * a PutM is far smaller than a full-line transfer — while the STT-RAM
 * bank is still occupied for the full 33-cycle write.
 */
constexpr int kWritebackFlits = 2;

/** Store-write size: header plus the stored word(s). */
constexpr int kStoreWriteFlits = 2;

/**
 * Convenience factory. Sizes the packet from its class (1, 2 or 9
 * flits). The id stays 0 until the source node's NetworkInterface
 * queues the packet: send() numbers it from that NI's id stream
 * (id = (src + 1) << 40 | sequence). Every creator sends a packet the
 * moment it makes one, through the NI at its own node, so a stream
 * advances in creation order. The streams belong to the system, so
 * ids do not depend on what else ran in the process, and all creators
 * at a node tick on one shard, so ids are bit-identical between the
 * sequential and sharded engines.
 *
 * @param data_flits total flits of a line-transfer packet (default 9).
 */
PacketPtr makePacket(PacketClass cls, NodeId src, NodeId dest,
                     BlockAddr addr = 0, int data_flits = 9);

/**
 * No-op. Packet ids live in each system's NIs, so there is nothing to
 * rewind; this stays only because perfbench/perfbench.cc still calls
 * it. Delete it with that call.
 */
inline void resetPacketIds() {}

} // namespace stacknoc::noc

#endif // STACKNOC_NOC_PACKET_HH
