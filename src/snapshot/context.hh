/**
 * @file
 * The back-reference table shared by every component's transfer.
 *
 * Packets are the one kind of state aliased between components: one
 * Packet may sit in several places at once (a router VC buffer
 * flit-by-flit, a Tbe blocked queue, an NI committedPkt), and must keep
 * that sharing across a checkpoint round trip. Completions are plain
 * values and need no table: an L1 access token is the core's sequence
 * number of the op, and a bank request names its block address, which
 * the owning bank's one completion callback takes.
 *
 * Each packet pointer travels as a tag: null, a new packet (its body
 * follows and it takes the next index), or a back-reference to an
 * earlier index. Refs is one table for both directions, like the
 * archives (serialize.hh): saving maps packets to indices, loading maps
 * indices back to the rebuilt packets, and each body is listed once.
 */

#ifndef STACKNOC_SNAPSHOT_CONTEXT_HH
#define STACKNOC_SNAPSHOT_CONTEXT_HH

#include <map>
#include <memory>
#include <vector>

#include "noc/packet.hh"
#include "snapshot/serialize.hh"

namespace stacknoc::snapshot {

namespace tag {
constexpr std::uint8_t kNull = 0; //!< empty pointer
constexpr std::uint8_t kNew = 1;  //!< body follows; assign next index
constexpr std::uint8_t kRef = 2;  //!< u32 index of an earlier kNew
} // namespace tag

/** One per checkpoint save or load pass. */
class Refs
{
  public:
    template <class Ar, class P>
    void
    packet(Ar &ar, P &pkt)
    {
        if constexpr (!Ar::kLoading) {
            if (!pkt) {
                ar.u8(tag::kNull);
                return;
            }
            const auto [it, fresh] = index_.emplace(
                pkt.get(), static_cast<std::uint32_t>(index_.size()));
            if (!fresh) {
                ar.u8(tag::kRef);
                ar.u32(it->second);
                return;
            }
            ar.u8(tag::kNew);
            body(ar, *pkt);
        } else {
            std::uint8_t kind = 0;
            ar.u8(kind);
            switch (kind) {
              case tag::kNull:
                pkt = nullptr;
                return;
              case tag::kRef: {
                std::uint32_t idx = 0;
                ar.u32(idx);
                if (idx >= packets_.size())
                    throw SnapshotError("bad packet back-reference");
                pkt = packets_[idx];
                return;
              }
              case tag::kNew:
                pkt = std::make_shared<noc::Packet>();
                packets_.push_back(pkt);
                body(ar, *pkt);
                return;
              default:
                throw SnapshotError("bad packet tag");
            }
        }
    }

  private:
    template <class Ar, class P>
    static void
    body(Ar &ar, P &p)
    {
        ar.u64(p.id);
        ar.u8(p.cls);
        ar.i32(p.src);
        ar.i32(p.dest);
        ar.i32(p.numFlits);
        ar.u64(p.addr);
        ar.i32(p.destBank);
        ar.u8(p.info.kind);
        ar.u8(p.info.flags);
        ar.u16(p.info.aux);
        ar.u32(p.info.origin);
        ar.u64(p.createdAt);
        ar.u64(p.injectedAt);
        ar.u64(p.ejectedAt);
        ar.i16(p.probeStamp);
        ar.i32(p.probeParent);
        ar.u64(p.firstHeldAt);
    }

    std::map<const noc::Packet *, std::uint32_t> index_; //!< saving
    std::vector<noc::PacketPtr> packets_;                //!< loading
};

} // namespace stacknoc::snapshot

#endif // STACKNOC_SNAPSHOT_CONTEXT_HH
