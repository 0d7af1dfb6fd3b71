/**
 * @file
 * The back-reference table shared by every component's transfer.
 *
 * Two kinds of state are aliased between components and must keep their
 * sharing structure across a checkpoint round trip:
 *
 *  - PacketPtr: one Packet may sit in several places at once (a router
 *    VC buffer flit-by-flit, a Tbe blocked queue, an NI committedPkt).
 *  - std::shared_ptr<bool> completion flags: a Core ROB entry and the
 *    L1 MSHR that will complete it point at the same bool (and
 *    lastMemDone_ may alias it again).
 *
 * Each pointer travels as a tag: null, a new object (its body follows
 * and it takes the next index of its kind), or a back-reference to an
 * earlier index. Refs is one table for both directions, like the
 * archives (serialize.hh): saving maps objects to indices, loading maps
 * indices back to the rebuilt objects, and each body is listed once.
 */

#ifndef STACKNOC_SNAPSHOT_CONTEXT_HH
#define STACKNOC_SNAPSHOT_CONTEXT_HH

#include <map>
#include <memory>
#include <string>
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
        share(ar, pkt, packets_, "packet", [&ar](auto &p) {
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
        });
    }

    template <class Ar, class P>
    void
    flag(Ar &ar, P &flag)
    {
        share(ar, flag, flags_, "flag", [&ar](auto &f) { ar.b(f); });
    }

  private:
    /** One index space per pointee kind. */
    struct Table
    {
        std::map<const void *, std::uint32_t> index; //!< saving
        std::vector<std::shared_ptr<void>> objects;   //!< loading
    };

    template <class Ar, class P, class Body>
    static void
    share(Ar &ar, P &ptr, Table &t, const char *what, Body &&body)
    {
        if constexpr (!Ar::kLoading) {
            if (!ptr) {
                ar.u8(tag::kNull);
                return;
            }
            const auto [it, fresh] = t.index.emplace(
                ptr.get(), static_cast<std::uint32_t>(t.index.size()));
            if (!fresh) {
                ar.u8(tag::kRef);
                ar.u32(it->second);
                return;
            }
            ar.u8(tag::kNew);
            body(*ptr);
        } else {
            using T = typename P::element_type;
            std::uint8_t kind = 0;
            ar.u8(kind);
            switch (kind) {
              case tag::kNull:
                ptr = nullptr;
                return;
              case tag::kRef: {
                std::uint32_t idx = 0;
                ar.u32(idx);
                if (idx >= t.objects.size())
                    throw SnapshotError(std::string("bad ") + what
                                        + " back-reference");
                ptr = std::static_pointer_cast<T>(t.objects[idx]);
                return;
              }
              case tag::kNew:
                ptr = std::make_shared<T>();
                t.objects.push_back(ptr);
                body(*ptr);
                return;
              default:
                throw SnapshotError(std::string("bad ") + what + " tag");
            }
        }
    }

    Table packets_;
    Table flags_;
};

} // namespace stacknoc::snapshot

#endif // STACKNOC_SNAPSHOT_CONTEXT_HH
