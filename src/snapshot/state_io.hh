/**
 * @file
 * Whole-system checkpoint save/restore.
 *
 * StateIO is befriended by every stateful component and serialises the
 * complete behavioural state of a CmpSystem: workload streams, cores,
 * L1s, L2 banks (directory, TBEs, bank controllers), memory controllers,
 * every router/NI/link of the network, the bank-aware policy and its
 * estimator, the RCA fabric, the fault-injector site streams, the
 * NIs' packet-id streams, and the engines' idle-elision active sets.
 *
 * Design: one transfer function per component, a template instantiated
 * once for saving and once for loading (see the class comment). The
 * payload is exactly what those field lists say; there is no second
 * copy of the format to keep in step.
 *
 * Contract: a checkpoint is taken at the warm-up boundary (immediately
 * after CmpSystem::warmupEnd()) and restored into a freshly constructed,
 * never-run CmpSystem built from the same scenario/seed configuration.
 * The restored run then produces stats bit-identical to the
 * uninterrupted run at any --threads and with elision on or off.
 * Observer-only state (stats groups, probes, samplers, profiler) is NOT
 * serialised: at the warm boundary all stats are zero and the probes
 * re-baseline from the restored plain counters via ProbeHub::onReset.
 *
 * Systems running with validation enabled cannot be checkpointed or
 * restored (the validation hub's census state is not serialised).
 */

#ifndef STACKNOC_SNAPSHOT_STATE_IO_HH
#define STACKNOC_SNAPSHOT_STATE_IO_HH

#include <cstdint>

#include "snapshot/serialize.hh"

namespace stacknoc::system {
class CmpSystem;
} // namespace stacknoc::system

namespace stacknoc::noc {
class Router;
} // namespace stacknoc::noc

namespace stacknoc::snapshot {

class Refs;

/**
 * The single (friended) entry point for component state serialisation.
 * All methods are static; the class exists only so components can grant
 * access with one friend declaration.
 *
 * Each component has one transfer function, a template over the archive
 * (Saver or Loader, serialize.hh) and the component type: save()
 * instantiates it with a Saver, which only reads the fields, and load()
 * with a Loader, which writes them into the restoring system. A field
 * is named once, so the two directions cannot drift apart, and the
 * payload is whatever those field lists say. The few steps that belong
 * to one direction are spelled out under `if constexpr (Ar::kLoading)`
 * or its negation: loading rebuilds the routers' derived pipeline state,
 * checks that every completion token names a fetched instruction and
 * leaves the active set of an engine that does not elide untouched;
 * saving refuses staged channel values and validation-enabled systems.
 */
class StateIO
{
  public:
    /**
     * Serialise the complete behavioural state of @p sys into @p s.
     * @throws SnapshotError when the system holds non-serialisable
     * state (validation enabled, or staged channel values).
     */
    static void save(const system::CmpSystem &sys, Saver &s);

    /**
     * Restore @p sys — freshly constructed from the same configuration,
     * never run — from @p l. The caller completes the restore with
     * CmpSystem::warmupEnd() (probe re-baseline + measurement start).
     * @throws SnapshotError on any structural mismatch or truncation.
     */
    static void load(system::CmpSystem &sys, Loader &l);

    /** Implementation behind snapshot::statsDigest (needs friendship). */
    static std::uint64_t digest(const system::CmpSystem &sys);

  private:
    // Per-component transfers. Private static members (not file-local
    // helpers) because friendship does not transfer to free functions.
    template <class Ar, class Sys> static void wholeSystem(Ar &, Sys &);
    template <class Ar, class C> static void stream(Ar &, C &);
    template <class Ar, class C> static void core(Ar &, C &);
    template <class Ar, class C, class Core>
    static void l1(Ar &, C &, const Core &core);
    template <class Ar, class C> static void bank(Ar &, Refs &, C &);
    template <class Ar, class C> static void bankCtrl(Ar &, C &);
    template <class Ar, class C> static void mc(Ar &, Refs &, C &);
    template <class Ar, class C> static void router(Ar &, Refs &, C &);
    template <class Ar, class C> static void ni(Ar &, Refs &, C &);
    template <class Ar, class C> static void link(Ar &, Refs &, C &);
    template <class Ar, class C> static void tags(Ar &, C &);
    template <class Ar, class C> static void policy(Ar &, C &);
    template <class Ar, class C> static void fabric(Ar &, C &);
    template <class Ar, class C> static void faults(Ar &, C &);
    template <class Ar, class Sys> static void activeSet(Ar &, Sys &);

    /** Load only: throw unless @p seq is committed or in the ROB. */
    template <class C>
    static void fetchedOrThrow(const C &core, std::uint64_t seq,
                               const char *what);

    /** Load only: recompute a router's masks, counts and occupancy. */
    static void rebuildDerived(noc::Router &r);
};

/**
 * FNV-1a digest over every stats group of @p sys (counters, averages
 * with bit-exact sums, distributions, histograms) plus the per-core
 * committed-instruction counts and the current cycle. Two runs are
 * "bit-identical" exactly when these digests match; interval/heatmap
 * snapshots and wall-clock telemetry are deliberately excluded.
 */
std::uint64_t statsDigest(const system::CmpSystem &sys);

} // namespace stacknoc::snapshot

#endif // STACKNOC_SNAPSHOT_STATE_IO_HH
