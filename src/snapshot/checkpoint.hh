/**
 * @file
 * On-disk checkpoint container around snapshot::StateIO.
 *
 * Layout (all integers little-endian):
 *
 *     offset  size  field
 *     0       8     magic "SNOCCKPT"
 *     8       4     format version (kFormatVersion)
 *     12      8     warm-config digest (see warmConfigDigest)
 *     20      8     simulation cycle at capture
 *     28      8     payload size in bytes
 *     36      8     FNV-1a of the payload
 *     44      ...   StateIO payload
 *
 * Version policy: the format version bumps on ANY change to the payload
 * encoding (field added/removed/reordered anywhere in StateIO) or to
 * the warm-config canonicalisation; Snapshot.PayloadBytesArePinned
 * holds the current version's bytes. Readers reject other versions with a
 * one-line reason rather than attempting migration — checkpoints are
 * warm-state caches, always re-creatable from the scenario and seed.
 */

#ifndef STACKNOC_SNAPSHOT_CHECKPOINT_HH
#define STACKNOC_SNAPSHOT_CHECKPOINT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace stacknoc::system {
class CmpSystem;
struct SystemConfig;
} // namespace stacknoc::system

namespace stacknoc::snapshot {

/** Bumped on any payload or canonicalisation change. */
constexpr std::uint32_t kFormatVersion = 2;

/** The 8-byte container magic. */
extern const char kCheckpointMagic[8];

/**
 * Canonical text rendering of everything that shapes simulator state at
 * the warm-up boundary: scenario knobs, mesh, apps, seed, workload/L1/
 * DRAM parameters, bank caps, warm-up length, fault spec and the format
 * version. Deliberately EXCLUDES threads, elision, and observer-only
 * telemetry settings — the determinism contract makes warm state
 * independent of those, so sweep points differing only there can share
 * one warm checkpoint. Doubles are rendered bit-exactly.
 */
std::string canonicalWarmSpec(const system::SystemConfig &cfg,
                              Cycle warmupCycles);

/** FNV-1a digest of canonicalWarmSpec — the checkpoint compatibility key. */
std::uint64_t warmConfigDigest(const system::SystemConfig &cfg,
                               Cycle warmupCycles);

/**
 * Serialise @p sys (already past warmupEnd()) into @p out.
 * @param warmDigest the warmConfigDigest of the producing configuration.
 * @throws SnapshotError on non-serialisable state, std::ios failures
 * are left on the stream for the caller.
 */
void saveCheckpoint(const system::CmpSystem &sys, std::ostream &out,
                    std::uint64_t warmDigest);

/**
 * Restore @p sys — freshly constructed, never run — from @p in and
 * complete the warm boundary (CmpSystem::warmupEnd()).
 *
 * @param expectedDigest warmConfigDigest of the restoring configuration;
 *                       mismatches are rejected.
 * @param restoredCycle  set to the checkpoint's capture cycle on success.
 * @return empty string on success, else a one-line reason (bad magic,
 *         version mismatch, digest mismatch, truncation, corruption).
 *         The system must be considered unusable after a failure.
 */
std::string restoreCheckpoint(system::CmpSystem &sys, std::istream &in,
                              std::uint64_t expectedDigest,
                              Cycle *restoredCycle = nullptr);

// --- Checkpoint-directory accounting and eviction ---------------------
//
// Warm checkpoints (`ckpt_<warm-key>.bin` under the server's
// --ckpt-dir) are a cache: every entry is re-creatable from its
// scenario and seed, so the directory can be capped. Eviction is
// least-recently-used on the filesystem write timestamp — restorers
// bump it (touchCheckpoint) so reuse counts as recency — and deletes
// are single unlinks, atomic with respect to concurrent restorers: a
// worker that already opened the file keeps a valid descriptor.

/** Aggregate size of the `ckpt_*.bin` entries in @p dir. */
struct CkptDirUsage
{
    std::uint64_t bytes = 0;
    std::uint64_t files = 0;
};

/** Scan @p dir ("" or missing directory yields zeros). */
CkptDirUsage ckptDirUsage(const std::string &dir);

/** One eviction, for logging and accounting. */
struct CkptEviction
{
    std::string file; //!< file name (not the full path)
    std::uint64_t bytes = 0;
};

/**
 * Delete least-recently-written `ckpt_*.bin` entries in @p dir until
 * the aggregate size is <= @p capBytes. @return the evicted entries,
 * oldest first (empty when already under the cap or @p dir is "").
 */
std::vector<CkptEviction> evictCheckpointsLru(const std::string &dir,
                                              std::uint64_t capBytes);

/**
 * Best-effort bump of @p path's write timestamp to now, marking a
 * restored checkpoint as recently used for LRU eviction.
 */
void touchCheckpoint(const std::string &path);

} // namespace stacknoc::snapshot

#endif // STACKNOC_SNAPSHOT_CHECKPOINT_HH
