/**
 * @file
 * The campaign-server wire protocol: newline-delimited JSON objects
 * over a Unix-domain stream socket (NDJSON both ways).
 *
 * Client -> server commands (one object per line):
 *
 *     {"cmd":"run", <JobRequest members>}
 *     {"cmd":"status"}
 *     {"cmd":"shutdown"}
 *
 * Server -> client events:
 *
 *     {"event":"accepted","id":N,"cache":"hit"|"miss","key":"0x..."}
 *     {"event":"interval","id":N,"cycle":C,"mean_ipc":...,
 *      "avg_network_latency":...}            (streamed during the run)
 *     {"event":"result","id":N,"cached":B,"key":"0x...","data":{...}}
 *     {"event":"error","id":N,"reason":"..."}
 *     {"event":"status", ...}    {"event":"bye"}
 *
 * The result cache is keyed by cacheKeyDigest(): an FNV-1a over the
 * canonical request rendering (see cacheKeyString) — the full warm
 * configuration plus measured cycles, interval period, engine knobs
 * and the protocol schema version. Identical requests are served from
 * cache without re-simulation; the determinism contract guarantees the
 * cached stats are exactly what a re-run would produce.
 */

#ifndef STACKNOC_SERVER_PROTOCOL_HH
#define STACKNOC_SERVER_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "system/run_spec.hh"
#include "telemetry/json.hh"

namespace stacknoc::server {

/** Bumped whenever the request grammar or result payload changes
 *  incompatibly; part of the cache key, so stale entries self-expire. */
constexpr int kProtocolVersion = 1;

/** One scenario-run request (the "run" command's payload). */
struct JobRequest
{
    system::RunSpec spec; //!< the wire (kWire) fields
    Cycle interval = 0;   //!< interval-event period; 0 streams nothing

    /** Fill from a request object (unknown members, "cmd"/"id"
     *  included, are ignored). @return "" or a one-line reason. */
    std::string read(const telemetry::JsonValue &v);

    /** Emit the request's members into an already-open JSON object. */
    void write(telemetry::JsonWriter &w) const;
};

/** The canonical cache-key rendering (documented in docs/SERVER.md). */
std::string cacheKeyString(const JobRequest &req);

/** FNV-1a digest of cacheKeyString — the result-cache key. */
std::uint64_t cacheKeyDigest(const JobRequest &req);

/** Render any parsed JsonValue back to compact JSON. */
void writeJsonValue(telemetry::JsonWriter &w,
                    const telemetry::JsonValue &v);
std::string jsonValueToString(const telemetry::JsonValue &v);

/** "0x%016x" rendering used for keys and digests on the wire. */
std::string hexKey(std::uint64_t v);

} // namespace stacknoc::server

#endif // STACKNOC_SERVER_PROTOCOL_HH
