/**
 * @file
 * The campaign worker: one simulation job at a time, checkpoint-warmed.
 *
 * A worker is a child process of stacknoc_serve (spawned with
 * `stacknoc_serve --worker --ckpt-dir D`). It reads one job object per
 * line on stdin — a JobRequest plus the server-assigned "id", the
 * attempt number, and an optional "cold" override — runs the
 * simulation, and emits NDJSON events on stdout:
 *
 *     {"event":"interval","id":N,...}   while measuring (if requested)
 *     {"event":"note","id":N,"kind":"...","reason":"..."}  advisory
 *     {"event":"result","id":N,"data":{...}}   on success
 *     {"event":"error","id":N,"reason":"..."}  on failure
 *
 * Warm-state reuse: before warming up, the worker opens
 * `ckpt_<warm-key>.bin` in the checkpoint directory (warm key =
 * snapshot::warmConfigDigest, which excludes engine knobs and measured
 * cycles). On a hit it restores and skips warm-up entirely; on a miss
 * it warms up and writes the checkpoint via atomic rename, so later
 * sweep points sharing the warm configuration start warm. The restored
 * run is bit-identical to the uninterrupted one by the snapshot
 * contract, so reuse never changes results.
 *
 * The open is attempted directly — never gated on an exists() probe —
 * because the server's LRU eviction (`--ckpt-cap-bytes`) can unlink
 * the file between any probe and the open. ENOENT is a normal cache
 * miss; any other open failure, or a restore that fails after a
 * successful open (truncated or corrupt checkpoint), falls back to a
 * cold warm-up and reports a "warm_fallback" note so the server can
 * count it. A `"cold":true` job member (set by the server on a job's
 * final retry) skips the restore entirely and republishes a fresh
 * checkpoint, healing a poisoned warm cache entry.
 *
 * Chaos: when the server was started with `--chaos`, the spec is
 * passed to every worker and injected here — see chaos.hh. The kill
 * and stall sites sit halfway through the measured phase (after the
 * checkpoint publish), so a retried attempt can restore warm state
 * and prove digest parity.
 *
 * Workers are processes, not threads, for crash isolation and deadline
 * kills: a crashed or killed job takes down only its own worker.
 */

#ifndef STACKNOC_SERVER_WORKER_HH
#define STACKNOC_SERVER_WORKER_HH

#include <iosfwd>
#include <string>

#include "server/chaos.hh"

namespace stacknoc::server {

/**
 * Run the worker loop until EOF on @p in. Events go to @p out, one
 * JSON object per line, flushed per event.
 * @param ckptDir directory for warm checkpoints ("" disables reuse).
 * @param chaos failure-injection spec (defaults to no injection).
 * @return process exit code (0 on clean EOF).
 */
int runWorkerLoop(std::istream &in, std::ostream &out,
                  const std::string &ckptDir,
                  const ChaosSpec &chaos = ChaosSpec{});

} // namespace stacknoc::server

#endif // STACKNOC_SERVER_WORKER_HH
