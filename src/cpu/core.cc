#include "cpu/core.hh"

#include "common/logging.hh"

namespace stacknoc::cpu {

Core::Core(std::string cname, CoreId id, coherence::L1Cache &l1,
           InstructionStream &stream, const CoreConfig &config,
           stats::Group &group)
    : Ticking(std::move(cname)), id_(id), l1_(l1), stream_(stream),
      config_(config),
      committedStat_(group.counter("instructions_committed")),
      memOpsStat_(group.counter("mem_ops")),
      stallCyclesStat_(group.counter("commit_stall_cycles"))
{
    rob_.reserve(static_cast<std::size_t>(config_.robEntries));
    l1_.bindCompletionSink(
        [this](std::uint64_t seq, Cycle t) { memDone(seq, t); });
}

void
Core::memDone(std::uint64_t seq, Cycle)
{
    if (seq < headSeq_)
        return;
    panic_if(seq - headSeq_ >= rob_.size(),
             "core %d: completion for unfetched instruction %llu", id_,
             static_cast<unsigned long long>(seq));
    rob_[seq - headSeq_].done = true;
}

void
Core::commit(Cycle now)
{
    (void)now;
    int n = 0;
    while (n < config_.commitWidth && !rob_.empty()) {
        const RobEntry &head = rob_.front();
        if (head.op.isMem && !head.done)
            break;
        rob_.pop_front();
        ++headSeq_;
        if (issueCursor_ > 0)
            --issueCursor_;
        ++committed_;
        committedStat_.inc();
        ++n;
    }
    if (n == 0 && !rob_.empty())
        stallCyclesStat_.inc();
}

void
Core::issue(Cycle now)
{
    // At most one memory operation issues per cycle. issueCursor_
    // tracks the oldest not-yet-issued entry so the scan does not
    // restart from the ROB head every cycle. A store rejected by the
    // cache (store buffer full) does not stall younger loads — loads
    // bypass buffered stores as in any out-of-order machine — but the
    // cursor stays on it so stores stay ordered among themselves.
    bool store_blocked = false;
    std::size_t scan = issueCursor_;
    while (scan < rob_.size()) {
        RobEntry &e = rob_[scan];
        if (!e.op.isMem || e.issued) {
            if (scan == issueCursor_)
                ++issueCursor_;
            ++scan;
            continue;
        }
        if (store_blocked && e.op.isWrite) {
            ++scan; // stores issue in order among themselves
            continue;
        }
        // Dependent loads serialise behind the previous load.
        if (e.op.dependsOnPrev && !seqDone(lastLoadSeq_))
            return;
        // The token is the op's sequence number: a plain datum the
        // checkpointer saves as is.
        const std::uint64_t seq = headSeq_ + scan;
        if (!l1_.access(e.op.isWrite, e.op.addr, e.op.l2Hit, seq, now)) {
            if (e.op.isWrite) {
                store_blocked = true; // keep looking for a load
                ++scan;
                continue;
            }
            return; // loads retry in order next cycle
        }
        memOpsStat_.inc();
        e.issued = true;
        // Stores retire through the store buffer: the core does not
        // wait for the write to reach the cache hierarchy. Loads block
        // the ROB head until their data returns.
        if (e.op.isWrite)
            e.done = true;
        else
            lastLoadSeq_ = seq;
        if (scan == issueCursor_)
            ++issueCursor_;
        return; // at most one memory operation per cycle
    }
}

void
Core::fetch(Cycle now)
{
    (void)now;
    for (int i = 0; i < config_.fetchWidth &&
                    static_cast<int>(rob_.size()) < config_.robEntries;
         ++i) {
        RobEntry e;
        e.op = stream_.next();
        rob_.push_back(std::move(e));
    }
}

void
Core::tick(Cycle now)
{
    commit(now);
    issue(now);
    fetch(now);
}

} // namespace stacknoc::cpu
