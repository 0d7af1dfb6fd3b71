#include "mem/bank_controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "telemetry/trace.hh"

namespace stacknoc::mem {

BankController::BankController(CacheTech tech,
                               const BankControllerConfig &config,
                               stats::Group &group, DoneFn on_done,
                               std::string stat_prefix, NodeId node)
    : bank_(tech, group), config_(config), onDone_(std::move(on_done)),
      node_(node),
      queueLatency_(group.average("bank_queue_latency")),
      served_(group.counter("bank_requests_served")),
      bufferHits_(group.counter("write_buffer_hits")),
      preemptions_(group.counter("write_buffer_preemptions")),
      gapAfterWrite_(group.distribution("gap_after_write",
                                        {16, 33, 66, 99, 132, 165})),
      queueLatencyHist_(group.histogram("bank_queue_latency_hist"))
{
    if (!stat_prefix.empty()) {
        perBankQueueHist_ =
            &group.histogram(stat_prefix + ".queue_latency_hist");
    }
}

void
BankController::noteServiceStart(const BankRequest &req, Cycle now)
{
    const std::uint64_t waited = now - req.enqueuedAt;
    queueLatencyHist_.sample(waited);
    if (perBankQueueHist_)
        perBankQueueHist_->sample(waited);
    if (req.tracePktId == kNoTracePkt)
        return;
    if (auto *t = telemetry::tracer(); t && t->tracked(req.tracePktId)) {
        t->record(telemetry::TraceEvent::BankServiceStart, req.tracePktId,
                  req.traceCls, node_, now,
                  static_cast<std::int64_t>(waited));
    }
}

void
BankController::enqueue(BankRequest req, Cycle now)
{
    // Figure 3: distribution of accesses that follow a write request to
    // the same bank.
    if (lastWasWrite_ && lastArrival_ != kCycleNever)
        gapAfterWrite_.sample(now - lastArrival_);
    lastArrival_ = now;
    lastWasWrite_ = req.isWrite;

    req.enqueuedAt = now;
    if (req.tracePktId != kNoTracePkt) {
        if (auto *t = telemetry::tracer();
            t && t->tracked(req.tracePktId)) {
            // aux encodes the queue depth seen on arrival and the
            // access type: (depth << 1) | isWrite. The golden bank
            // model needs the type; the class alone can't provide it
            // (a MemResp fill is a bank *write* carrying a read's cls).
            t->record(telemetry::TraceEvent::BankQueueEnter,
                      req.tracePktId, req.traceCls, node_, now,
                      static_cast<std::int64_t>(
                          (queue_.size() << 1) |
                          (req.isWrite ? 1u : 0u)));
        }
    }
    queue_.push_back(std::move(req));
}

bool
BankController::idle(Cycle now) const
{
    return queue_.empty() && buffer_.empty() && !current_ &&
           !drainDoneAt_ && delayed_.empty() && !bank_.busy(now);
}

void
BankController::setFaultInjector(fault::FaultInjector *fi, BankId bank)
{
    faults_ = fi;
    bankId_ = bank;
}

Cycle
BankController::activeWriteDoneAt(Cycle now) const
{
    if (current_ && current_->req.isWrite)
        return current_->doneAt;
    if (drainDoneAt_)
        return *drainDoneAt_;
    return now;
}

bool
BankController::writeNeedsRetry(int &failures)
{
    if (!faults_ || bank_.tech() != CacheTech::SttRam)
        return false;
    if (!faults_->drawWriteFailure(bankId_)) {
        if (failures > 0) {
            faults_->noteWriteRecovered(
                bankId_, failures,
                static_cast<Cycle>(failures) * bank_.params().writeCycles);
        }
        retryActive_ = false;
        return false;
    }
    faults_->noteWriteFailure(bankId_);
    ++retryEpisodes_;
    if (failures >= faults_->spec().sttWriteRetries) {
        // Retry budget exhausted: hand the line to ECC and complete.
        faults_->noteWriteAbandoned(bankId_);
        retryActive_ = false;
        return false;
    }
    ++failures;
    faults_->noteWriteRetryRound(bankId_);
    ++retryRoundsTotal_;
    retryActive_ = true;
    return true;
}

void
BankController::completeDue(Cycle now)
{
    if (current_ && now >= current_->doneAt) {
        if (current_->req.isWrite && writeNeedsRetry(current_->failures)) {
            // Failed verify: the bank runs another full write round.
            current_->doneAt = bank_.startWrite(now);
        } else {
            served_.inc();
            onDone_(current_->req.addr, now);
            current_.reset();
        }
    }
    if (drainDoneAt_ && now >= *drainDoneAt_) {
        panic_if(buffer_.empty() || !buffer_.front().draining,
                 "drain completion without a draining entry");
        if (writeNeedsRetry(drainFailures_)) {
            drainDoneAt_ = bank_.startWrite(now);
        } else {
            buffer_.pop_front();
            drainDoneAt_.reset();
            drainFailures_ = 0;
        }
    }
    for (auto it = delayed_.begin(); it != delayed_.end();) {
        if (now >= it->at) {
            served_.inc();
            onDone_(it->req.addr, now);
            it = delayed_.erase(it);
        } else {
            ++it;
        }
    }
}

BankRequest
BankController::takeNextPlain()
{
    if (!config_.readPriority || queue_.front().isWrite == false) {
        BankRequest req = std::move(queue_.front());
        queue_.pop_front();
        return req;
    }
    // Read priority: serve the oldest queued read ahead of any write.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (!it->isWrite) {
            BankRequest req = std::move(*it);
            queue_.erase(it);
            return req;
        }
    }
    BankRequest req = std::move(queue_.front());
    queue_.pop_front();
    return req;
}

void
BankController::startPlain(Cycle now)
{
    if (current_ || queue_.empty() || bank_.busy(now))
        return;
    BankRequest req = takeNextPlain();
    queueLatency_.sample(now - req.enqueuedAt);
    noteServiceStart(req, now);
    const Cycle done =
        req.isWrite ? bank_.startWrite(now) : bank_.startRead(now);
    current_ = InFlight{std::move(req), done};
}

bool
BankController::bufferContains(BlockAddr addr) const
{
    return std::any_of(buffer_.begin(), buffer_.end(),
                       [&](const BufferedWrite &w) {
                           return w.addr == addr;
                       });
}

void
BankController::startBuffered(Cycle now)
{
    // Admit demand requests in order; every request pays the 1-cycle
    // read/write detection before any action (Section 4.4).
    while (!queue_.empty()) {
        BankRequest &front = queue_.front();
        if (now < front.enqueuedAt + config_.checkCycles)
            break;
        if (front.isWrite) {
            const bool buffer_free =
                static_cast<int>(buffer_.size()) <
                config_.writeBufferEntries;
            if (!buffer_free)
                break; // wait for a drain to free an entry
            BankRequest req = std::move(front);
            queue_.pop_front();
            buffer_.push_back(BufferedWrite{req.addr, false});
            queueLatency_.sample(now - req.enqueuedAt);
            noteServiceStart(req, now);
            delayed_.push_back(
                DelayedDone{now + config_.bufferAccessCycles,
                            std::move(req)});
            continue;
        }
        // Read: the buffer is searched in parallel with the bank.
        if (bufferContains(front.addr)) {
            BankRequest req = std::move(front);
            queue_.pop_front();
            bufferHits_.inc();
            queueLatency_.sample(now - req.enqueuedAt);
            noteServiceStart(req, now);
            delayed_.push_back(
                DelayedDone{now + config_.bufferAccessCycles,
                            std::move(req)});
            continue;
        }
        if (bank_.busy(now)) {
            // Read preemption: abort an in-progress drain write; the
            // unfinished write stays buffered and restarts later.
            if (drainDoneAt_ && config_.readPreemption) {
                bank_.abort(now);
                buffer_.front().draining = false;
                drainDoneAt_.reset();
                drainFailures_ = 0; // the restarted write re-verifies
                retryActive_ = false;
                preemptions_.inc();
            } else {
                break; // demand read already occupies the bank
            }
        }
        if (current_)
            break; // one demand access at a time
        BankRequest req = std::move(front);
        queue_.pop_front();
        const Cycle done = bank_.startRead(now);
        queueLatency_.sample(now - req.enqueuedAt);
        noteServiceStart(req, now);
        current_ = InFlight{std::move(req), done};
        break;
    }

    // Drain the oldest buffered write when the bank has nothing better
    // to do.
    if (!drainDoneAt_ && !current_ && !buffer_.empty() &&
        !bank_.busy(now)) {
        buffer_.front().draining = true;
        drainDoneAt_ = bank_.startWrite(now);
    }
}

void
BankController::tick(Cycle now)
{
    completeDue(now);
    if (config_.writeBuffer) {
        startBuffered(now);
        return;
    }
    // Plain-mode read preemption: abort an in-service write when a
    // read is waiting, and put the write back at the head of the queue.
    if (config_.readPriority && current_ && current_->req.isWrite &&
        bank_.writingNow(now)) {
        const bool read_waiting =
            std::any_of(queue_.begin(), queue_.end(),
                        [](const BankRequest &r) { return !r.isWrite; });
        if (read_waiting) {
            bank_.abort(now);
            queue_.push_front(std::move(current_->req));
            current_.reset();
            retryActive_ = false; // the restarted write re-verifies
            preemptions_.inc();
        }
    }
    startPlain(now);
}

} // namespace stacknoc::mem
