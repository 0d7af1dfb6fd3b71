/**
 * @file
 * Fixed-latency typed channels: the only legal way for two Ticking
 * components to exchange state.
 */

#ifndef STACKNOC_SIM_CHANNEL_HH
#define STACKNOC_SIM_CHANNEL_HH

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/ticking.hh"

namespace stacknoc {

namespace snapshot {
class StateIO;
} // namespace snapshot

/**
 * Type-erased base of every Channel, carrying the staged-push (double
 * buffer) machinery used by the sharded parallel execution engine.
 *
 * During a parallel compute phase each worker thread installs a staging
 * list via setStagingList(). While a staging list is installed, push()
 * appends to a per-channel staging buffer instead of the live queue and
 * enrols the channel in the thread's list; after the phase barrier the
 * engine calls commitStaged() on every enrolled channel (single
 * threaded), splicing staged values into the live queue in push order.
 *
 * Because every channel has latency >= 1, a value pushed during cycle t
 * can never be received during cycle t, so deferring the queue append to
 * the end of the cycle is unobservable — results are bit-identical to
 * immediate pushes. The staging buffer is only ever touched by the one
 * component that sends on the channel (channels are single-sender), and
 * the live queue only by the one receiver, so the two phases are
 * data-race free without any atomics on the hot path.
 *
 * With no staging list installed (the default, and always the case under
 * the sequential engine) push() is exactly the historical immediate
 * append.
 */
class ChannelBase
{
  public:
    virtual ~ChannelBase() = default;

    /** Splice staged values into the live queue (engine use only). */
    virtual void commitStaged() = 0;

    /**
     * Declare @p t the receiving component of this channel: every push
     * wakes it for idle elision. Immediate pushes wake at push time;
     * staged pushes wake during commitStaged(), which runs single
     * threaded after the phase barrier, so a worker thread never touches
     * another shard's active flags.
     */
    void setWakeTarget(Ticking *t) { wake_target_ = t; }

    /**
     * Register a receiver-owned "something was pushed" byte: every push
     * also sets *flag to 1 (immediate pushes at push time, staged
     * pushes during the single-threaded commitStaged()). The receiver
     * uses it to skip polling empty channels and is responsible for
     * re-arming the flag while values remain in flight. Same threading
     * contract as the wake target.
     */
    void setSignalFlag(std::uint8_t *flag) { signal_ = flag; }

    /**
     * The receiver's signal byte (null when none is registered). Once
     * the receiver has ticked, a zero byte means the channel is empty,
     * so observers may skip it unread.
     */
    const std::uint8_t *signalFlag() const { return signal_; }

    /**
     * Install @p list as this thread's staged-channel enrolment list
     * (null restores immediate pushes). Engine use only.
     */
    static void
    setStagingList(std::vector<ChannelBase *> *list)
    {
        staging_ = list;
    }

  protected:
    static std::vector<ChannelBase *> *stagingList() { return staging_; }

    void
    wakeTarget()
    {
        if (wake_target_ != nullptr)
            wake_target_->wake();
        if (signal_ != nullptr)
            *signal_ = 1;
    }

  private:
    static inline thread_local std::vector<ChannelBase *> *staging_ =
        nullptr;
    Ticking *wake_target_ = nullptr;
    std::uint8_t *signal_ = nullptr;
};

/**
 * A unidirectional pipe with a fixed delivery latency of >= 1 cycle.
 *
 * A value pushed during cycle t becomes receivable during cycle
 * t + latency. Multiple values may be pushed per cycle (bandwidth policing
 * is the sender's job); receivers drain all arrived values.
 *
 * Exactly one component may send on a channel and exactly one may
 * receive; this is what lets the parallel engine run sender and receiver
 * on different threads (see ChannelBase).
 */
template <typename T>
class Channel : public ChannelBase
{
  public:
    explicit Channel(Cycle latency = 1) : latency_(latency)
    {
        panic_if(latency == 0, "Channel latency must be >= 1");
    }

    /** Enqueue a value during cycle @p now. */
    void
    push(Cycle now, T value)
    {
        if (auto *enrolled = stagingList()) {
            if (staged_.empty())
                enrolled->push_back(this);
            staged_.emplace_back(now + latency_, std::move(value));
            return;
        }
        queue_.emplace_back(now + latency_, std::move(value));
        wakeTarget();
    }

    void
    commitStaged() override
    {
        for (auto &e : staged_)
            queue_.push_back(std::move(e));
        staged_.clear();
        wakeTarget();
    }

    /**
     * Dequeue the next value whose delivery time has been reached.
     * @return the value, or std::nullopt if nothing has arrived yet.
     */
    std::optional<T>
    receive(Cycle now)
    {
        if (queue_.empty() || queue_.front().first > now)
            return std::nullopt;
        T v = std::move(queue_.front().second);
        queue_.pop_front();
        return v;
    }

    /** @return whether a value is ready at cycle @p now without popping. */
    bool
    ready(Cycle now) const
    {
        return !queue_.empty() && queue_.front().first <= now;
    }

    /** @return number of values in flight (arrived or not). */
    std::size_t inFlight() const { return queue_.size(); }

    /**
     * Visit every in-flight value, oldest first. Observer use only
     * (validation census); must not be used to smuggle state between
     * components ahead of the delivery latency.
     */
    template <typename Fn>
    void
    forEachInFlight(Fn fn) const
    {
        for (const auto &e : queue_)
            fn(e.second);
    }

    Cycle latency() const { return latency_; }

  private:
    /** Checkpointing reads queue_ (with delivery times) and appends
     *  restored entries without calling wakeTarget(): the engine active
     *  set is restored separately, and a restore-time wake would differ
     *  from the saved run's flag state. */
    friend class snapshot::StateIO;
    Cycle latency_;
    std::deque<std::pair<Cycle, T>> queue_;
    /** Values pushed during a parallel compute phase, pre-commit. */
    std::vector<std::pair<Cycle, T>> staged_;
};

} // namespace stacknoc

#endif // STACKNOC_SIM_CHANNEL_HH
