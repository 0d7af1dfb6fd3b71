/**
 * @file
 * Fixed-latency typed channels: the only legal way for two Ticking
 * components to exchange state.
 */

#ifndef STACKNOC_SIM_CHANNEL_HH
#define STACKNOC_SIM_CHANNEL_HH

#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/ring.hh"
#include "sim/ticking.hh"

namespace stacknoc {

namespace snapshot {
class StateIO;
} // namespace snapshot

/**
 * Type-erased base of every Channel: the receiver binding and the
 * staged-push (double buffer) machinery of the sharded parallel
 * execution engine.
 *
 * Each channel is bound once, at wiring time, to the one component
 * that receives on it (bindReceiver). During a parallel compute phase
 * each worker thread installs its shard's staging list and shard index
 * via setStaging(). A push whose receiver is tagged with the pushing
 * thread's shard (Ticking::shard) is immediate, exactly as under the
 * sequential engine: it appends to the live queue and wakes the
 * receiver, both owned by the pushing thread. Any other push — to a
 * receiver on another shard or in the serial list, or on a channel
 * with no bound receiver — appends to a per-channel staging buffer and
 * enrols the channel in the thread's list; after the phase barrier the
 * engine calls commitStaged() on every enrolled channel (single
 * threaded), splicing staged values into the live queue in push order
 * and waking the receiver.
 *
 * Because every channel has latency >= 1, a value pushed during cycle t
 * can never be received during cycle t, so deferring the queue append to
 * the end of the cycle is unobservable — results are bit-identical to
 * immediate pushes. The staging buffer is only ever touched by the one
 * component that sends on the channel (channels are single-sender), and
 * the live queue only by the one receiver's thread, so the two phases
 * are data-race free without any atomics on the hot path. The live
 * queue is a Ring (sim/ring.hh), one block that grows only when full;
 * the staging buffer is a vector that keeps its capacity across
 * commits, so neither allocates per push once a link has been busy.
 *
 * With no staging list installed (the default, and always the case under
 * the sequential engine) every push is immediate.
 */
class ChannelBase
{
  public:
    /** What a push does to the bound receiver besides the signal byte. */
    enum class OnPush : std::uint8_t {
        Wake,       //!< re-arm the receiver for idle elision
        SignalOnly, //!< set the signal byte, leave the receiver asleep
    };

    virtual ~ChannelBase() = default;

    /** Splice staged values into the live queue (engine use only). */
    virtual void commitStaged() = 0;

    /**
     * Bind @p receiver, the one component that receives on this
     * channel. Every push sets the receiver-owned "something was
     * pushed" byte *@p signal (when non-null), which the receiver uses
     * to skip polling empty channels and re-arms while values remain
     * in flight; with OnPush::Wake it also wakes the receiver. Immediate
     * pushes do both at push time, staged pushes during the
     * single-threaded commitStaged(), so a worker thread never touches
     * another shard's flags.
     */
    void
    bindReceiver(Ticking &receiver, std::uint8_t *signal, OnPush on_push)
    {
        receiver_ = &receiver;
        signal_ = signal;
        wakes_ = on_push == OnPush::Wake;
    }

    /**
     * The receiver's signal byte (null when none is registered). Once
     * the receiver has ticked, a zero byte means the channel is empty,
     * so observers may skip it unread.
     */
    const std::uint8_t *signalFlag() const { return signal_; }

    /**
     * Install @p list as this thread's staged-channel enrolment list
     * for a compute phase ticking @p shard (null restores immediate
     * pushes). Engine use only.
     */
    static void
    setStaging(std::vector<ChannelBase *> *list,
               int shard = Ticking::kNoShard)
    {
        staging_ = Staging{list, shard};
    }

  protected:
    /**
     * @return this thread's enrolment list when a push must be staged
     * (staging is installed and the receiver does not tick on this
     * thread's shard), else null.
     */
    std::vector<ChannelBase *> *
    stagingFor() const
    {
        const Staging &st = staging_;
        if (st.list == nullptr ||
            (receiver_ != nullptr && receiver_->shard() == st.shard))
            return nullptr;
        return st.list;
    }

    void
    notifyReceiver()
    {
        if (wakes_)
            receiver_->wake();
        if (signal_ != nullptr)
            *signal_ = 1;
    }

  private:
    struct Staging
    {
        std::vector<ChannelBase *> *list;
        int shard;
    };
    static inline thread_local Staging staging_{nullptr,
                                                Ticking::kNoShard};
    Ticking *receiver_ = nullptr;
    std::uint8_t *signal_ = nullptr;
    bool wakes_ = false;
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
        if (auto *enrolled = stagingFor()) {
            if (staged_.empty())
                enrolled->push_back(this);
            staged_.emplace_back(now + latency_, std::move(value));
            return;
        }
        queue_.emplace_back(now + latency_, std::move(value));
        notifyReceiver();
    }

    void
    commitStaged() override
    {
        for (auto &e : staged_)
            queue_.push_back(std::move(e));
        staged_.clear();
        notifyReceiver();
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
     *  restored entries without calling notifyReceiver(): the engine active
     *  set is restored separately, and a restore-time wake would differ
     *  from the saved run's flag state. */
    friend class snapshot::StateIO;
    Cycle latency_;
    /** The live queue, oldest first, each value with its delivery
     *  cycle. */
    Ring<std::pair<Cycle, T>> queue_;
    /** Values pushed during a parallel compute phase, pre-commit. */
    std::vector<std::pair<Cycle, T>> staged_;
};

} // namespace stacknoc

#endif // STACKNOC_SIM_CHANNEL_HH
