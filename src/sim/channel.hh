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
 * mailbox machinery of the sharded parallel execution engine.
 *
 * Each channel is bound once, at wiring time, to the one component
 * that receives on it (bindReceiver). During a parallel compute phase
 * each worker thread installs its shard's outbox for the cycle's parity
 * (setStaging). A push whose receiver is tagged with the pushing
 * thread's shard (Ticking::shard) is immediate, exactly as under the
 * sequential engine: it appends to the live queue and wakes the
 * receiver, both owned by the pushing thread. Any other push appends
 * to the channel's staging buffer for that parity, and the first such
 * push of a cycle enrols the channel in the outbox slot of the
 * receiver's shard: a mailbox. Receivers in the serial list, and
 * channels with no bound receiver, share the outbox's last slot.
 *
 * Whoever owns the receiver drains the mailbox (drainStaged) one cycle
 * later: a shard at the start of its next compute phase, the main
 * thread before the serial phase. Draining splices the staged values
 * into the live queue in push order and wakes the receiver, so no
 * thread ever writes another shard's queue or flags. It is race free
 * without atomics:
 *
 *  - every channel has latency >= 1, so a value pushed during cycle t
 *    is never receivable during t, and appending it to the live queue
 *    at the start of t+1 is unobservable to the receiver;
 *  - during cycle t+1 a sender stages into the other parity's buffers
 *    only, so the drain of parity t and the next pushes never touch the
 *    same buffer;
 *  - the engine's end-of-cycle barrier orders the parity-t pushes
 *    before the receiver's drain.
 *
 * Channels are single-sender, so a staging buffer has one writer; the
 * live queue has one owner, the receiver's thread. The live queue is a
 * Ring (sim/ring.hh), one block that grows only when full; the staging
 * buffers are vectors that keep their capacity across drains, so
 * neither allocates per push once a link has been busy.
 *
 * Observer rule: between cycles, the last cycle's cross-shard values
 * are still staged. forEachInFlight() and hasStaged() see them;
 * inFlight(), ready() and receive() do not, since the receiver's own
 * hot path calls them while its sender may be staging.
 *
 * With no outbox installed (the default, and always the case under the
 * sequential engine) every push is immediate.
 */
class ChannelBase
{
  public:
    /** What a push does to the bound receiver besides the signal byte. */
    enum class OnPush : std::uint8_t {
        Wake,       //!< re-arm the receiver for idle elision
        SignalOnly, //!< set the signal byte, leave the receiver asleep
    };

    /**
     * One sender's mailboxes for one cycle parity: slot r lists the
     * channels with values staged for a receiver on shard r, and the
     * last slot those for serial-list receivers and unbound channels.
     */
    using Outbox = std::vector<std::vector<ChannelBase *>>;

    virtual ~ChannelBase() = default;

    /**
     * Splice the values staged under @p parity into the live queue and
     * notify the receiver (engine use only, on the receiver's thread).
     */
    virtual void drainStaged(unsigned parity) = 0;

    /**
     * Bind @p receiver, the one component that receives on this
     * channel. Every push sets the receiver-owned "something was
     * pushed" byte *@p signal (when non-null), which the receiver uses
     * to skip polling empty channels and re-arms while values remain
     * in flight; with OnPush::Wake it also wakes the receiver. Immediate
     * pushes do both at push time, staged pushes when the receiver's
     * owner drains them, so a worker thread never touches another
     * shard's flags.
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
     * the receiver has ticked, a zero byte means the live queue is
     * empty; between cycles values may still be staged (hasStaged()).
     */
    const std::uint8_t *signalFlag() const { return signal_; }

    /**
     * Whether a push from a sender tagged @p sender_shard (pushing from
     * its tick) to a receiver tagged @p receiver_shard is staged rather
     * than immediate: only a sender ticking on a shard has an outbox,
     * and it stages only across shards. A channel between two such
     * components never holds staged values, so observers need not look.
     */
    static constexpr bool
    stagesAcross(int sender_shard, int receiver_shard)
    {
        return sender_shard != Ticking::kNoShard &&
               receiver_shard != sender_shard;
    }

    /**
     * Install @p outbox (one slot per shard plus the serial slot) as
     * this thread's mailboxes for a compute phase ticking @p shard
     * during a cycle of @p parity; null restores immediate pushes.
     * Engine use only.
     */
    static void
    setStaging(Outbox *outbox, int shard = Ticking::kNoShard,
               unsigned parity = 0)
    {
        staging_ = Staging{outbox, shard, parity};
    }

  protected:
    /**
     * @return the mailbox a push must enrol in (staging is installed
     * and the receiver does not tick on this thread's shard), else null.
     */
    std::vector<ChannelBase *> *
    mailboxFor() const
    {
        const Staging &st = staging_;
        if (st.outbox == nullptr)
            return nullptr;
        const int shard =
            receiver_ != nullptr ? receiver_->shard() : Ticking::kNoShard;
        if (!stagesAcross(st.shard, shard))
            return nullptr;
        if (shard == Ticking::kNoShard)
            return &st.outbox->back();
        return &(*st.outbox)[static_cast<std::size_t>(shard)];
    }

    /** The cycle parity of this thread's installed outbox. */
    static unsigned stagingParity() { return staging_.parity; }

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
        Outbox *outbox;
        int shard;
        unsigned parity;
    };
    static inline thread_local Staging staging_{nullptr, Ticking::kNoShard,
                                                0};
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
        if (auto *mailbox = mailboxFor()) {
            auto &staged = staged_[stagingParity()];
            if (staged.empty())
                mailbox->push_back(this);
            staged.emplace_back(now + latency_, std::move(value));
            return;
        }
        // Values still staged would be drained in behind this one.
        checkNothingStaged();
        queue_.emplace_back(now + latency_, std::move(value));
        notifyReceiver();
    }

    void
    drainStaged(unsigned parity) override
    {
        auto &staged = staged_[parity];
        for (auto &e : staged)
            queue_.push_back(std::move(e));
        staged.clear();
        notifyReceiver();
    }

    /** @return whether values wait in a mailbox, not yet drained. */
    bool
    hasStaged() const
    {
        return !staged_[0].empty() || !staged_[1].empty();
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

    /**
     * @return number of values in the live queue (arrived or not).
     * Staged values are not counted: the receiver calls this on its
     * hot path while the sender may be staging.
     */
    std::size_t inFlight() const { return queue_.size(); }

    /**
     * Visit every in-flight value: the live queue oldest first, then
     * the staged ones. Between cycles at most one parity holds values,
     * so the visit is in push order. Observer use only (validation
     * census, between cycles); must not be used to smuggle state
     * between components ahead of the delivery latency.
     */
    template <typename Fn>
    void
    forEachInFlight(Fn fn) const
    {
        for (const auto &e : queue_)
            fn(e.second);
        for (const auto &staged : staged_)
            for (const auto &e : staged)
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
    /** Values pushed across shards during a parallel compute phase,
     *  by cycle parity, until the receiver's owner drains them. */
    std::vector<std::pair<Cycle, T>> staged_[2];

    void
    checkNothingStaged() const
    {
#ifdef _GLIBCXX_ASSERTIONS
        panic_if(hasStaged(), "Channel: immediate push overtakes staged "
                              "values");
#endif
    }
};

} // namespace stacknoc

#endif // STACKNOC_SIM_CHANNEL_HH
