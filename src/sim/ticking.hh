/**
 * @file
 * Interface for cycle-driven components.
 */

#ifndef STACKNOC_SIM_TICKING_HH
#define STACKNOC_SIM_TICKING_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace stacknoc {

/**
 * Coarse component classification used by the execution engines to batch
 * the per-cycle tick walk into per-kind loops (devirtualized dispatch)
 * and to order those loops deterministically. The enumerator order IS
 * the within-cycle tick order of the kind-batched schedule; it mirrors
 * the registration order CmpSystem has always used (network first, then
 * memory, then cores), so every direct-call contract (NI delivers before
 * its bank ticks, an L1 ticks before its core) is preserved.
 */
enum class TickKind : std::uint8_t {
    Router = 0,
    NetworkInterface,
    RcaFabric,
    L2Bank,
    MemoryController,
    L1Cache,
    Core,
    Other, //!< anything the engines only know through the vtable
};

constexpr int kNumTickKinds = static_cast<int>(TickKind::Other) + 1;

/**
 * A component evaluated once per clock cycle.
 *
 * All inter-component communication must flow through latency-1 (or more)
 * Channel objects, which makes simulation results independent of the order
 * in which components are ticked within a cycle.
 *
 * ## Quiescence and wake (idle elision)
 *
 * A component may additionally implement quiescent(): returning true is a
 * promise that tick() is a no-op — no state changes, no stats samples, no
 * channel pushes — and will remain one every cycle until some external
 * event (a channel push or a direct method call) perturbs the component.
 * The execution engines use this to drop quiescent components from the
 * active set; wake() re-arms them. The contract is asymmetric on purpose:
 * a spurious wake() costs one wasted tick, a missed wake diverges the
 * simulation, so every mutating entry point must wake conservatively.
 * Components that cannot prove idleness keep the default (never
 * quiescent) and are simply always ticked.
 */
class Ticking
{
  public:
    explicit Ticking(std::string name) : name_(std::move(name)) {}
    virtual ~Ticking() = default;

    Ticking(const Ticking &) = delete;
    Ticking &operator=(const Ticking &) = delete;

    /** Evaluate one cycle. @param now the cycle being evaluated. */
    virtual void tick(Cycle now) = 0;

    /**
     * @return true iff tick(now) — and every later tick until the next
     * wake() — would be a no-op. Must account for in-flight channel
     * payloads (a push wakes the receiver once, at push time, so a
     * component with arrivals still in the pipe may not sleep).
     */
    virtual bool quiescent(Cycle now) const
    {
        (void)now;
        return false;
    }

    /** @return the engine batching/ordering class of this component. */
    virtual TickKind tickKind() const { return TickKind::Other; }

    /** Re-arm this component in the owning engine's active set. */
    void wake()
    {
        if (wake_flag_ != nullptr)
            *wake_flag_ = 1;
    }

    /**
     * Point wake() at an engine-owned active flag (nullptr-safe no-op
     * until bound). The engine owns the flag storage; it must outlive
     * the binding and never reallocate.
     */
    void bindWakeFlag(std::uint8_t *flag) { wake_flag_ = flag; }

    /** Unbind, but only if still bound to @p flag (engine teardown). */
    void unbindWakeFlag(const std::uint8_t *flag)
    {
        if (wake_flag_ == flag)
            wake_flag_ = nullptr;
    }

    /** Shard tag of a component no sharded compute phase ticks. */
    static constexpr int kNoShard = -1;

    /**
     * Tag this component with the shard that ticks it (engine use
     * only: the sharded engine tags every component it builds a plan
     * for and restores kNoShard on teardown). A channel push compares
     * its receiver's tag with the pushing thread's shard.
     */
    void
    setShard(int shard)
    {
        shard_ = shard;
        shardEpoch_.fetch_add(1, std::memory_order_relaxed);
    }
    int shard() const { return shard_; }

    /**
     * Bumped by every setShard() in the process, so an observer that
     * caches shard tags (the validation census) reads them again only
     * when one may have moved. A thread always sees its own bumps.
     */
    static std::uint64_t
    shardEpoch()
    {
        return shardEpoch_.load(std::memory_order_relaxed);
    }

    /** @return hierarchical component name, e.g. "net.router27". */
    const std::string &name() const { return name_; }

  private:
    static inline std::atomic<std::uint64_t> shardEpoch_{0};

    std::string name_;
    std::uint8_t *wake_flag_ = nullptr;
    int shard_ = kNoShard;
};

} // namespace stacknoc

#endif // STACKNOC_SIM_TICKING_HH
