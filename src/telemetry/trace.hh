/**
 * @file
 * Packet-lifecycle tracing: a tracked packet is stamped at injection,
 * at every router it reaches, around STT-RAM-aware parent holds, at
 * bank-queue entry and bank-service start, and at ejection.
 *
 * Records accumulate in a bounded ring buffer; when a sink is attached
 * the ring drains into it on overflow and on flush(), so nothing is
 * lost. Without a sink the ring retains the most recent records
 * (oldest are overwritten), which is what unit tests and post-mortem
 * inspection want.
 *
 * Hot paths gate on the installed global tracer being non-null, so a
 * run with tracing off pays one pointer load per potential event.
 */

#ifndef STACKNOC_TELEMETRY_TRACE_HH
#define STACKNOC_TELEMETRY_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hh"

namespace stacknoc::telemetry {

/** Lifecycle points a tracked packet is stamped at. */
enum class TraceEvent : std::uint8_t {
    Inject,           //!< head flit entered the network at the source NI
    RouterArrive,     //!< head flit buffered at a router
    HoldStart,        //!< an STT-RAM-aware parent began holding the packet
    HoldEnd,          //!< the parent forwarded a previously held packet
    /**
     * Request entered an L2 bank's demand queue.
     * aux = (queue depth on arrival << 1) | is-bank-write.
     */
    BankQueueEnter,
    BankServiceStart, //!< bank (or write buffer) began servicing it; aux = cycles waited
    Eject,            //!< tail flit left the network at the destination NI
};

/** @return stable lower-case event name, used in the CSV schema. */
const char *traceEventName(TraceEvent ev);

/** One trace stamp. */
struct TraceRecord
{
    Cycle cycle = 0;              //!< when the event happened
    std::uint64_t packetId = 0;   //!< noc::Packet::id
    std::uint8_t cls = 0;         //!< noc::PacketClass as integer
    TraceEvent event = TraceEvent::Inject;
    NodeId node = kInvalidNode;   //!< where the event happened
    std::int64_t aux = 0;         //!< event-specific payload, see docs
};

/** Destination of drained trace records. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void write(const TraceRecord &rec) = 0;
    virtual void flush() {}
};

/** Swallows everything (tracing enabled for ring inspection only). */
class NullTraceSink : public TraceSink
{
  public:
    void write(const TraceRecord &) override {}
};

/** Retains every drained record in memory, for tests. */
class MemoryTraceSink : public TraceSink
{
  public:
    void write(const TraceRecord &rec) override
    {
        records_.push_back(rec);
    }

    const std::vector<TraceRecord> &records() const { return records_; }
    void clear() { records_.clear(); }

  private:
    std::vector<TraceRecord> records_;
};

/** Fans each record out to two sinks (neither owned). */
class TeeTraceSink : public TraceSink
{
  public:
    TeeTraceSink(TraceSink &a, TraceSink &b) : a_(a), b_(b) {}

    void
    write(const TraceRecord &rec) override
    {
        a_.write(rec);
        b_.write(rec);
    }

    void
    flush() override
    {
        a_.flush();
        b_.flush();
    }

  private:
    TraceSink &a_;
    TraceSink &b_;
};

/**
 * Streams records to a CSV file with a fixed header:
 *   cycle,packet_id,class,event,node,aux
 */
class CsvTraceSink : public TraceSink
{
  public:
    explicit CsvTraceSink(const std::string &path);
    ~CsvTraceSink() override;

    CsvTraceSink(const CsvTraceSink &) = delete;
    CsvTraceSink &operator=(const CsvTraceSink &) = delete;

    void write(const TraceRecord &rec) override;
    void flush() override;

    /** @return false when the file could not be opened. */
    bool ok() const { return file_ != nullptr; }

  private:
    std::FILE *file_ = nullptr;
};

class PacketTracer;

/**
 * A deferred trace-record log. Unlike stat mutations, which each
 * component makes on its own stat writers, trace records do not
 * commute: the PacketTracer ring is a single shared buffer whose
 * contents (and overwrite order) must be bit-identical between the
 * sequential and sharded engines. So during a parallel compute phase
 * each worker thread installs a TraceLog via setTraceLog();
 * PacketTracer::record then appends here, tagged with the ordinal of
 * the component currently ticking, and after the phase barrier the
 * engine merges all per-thread logs by ordinal and replays them
 * single-threaded into the real tracer — reproducing the exact
 * sequential recording order.
 */
class TraceLog
{
  public:
    /** Tag subsequent entries with component ordinal @p ordinal. */
    void beginComponent(std::uint32_t ordinal) { ordinal_ = ordinal; }

    bool empty() const { return entries_.empty(); }
    void clear() { entries_.clear(); }
    std::size_t size() const { return entries_.size(); }

    void
    append(PacketTracer *target, const TraceRecord &rec)
    {
        entries_.push_back({ordinal_, target, rec});
    }

    /**
     * Merge @p n logs by component ordinal and replay them into their
     * target tracers. Must run with no TraceLog installed on the
     * calling thread. Each ordinal appears in at most one log.
     */
    static void applyInOrder(TraceLog *const *logs, std::size_t n);

  private:
    struct Entry
    {
        std::uint32_t ordinal;
        PacketTracer *target;
        TraceRecord rec;
    };

    std::vector<Entry> entries_;
    std::uint32_t ordinal_ = 0;
};

namespace detail {
inline thread_local TraceLog *t_trace_log = nullptr;
} // namespace detail

/** Install @p log as this thread's deferral target (null = immediate). */
inline void
setTraceLog(TraceLog *log)
{
    detail::t_trace_log = log;
}

/** @return this thread's installed deferral log, or null. */
inline TraceLog *
traceLog()
{
    return detail::t_trace_log;
}

/**
 * The tracer: decides which packets are tracked (every Nth id) and
 * buffers their lifecycle records.
 */
class PacketTracer
{
  public:
    /**
     * @param ring_capacity bounded buffer size, in records.
     * @param sample_every track packets whose id is divisible by this
     *        (1 = every packet).
     */
    explicit PacketTracer(std::size_t ring_capacity = 4096,
                          std::uint64_t sample_every = 1);

    /** Attach a sink (not owned). Null reverts to ring-only retention. */
    void setSink(TraceSink *sink) { sink_ = sink; }

    /** @return whether this packet's lifecycle is recorded. */
    bool
    tracked(std::uint64_t packet_id) const
    {
        return packet_id % sample_ == 0;
    }

    void record(TraceEvent ev, std::uint64_t packet_id, std::uint8_t cls,
                NodeId node, Cycle now, std::int64_t aux = 0);

    /** Drain the ring into the sink (no-op without one). */
    void flush();

    std::size_t capacity() const { return ring_.size(); }
    std::size_t size() const { return size_; }
    std::uint64_t sampleEvery() const { return sample_; }

    /** Total records ever recorded. */
    std::uint64_t recorded() const { return recorded_; }

    /** Records overwritten because the (sinkless) ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** Ring contents, oldest first. */
    std::vector<TraceRecord> snapshot() const;

  private:
    std::vector<TraceRecord> ring_;
    std::size_t head_ = 0; //!< index of the oldest record
    std::size_t size_ = 0;
    std::uint64_t sample_;
    TraceSink *sink_ = nullptr;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

namespace detail {
extern PacketTracer *g_tracer;
} // namespace detail

/**
 * Install @p tracer as the process-wide tracer consulted by the noc,
 * sttnoc, mem and coherence hot paths. Pass nullptr to disable. The
 * caller retains ownership and must uninstall before destruction.
 */
void setTracer(PacketTracer *tracer);

/** @return the installed tracer, or nullptr when tracing is off. */
inline PacketTracer *
tracer()
{
    return detail::g_tracer;
}

} // namespace stacknoc::telemetry

#endif // STACKNOC_TELEMETRY_TRACE_HH
