#include "telemetry/trace.hh"

#include "common/logging.hh"

namespace stacknoc::telemetry {

namespace detail {
PacketTracer *g_tracer = nullptr;
} // namespace detail

void
setTracer(PacketTracer *tracer)
{
    detail::g_tracer = tracer;
}

const char *
traceEventName(TraceEvent ev)
{
    switch (ev) {
      case TraceEvent::Inject: return "inject";
      case TraceEvent::RouterArrive: return "router_arrive";
      case TraceEvent::HoldStart: return "hold_start";
      case TraceEvent::HoldEnd: return "hold_end";
      case TraceEvent::BankQueueEnter: return "bank_queue_enter";
      case TraceEvent::BankServiceStart: return "bank_service_start";
      case TraceEvent::Eject: return "eject";
    }
    return "?";
}

CsvTraceSink::CsvTraceSink(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "w");
    if (!file_) {
        warn("trace: cannot open '%s' for writing", path.c_str());
        return;
    }
    std::fputs("cycle,packet_id,class,event,node,aux\n", file_);
}

CsvTraceSink::~CsvTraceSink()
{
    if (file_)
        std::fclose(file_);
}

void
CsvTraceSink::write(const TraceRecord &rec)
{
    if (!file_)
        return;
    std::fprintf(file_, "%llu,%llu,%u,%s,%d,%lld\n",
                 static_cast<unsigned long long>(rec.cycle),
                 static_cast<unsigned long long>(rec.packetId),
                 static_cast<unsigned>(rec.cls),
                 traceEventName(rec.event), rec.node,
                 static_cast<long long>(rec.aux));
}

void
CsvTraceSink::flush()
{
    if (file_)
        std::fflush(file_);
}

PacketTracer::PacketTracer(std::size_t ring_capacity,
                           std::uint64_t sample_every)
    : ring_(ring_capacity ? ring_capacity : 1),
      sample_(sample_every ? sample_every : 1)
{
}

void
TraceLog::applyInOrder(TraceLog *const *logs, std::size_t n)
{
    panic_if(traceLog() != nullptr,
             "TraceLog::applyInOrder would re-defer into an installed log");

    // K-way merge by component ordinal. Within one log, entries are
    // already in tick order (a shard ticks its components in ascending
    // ordinal order), so each log is consumed front-to-back; across
    // logs, the run with the smallest front ordinal goes first. Each
    // ordinal lives in exactly one log, so the merge is a total order —
    // the same order the sequential engine would have produced.
    std::vector<std::size_t> pos(n, 0);
    for (;;) {
        std::size_t best = n;
        std::uint32_t best_ord = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (pos[i] >= logs[i]->entries_.size())
                continue;
            const std::uint32_t ord = logs[i]->entries_[pos[i]].ordinal;
            if (best == n || ord < best_ord) {
                best = i;
                best_ord = ord;
            }
        }
        if (best == n)
            break;
        auto &entries = logs[best]->entries_;
        std::size_t &p = pos[best];
        while (p < entries.size() && entries[p].ordinal == best_ord) {
            const Entry &e = entries[p++];
            e.target->record(e.rec.event, e.rec.packetId, e.rec.cls,
                             e.rec.node, e.rec.cycle, e.rec.aux);
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        logs[i]->clear();
}

void
PacketTracer::record(TraceEvent ev, std::uint64_t packet_id,
                     std::uint8_t cls, NodeId node, Cycle now,
                     std::int64_t aux)
{
    if (TraceLog *log = traceLog()) {
        TraceRecord rec;
        rec.cycle = now;
        rec.packetId = packet_id;
        rec.cls = cls;
        rec.event = ev;
        rec.node = node;
        rec.aux = aux;
        log->append(this, rec);
        return;
    }
    ++recorded_;
    if (size_ == ring_.size()) {
        if (sink_) {
            flush();
        } else {
            // Overwrite the oldest record; the ring keeps the tail of
            // the run.
            head_ = (head_ + 1) % ring_.size();
            --size_;
            ++dropped_;
        }
    }
    TraceRecord &slot = ring_[(head_ + size_) % ring_.size()];
    slot.cycle = now;
    slot.packetId = packet_id;
    slot.cls = cls;
    slot.event = ev;
    slot.node = node;
    slot.aux = aux;
    ++size_;
}

void
PacketTracer::flush()
{
    if (!sink_) {
        return;
    }
    debug("tracer: flushing %zu records (%llu recorded so far)", size_,
          static_cast<unsigned long long>(recorded_));
    for (std::size_t i = 0; i < size_; ++i)
        sink_->write(ring_[(head_ + i) % ring_.size()]);
    head_ = 0;
    size_ = 0;
    sink_->flush();
}

std::vector<TraceRecord>
PacketTracer::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

} // namespace stacknoc::telemetry
