#include "validate/checker.hh"

#include <cstdio>

#include "common/logging.hh"
#include "noc/packet.hh"
#include "telemetry/profile.hh"
#include "telemetry/trace.hh"
#include "validate/census.hh"

namespace stacknoc::validate {

ValidationHub::ValidationHub(const ValidationConfig &config)
    : config_(config)
{
}

ValidationHub::~ValidationHub() = default;

void
ValidationHub::add(std::unique_ptr<Checker> checker)
{
    panic_if(checker == nullptr, "ValidationHub: null checker");
    checkers_.push_back(std::move(checker));
    if (profiler_ != nullptr)
        addSection(*checkers_.back());
}

const FabricCensus &
ValidationHub::fabricCensus(const noc::Network &net)
{
    if (!census_)
        census_ = std::make_unique<FabricCensus>(net);
    return *census_;
}

void
ValidationHub::setProfiler(telemetry::CycleProfiler *prof)
{
    profiler_ = prof;
    sections_.clear();
    if (profiler_ == nullptr)
        return;
    sections_.push_back(profiler_->cycleEndSection("validate.census"));
    for (const auto &c : checkers_)
        addSection(*c);
}

void
ValidationHub::addSection(const Checker &checker)
{
    sections_.push_back(profiler_->cycleEndSection(
        std::string("validate.") + checker.name()));
}

void
ValidationHub::onCycle(Cycle now)
{
    if (config_.period == 0 || now % config_.period != 0)
        return;
    checkNow(now);
}

void
ValidationHub::onReset(Cycle now)
{
    for (auto &c : checkers_)
        c->onReset(now);
}

void
ValidationHub::checkNow(Cycle now)
{
    ++sweeps_;
    // The clock is read only with a profiler installed.
    double t0 = profiler_ != nullptr ? profiler_->nowSeconds() : 0.0;
    const auto charge = [&](std::size_t slot) {
        if (profiler_ == nullptr)
            return;
        const double t1 = profiler_->nowSeconds();
        profiler_->addSectionSeconds(sections_[slot], t1 - t0);
        t0 = t1;
    };

    if (census_) {
        census_->take();
        charge(0);
    }
    std::vector<Violation> fresh;
    for (std::size_t i = 0; i < checkers_.size(); ++i) {
        checkers_[i]->check(now, fresh);
        charge(i + 1);
    }
    if (fresh.empty())
        return;

    report(fresh);
    const std::string summary = detail::format(
        "validation failed at cycle %llu: %zu violation(s); "
        "first: [%s] %s",
        static_cast<unsigned long long>(now), fresh.size(),
        fresh.front().checker.c_str(), fresh.front().message.c_str());
    for (auto &v : fresh) {
        if (violations_.size() < config_.maxViolations)
            violations_.push_back(std::move(v));
    }
    if (config_.failFast)
        panic("%s", summary.c_str());
}

void
ValidationHub::report(const std::vector<Violation> &fresh) const
{
    std::fprintf(stderr, "=== stacknoc validation failure ===\n");
    for (const auto &v : fresh) {
        std::fprintf(stderr, "[cycle %llu] %s: %s\n",
                     static_cast<unsigned long long>(v.cycle),
                     v.checker.c_str(), v.message.c_str());
    }

    // Cycle-stamped context: the tail of the packet-lifecycle trace
    // ring, when the telemetry tracer is installed.
    if (auto *t = telemetry::tracer()) {
        const auto records = t->snapshot();
        const std::size_t n =
            std::min(records.size(), config_.dumpTraceRecords);
        std::fprintf(stderr,
                     "last %zu trace record(s), oldest first:\n", n);
        for (std::size_t i = records.size() - n; i < records.size();
             ++i) {
            const auto &r = records[i];
            std::fprintf(
                stderr,
                "  cycle=%llu pkt=%llu cls=%s event=%s node=%d "
                "aux=%lld\n",
                static_cast<unsigned long long>(r.cycle),
                static_cast<unsigned long long>(r.packetId),
                noc::packetClassName(
                    static_cast<noc::PacketClass>(r.cls)),
                telemetry::traceEventName(r.event), r.node,
                static_cast<long long>(r.aux));
        }
    } else {
        std::fprintf(stderr,
                     "(no packet tracer installed; no trace context)\n");
    }
    std::fflush(stderr);
}

} // namespace stacknoc::validate
