#include "system/cmp_system.hh"

#include <chrono>
#include <iostream>
#include <ostream>

#include "common/logging.hh"
#include "sttnoc/region_routing.hh"
#include "validate/invariants.hh"
#include "workload/app_profiles.hh"

namespace stacknoc::system {

std::string
checkConfig(const SystemConfig &cfg)
{
    const std::string mesh = std::to_string(cfg.meshWidth) + "x" +
                             std::to_string(cfg.meshHeight);
    if (cfg.meshWidth < 1 || cfg.meshHeight < 1)
        return "mesh: " + mesh + " has no cores";
    const int cores = cfg.meshWidth * cfg.meshHeight;
    // The directory's sharer set is one 64-bit mask.
    if (cores > kMaxCores)
        return "mesh: " + mesh + " has " + std::to_string(cores) +
               " cores; at most " + std::to_string(kMaxCores) +
               " are supported";
    if (cfg.apps.empty())
        return "apps: no applications configured";
    if (cfg.apps.size() != 1 && static_cast<int>(cfg.apps.size()) != cores)
        return "apps must have 1 or " + std::to_string(cores) +
               " entries (got " + std::to_string(cfg.apps.size()) + ")";

    const Scenario &sc = cfg.scenario;
    // The region map and parent map exist even for unrestricted
    // (0-region) scenarios, over the default four regions.
    const int regions = sc.tsbRegions > 0 ? sc.tsbRegions : 4;
    if (std::string err = sttnoc::RegionMap::tilingError(
            cfg.meshWidth, cfg.meshHeight, regions);
        !err.empty())
        return err;
    if (sc.scheme.has_value() && sc.tsbRegions <= 0)
        return "regions: the STT-RAM-aware scheme requires region TSBs "
               "(regions must be >= 1)";
    if (sc.parentHops < 1 || sc.parentHops > 3)
        return "hops: parent distance H=" + std::to_string(sc.parentHops) +
               " is outside the modelled 1..3";

    const int nodes = 2 * cores;
    if (cfg.faultsEnabled && cfg.faults.stuckRouter != kInvalidNode &&
        (cfg.faults.stuckRouter < 0 || cfg.faults.stuckRouter >= nodes))
        return "fault_spec: router_stuck node " +
               std::to_string(cfg.faults.stuckRouter) +
               " out of range (mesh has " + std::to_string(nodes) +
               " nodes)";
    if ((cfg.power || cfg.thermal) && cfg.heatmapPeriod == 0)
        return "power: power and thermal telemetry need a sampling period "
               "(heatmap period must be >= 1)";
    return {};
}

CmpSystem::CmpSystem(const SystemConfig &config)
    : config_(config),
      shape_(config.meshWidth, config.meshHeight, 2),
      cacheStats_("cache"), coreStats_("core"), memStats_("mem")
{
    const std::string err = checkConfig(config_);
    fatal_if(!err.empty(), "%s", err.c_str());

    if (config_.faultsEnabled) {
        faults_ = std::make_unique<fault::FaultInjector>(
            config_.faults, config_.seed, shape_, numBanks());
    }

    buildNetwork();
    buildMemorySystem();
    buildCores();

    if (config_.probePeriod > 0) {
        probe_ = std::make_unique<RouterOccupancyProbe>(
            *net_, config_.probePeriod);
        hub_.add(probe_.get());
    }
    if (config_.intervalPeriod > 0) {
        sampler_ = std::make_unique<telemetry::IntervalSampler>(
            config_.intervalPeriod);
        sampler_->addGroup(&cacheStats_);
        sampler_->addGroup(&coreStats_);
        sampler_->addGroup(&memStats_);
        sampler_->addGroup(&net_->stats());
        if (bankAwarePolicy_)
            sampler_->addGroup(&bankAwarePolicy_->stats());
        if (faults_)
            sampler_->addGroup(&faults_->stats());
        hub_.add(sampler_.get());
    }
    if (config_.heatmapPeriod > 0) {
        std::vector<const mem::BankController *> banks;
        for (const auto &bank : banks_)
            banks.push_back(&bank->bankController());
        heatmap_ = std::make_unique<HeatmapCollector>(
            *net_, std::move(banks), bankAwarePolicy_.get(), *regions_,
            config_.heatmapPeriod);
        if (config_.thermal) {
            thermal_ = std::make_unique<telemetry::ThermalProbe>(
                shape_, config_.thermalParams, heatmap_->bankNodes());
        }
        if (config_.power || config_.thermal) {
            power_ = std::make_unique<telemetry::EnergyProbe>(
                shape_, energyParams(config_.scenario.tech),
                thermal_.get());
            heatmap_->setEnergyProbe(power_.get());
        }
        hub_.add(heatmap_.get());
    }
    if (config_.progress) {
        progress_ = std::make_unique<ProgressReporter>(
            std::cerr, config_.progressTotalCycles,
            config_.progressPeriod, [this] {
                std::uint64_t committed = 0;
                for (const auto &core : cores_)
                    committed += core->committed();
                return committed;
            });
        hub_.add(progress_.get());
    }
    if (config_.validate) {
        validation_ =
            std::make_unique<validate::ValidationHub>(config_.validation);
        validate::SystemView view;
        view.net = net_.get();
        for (const auto &l1 : l1s_)
            view.l1s.push_back(l1.get());
        for (const auto &bank : banks_)
            view.banks.push_back(bank.get());
        view.policy = bankAwarePolicy_.get();
        view.regions = regions_.get();
        view.parents = parents_.get();
        view.bankRequestCap = config_.bankRequestCap;
        view.bankWriteCap = config_.bankWriteCap;
        validate::addStandardCheckers(*validation_, view,
                                      config_.validation);
        hub_.add(validation_.get());
        // Violations dump the trace-ring tail; install a tracer so the
        // dump has context even when the caller didn't set one up.
        if (telemetry::tracer() == nullptr) {
            ownedTracer_ = std::make_unique<telemetry::PacketTracer>(
                1024, 1);
            telemetry::setTracer(ownedTracer_.get());
        }
    }
    if (config_.watchdogEnabled) {
        watchdog_ = std::make_unique<fault::Watchdog>(
            *net_, bankAwarePolicy_.get(),
            bankAwarePolicy_ ? numBanks() : 0, config_.watchdog);
        hub_.add(watchdog_.get());
        // The trigger dump includes the trace-ring tail; make sure one
        // exists even when the caller installed no tracer.
        if (telemetry::tracer() == nullptr && !ownedTracer_) {
            ownedTracer_ = std::make_unique<telemetry::PacketTracer>(
                1024, 1);
            telemetry::setTracer(ownedTracer_.get());
        }
    }
    if (!hub_.empty())
        sim_.onCycleEnd([this](Cycle now) { hub_.onCycle(now); });

    // Every component is registered by now; the engine snapshots the
    // registry when it builds its shard plan.
    engine_ = engine::makeEngine(sim_, config_.threads, config_.elide);

    if (config_.profile) {
        profiler_ = std::make_unique<telemetry::CycleProfiler>(
            config_.profileSpanCapacity);
        engine_->setProfiler(profiler_.get());
        if (validation_)
            validation_->setProfiler(profiler_.get());
    }
}

CmpSystem::~CmpSystem()
{
    if (ownedTracer_ && telemetry::tracer() == ownedTracer_.get())
        telemetry::setTracer(nullptr);
}

void
CmpSystem::buildNetwork()
{
    const Scenario &sc = config_.scenario;

    // Region partition and parent map exist whenever the TSB restriction
    // is active; the bank-aware policy additionally needs a scheme.
    const int regions = sc.tsbRegions > 0 ? sc.tsbRegions : 4;
    regions_ = std::make_unique<sttnoc::RegionMap>(
        shape_, sttnoc::RegionConfig{regions, sc.placement});
    parents_ = std::make_unique<sttnoc::ParentMap>(*regions_,
                                                   sc.parentHops);

    noc::ArbitrationPolicy *policy = nullptr;
    if (sc.scheme.has_value()) {
        sttnoc::SttAwareParams params;
        params.estimator = *sc.scheme;
        params.delayMode = sc.delayMode;
        params.writeServiceCycles =
            mem::bankTech(sc.tech).writeCycles;
        params.holdCap = 3 * params.writeServiceCycles;
        bankAwarePolicy_ = std::make_unique<sttnoc::BankAwarePolicy>(
            *regions_, *parents_, params, nullptr);
        policy = bankAwarePolicy_.get();
    } else {
        obliviousPolicy_ = std::make_unique<noc::ArbitrationPolicy>();
        policy = obliviousPolicy_.get();
    }

    std::unique_ptr<noc::RoutingFunction> routing;
    if (sc.tsbRegions > 0)
        routing = std::make_unique<sttnoc::RegionRouting>(*regions_);
    else
        routing = std::make_unique<noc::ZxyRouting>(shape_);

    noc::NocParams noc_params;
    noc_params.vcsPerVnet = sc.vcsPerVnet;
    net_ = std::make_unique<noc::Network>(sim_, shape_, noc_params,
                                          std::move(routing), *policy);
    if (faults_)
        net_->setFaultInjector(faults_.get());

    // Widen the region TSBs to 256 bits (two flits per cycle).
    if (sc.tsbRegions > 0) {
        for (int r = 0; r < regions_->numRegions(); ++r) {
            net_->topology().widenDownLink(regions_->tsbCoreNode(r),
                                           noc_params.tsbBandwidth);
        }
    }

    // The estimator may need the network (RCA sideband fabric).
    if (bankAwarePolicy_) {
        if (*sc.scheme == sttnoc::EstimatorKind::Rca) {
            rcaFabric_ = std::make_unique<sttnoc::RcaFabric>(*net_);
            // The fabric ticks from its congestion snapshot, so it can
            // join the parallel phase on its own shard key (one past
            // the per-column keys the network components use). The
            // snapshot + publish step runs at cycle end, after every
            // router has ticked.
            sim_.add(rcaFabric_.get(), shape_.nodesPerLayer());
            sim_.onCycleEnd(
                [fab = rcaFabric_.get()](Cycle now) {
                    fab->onCycleEnd(now);
                });
        }
        bankAwarePolicy_->setEstimator(sttnoc::makeEstimator(
            *sc.scheme, *regions_, *parents_,
            bankAwarePolicy_->params(), rcaFabric_.get()));
        // Parent nodes receive WB probe echoes through their NIs.
        for (NodeId n = 0; n < shape_.totalNodes(); ++n)
            net_->ni(n).setProbeSink(bankAwarePolicy_.get());
        // With write faults active, busy-NACKs widen the hold horizon
        // by at most two write-service rounds (the recovery contract
        // the relaxed parent-hold invariant checks against).
        if (faults_) {
            bankAwarePolicy_->configureFaultRecovery(
                2 * bankAwarePolicy_->params().writeServiceCycles);
        }
    }
}

void
CmpSystem::buildMemorySystem()
{
    const Scenario &sc = config_.scenario;
    const int w = shape_.width();
    const int h = shape_.height();

    coherence::L2Config l2cfg;
    l2cfg.tech = sc.tech;
    l2cfg.bankCtrl.writeBuffer = sc.writeBuffer;
    l2cfg.bankCtrl.writeBufferEntries = sc.writeBufferEntries;
    l2cfg.bankCtrl.readPriority = sc.readPriority;
    l2cfg.realTags = config_.realTags;
    if (config_.realTags) {
        // 128 B blocks, 16 ways: 4 MB -> 2048 sets, 1 MB -> 512 sets.
        l2cfg.sets = sc.tech == mem::CacheTech::SttRam ? 2048 : 512;
        l2cfg.ways = 16;
    }
    l2cfg.victimDirtyProb = config_.victimDirtyProb;
    l2cfg.requestCap = config_.bankRequestCap;
    l2cfg.writeCap = config_.bankWriteCap;
    l2cfg.seed = config_.seed;
    l2cfg.faultInjector = faults_.get();
    l2cfg.mcNodes = {shape_.node(0, 0, 1), shape_.node(w - 1, 0, 1),
                     shape_.node(0, h - 1, 1),
                     shape_.node(w - 1, h - 1, 1)};

    for (BankId b = 0; b < numBanks(); ++b) {
        const NodeId node = regions_->nodeOfBank(b);
        banks_.push_back(std::make_unique<coherence::L2Bank>(
            detail::format("l2bank%d", b), b, node, net_->ni(node),
            l2cfg, cacheStats_));
        net_->ni(node).setClient(banks_.back().get());
        // Write verify-retry recovery: a bank overrunning its predicted
        // busy window NACKs its parent node, where the policy listens.
        if (faults_ && bankAwarePolicy_)
            banks_.back()->setParentNode(parents_->parentOf(b));
        // Same affinity key as the node's router/NI: the bank-aware
        // policy's per-bank state is only touched from this node.
        sim_.add(banks_.back().get(), node % shape_.nodesPerLayer());
    }

    for (const NodeId node : l2cfg.mcNodes) {
        mcs_.push_back(std::make_unique<mem::MemoryController>(
            detail::format("mc%d", node), node, net_->ni(node),
            config_.dram, memStats_));
        net_->ni(node).setMemClient(mcs_.back().get());
        sim_.add(mcs_.back().get(), node % shape_.nodesPerLayer());
    }
}

void
CmpSystem::buildCores()
{
    coherence::HomeMap home;
    home.numBanks = numBanks();
    home.cacheLayerBase = shape_.nodesPerLayer();

    workload::StreamParams stream = config_.stream;
    stream.numBanks = numBanks();
    stream.l2CapacityMissFactor =
        config_.scenario.tech == mem::CacheTech::Sram ? 2.0 : 1.0;

    for (CoreId c = 0; c < numCores(); ++c) {
        const std::string &app_name =
            config_.apps.size() == 1
                ? config_.apps[0]
                : config_.apps[static_cast<std::size_t>(c)];
        const workload::AppProfile &profile =
            workload::findApp(app_name);

        l1s_.push_back(std::make_unique<coherence::L1Cache>(
            detail::format("l1.%d", c), c, net_->ni(c), home,
            config_.l1, cacheStats_));
        net_->ni(c).setClient(l1s_.back().get());
        // Core node ids equal core ids (layer 0), so the affinity key
        // matches the node's router/NI column key.
        sim_.add(l1s_.back().get(), c);

        streams_.push_back(std::make_unique<workload::SyntheticStream>(
            profile, c, config_.seed, stream));
        streams_.back()->attachL1(l1s_.back().get());

        cores_.push_back(std::make_unique<cpu::Core>(
            detail::format("core%d", c), c, *l1s_.back(),
            *streams_.back(), cpu::CoreConfig{}, coreStats_));
        sim_.add(cores_.back().get(), c);
    }
}

void
CmpSystem::run(Cycle cycles)
{
    const auto start = std::chrono::steady_clock::now();
    engine_->run(cycles);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    wallSeconds_ += elapsed.count();
    engineTicks_ += cycles;
}

void
CmpSystem::warmup(Cycle cycles)
{
    warmupBegin();
    run(cycles);
    warmupEnd();
}

void
CmpSystem::warmupBegin()
{
    hub_.onWarmupBegin(sim_.now());
}

void
CmpSystem::warmupEnd()
{
    cacheStats_.reset();
    coreStats_.reset();
    memStats_.reset();
    net_->stats().reset();
    if (bankAwarePolicy_)
        bankAwarePolicy_->stats().reset();
    if (faults_)
        faults_->stats().reset();
    for (auto &core : cores_)
        core->resetCommitted();
    hub_.onReset(sim_.now());
    measureStart_ = sim_.now();
}

Metrics
CmpSystem::metrics() const
{
    Metrics m;
    m.cycles = sim_.now() - measureStart_;
    const double cycles = std::max<double>(1.0,
                                           static_cast<double>(m.cycles));
    for (const auto &core : cores_)
        m.ipc.push_back(static_cast<double>(core->committed()) / cycles);

    if (const auto *a = net_->stats().findAverage(
            "packet_network_latency"))
        m.avgNetworkLatency = a->mean();
    if (const auto *a = cacheStats_.findAverage("bank_queue_latency"))
        m.avgBankQueueLatency = a->mean();
    if (const auto *a = cacheStats_.findAverage("l1_miss_latency"))
        m.avgUncoreLatency = a->mean();
    if (const auto *h = net_->stats().findHistogram(
            "packet_network_latency_hist")) {
        m.p50NetworkLatency = h->percentile(0.50);
        m.p95NetworkLatency = h->percentile(0.95);
        m.p99NetworkLatency = h->percentile(0.99);
    }

    m.energy = computeEnergy(cacheStats_, net_->stats(),
                             config_.scenario.tech, numBanks(),
                             shape_.totalNodes(), m.cycles,
                             faults_ ? &faults_->stats() : nullptr);
    return m;
}

void
CmpSystem::finalizeTelemetry()
{
    if (heatmap_)
        heatmap_->finalize(sim_.now());
}

void
CmpSystem::dumpStats(std::ostream &os) const
{
    cacheStats_.dump(os);
    coreStats_.dump(os);
    memStats_.dump(os);
    net_->stats().dump(os);
    if (bankAwarePolicy_)
        bankAwarePolicy_->stats().dump(os);
    if (faults_)
        faults_->stats().dump(os);
}

} // namespace stacknoc::system
