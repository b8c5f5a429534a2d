#include "cluster/cluster_manager.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/sim_counters.hh"
#include "core/twig_manager.hh"
#include "harness/sweep.hh"

namespace twig::cluster {

using common::fnv1a;
using common::simprof::now;

namespace {

/** Latency-histogram bins per service. */
constexpr std::size_t kLatencyBins = 1024;
/** Histogram upper edge as a multiple of each service's QoS target
 * (latencies beyond clamp into the last bin). */
constexpr double kLatencySpanQosMultiple = 32.0;
/** The per-step fleet p99 is measured over the completions of the last
 * this-many intervals (mirrors MachineConfig's qosWindowIntervals: a
 * single interval's p99 is a noisy order statistic). */
constexpr std::size_t kQosWindowIntervals = 3;

static_assert(kLatencyBins > 0);
static_assert(kLatencySpanQosMultiple > 0.0);
static_assert(kQosWindowIntervals > 0);

} // namespace

const char *
scaleEventKindName(ScaleEvent::Kind kind)
{
    switch (kind) {
    case ScaleEvent::Kind::ScaleOut:
        return "scale_out";
    case ScaleEvent::Kind::DrainStart:
        return "drain_start";
    case ScaleEvent::Kind::Retire:
        return "retire";
    }
    common::panic("scaleEventKindName: bad enum value");
}

double
FleetRunMetrics::avgQosGuaranteePct() const
{
    if (qosGuaranteePct.empty())
        return 0.0;
    double sum = 0.0;
    for (double p : qosGuaranteePct)
        sum += p;
    return sum / static_cast<double>(qosGuaranteePct.size());
}

ClusterManager::ClusterManager(
    const ClusterConfig &cfg, std::vector<sim::ServiceProfile> services,
    std::vector<std::unique_ptr<sim::LoadGenerator>> fleet_loads,
    std::uint64_t seed)
    : cfg_(cfg), services_(std::move(services)),
      fleetLoads_(std::move(fleet_loads)),
      // The router draws from its own derived seed stream so adding
      // policies never perturbs the nodes' randomness (and vice versa).
      router_(ShardedRouterConfig{cfg.router, cfg.domains},
              harness::sweepSeed(seed, 0x5107e5)),
      seed_(seed)
{
    common::fatalIf(services_.empty(), "ClusterManager: no services");
    common::fatalIf(fleetLoads_.size() != services_.size(),
                    "ClusterManager: need one fleet load generator per "
                    "service (got ", fleetLoads_.size(), " for ",
                    services_.size(), " services)");
    for (const auto &load : fleetLoads_)
        common::fatalIf(!load, "ClusterManager: null load generator");
}

void
ClusterManager::setBatchedInference(bool on)
{
    batchedInference_ = on;
    cohortsDirty_ = true;
}

std::size_t
ClusterManager::batchedNodeCount() const
{
    std::size_t count = 0;
    for (std::uint8_t b : nodeBatched_)
        count += b;
    return count;
}

const stats::Histogram &
ClusterManager::domainHistogram(std::size_t d, std::size_t s) const
{
    common::fatalIf(d >= domainScratch_.size() ||
                        s >= domainScratch_[d].size(),
                    "ClusterManager::domainHistogram: bad index (no "
                    "hierarchical merge yet?)");
    return domainScratch_[d][s];
}

void
ClusterManager::rebuildCohorts()
{
    cohortsDirty_ = false;
    cohorts_.clear();
    nodeBatched_.assign(nodes_.size(), 0);

    // Group serving exploit-only TwigManagers by (architecture,
    // parameters). Exploit-only is the freeze guarantee: no gradient
    // steps, no epsilon draws, so members stay interchangeable for as
    // long as the cohort exists. Fingerprinting serialises each
    // network — fine here (topology changes), not per interval.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
    std::vector<Cohort> groups;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (!slots_[n].powered())
            continue;
        auto *twig =
            dynamic_cast<core::TwigManager *>(&nodes_[n]->manager());
        if (twig == nullptr || !twig->exploitOnly())
            continue; // learning or baseline: decides in-node
        const std::pair<std::uint64_t, std::uint64_t> key{
            twig->architectureFingerprint(),
            twig->parameterFingerprint()};
        std::size_t g = keys.size();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] == key) {
                g = i;
                break;
            }
        }
        if (g == keys.size()) {
            keys.push_back(key);
            groups.emplace_back();
        }
        groups[g].members.push_back(n);
        groups[g].twigs.push_back(twig);
    }
    for (auto &group : groups) {
        if (group.members.size() < 2)
            continue; // a lone replica gains nothing from batching
        for (std::size_t n : group.members)
            nodeBatched_[n] = 1;
        cohorts_.push_back(std::move(group));
    }
}

std::vector<LatencyBinning>
ClusterManager::binnings() const
{
    // Fleet-uniform binning per service (Histogram::merge requires
    // identical edges on every node): [0, QoS x span multiple).
    std::vector<LatencyBinning> out;
    out.reserve(services_.size());
    for (const auto &svc : services_)
        out.push_back(
            {0.0, svc.qosTargetMs * kLatencySpanQosMultiple, kLatencyBins});
    return out;
}

std::size_t
ClusterManager::addNode(const sim::MachineConfig &machine,
                        const ManagerFactory &factory,
                        const std::string &warm_start_checkpoint)
{
    common::fatalIf(!factory, "ClusterManager::addNode: null factory");
    const std::size_t index = nodes_.size();
    // Node seeds derive from (base seed, node index), so a fleet's
    // node i has the same private world regardless of how many other
    // replicas exist or which threads step them.
    const std::uint64_t node_seed = harness::sweepSeed(seed_, index + 1);
    auto manager = factory(machine, services_, node_seed);
    common::fatalIf(!manager,
                    "ClusterManager::addNode: factory returned null");
    if (!warm_start_checkpoint.empty()) {
        auto *twig = dynamic_cast<core::TwigManager *>(manager.get());
        common::fatalIf(!twig,
                        "ClusterManager::addNode: warm-start checkpoint "
                        "needs a TwigManager, got ", manager->name());
        twig->loadCheckpoint(warm_start_checkpoint);
    }
    NodeConfig node_cfg{machine, services_, binnings()};
    nodes_.push_back(
        std::make_unique<Node>(node_cfg, std::move(manager), node_seed));
    // Remember the rebuild recipe: a crashed replica is reborn from
    // the same machine and factory (not from the donor checkpoint —
    // recovery semantics come from the periodic frames). The slot
    // starts Active and up.
    NodeSlot &slot = slots_.emplace_back();
    slot.machine = machine;
    slot.factory = factory;
    cohortsDirty_ = true;
    return index;
}

void
ClusterManager::setFaults(const faults::FaultSpec &spec)
{
    common::fatalIf(nodes_.empty(),
                    "ClusterManager::setFaults: add every replica "
                    "first (the schedule is validated against the "
                    "fleet shape)");
    const std::string err = spec.validate(nodes_.size(), services_.size());
    common::fatalIf(!err.empty(), "ClusterManager::setFaults: ", err);
    // The injector's derived seed stream is independent of both the
    // router's and the nodes', so arming an empty schedule perturbs
    // nothing.
    injector_ = std::make_unique<faults::FaultInjector>(
        spec, harness::sweepSeed(seed_, 0xfa017));
    surgeMult_.assign(services_.size(), 1.0);
    faultLog_.clear();
}

void
ClusterManager::setAutoscaler(const autoscale::AutoscaleConfig &cfg,
                              std::vector<double> rated_fleet_rps,
                              std::vector<double> dollars_per_node_hour,
                              std::size_t initial_active)
{
    common::fatalIf(nodes_.empty(),
                    "ClusterManager::setAutoscaler: add every slot "
                    "first (standby slots must exist to activate)");
    common::fatalIf(step_ != 0, "ClusterManager::setAutoscaler: attach "
                    "before the first step");
    const std::string err = cfg.validate();
    common::fatalIf(!err.empty(), "ClusterManager::setAutoscaler: ", err);
    common::fatalIf(cfg.maxNodes != nodes_.size(),
                    "ClusterManager::setAutoscaler: max_nodes (",
                    cfg.maxNodes, ") must equal the provisioned slot "
                    "count (", nodes_.size(),
                    ") — the routing partition is fixed; slots park in "
                    "standby instead of disappearing");
    common::fatalIf(initial_active < cfg.minNodes ||
                        initial_active > cfg.maxNodes,
                    "ClusterManager::setAutoscaler: initial active "
                    "count ", initial_active,
                    " outside [min_nodes, max_nodes]");
    common::fatalIf(rated_fleet_rps.size() != services_.size(),
                    "ClusterManager::setAutoscaler: need one rated "
                    "fleet RPS per service");
    for (double rated : rated_fleet_rps)
        common::fatalIf(rated <= 0.0, "ClusterManager::setAutoscaler: "
                        "rated fleet RPS must be > 0");
    if (dollars_per_node_hour.empty())
        dollars_per_node_hour.assign(nodes_.size(), 1.0);
    common::fatalIf(dollars_per_node_hour.size() != nodes_.size(),
                    "ClusterManager::setAutoscaler: need one hourly "
                    "rate per slot");

    autoscaler_ = std::make_unique<autoscale::Autoscaler>(cfg);
    costModel_ = std::make_unique<autoscale::CostModel>(
        std::move(dollars_per_node_hour));
    ratedFleetRps_ = std::move(rated_fleet_rps);
    qosTargets_.clear();
    for (const auto &svc : services_)
        qosTargets_.push_back(svc.qosTargetMs);
    for (std::size_t n = 0; n < slots_.size(); ++n)
        slots_[n].state =
            n < initial_active ? SlotState::Active : SlotState::Standby;
    scaleLog_.clear();
    cohortsDirty_ = true;
}

void
ClusterManager::setCostModel(std::vector<double> dollars_per_node_hour)
{
    common::fatalIf(nodes_.empty(),
                    "ClusterManager::setCostModel: add every replica "
                    "first");
    common::fatalIf(autoscaler_ != nullptr,
                    "ClusterManager::setCostModel: the autoscaler "
                    "already attached its own cost model");
    if (dollars_per_node_hour.empty())
        dollars_per_node_hour.assign(nodes_.size(), 1.0);
    common::fatalIf(dollars_per_node_hour.size() != nodes_.size(),
                    "ClusterManager::setCostModel: need one hourly "
                    "rate per replica");
    costModel_ = std::make_unique<autoscale::CostModel>(
        std::move(dollars_per_node_hour));
}

void
ClusterManager::saveCheckpointFrames()
{
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (slots_[n].powered())
            saveFrame(n);
    }
}

void
ClusterManager::saveFrame(std::size_t n)
{
    auto *twig = dynamic_cast<core::TwigManager *>(&nodes_[n]->manager());
    if (!twig)
        return; // baselines are stateless; cold restart is exact
    std::ostringstream os(std::ios::binary);
    twig->saveCheckpointStream(
        os, "node " + std::to_string(n) + " checkpoint frame");
    const std::string payload = std::move(os).str();
    const std::uint64_t sum = fnv1a(payload.data(), payload.size());
    std::string &frame = slots_[n].frame;
    frame.resize(sizeof(sum) + payload.size());
    std::memcpy(frame.data(), &sum, sizeof(sum));
    std::memcpy(frame.data() + sizeof(sum), payload.data(),
                payload.size());
    faults::FaultEvent ev;
    ev.step = step_;
    ev.kind = faults::FaultEventKind::CheckpointSaved;
    ev.node = static_cast<std::int64_t>(n);
    ev.value = static_cast<double>(payload.size());
    stepEvents_.push_back(std::move(ev));
}

void
ClusterManager::rebuildNode(std::size_t n, const std::string &recovery)
{
    NodeSlot &slot = slots_[n];
    // The reborn replica gets a fresh derived seed: same fleet, node
    // and incarnation => same world, independent of thread schedule.
    ++slot.incarnation;
    const std::uint64_t node_seed =
        harness::sweepSeed(seed_, (slot.incarnation << 20) + n + 1);
    auto manager = slot.factory(slot.machine, services_, node_seed);
    common::fatalIf(!manager,
                    "ClusterManager::rebuildNode: factory returned null");

    const std::string context =
        "node " + std::to_string(n) + " checkpoint frame";
    bool warm = false;
    std::string cold_reason = "scheduled cold recovery";
    if (recovery == "warm") {
        auto *twig = dynamic_cast<core::TwigManager *>(manager.get());
        const std::string &frame = slot.frame;
        if (!twig) {
            cold_reason = "manager holds no restorable policy";
        } else if (frame.size() <= sizeof(std::uint64_t)) {
            cold_reason = "no checkpoint frame yet";
        } else {
            std::uint64_t stored = 0;
            std::memcpy(&stored, frame.data(), sizeof(stored));
            const char *payload = frame.data() + sizeof(stored);
            const std::size_t payload_len = frame.size() - sizeof(stored);
            if (stored != fnv1a(payload, payload_len)) {
                faults::FaultEvent bad;
                bad.step = step_;
                bad.kind = faults::FaultEventKind::CorruptDetected;
                bad.node = static_cast<std::int64_t>(n);
                bad.note = context + ": checksum mismatch";
                stepEvents_.push_back(std::move(bad));
                cold_reason = "corrupt checkpoint frame";
            } else {
                try {
                    std::istringstream is(
                        std::string(payload, payload_len),
                        std::ios::binary);
                    twig->loadCheckpointStream(is, context);
                    // Resume the deployed policy: pure exploitation,
                    // no re-exploration (paper §V overhead mode).
                    twig->setExploitOnly(true);
                    warm = true;
                } catch (const common::FatalError &err) {
                    faults::FaultEvent bad;
                    bad.step = step_;
                    bad.kind = faults::FaultEventKind::CorruptDetected;
                    bad.node = static_cast<std::int64_t>(n);
                    bad.note = err.what();
                    stepEvents_.push_back(std::move(bad));
                    cold_reason = "corrupt checkpoint frame";
                }
            }
        }
    }

    faults::FaultEvent outcome;
    outcome.step = step_;
    outcome.node = static_cast<std::int64_t>(n);
    if (warm) {
        outcome.kind = faults::FaultEventKind::WarmRestore;
        outcome.value =
            static_cast<double>(slot.frame.size() - sizeof(std::uint64_t));
    } else {
        outcome.kind = faults::FaultEventKind::ColdRestart;
        outcome.note = cold_reason;
    }
    stepEvents_.push_back(std::move(outcome));

    NodeConfig node_cfg{slot.machine, services_, binnings()};
    nodes_[n] =
        std::make_unique<Node>(node_cfg, std::move(manager), node_seed);
    cohortsDirty_ = true; // fresh manager: cohort pointers are stale
    // Environmental faults outlive the process that crashed: the rack
    // is still hot, the monitor is still flaky.
    if (slot.throttled)
        nodes_[n]->setDvfsCap(slot.dvfsCap);
    if (slot.telemetryFault)
        nodes_[n]->setTelemetryFault(slot.faultSigma, slot.faultStaleProb,
                                     slot.faultSeed);
}

void
ClusterManager::applyFaultEvents()
{
    const std::size_t first = stepEvents_.size();
    injector_->eventsAt(step_, stepEvents_);
    const std::size_t last = stepEvents_.size();
    // Index loop with by-value copies: handlers append recovery
    // outcomes to stepEvents_, which may reallocate.
    for (std::size_t i = first; i < last; ++i) {
        const faults::FaultEvent ev = stepEvents_[i];
        const auto n = static_cast<std::size_t>(ev.node);
        switch (ev.kind) {
        case faults::FaultEventKind::NodeCrash:
            slots_[n].crashed = true;
            cohortsDirty_ = true;
            break;
        case faults::FaultEventKind::NodeRestart:
            // The process comes back; the slot's elastic state (a
            // standby slot stays parked) is the autoscaler's to change.
            rebuildNode(n, ev.note);
            slots_[n].crashed = false;
            break;
        // Environmental faults go to the slot's current node whatever
        // its lifecycle, so a parked node carries them into service
        // (rebuildNode re-applies them to a reborn one).
        case faults::FaultEventKind::ThrottleStart:
            slots_[n].throttled = true;
            slots_[n].dvfsCap = static_cast<std::size_t>(ev.value);
            nodes_[n]->setDvfsCap(slots_[n].dvfsCap);
            break;
        case faults::FaultEventKind::ThrottleEnd:
            slots_[n].throttled = false;
            nodes_[n]->clearDvfsCap();
            break;
        case faults::FaultEventKind::PmcNoiseStart:
            slots_[n].telemetryFault = true;
            slots_[n].faultSigma = ev.value;
            slots_[n].faultStaleProb = ev.aux;
            slots_[n].faultSeed = ev.seed;
            nodes_[n]->setTelemetryFault(ev.value, ev.aux, ev.seed);
            break;
        case faults::FaultEventKind::PmcNoiseEnd:
            slots_[n].telemetryFault = false;
            nodes_[n]->clearTelemetryFault();
            break;
        case faults::FaultEventKind::SurgeStart:
            surgeMult_[static_cast<std::size_t>(ev.service)] = ev.value;
            break;
        case faults::FaultEventKind::SurgeEnd:
            surgeMult_[static_cast<std::size_t>(ev.service)] = 1.0;
            break;
        case faults::FaultEventKind::CheckpointCorrupt: {
            // Flip one bit in the stored payload (checksum untouched),
            // so the next warm restore must notice.
            std::string &frame = slots_[n].frame;
            if (frame.size() > sizeof(std::uint64_t)) {
                const std::size_t at = frame.size() / 2;
                frame[at] = static_cast<char>(frame[at] ^ 0x40);
            }
            break;
        }
        default:
            common::panic("ClusterManager::applyFaultEvents: ",
                          faults::faultEventKindName(ev.kind),
                          " is not a schedule transition");
        }
    }
}

double
ClusterManager::servingCapacityFraction(std::size_t excluding_victims) const
{
    double total = 0.0;
    double serving = 0.0;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        const double w = nodes_[n]->capacityWeight();
        total += w;
        if (slots_[n].serving())
            serving += w;
    }
    // The hypothetical scale-in removes the same slots drainNode would
    // pick: the highest-indexed serving ones.
    std::size_t left = excluding_victims;
    for (std::size_t n = nodes_.size(); n-- > 0 && left > 0;) {
        if (!slots_[n].serving())
            continue;
        serving -= nodes_[n]->capacityWeight();
        --left;
    }
    return total > 0.0 ? serving / total : 0.0;
}

void
ClusterManager::applyAutoscale()
{
    scaleStepEvents_.clear();

    // 1. Retirements first: a due drain completes regardless of the
    //    cooldown — it is the tail of an already-taken decision.
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (slots_[n].state == SlotState::Draining &&
            step_ >= slots_[n].drainDeadline)
            retireNode(n);
    }

    // 2. Evaluate the decision rule against this interval's (surge-
    //    adjusted) offered load and the previous interval's trailing
    //    fleet p99.
    autoscale::FleetSignal sig;
    sig.step = step_;
    for (const NodeSlot &slot : slots_) {
        if (slot.crashed)
            continue; // neither serving nor activatable
        if (slot.state == SlotState::Standby)
            ++sig.standby;
        else if (slot.state == SlotState::Active)
            ++sig.serving;
        else
            ++sig.draining;
    }
    sig.servingCapacityFraction = servingCapacityFraction(0);
    sig.capacityFractionAfterScaleIn =
        servingCapacityFraction(autoscaler_->config().inStepNodes);
    sig.offeredRps = &fleetRps_;
    sig.ratedRps = &ratedFleetRps_;
    sig.trailingP99Ms =
        lastTrailingP99_.empty() ? nullptr : &lastTrailingP99_;
    sig.qosTargetsMs = &qosTargets_;
    const autoscale::ScaleDecision d = autoscaler_->decide(sig);

    // 3. Apply. Victim choice is positional, not load-based: lowest-
    //    indexed standby activates first, highest-indexed serving
    //    drains first, so slot indices stay stable and the whole
    //    trajectory is a pure function of the step sequence.
    if (d.kind == autoscale::ScaleDecision::Kind::Out) {
        std::size_t left = d.count;
        for (std::size_t n = 0; n < nodes_.size() && left > 0; ++n) {
            if (slots_[n].state != SlotState::Standby || slots_[n].crashed)
                continue;
            activateNode(n, d);
            --left;
        }
    } else if (d.kind == autoscale::ScaleDecision::Kind::In) {
        std::size_t left = d.count;
        for (std::size_t n = nodes_.size(); n-- > 0 && left > 0;) {
            if (!slots_[n].serving())
                continue;
            drainNode(n, d);
            --left;
        }
    }
}

void
ClusterManager::activateNode(std::size_t n,
                             const autoscale::ScaleDecision &d)
{
    // Warm spawn: a slot that has served before restores the frame
    // saved when its drain began (the same restore path crashes use —
    // checksum verified, cold on damage); a virgin slot keeps the
    // donor policy addNode loaded into it.
    if (slots_[n].everServed)
        rebuildNode(n, "warm");
    slots_[n].state = SlotState::Active;
    cohortsDirty_ = true;
    ScaleEvent ev;
    ev.step = step_;
    ev.kind = ScaleEvent::Kind::ScaleOut;
    ev.node = n;
    ev.utilization = d.utilization;
    ev.tardiness = d.tardiness;
    scaleStepEvents_.push_back(ev);
}

void
ClusterManager::drainNode(std::size_t n, const autoscale::ScaleDecision &d)
{
    // Snapshot the policy now, so a later reactivation resumes exactly
    // the state the slot retired with.
    saveFrame(n);
    slots_[n].state = SlotState::Draining;
    slots_[n].drainDeadline = step_ + autoscaler_->config().drainIntervals;
    ScaleEvent ev;
    ev.step = step_;
    ev.kind = ScaleEvent::Kind::DrainStart;
    ev.node = n;
    ev.utilization = d.utilization;
    ev.tardiness = d.tardiness;
    scaleStepEvents_.push_back(ev);
}

void
ClusterManager::retireNode(std::size_t n)
{
    slots_[n].state = SlotState::Standby;
    slots_[n].drainDeadline = 0;
    cohortsDirty_ = true;
    ScaleEvent ev;
    ev.step = step_;
    ev.kind = ScaleEvent::Kind::Retire;
    ev.node = n;
    scaleStepEvents_.push_back(ev);
}

Node &
ClusterManager::node(std::size_t i)
{
    common::fatalIf(i >= nodes_.size(), "ClusterManager::node: bad index");
    return *nodes_[i];
}

bool
ClusterManager::isNodeUp(std::size_t n) const
{
    common::fatalIf(n >= slots_.size(),
                    "ClusterManager::isNodeUp: bad index");
    return slots_[n].powered();
}

const sim::ServiceProfile &
ClusterManager::service(std::size_t s) const
{
    common::fatalIf(s >= services_.size(),
                    "ClusterManager::service: bad index");
    return services_[s];
}

const FleetIntervalStats &
ClusterManager::step()
{
    common::fatalIf(nodes_.empty(), "ClusterManager::step: no nodes");
    const std::size_t num_nodes = nodes_.size();
    const std::size_t num_services = services_.size();
    // Fix the domain partition to the fleet shape (idempotent; fatal
    // when domains > nodes).
    router_.bind(num_nodes);

    // 0. Faults: apply the schedule transitions due this step, then
    //    the periodic checkpoint, all serially — recovery and frame
    //    contents never depend on --jobs. Without an armed schedule
    //    this whole block is skipped and the step is byte-identical
    //    to the fault-free code.
    if (injector_ || autoscaler_)
        stepEvents_.clear();
    if (injector_) {
        applyFaultEvents();
        const std::size_t every = injector_->spec().checkpointEverySteps;
        if (every > 0 && step_ > 0 && step_ % every == 0)
            saveCheckpointFrames();
    }

    // 1. Route: fleet offered load -> per-node shares (serial; the
    //    routers' RNG streams must see the same draw sequence at any
    //    --jobs).
    const std::uint64_t t_route = now();
    fleetRps_.resize(num_services);
    for (std::size_t s = 0; s < num_services; ++s)
        fleetRps_[s] = fleetLoads_[s]->rps(step_);
    if (injector_) {
        for (std::size_t s = 0; s < num_services; ++s)
            fleetRps_[s] *= surgeMult_[s];
    }

    // 1b. Elastic sizing: retire due drains, then run the decision
    //     rule against the surge-adjusted offered load — serially,
    //     before routing, so the router deals this interval's load
    //     across the post-decision fleet shape.
    if (autoscaler_)
        applyAutoscale();

    // Only serving slots (Active, not crashed) take new load; every
    // other slot routes at weight 0.
    weights_.resize(num_nodes);
    bool any_powered = false;
    for (std::size_t n = 0; n < num_nodes; ++n) {
        weights_[n] =
            slots_[n].serving() ? nodes_[n]->capacityWeight() : 0.0;
        any_powered = any_powered || slots_[n].powered();
    }

    feedback_.qosTargetsMs.clear();
    if (step_ > 0) {
        feedback_.p99MsByNode.resize(num_nodes);
        for (std::size_t n = 0; n < num_nodes; ++n) {
            feedback_.p99MsByNode[n].resize(num_services);
            for (std::size_t s = 0; s < num_services; ++s)
                feedback_.p99MsByNode[n][s] = nodes_[n]->lastP99Ms(s);
        }
        for (const auto &svc : services_)
            feedback_.qosTargetsMs.push_back(svc.qosTargetMs);
    } else {
        feedback_.p99MsByNode.clear();
    }
    router_.routeInto(fleetRps_, weights_, feedback_, shares_);
    double shed_rps = 0.0;
    if (!any_powered) {
        // No slot is powered: the interval's whole offered load is
        // shed (a well-defined record, not NaN shares). A powered fleet
        // that is entirely draining refuses new load on purpose, which
        // is not a shed.
        for (double rps : fleetRps_)
            shed_rps += rps;
        faults::FaultEvent ev;
        ev.step = step_;
        ev.kind = faults::FaultEventKind::LoadShed;
        ev.value = shed_rps;
        stepEvents_.push_back(std::move(ev));
    }
    profile_.routeCycles += now() - t_route;

    // 2. Step every serving node. Nodes are sealed seeded worlds, so
    //    the pool schedule cannot change any node's results — only the
    //    order they finish in, which the serial merge below ignores.
    //    Cohort members defer their decisions to the batched pass.
    if (batchedInference_ && cohortsDirty_)
        rebuildCohorts();
    const std::uint64_t t_step = now();
    for (std::size_t n = 0; n < num_nodes; ++n) {
        nodes_[n]->setDeferDecision(batchedInference_ &&
                                    nodeBatched_.size() > n &&
                                    nodeBatched_[n] != 0);
        if (slots_[n].powered())
            nodes_[n]->setOfferedLoad(shares_[n]);
    }
    if (cfg_.jobs > 1 && num_nodes > 1) {
        if (!pool_)
            pool_ = std::make_unique<common::ThreadPool>(cfg_.jobs);
        pool_->parallelFor(0, num_nodes, [this](std::size_t n) {
            if (slots_[n].powered())
                nodes_[n]->stepInterval();
        });
    } else {
        for (std::size_t n = 0; n < num_nodes; ++n) {
            if (slots_[n].powered())
                nodes_[n]->stepInterval();
        }
    }
    profile_.stepCycles += now() - t_step;

    // 2b. Batched inference: per cohort, gather every member's joint
    //     state into one matrix, run ONE fused forward on the first
    //     member's network (all members hold identical parameters by
    //     construction), scatter the per-row greedy actions back.
    //     Serial and in cohort/member order — bit-identical to the
    //     per-node decides it replaces, at any --jobs.
    if (batchedInference_) {
        for (auto &cohort : cohorts_) {
            const std::uint64_t t_gather = now();
            const std::size_t rows = cohort.members.size();
            const std::size_t input_dim =
                cohort.twigs[0]->learner().config().net.inputDim();
            cohort.states.resize(rows, input_dim);
            for (std::size_t i = 0; i < rows; ++i) {
                const std::vector<float> &state =
                    cohort.twigs[i]->observeState(
                        nodes_[cohort.members[i]]->managerStats());
                std::copy(state.begin(), state.end(),
                          cohort.states.rowPtr(i));
            }
            profile_.gatherCycles += now() - t_gather;

            const std::uint64_t t_fwd = now();
            cohort.twigs[0]->learner().greedyActionsRows(
                cohort.states, cohort.qScratch, cohort.actions);
            profile_.forwardCycles += now() - t_fwd;

            const std::uint64_t t_scatter = now();
            for (std::size_t i = 0; i < rows; ++i)
                nodes_[cohort.members[i]]->finishDecision(
                    cohort.actions[i]);
            profile_.scatterCycles += now() - t_scatter;
        }
    }
    // In-node decides (non-cohort nodes, or batching off) accumulate
    // their cycles node-locally; fold them into the same measure.
    for (std::size_t n = 0; n < num_nodes; ++n)
        profile_.forwardCycles += nodes_[n]->takeDecideCycles();

    // 3. Merge node telemetry deterministically and hierarchically:
    //    node -> domain -> fleet, domains in parallel on the pool. Bin
    //    counts are integers, so this is exactly the flat node merge.
    const std::uint64_t t_merge = now();
    if (mergedScratch_.empty()) {
        const auto bins = binnings();
        for (const auto &b : bins) {
            mergedScratch_.emplace_back(b.loMs, b.hiMs, b.bins);
            trailingScratch_.emplace_back(b.loMs, b.hiMs, b.bins);
        }
    }
    for (auto &h : mergedScratch_)
        h.clear();

    FleetIntervalStats &out = fleetStats_;
    out.step = step_;
    out.offeredRps = fleetRps_;
    out.fleetP99Ms.assign(num_services, 0.0);
    out.totalPowerW = 0.0;
    out.nodes.resize(num_nodes);
    out.nodeUp.resize(num_nodes);
    out.shedRps = shed_rps;
    out.servingNodes = 0;
    out.drainingNodes = 0;
    for (std::size_t n = 0; n < num_nodes; ++n) {
        NodeSlot &slot = slots_[n];
        out.nodeUp[n] = slot.powered() ? 1 : 0;
        if (!slot.powered())
            continue; // crashed/standby: no samples, no power
        slot.everServed = true;
        if (slot.state == SlotState::Draining)
            ++out.drainingNodes;
        else
            ++out.servingNodes;
        out.totalPowerW += nodes_[n]->lastStats().socketPowerW;
        out.nodes[n] = nodes_[n]->lastStats();
    }
    const std::size_t num_domains = router_.numDomains();
    if (domainScratch_.empty()) {
        domainScratch_.resize(num_domains);
        const auto bins = binnings();
        for (auto &per_service : domainScratch_) {
            for (const auto &b : bins)
                per_service.emplace_back(b.loMs, b.hiMs, b.bins);
        }
    }
    auto merge_domain = [this, num_services](std::size_t d) {
        const Domain &dom = router_.domain(d);
        auto &per_service = domainScratch_[d];
        for (auto &h : per_service)
            h.clear();
        for (std::size_t i = 0; i < dom.count; ++i) {
            const std::size_t n = dom.first + i;
            if (!slots_[n].powered())
                continue; // crashed: partial domain merge
            for (std::size_t s = 0; s < num_services; ++s)
                per_service[s].merge(nodes_[n]->intervalHistogram(s));
        }
    };
    if (pool_ && cfg_.jobs > 1 && num_domains > 1)
        pool_->parallelFor(0, num_domains, merge_domain);
    else
        for (std::size_t d = 0; d < num_domains; ++d)
            merge_domain(d);
    // Fleet level: serial, in domain order.
    for (std::size_t d = 0; d < num_domains; ++d) {
        for (std::size_t s = 0; s < num_services; ++s)
            mergedScratch_[s].merge(domainScratch_[d][s]);
    }
    out.faultEvents = stepEvents_;
    if (injector_ || autoscaler_)
        faultLog_.insert(faultLog_.end(), stepEvents_.begin(),
                         stepEvents_.end());
    out.scaleEvents = scaleStepEvents_;
    if (autoscaler_)
        scaleLog_.insert(scaleLog_.end(), scaleStepEvents_.begin(),
                         scaleStepEvents_.end());
    // Billing: every powered slot (serving or draining) pays its
    // hourly rate for the interval; standby and crashed slots do not.
    if (costModel_)
        costModel_->chargeInterval(out.nodeUp,
                                   nodes_[0]->machine().intervalSeconds);
    out.costDollars = costModel_ ? costModel_->totalDollars() : 0.0;
    // Fleet p99 over a short trailing window of intervals (one
    // interval's p99 is a noisy order statistic at realistic rates).
    if (recent_.empty())
        recent_.resize(num_services);
    for (std::size_t s = 0; s < num_services; ++s) {
        auto &window = recent_[s];
        if (window.size() < kQosWindowIntervals) {
            window.push_back(mergedScratch_[s]);
        } else {
            // Evict the oldest interval without churning allocations:
            // rotate, then overwrite the (now last) slot in place.
            std::rotate(window.begin(), window.begin() + 1, window.end());
            window.back() = mergedScratch_[s];
        }
        stats::Histogram &trailing = trailingScratch_[s];
        trailing = window.front();
        for (std::size_t i = 1; i < window.size(); ++i)
            trailing.merge(window[i]);
        out.fleetP99Ms[s] = trailing.quantile(0.99);
    }
    // Next interval's scale decision reads this interval's trailing
    // fleet p99 (decisions run before the nodes step).
    if (autoscaler_)
        lastTrailingP99_ = out.fleetP99Ms;
    profile_.mergeCycles += now() - t_merge;

    ++step_;
    ++profile_.steps;
    return out;
}

FleetRunResult
ClusterManager::run(
    std::size_t steps, std::size_t summary_window,
    const std::function<void(std::size_t, const FleetIntervalStats &)>
        &on_step)
{
    common::fatalIf(steps == 0, "ClusterManager::run: zero steps");
    common::fatalIf(summary_window == 0 || summary_window > steps,
                    "ClusterManager::run: summary window must be in "
                    "[1, steps]");
    const std::size_t num_services = services_.size();
    const std::size_t window_start = steps - summary_window;

    // Window accumulators: merged histograms for the exact fleet-wide
    // window p99, plus per-interval QoS pass counts.
    std::vector<stats::Histogram> window_hists;
    for (const auto &b : binnings())
        window_hists.emplace_back(b.loMs, b.hiMs, b.bins);
    std::vector<std::size_t> qos_ok(num_services, 0);
    double power_sum = 0.0;
    double interval_s = 0.0;

    FleetRunResult result;
    result.trace.reserve(steps);
    for (std::size_t t = 0; t < steps; ++t) {
        const FleetIntervalStats &fs = step();
        if (t >= window_start) {
            for (std::size_t s = 0; s < num_services; ++s) {
                // step() just merged the powered nodes' interval
                // histograms into the fleet interval histogram.
                window_hists[s].merge(mergedScratch_[s]);
                if (fs.fleetP99Ms[s] <= services_[s].qosTargetMs)
                    ++qos_ok[s];
            }
            power_sum += fs.totalPowerW;
        }
        if (on_step)
            on_step(t, fs);
        result.trace.push_back(fs);
    }

    FleetRunMetrics &m = result.metrics;
    m.windowSteps = summary_window;
    for (std::size_t s = 0; s < num_services; ++s) {
        m.serviceNames.push_back(services_[s].name);
        m.windowP99Ms.push_back(window_hists[s].quantile(0.99));
        m.qosGuaranteePct.push_back(100.0 *
                                    static_cast<double>(qos_ok[s]) /
                                    static_cast<double>(summary_window));
    }
    m.meanPowerW = power_sum / static_cast<double>(summary_window);
    // Fleet energy over the window: mean power x window wall time. All
    // nodes share the control-interval length of the first machine.
    interval_s = nodes_.empty() ? 0.0 : nodes_[0]->machine().intervalSeconds;
    m.energyJoules =
        power_sum * interval_s;
    m.costDollars = costDollars();
    return result;
}

} // namespace twig::cluster
