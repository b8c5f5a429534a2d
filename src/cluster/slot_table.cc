#include "cluster/slot_table.hh"

#include <utility>

#include "common/error.hh"
#include "common/rng.hh"
#include "core/twig_manager.hh"
#include "rl/checkpoint.hh"

namespace twig::cluster {

using K = faults::FaultEventKind;

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

std::size_t
SlotTable::add(const sim::MachineConfig &machine,
               const ManagerFactory &factory,
               const rl::Checkpoint *donor)
{
    common::fatalIf(!factory, "SlotTable::add: null factory");
    common::fatalIf(!rates_.empty(), "SlotTable::add: add every slot "
                    "before setCostModel (one rate per slot)");
    const std::size_t index = nodes_.size();
    // Node seeds derive from (base seed, node index), so a fleet's
    // node i has the same private world regardless of how many other
    // replicas exist or which threads step them.
    const std::uint64_t node_seed = common::sweepSeed(seed_, index + 1);
    auto manager = factory(machine, services_, node_seed);
    common::fatalIf(!manager, "SlotTable::add: factory returned null");
    if (donor != nullptr) {
        auto *twig = dynamic_cast<core::TwigManager *>(manager.get());
        common::fatalIf(!twig,
                        "SlotTable::add: warm-start checkpoint needs a "
                        "TwigManager, got ", manager->name());
        twig->restore(*donor);
    }
    nodes_.push_back(std::make_unique<Node>(
        NodeConfig{machine, services_}, std::move(manager),
        node_seed));
    // Remember the rebuild recipe: a crashed replica is reborn from
    // the same machine and factory (not from the donor checkpoint —
    // recovery semantics come from the periodic frames).
    Slot &slot = slots_.emplace_back();
    slot.machine = machine;
    slot.factory = factory;
    ++generation_;
    return index;
}

void
SlotTable::setLifecycle(std::size_t n, SlotState state, bool crashed)
{
    Slot &slot = slots_[n];
    const bool was_powered = slot.powered();
    slot.state = state;
    slot.crashed = crashed;
    if (slot.powered() != was_powered)
        ++generation_;
}

faults::FaultEvent &
SlotTable::emit(faults::FaultEventKind kind, std::int64_t n)
{
    faults::FaultEvent &ev = stepEvents_.emplace_back();
    ev.step = step_;
    ev.kind = kind;
    ev.node = n;
    return ev;
}

void
SlotTable::setFaults(const faults::FaultSpec &spec)
{
    common::fatalIf(nodes_.empty(),
                    "SlotTable::setFaults: add every replica first (the "
                    "schedule is validated against the fleet shape)");
    const std::string err = spec.validate(nodes_.size(), services_.size());
    common::fatalIf(!err.empty(), "SlotTable::setFaults: ", err);
    // The injector's derived seed stream is independent of both the
    // router's and the nodes', so arming an empty schedule perturbs
    // nothing.
    injector_ = std::make_unique<faults::FaultInjector>(
        spec, common::sweepSeed(seed_, 0xfa017));
    surgeMult_.assign(services_.size(), 1.0);
}

void
SlotTable::applyFaults(std::size_t step)
{
    step_ = step;
    started_ = true;
    stepEvents_.clear();
    scaleStepEvents_.clear();
    if (!injector_)
        return;
    injector_->eventsAt(step_, stepEvents_);
    const std::size_t transitions = stepEvents_.size();
    // Index loop with by-value copies: handlers append recovery
    // outcomes to stepEvents_, which may reallocate.
    for (std::size_t i = 0; i < transitions; ++i) {
        const faults::FaultEvent ev = stepEvents_[i];
        const auto n = static_cast<std::size_t>(ev.node);
        switch (ev.kind) {
        case K::NodeCrash:
            setLifecycle(n, slots_[n].state, true);
            break;
        case K::NodeRestart:
            // The process comes back; the slot's elastic state (a
            // standby slot stays parked) is the autoscaler's to change.
            rebuildNode(n, ev.note);
            setLifecycle(n, slots_[n].state, false);
            break;
        // Environmental faults go to the slot's current node whatever
        // its lifecycle, so a parked node carries them into service
        // (a rebuilt node is built with them). Only a PMC-noise start
        // reseeds the node's noise RNG.
        case K::ThrottleStart:
            slots_[n].env.throttled = true;
            slots_[n].env.dvfsCap = static_cast<std::size_t>(ev.value);
            nodes_[n]->setFaultEnv(slots_[n].env, false);
            break;
        case K::ThrottleEnd:
            slots_[n].env.throttled = false;
            nodes_[n]->setFaultEnv(slots_[n].env, false);
            break;
        case K::PmcNoiseStart:
            slots_[n].env.telemetryFault = true;
            slots_[n].env.sigma = ev.value;
            slots_[n].env.staleProb = ev.aux;
            slots_[n].env.seed = ev.seed;
            nodes_[n]->setFaultEnv(slots_[n].env, true);
            break;
        case K::PmcNoiseEnd:
            slots_[n].env.telemetryFault = false;
            nodes_[n]->setFaultEnv(slots_[n].env, false);
            break;
        case K::SurgeStart:
            surgeMult_[static_cast<std::size_t>(ev.service)] = ev.value;
            break;
        case K::SurgeEnd:
            surgeMult_[static_cast<std::size_t>(ev.service)] = 1.0;
            break;
        case K::CheckpointCorrupt: {
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
            common::panic("SlotTable::applyFaults: ",
                          faults::faultEventKindName(ev.kind),
                          " is not a schedule transition");
        }
    }
    // Periodic checksummed frames of the powered replicas.
    const std::size_t every = injector_->spec().checkpointEverySteps;
    if (every > 0 && step_ > 0 && step_ % every == 0) {
        for (std::size_t n = 0; n < nodes_.size(); ++n) {
            if (slots_[n].powered())
                saveFrame(n);
        }
    }
}

void
SlotTable::applySurge(std::vector<double> &fleet_rps) const
{
    if (!injector_)
        return;
    for (std::size_t s = 0; s < fleet_rps.size(); ++s)
        fleet_rps[s] *= surgeMult_[s];
}

void
SlotTable::saveFrame(std::size_t n)
{
    auto *twig = dynamic_cast<core::TwigManager *>(&nodes_[n]->manager());
    if (!twig)
        return; // baselines are stateless; cold restart is exact
    const rl::Checkpoint ckpt = twig->checkpoint();
    slots_[n].frame = ckpt.bytes();
    emit(K::CheckpointSaved, static_cast<std::int64_t>(n)).value =
        static_cast<double>(ckpt.payloadSize());
}

void
SlotTable::rebuildNode(std::size_t n, const std::string &recovery)
{
    Slot &slot = slots_[n];
    const auto node = static_cast<std::int64_t>(n);
    // The reborn replica gets a fresh derived seed: same fleet, node
    // and incarnation => same world, independent of thread schedule.
    ++slot.incarnation;
    const std::uint64_t node_seed =
        common::sweepSeed(seed_, (slot.incarnation << 20) + n + 1);
    auto manager = slot.factory(slot.machine, services_, node_seed);
    common::fatalIf(!manager,
                    "SlotTable::rebuildNode: factory returned null");

    const std::string context =
        "node " + std::to_string(n) + " checkpoint frame";
    std::size_t restored = 0; // payload bytes of a warm restore
    std::string cold_reason = "scheduled cold recovery";
    if (recovery == "warm") {
        auto *twig = dynamic_cast<core::TwigManager *>(manager.get());
        if (!twig) {
            cold_reason = "manager holds no restorable policy";
        } else if (slot.frame.empty()) {
            cold_reason = "no checkpoint frame yet";
        } else if (const auto ckpt = rl::Checkpoint::open(slot.frame,
                                                          context);
                   !ckpt) {
            emit(K::CorruptDetected, node).note =
                context + ": checksum mismatch";
            cold_reason = "corrupt checkpoint frame";
        } else {
            try {
                twig->restore(*ckpt);
                // Resume the deployed policy: pure exploitation, no
                // re-exploration (paper §V overhead mode).
                twig->setExploitOnly(true);
                restored = ckpt->payloadSize();
            } catch (const common::FatalError &err) {
                emit(K::CorruptDetected, node).note = err.what();
                cold_reason = "corrupt checkpoint frame";
            }
        }
    }
    if (restored > 0)
        emit(K::WarmRestore, node).value = static_cast<double>(restored);
    else
        emit(K::ColdRestart, node).note = cold_reason;

    // Environmental faults outlive the process that crashed: the rack
    // is still hot, the monitor is still flaky.
    nodes_[n] = std::make_unique<Node>(
        NodeConfig{slot.machine, services_}, std::move(manager),
        node_seed, slot.env);
    ++generation_; // fresh manager: cohort pointers are stale
}

double
SlotTable::closeStep(const std::vector<std::uint8_t> &node_up,
                     double shed_rps,
                     std::vector<faults::FaultEvent> &fault_events,
                     std::vector<ScaleEvent> &scale_events)
{
    // Billing: every powered slot (serving or draining) pays its
    // hourly rate for the interval; standby and crashed slots do not.
    // The interval's charges sum in slot order before joining the bill.
    const double hours = nodes_[0]->machine().intervalSeconds / 3600.0;
    double charge = 0.0;
    bool any_powered = false;
    for (std::size_t n = 0; n < node_up.size(); ++n) {
        if (node_up[n] == 0)
            continue;
        any_powered = true;
        slots_[n].everServed = true;
        if (!rates_.empty())
            charge += rates_[n] * hours;
    }
    if (!any_powered)
        emit(K::LoadShed, -1).value = shed_rps;
    fault_events = stepEvents_;
    scale_events = scaleStepEvents_;
    bill_ += charge;
    return bill_;
}

std::vector<double>
SlotTable::qosTargetsMs() const
{
    std::vector<double> out;
    for (const auto &svc : services_)
        out.push_back(svc.qosTargetMs);
    return out;
}

void
SlotTable::setAutoscaler(const autoscale::AutoscaleConfig &cfg,
                         std::vector<double> rated_fleet_rps,
                         std::size_t initial_active)
{
    common::fatalIf(nodes_.empty(),
                    "SlotTable::setAutoscaler: add every slot first "
                    "(standby slots must exist to activate)");
    common::fatalIf(started_, "SlotTable::setAutoscaler: attach before "
                    "the first step");
    auto scaler = std::make_unique<autoscale::Autoscaler>(
        cfg, std::move(rated_fleet_rps), qosTargetsMs());
    common::fatalIf(cfg.maxNodes != nodes_.size(),
                    "SlotTable::setAutoscaler: max_nodes (", cfg.maxNodes,
                    ") must equal the provisioned slot count (",
                    nodes_.size(),
                    ") — the routing partition is fixed; slots park in "
                    "standby instead of disappearing");
    common::fatalIf(initial_active < cfg.minNodes ||
                        initial_active > cfg.maxNodes,
                    "SlotTable::setAutoscaler: initial active count ",
                    initial_active, " outside [min_nodes, max_nodes]");

    autoscaler_ = std::move(scaler);
    for (std::size_t n = 0; n < slots_.size(); ++n)
        setLifecycle(n,
                     n < initial_active ? SlotState::Active
                                        : SlotState::Standby,
                     slots_[n].crashed);
}

void
SlotTable::setCostModel(std::vector<double> dollars_per_node_hour)
{
    common::fatalIf(nodes_.empty(),
                    "SlotTable::setCostModel: add every replica first");
    if (dollars_per_node_hour.empty())
        dollars_per_node_hour.assign(nodes_.size(), 1.0);
    common::fatalIf(dollars_per_node_hour.size() != nodes_.size(),
                    "SlotTable::setCostModel: need one hourly rate per "
                    "slot");
    for (std::size_t n = 0; n < nodes_.size(); ++n)
        common::fatalIf(dollars_per_node_hour[n] < 0.0,
                        "SlotTable::setCostModel: slot ", n,
                        " has a negative hourly rate");
    rates_ = std::move(dollars_per_node_hour);
}

void
SlotTable::applyAutoscale(const std::vector<double> &fleet_rps,
                          const std::vector<double> *trailing_p99_ms)
{
    if (!autoscaler_)
        return;
    const autoscale::AutoscaleConfig &cfg = autoscaler_->config();

    // 1. Retirements first: a due drain completes regardless of the
    //    cooldown — it is the tail of an already-taken decision.
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (slots_[n].state == SlotState::Draining &&
            step_ >= slots_[n].drainDeadline) {
            setLifecycle(n, SlotState::Standby, slots_[n].crashed);
            slots_[n].drainDeadline = 0;
            scaleStepEvents_.push_back(
                {step_, ScaleEvent::Kind::Retire, n, 0.0, 0.0});
        }
    }

    // 2. Evaluate the decision rule against this interval's (surge-
    //    adjusted) offered load and the previous interval's trailing
    //    fleet p99. Victim choice is positional, not load-based: the
    //    highest-indexed serving slots drain first (and leave the
    //    capacity after a hypothetical scale-in), so slot indices stay
    //    stable and the trajectory is a pure function of the steps.
    autoscale::FleetSignal sig;
    double total = 0.0;
    double serving = 0.0;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        const Slot &slot = slots_[n];
        const double w = nodes_[n]->capacityWeight();
        total += w;
        if (slot.serving())
            serving += w;
        if (slot.crashed)
            continue; // neither serving nor activatable
        if (slot.state == SlotState::Standby)
            ++sig.standby;
        else if (slot.state == SlotState::Active)
            ++sig.serving;
    }
    double after_scale_in = serving;
    victims_.clear();
    for (std::size_t n = nodes_.size();
         n-- > 0 && victims_.size() < cfg.inStepNodes;) {
        if (!slots_[n].serving())
            continue;
        victims_.push_back(n);
        after_scale_in -= nodes_[n]->capacityWeight();
    }
    sig.servingCapacityFraction = total > 0.0 ? serving / total : 0.0;
    sig.capacityFractionAfterScaleIn =
        total > 0.0 ? after_scale_in / total : 0.0;
    sig.offeredRps = &fleet_rps;
    sig.trailingP99Ms = trailing_p99_ms;
    const autoscale::ScaleDecision d = autoscaler_->decide(sig);

    // 3. Apply: the lowest-indexed standby slots activate first, the
    //    victims drain.
    if (d.kind == autoscale::ScaleDecision::Kind::Out) {
        std::size_t left = d.count;
        for (std::size_t n = 0; n < nodes_.size() && left > 0; ++n) {
            if (slots_[n].state != SlotState::Standby || slots_[n].crashed)
                continue;
            // Warm spawn: a slot that has served before restores the
            // frame saved when its drain began (the restore path
            // crashes use — checksum verified, cold on damage); a
            // virgin slot keeps the donor policy add loaded into it.
            if (slots_[n].everServed)
                rebuildNode(n, "warm");
            setLifecycle(n, SlotState::Active, false);
            scaleStepEvents_.push_back({step_, ScaleEvent::Kind::ScaleOut, n,
                                        d.utilization, d.tardiness});
            --left;
        }
    } else if (d.kind == autoscale::ScaleDecision::Kind::In) {
        for (std::size_t i = 0; i < d.count; ++i) {
            const std::size_t n = victims_[i];
            // Snapshot the policy now, so a later reactivation resumes
            // exactly the state the slot retired with.
            saveFrame(n);
            setLifecycle(n, SlotState::Draining, false);
            slots_[n].drainDeadline = step_ + cfg.drainIntervals;
            scaleStepEvents_.push_back({step_, ScaleEvent::Kind::DrainStart,
                                        n, d.utilization, d.tardiness});
        }
    }
}

} // namespace twig::cluster
