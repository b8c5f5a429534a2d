#include "core/twig_manager.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/sim_counters.hh"
#include "sim/power.hh"

namespace twig::core {

TwigConfig
TwigConfig::paper()
{
    TwigConfig cfg;
    cfg.learner.net.trunkHidden = {512, 256};
    cfg.learner.net.agentHeadHidden = 128;
    cfg.learner.net.branchHidden = 128;
    cfg.learner.net.dropoutRate = 0.5f;
    cfg.learner.net.adam.learningRate = 0.0025f;
    cfg.learner.minibatch = 64;
    cfg.learner.discount = 0.99;
    cfg.learner.targetUpdateInterval = 150;
    cfg.learner.epsilonMidStep = 10000;
    cfg.learner.epsilonFinalStep = 25000;
    cfg.learner.epsilonMid = 0.1;
    cfg.learner.epsilonFinal = 0.01;
    cfg.learner.replay.capacity = 1000000;
    cfg.learner.replay.alpha = 0.6;
    cfg.learner.betaAnnealSteps = 25000;
    cfg.eta = 5;
    return cfg;
}

TwigConfig
TwigConfig::fast(std::size_t horizon)
{
    common::fatalIf(horizon < 10, "fast preset: horizon too short");
    TwigConfig cfg;
    cfg.learner.net.trunkHidden = {64};
    cfg.learner.net.agentHeadHidden = 32;
    cfg.learner.net.branchHidden = 32;
    cfg.learner.net.dropoutRate = 0.0f;
    cfg.learner.minibatch = 32;
    // A compressed run cannot amortise the paper's 100-step effective
    // horizon (gamma = 0.99); the allocation problem is near-contextual
    // anyway, so the fast preset shortens the horizon.
    cfg.learner.discount = 0.9;
    cfg.learner.gradientStepsPerTrain = 3;
    cfg.learner.rewardScale = 0.1;
    cfg.learner.rewardClipMin = -2.0; // deep violations cap at -2
    cfg.learner.huberDelta = 1.0;
    cfg.learner.exploreHoldSteps = 3; // outlive the QoS window lag
    cfg.learner.actionStickiness = 0.15;
    cfg.learner.net.adam.learningRate = 0.005f;
    cfg.learner.targetUpdateInterval = 100;
    cfg.learner.epsilonMidStep = horizon / 2;
    cfg.learner.epsilonFinalStep = (horizon * 4) / 5;
    cfg.learner.epsilonMid = 0.1;
    cfg.learner.epsilonFinal = 0.01;
    cfg.learner.replay.capacity = std::max<std::size_t>(horizon * 4, 4096);
    cfg.learner.replay.alpha = 0.6;
    cfg.learner.betaAnnealSteps = horizon;
    cfg.eta = 5;
    return cfg;
}

namespace {

/** Only the training reward reads the Eq. 2 model: a learning manager
 * must not be handed a spec without one. */
void
requirePowerModel(const TwigServiceSpec &spec, const char *what)
{
    common::fatalIf(!spec.powerModel, what, ": service '", spec.name,
                    "' has no power model, which a learning Twig needs "
                    "to price its reward (Eq. 2)");
}

rl::BdqLearnerConfig
sizedLearnerConfig(rl::BdqLearnerConfig cfg,
                   const sim::MachineConfig &machine,
                   std::size_t num_services)
{
    cfg.net.numAgents = num_services;
    cfg.net.stateDimPerAgent = sim::kNumPmcs;
    cfg.net.branchActions = {machine.numCores, machine.dvfs.numStates()};
    return cfg;
}

} // namespace

TwigManager::TwigManager(const TwigConfig &cfg,
                         const sim::MachineConfig &machine,
                         const sim::PmcVector &maxima,
                         std::vector<TwigServiceSpec> specs,
                         std::uint64_t seed)
    : machine_(machine), specs_(std::move(specs)),
      monitor_(specs_.size(), maxima, cfg.eta), reward_(cfg.reward),
      rng_(seed),
      learner_(sizedLearnerConfig(cfg.learner, machine, specs_.size()),
               rng_),
      maxPowerW_(sim::PowerModel(machine).maxPower()),
      exploitOnly_(cfg.exploitOnly)
{
    common::fatalIf(specs_.empty(), "TwigManager: no services");
    if (!exploitOnly_) {
        for (const auto &spec : specs_)
            requirePowerModel(spec, "TwigManager");
    }
}

void
TwigManager::setExploitOnly(bool on)
{
    if (!on) {
        for (const auto &spec : specs_)
            requirePowerModel(spec, "TwigManager::setExploitOnly(false)");
    }
    exploitOnly_ = on;
}

std::string
TwigManager::name() const
{
    return specs_.size() == 1 ? "Twig-S" : "Twig-C";
}

std::size_t
TwigManager::saveCheckpoint(const std::string &path) const
{
    const rl::Checkpoint ckpt = checkpoint();
    ckpt.write(path);
    return ckpt.bytes().size();
}

void
TwigManager::loadCheckpoint(const std::string &path)
{
    restore(rl::Checkpoint::read(path));
}

void
TwigManager::actionsToRequests(const std::vector<nn::BranchActions> &actions,
                               std::vector<ResourceRequest> &out) const
{
    out.resize(actions.size());
    for (std::size_t k = 0; k < actions.size(); ++k) {
        out[k].numCores = actions[k][0] + 1; // branch 0: 0 -> 1 core
        out[k].dvfsIndex = actions[k][1];    // branch 1: DVFS index
    }
}

const std::vector<float> &
TwigManager::observeState(const sim::ServerIntervalStats &stats)
{
    common::fatalIf(stats.services.size() != specs_.size(),
                    "TwigManager: telemetry for ", stats.services.size(),
                    " services, managing ", specs_.size());

    rl::Transition t;
    {
        common::simprof::ScopedPhaseTimer timer(
            common::simprof::Phase::Monitor);

        // 1. Observe the new state from the PMC stream.
        for (std::size_t k = 0; k < specs_.size(); ++k)
            monitor_.update(k, stats.services[k].pmcs);
        monitor_.jointStateInto(stateScratch_);

        // 2. Close the previous transition: compute each agent's
        //    reward for the interval that just finished.
        if (!prevState_ || exploitOnly_)
            return stateScratch_;
        t.state = *prevState_;
        t.actions = prevActions_;
        t.nextState = stateScratch_;
        t.rewards.resize(specs_.size());
        for (std::size_t k = 0; k < specs_.size(); ++k) {
            const auto &svc = stats.services[k];
            const TwigServiceSpec &spec = specs_[k];
            const double load_fraction = std::clamp(
                svc.offeredRps / spec.maxLoadRps, 0.0, 1.0);
            const double cores =
                static_cast<double>(prevActions_[k][0] + 1);
            const double ghz =
                machine_.dvfs.freq(prevActions_[k][1]);
            const double est_power =
                spec.powerModel->predict(load_fraction, cores, ghz);
            // Credit assignment uses the *instantaneous* p99: the
            // trailing-window measure (used for reporting) lags the
            // allocation by a couple of intervals and would mislabel
            // transitions whenever the action changes.
            t.rewards[k] = reward_(svc.p99InstantMs, spec.qosTargetMs,
                                   est_power, maxPowerW_);
        }
    }
    // ... and learn from it.
    learner_.observe(std::move(t));
    return stateScratch_;
}

void
TwigManager::applyDecision(const std::vector<nn::BranchActions> &actions,
                           std::vector<ResourceRequest> &out)
{
    common::fatalIf(actions.size() != specs_.size(),
                    "TwigManager::applyDecision: ", actions.size(),
                    " actions for ", specs_.size(), " services");
    prevState_ = stateScratch_;
    prevActions_ = actions;
    actionsToRequests(actions, out);
}

void
TwigManager::decideInto(const sim::ServerIntervalStats &stats,
                        std::vector<ResourceRequest> &out)
{
    const std::vector<float> &state = observeState(stats);

    // 3. Choose the allocation for the next interval.
    const auto actions = exploitOnly_
        ? learner_.greedyActions(state)
        : learner_.selectActions(state);
    applyDecision(actions, out);
}

void
TwigManager::transferService(std::size_t idx, const TwigServiceSpec &spec,
                             std::size_t reexplore_steps)
{
    common::fatalIf(idx >= specs_.size(), "transferService: bad index");
    if (!exploitOnly_)
        requirePowerModel(spec, "TwigManager::transferService");
    specs_[idx] = spec;
    monitor_.reset(idx);
    learner_.beginTransfer(reexplore_steps);
    // The transition across the swap would mix two different services.
    prevState_.reset();
}

} // namespace twig::core
