/**
 * @file
 * The Twig task manager (paper Fig. 3 / Algorithm 1): system monitor +
 * multi-agent BDQ learning agent + reward, packaged behind the common
 * TaskManager interface. One instance manages K colocated services
 * (Twig-S is simply K = 1, Twig-C is K >= 2).
 */

#ifndef TWIG_CORE_TWIG_MANAGER_HH
#define TWIG_CORE_TWIG_MANAGER_HH

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor.hh"
#include "core/power_model.hh"
#include "core/reward.hh"
#include "core/task_manager.hh"
#include "rl/bdq_learner.hh"
#include "rl/checkpoint.hh"
#include "sim/pmc.hh"

namespace twig::core {

/** Per-service knowledge Twig needs (QoS target, load scale, Eq. 2). */
struct TwigServiceSpec
{
    std::string name;
    double qosTargetMs = 10.0;
    /** Max load of the service; only used to express offered load as a
     * fraction for the Eq. 2 power estimate. */
    double maxLoadRps = 1000.0;
    /** The fitted first-order power model for this service. Only the
     * training reward reads it, so an exploit-only manager may go
     * without; a learning one refuses a spec that lacks it. */
    std::optional<ServicePowerModel> powerModel;
};

/** Full Twig configuration with paper and compressed presets. */
struct TwigConfig
{
    rl::BdqLearnerConfig learner;
    RewardConfig reward;
    /** Monitor smoothing window (paper: eta = 5). */
    std::size_t eta = 5;
    /** Pure exploitation: skip gradient descent and random exploration
     * (paper §V "Overhead": recommended once trained). */
    bool exploitOnly = false;

    /** The paper's hyper-parameters (§IV), exactly. */
    static TwigConfig paper();

    /**
     * Compressed preset for simulation benches: a smaller network and
     * schedules annealed over @p horizon control steps instead of the
     * paper's 25 000 s. Keeps the algorithm identical; only capacity
     * and time constants shrink (EXPERIMENTS.md documents this).
     */
    static TwigConfig fast(std::size_t horizon);
};

/** Twig-S / Twig-C. */
class TwigManager : public TaskManager
{
  public:
    /**
     * @param cfg      hyper-parameters (net sizing fields numAgents /
     *                 stateDimPerAgent / branchActions are overwritten
     *                 to match the machine and service count)
     * @param machine  hardware description
     * @param maxima   PMC normalisation ceilings (calibration)
     * @param specs    one spec per managed service
     * @param seed     randomness seed
     */
    TwigManager(const TwigConfig &cfg, const sim::MachineConfig &machine,
                const sim::PmcVector &maxima,
                std::vector<TwigServiceSpec> specs, std::uint64_t seed);

    std::string name() const override;

    void decideInto(const sim::ServerIntervalStats &stats,
                    std::vector<ResourceRequest> &out) override;

    /**
     * The state-gather half of decideInto: feed the interval's PMC
     * telemetry to the monitor, close the previous transition (learning
     * unless exploit-only) and return the new joint state. The returned
     * reference points at a member scratch overwritten by the next
     * observeState. Callers must follow up with applyDecision before
     * the next interval — decideInto composes exactly these two halves,
     * so the split path is bit-identical to the fused one. The cluster
     * layer uses the seam to run one batched BDQ forward across a
     * replica cohort instead of per-node passes.
     */
    const std::vector<float> &
    observeState(const sim::ServerIntervalStats &stats);

    /** The action-scatter half of decideInto: record @p actions as the
     * interval's decision (next transition's prev-actions) and convert
     * them to resource requests. */
    void applyDecision(const std::vector<nn::BranchActions> &actions,
                       std::vector<ResourceRequest> &out);

    /**
     * Transfer learning (paper §IV): swap the spec of service @p idx
     * for a new service, re-initialise the network's output layers and
     * re-anneal epsilon over a short window. Fatal when the manager
     * learns and @p spec has no power model.
     */
    void transferService(std::size_t idx, const TwigServiceSpec &spec,
                         std::size_t reexplore_steps = 50);

    /** Switch to pure exploitation (drops gradient descent) or back to
     * learning; switching back is fatal while a service has no power
     * model. */
    void setExploitOnly(bool on);
    bool exploitOnly() const { return exploitOnly_; }

    /** The trained policy in the one checkpoint encoding
     * (rl/checkpoint.hh). It restores into any manager with the same
     * machine shape and service count — e.g. train, then deploy
     * exploit-only for the <1% overhead mode of §V — and its checksum
     * is the cluster's batched-inference cohort key. Encodes the whole
     * network: call on topology changes, not per interval. */
    rl::Checkpoint checkpoint() const { return rl::Checkpoint(learner_); }

    /** Install @p ckpt's policy; FatalError (naming its source) on a
     * mismatch, which leaves this manager untouched. */
    void restore(const rl::Checkpoint &ckpt) { ckpt.restore(learner_); }

    /** The same, through a file: the cluster warm-start path (train one
     * replica, restore it into newly added nodes) and twig_serve's
     * final checkpoint. saveCheckpoint returns the bytes written. */
    std::size_t saveCheckpoint(const std::string &path) const;
    void loadCheckpoint(const std::string &path);

    const rl::BdqLearner &learner() const { return learner_; }
    rl::BdqLearner &learner() { return learner_; }
    const SystemMonitor &monitor() const { return monitor_; }

  private:
    void actionsToRequests(const std::vector<nn::BranchActions> &actions,
                           std::vector<ResourceRequest> &out) const;

    sim::MachineConfig machine_;
    std::vector<TwigServiceSpec> specs_;
    SystemMonitor monitor_;
    Reward reward_;
    common::Rng rng_; // must precede learner_ (seeds it)
    rl::BdqLearner learner_;
    double maxPowerW_;
    bool exploitOnly_;

    // Previous-interval context for building transitions.
    std::optional<std::vector<float>> prevState_;
    std::vector<nn::BranchActions> prevActions_;
    /** Joint state of the current interval (observeState scratch). */
    std::vector<float> stateScratch_;
};

} // namespace twig::core

#endif // TWIG_CORE_TWIG_MANAGER_HH
