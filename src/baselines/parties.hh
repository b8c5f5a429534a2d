/**
 * @file
 * Reimplementation of PARTIES (Chen et al., ASPLOS 2019) from its
 * published description as configured by the Twig authors (paper §V-A):
 * a feedback controller for *multiple* colocated LC services that
 * adjusts one resource at a time every 2 s.
 *
 *  * If any service's tail latency reaches 95 % of its target, one of
 *    its control resources (core count or DVFS; CAT and explicit memory
 *    allocation are not modelled, matching the Twig setup) is upsized.
 *  * Otherwise resources are reclaimed from the service with the most
 *    slack, one resource at a time; if the reclaim pushes the service
 *    toward violation, it is reverted and the controller tries the
 *    other resource next time.
 */

#ifndef TWIG_BASELINES_PARTIES_HH
#define TWIG_BASELINES_PARTIES_HH

#include <cstddef>
#include <vector>

#include "baselines/static_manager.hh"
#include "common/rng.hh"
#include "core/task_manager.hh"

namespace twig::baselines {

/** PARTIES knobs (paper §V-A). */
struct PartiesConfig
{
    std::size_t periodSteps = 2;
    /** Upsize when tail latency reaches this fraction of the target.
     * The paper uses 95%; our simulated per-interval tail estimate is
     * noisier than their 2 s samples, so the default rides slightly
     * safer to give PARTIES its paper-like QoS guarantee. */
    double pressureFraction = 0.90;
};

/** The PARTIES manager (one or more services). */
class Parties : public core::TaskManager
{
  public:
    Parties(const PartiesConfig &cfg, const sim::MachineConfig &machine,
            std::vector<BaselineServiceSpec> specs, std::uint64_t seed);

    std::string name() const override { return "parties"; }

    void decideInto(const sim::ServerIntervalStats &stats,
                    std::vector<core::ResourceRequest> &out) override;

    std::size_t migrations() const { return migrations_; }

  private:
    enum class Resource { Cores, Dvfs };

    /** A reclaim awaiting verification at the next decision. */
    struct Adjustment
    {
        std::size_t service;
        Resource resource;
    };

    void upsize(std::size_t svc, Resource r);
    void downsize(std::size_t svc, Resource r);

    PartiesConfig cfg_;
    sim::MachineConfig machine_;
    std::vector<BaselineServiceSpec> specs_;
    common::Rng rng_;
    std::vector<std::size_t> cores_;
    std::vector<std::size_t> dvfs_;
    /** Next resource each service's reclaim should try (alternates
     * after a reverted adjustment). */
    std::vector<Resource> nextReclaim_;
    std::vector<Adjustment> pending_;
    std::size_t step_ = 0;
    std::size_t migrations_ = 0;
};

} // namespace twig::baselines

#endif // TWIG_BASELINES_PARTIES_HH
