/**
 * @file
 * Golden runs of the simulation hot path.
 *
 * Each test steps a same-seeded server (or fleet) through a fixed
 * schedule and folds every telemetry field of every interval into one
 * FNV-1a hash (oracle/golden_hash.hh). The constants were recorded
 * when these runs were still compared live, interval by interval and
 * with exact equality, against the seed's queue simulator, and that
 * comparison passed on the same runs. A changed hash therefore means
 * some reported bit changed: RNG draw order, dispatch policy,
 * QoS-window handling or power attribution. The live comparison
 * against the oracle continues at the queue level, on fuzzed inputs,
 * in tests/test_dispatch_diff.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/static_manager.hh"
#include "cluster/cluster_manager.hh"
#include "core/mapper.hh"
#include "core/task_manager.hh"
#include "oracle/golden_hash.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/machine.hh"
#include "sim/server.hh"

using namespace twig;

namespace {

using Schedule = std::vector<std::vector<core::ResourceRequest>>;

std::vector<sim::ServiceProfile>
fourServices()
{
    return {services::masstree(), services::xapian(), services::moses(),
            services::silo()};
}

/** Hash of @p steps intervals of a server hosting @p profiles at a
 * fixed load fraction, its assignments cycling through @p schedule. */
std::uint64_t
serverRunHash(const std::vector<sim::ServiceProfile> &profiles,
              double load_fraction, const Schedule &schedule,
              std::size_t steps, std::uint64_t seed)
{
    const sim::MachineConfig machine;
    sim::Server server(machine, seed);
    for (const auto &profile : profiles)
        server.addService(profile, std::make_unique<sim::FixedLoad>(
                                       profile.maxLoadRps,
                                       load_fraction));
    core::Mapper mapper(machine);
    std::vector<sim::CoreAssignment> assignments;
    std::uint64_t h = common::kFnvOffsetBasis;
    for (std::size_t t = 0; t < steps; ++t) {
        mapper.mapInto(schedule[t % schedule.size()], assignments);
        h = oracle::hashServerStats(server.runInterval(assignments), h);
    }
    return h;
}

} // namespace

TEST(SimAb, ColocatedRunIsBitIdenticalOver500Intervals)
{
    // Four colocated services, moderate load, assignments cycling
    // between a dedicated-heavy and a shared-pool-heavy split: covers
    // dedicated cores, full shared cores and fractional shares.
    const std::size_t max_dvfs = sim::MachineConfig{}.dvfs.numStates() - 1;
    const Schedule schedule = {
        {{4, max_dvfs}, {4, max_dvfs}, {4, max_dvfs}, {4, max_dvfs}},
        {{8, max_dvfs}, {8, max_dvfs - 1}, {8, max_dvfs}, {8, max_dvfs - 1}},
        {{2, max_dvfs - 2}, {6, max_dvfs}, {10, max_dvfs - 1}, {3, max_dvfs}},
    };
    EXPECT_EQ(serverRunHash(fourServices(), 0.5, schedule, 500, 1234),
              0xfcfca2b9b7c345cbULL);
}

TEST(SimAb, OverloadedSharedPoolIsBitIdentical)
{
    // Offered load above capacity with heavily oversubscribed core
    // requests: exercises queue growth, timeouts/drops and the
    // overload p99 fallback.
    const std::size_t max_dvfs = sim::MachineConfig{}.dvfs.numStates() - 1;
    const Schedule schedule = {
        {{9, max_dvfs}, {9, max_dvfs}, {9, max_dvfs}, {9, max_dvfs}},
        {{1, 0}, {1, 0}, {1, 0}, {1, 0}},
    };
    EXPECT_EQ(serverRunHash(fourServices(), 1.1, schedule, 120, 99),
              0xd98a84b50c931771ULL);
}

TEST(SimAb, ThroughputBenchConfigsAreBitIdentical)
{
    // bench/fig_sim_throughput's three configurations at its default
    // seed and schedule (50 warm-up steps, then 300, or 150 for the
    // fleet), every step hashed.
    const std::uint64_t seed = 42;
    const sim::MachineConfig machine;
    const std::size_t top = machine.dvfs.maxIndex();
    EXPECT_EQ(serverRunHash({services::masstree()}, 0.9,
                            {{{machine.numCores, top}}}, 350, seed),
              0xffa9c9af9c2de7e9ULL)
        << "single_high_rps";
    EXPECT_EQ(serverRunHash(fourServices(), 0.6,
                            {{{8, top}, {8, top}, {8, top}, {8, top}}},
                            350, seed),
              0x41df53d94e634d23ULL)
        << "colocated_4svc";

    // fleet_8node: static routing and static managers on 8 nodes.
    const std::size_t nodes = 8;
    const auto masstree = services::masstree();
    const auto xapian = services::xapian();
    cluster::ClusterConfig cfg;
    cfg.router.policy = cluster::RoutingPolicy::Static;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(std::make_unique<sim::FixedLoad>(
        masstree.maxLoadRps * static_cast<double>(nodes), 0.5));
    loads.push_back(std::make_unique<sim::FixedLoad>(
        xapian.maxLoadRps * static_cast<double>(nodes), 0.5));
    cluster::ClusterManager fleet(cfg, {masstree, xapian},
                                  std::move(loads), seed);
    const auto factory = [](const sim::MachineConfig &m,
                            const std::vector<sim::ServiceProfile> &,
                            std::uint64_t)
        -> std::unique_ptr<core::TaskManager> {
        return std::make_unique<baselines::StaticManager>(m);
    };
    for (std::size_t n = 0; n < nodes; ++n)
        fleet.addNode(sim::MachineConfig{}, factory);
    oracle::FleetHasher hasher(fleet);
    for (std::size_t t = 0; t < 200; ++t)
        hasher.add(fleet.step());
    EXPECT_EQ(hasher.digest(), 0xa33dc17717bf1526ULL) << "fleet_8node";
}
