/**
 * @file
 * Allocation tests. After a warm-up step has sized every scratch
 * buffer, `BdqLearner::trainStep()` and `Mlp::trainStep()` must perform
 * zero heap allocations, a deployed (exploit-only) Twig replica must
 * allocate little more than its policy, a fleet node must not carry
 * its own simulator scratch, and a warm Twig fleet's interval must not
 * allocate at all. Enforced by replacing the
 * global operator new/delete with malloc/free wrappers that bump atomic
 * call and byte counters while a test has counting enabled.
 *
 * This lives in its own test binary so the replaced allocator cannot
 * perturb the rest of the suite.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "baselines/static_manager.hh"
#include "cluster/cluster_manager.hh"
#include "common/rng.hh"
#include "core/mapper.hh"
#include "core/twig_manager.hh"
#include "harness/registry.hh"
#include "nn/mlp.hh"
#include "rl/bdq_learner.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

namespace {

std::atomic<long long> g_alloc_count{0};
std::atomic<long long> g_alloc_bytes{0};
std::atomic<bool> g_counting{false};

void
countAllocation(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
        g_alloc_bytes.fetch_add(static_cast<long long>(n),
                                std::memory_order_relaxed);
    }
}

void *
countedAlloc(std::size_t n)
{
    countAllocation(n);
    void *p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
countedAllocAligned(std::size_t n, std::align_val_t al)
{
    countAllocation(n);
    const std::size_t a = static_cast<std::size_t>(al);
    void *p = std::aligned_alloc(a, (n + a - 1) / a * a);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAllocAligned(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAllocAligned(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace twig;
using twig::common::Rng;

namespace {

long long
countAllocations(const std::function<void()> &body)
{
    g_alloc_count.store(0);
    g_alloc_bytes.store(0);
    g_counting.store(true);
    body();
    g_counting.store(false);
    return g_alloc_count.load();
}

/** Bytes requested from operator new while @p body runs. */
long long
countAllocatedBytes(const std::function<void()> &body)
{
    countAllocations(body);
    return g_alloc_bytes.load();
}

rl::BdqLearnerConfig
smallLearner()
{
    rl::BdqLearnerConfig cfg;
    cfg.net.numAgents = 2;
    cfg.net.stateDimPerAgent = 3;
    cfg.net.trunkHidden = {24, 16};
    cfg.net.agentHeadHidden = 12;
    cfg.net.branchHidden = 12;
    cfg.net.branchActions = {4, 3};
    cfg.net.dropoutRate = 0.0f;
    cfg.minibatch = 16;
    cfg.replay.capacity = 2048;
    cfg.minReplayBeforeTraining = 16;
    cfg.targetUpdateInterval = 50;
    return cfg;
}

rl::Transition
randomTransition(Rng &rng)
{
    rl::Transition t;
    for (int i = 0; i < 6; ++i)
        t.state.push_back(static_cast<float>(rng.uniform()));
    t.actions = {{rng.uniformInt(4), rng.uniformInt(3)},
                 {rng.uniformInt(4), rng.uniformInt(3)}};
    t.rewards = {rng.uniform(), rng.uniform()};
    t.nextState = t.state;
    return t;
}

/** A static-managed fleet of @p nodes default (18-core) nodes hosting
 * Masstree and Xapian at @p load of their fleet-wide peak, stepped on
 * the calling thread. */
std::unique_ptr<cluster::ClusterManager>
staticFleet(std::size_t nodes, double load)
{
    const auto masstree = twig::services::masstree();
    const auto xapian = twig::services::xapian();
    cluster::ClusterConfig cfg;
    cfg.router.policy = cluster::RoutingPolicy::Static;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(std::make_unique<sim::FixedLoad>(
        masstree.maxLoadRps * static_cast<double>(nodes), load));
    loads.push_back(std::make_unique<sim::FixedLoad>(
        xapian.maxLoadRps * static_cast<double>(nodes), load));
    auto fleet = std::make_unique<cluster::ClusterManager>(
        cfg, std::vector<sim::ServiceProfile>{masstree, xapian},
        std::move(loads), 42);
    for (std::size_t n = 0; n < nodes; ++n) {
        fleet->addNode(
            sim::MachineConfig{},
            [](const sim::MachineConfig &machine,
               const std::vector<sim::ServiceProfile> &,
               std::uint64_t) -> std::unique_ptr<core::TaskManager> {
                return std::make_unique<baselines::StaticManager>(machine);
            });
    }
    return fleet;
}

} // namespace

TEST(Alloc, CounterSeesHeapAllocations)
{
    const long long n = countAllocations([] {
        std::vector<int> v(4096);
        v[0] = 1;
    });
    EXPECT_GE(n, 1);
}

TEST(Alloc, BdqTrainStepSteadyStateIsAllocationFree)
{
    Rng rng(7);
    rl::BdqLearner learner(smallLearner(), rng);
    Rng env(11);
    for (int i = 0; i < 64; ++i)
        learner.observe(randomTransition(env));
    // Warm up: the first gradient steps size every scratch buffer.
    for (int i = 0; i < 3; ++i)
        learner.trainStep();

    const long long n = countAllocations([&] {
        for (int i = 0; i < 5; ++i)
            learner.trainStep();
    });
    EXPECT_EQ(n, 0) << "steady-state BdqLearner::trainStep allocated";
}

TEST(Alloc, MlpTrainStepSteadyStateIsAllocationFree)
{
    nn::MlpConfig cfg;
    cfg.inputDim = 4;
    cfg.hidden = {16, 8};
    cfg.outputDim = 2;
    Rng rng(3);
    nn::Mlp mlp(cfg, rng);

    nn::Matrix x(16, 4), t(16, 2);
    Rng data(5);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(data.uniform());
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(data.uniform());

    for (int i = 0; i < 3; ++i)
        mlp.trainStep(x, t);

    const long long n = countAllocations([&] {
        for (int i = 0; i < 5; ++i)
            mlp.trainStep(x, t);
    });
    EXPECT_EQ(n, 0) << "steady-state Mlp::trainStep allocated";
}

TEST(Alloc, MlpPredictSteadyStateIsAllocationFree)
{
    nn::MlpConfig cfg;
    cfg.inputDim = 4;
    cfg.hidden = {16, 8};
    cfg.outputDim = 2;
    Rng rng(3);
    nn::Mlp mlp(cfg, rng);

    nn::Matrix x(8, 4), y;
    Rng data(5);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(data.uniform());
    mlp.predict(x, y); // warm-up sizes y and the activation scratch

    const long long n = countAllocations([&] {
        for (int i = 0; i < 5; ++i)
            mlp.predict(x, y);
    });
    EXPECT_EQ(n, 0) << "steady-state Mlp::predict allocated";
}

TEST(Alloc, ServerRunIntervalSteadyStateIsAllocationFree)
{
    // Two colocated services so the shared pool, interference model and
    // per-service latency paths are all exercised.
    sim::MachineConfig machine;
    sim::Server server(machine, 21);
    const auto masstree = twig::services::masstree();
    const auto xapian = twig::services::xapian();
    server.addService(masstree, std::make_unique<sim::FixedLoad>(
                                    masstree.maxLoadRps, 0.5));
    server.addService(xapian, std::make_unique<sim::FixedLoad>(
                                  xapian.maxLoadRps, 0.5));

    core::Mapper mapper(machine);
    std::vector<core::ResourceRequest> requests = {
        {machine.numCores / 2, machine.dvfs.numStates() - 1},
        {machine.numCores / 2, machine.dvfs.numStates() - 1}};
    std::vector<sim::CoreAssignment> assignments;
    mapper.mapInto(requests, assignments);

    // Warm up: sizes the arrival scratch, latency vectors, QoS window
    // and power/interference buffers to their steady-state high-water
    // marks (Poisson arrivals are deterministic for a fixed seed, so
    // the counted intervals below never exceed them).
    for (int i = 0; i < 50; ++i)
        server.runInterval(assignments);

    const long long n = countAllocations([&] {
        for (int i = 0; i < 5; ++i)
            server.runInterval(assignments);
    });
    EXPECT_EQ(n, 0) << "steady-state Server::runInterval allocated";
}

TEST(Alloc, ClusterManagerStepSteadyStateIsAllocationFree)
{
    const auto masstree = twig::services::masstree();
    cluster::ClusterConfig cfg;
    cfg.router.policy = cluster::RoutingPolicy::Static;
    cfg.jobs = 1;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(
        std::make_unique<sim::FixedLoad>(masstree.maxLoadRps * 2.0, 0.5));
    cluster::ClusterManager fleet(cfg, {masstree}, std::move(loads), 42);

    const auto factory = [](const sim::MachineConfig &machine,
                            const std::vector<sim::ServiceProfile> &,
                            std::uint64_t)
        -> std::unique_ptr<core::TaskManager> {
        return std::make_unique<baselines::StaticManager>(machine);
    };
    fleet.addNode(sim::MachineConfig{}, factory);
    fleet.addNode(sim::MachineConfig{}, factory);

    // Warm up past the trailing QoS window so the per-service
    // histogram ring and every merge scratch reaches steady state.
    for (int i = 0; i < 50; ++i)
        fleet.step();

    const long long n = countAllocations([&] {
        for (int i = 0; i < 5; ++i)
            fleet.step();
    });
    EXPECT_EQ(n, 0) << "steady-state ClusterManager::step allocated";
}

TEST(Alloc, DeployedReplicaAllocatesOnlyItsPolicy)
{
    // One fleet_warm_512 replica: Masstree + img-dnn on an 18-core
    // node, fast preset over a 120-step horizon, built exploit-only by
    // the registry and warm-started from a donor's checkpoint. It runs
    // greedy forwards of its online network and nothing else, so its
    // build may cost at most twice the policy it carries.
    harness::ManagerContext ctx;
    ctx.machine.numCores = 18;
    ctx.profiles = {twig::services::masstree(), twig::services::imgdnn()};
    ctx.schedule = harness::Schedule{120, 60, 120};
    ctx.knobs.exploitOnly = true;
    ctx.seed = 3;
    const auto &registry = harness::ManagerRegistry::builtin();
    const rl::Checkpoint donor =
        dynamic_cast<core::TwigManager &>(*registry.make("twig", ctx))
            .checkpoint();

    ctx.seed = 4;
    std::unique_ptr<core::TaskManager> replica;
    const long long bytes = countAllocatedBytes([&] {
        replica = registry.make("twig", ctx);
        dynamic_cast<core::TwigManager &>(*replica).restore(donor);
    });
    const auto policy = static_cast<long long>(donor.bytes().size());
    EXPECT_LE(bytes, 2 * policy)
        << "a deployed replica allocated " << bytes << " B for a "
        << policy << " B policy";
}

TEST(Alloc, FleetTraceHoldsNoPerNodeCopies)
{
    // run() keeps one fleet-level record per interval; node telemetry
    // stays on the nodes. Two identical 64-node static fleets advance
    // 200 intervals, one through run(200, 50) and one through bare
    // step() calls. Their simulators allocate alike, except that the
    // first may grow this thread's simulator scratch (~67 KB, or 0
    // when an earlier test already did), so the difference is at most
    // what run() keeps: its window accumulators once, then the trace.
    // A copy of every node's stats would cost
    // 64 x (48 + 2 x 208) B, ~30 KB, per interval.
    const std::size_t steps = 200;
    auto stepped = staticFleet(64, 0.1);
    const long long step_bytes = countAllocatedBytes([&] {
        for (std::size_t t = 0; t < steps; ++t)
            stepped->step();
    });
    auto ran = staticFleet(64, 0.1);
    cluster::FleetRunResult result;
    const long long run_bytes =
        countAllocatedBytes([&] { result = ran->run(steps, 50); });
    ASSERT_EQ(result.trace.size(), steps);
    const long long per_interval =
        (run_bytes - step_bytes) / static_cast<long long>(steps);
    EXPECT_LT(per_interval, 1024)
        << "run() kept " << per_interval << " B per interval";
}

TEST(Alloc, FleetNodeCarriesNoSimulatorScratch)
{
    // A queue simulator keeps only what carries between intervals (its
    // backlog ring, QoS window and RNG); the dispatch lanes, arrival,
    // sort and draw buffers and the returned latencies are one scratch
    // per stepping thread. Building a 64-node static Masstree + Xapian
    // fleet at half load and stepping it 50 intervals allocates
    // ~109-111 KB a node (the lower figure when an earlier test on this
    // thread already grew the scratch). It was ~383 KB (392,139 B)
    // when each of a node's two queues carried its own scratch, three
    // 256-bucket calendars included.
    const std::size_t nodes = 64;
    const long long bytes = countAllocatedBytes([&] {
        auto fleet = staticFleet(nodes, 0.5);
        for (int t = 0; t < 50; ++t)
            fleet->step();
    });
    const long long per_node = bytes / static_cast<long long>(nodes);
    EXPECT_LT(per_node, 160 * 1024)
        << "building and stepping a node allocated " << per_node << " B";
}

TEST(Alloc, WarmTwigFleetStepSteadyStateIsAllocationFree)
{
    // The deployed fleet's interval: eight warm exploit-only Twig
    // replicas (Masstree + img-dnn on 18 cores, restored from one
    // donor checkpoint) behind p2c-latency in two routing domains,
    // deciding through one batched cohort. Once the QoS windows and
    // scratch buffers have grown, routing, simulating, smoothing the
    // PMCs, the cohort forward, mapping and the histogram merge
    // allocate nothing. Each replica allocated ~5 times an interval
    // when the monitor returned fresh state vectors and kept its
    // history in a deque.
    const std::size_t nodes = 8;
    harness::ManagerContext ctx;
    ctx.machine.numCores = 18;
    ctx.profiles = {twig::services::masstree(), twig::services::imgdnn()};
    ctx.schedule = harness::Schedule{120, 60, 120};
    ctx.knobs.exploitOnly = true;
    ctx.seed = 3;
    const auto &registry = harness::ManagerRegistry::builtin();
    const rl::Checkpoint donor =
        dynamic_cast<core::TwigManager &>(*registry.make("twig", ctx))
            .checkpoint();

    cluster::ClusterConfig cfg;
    cfg.router.policy = cluster::RoutingPolicy::PowerOfTwoLatency;
    cfg.router.domains = 2;
    cfg.jobs = 1;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    for (const auto &profile : ctx.profiles) {
        loads.push_back(std::make_unique<sim::FixedLoad>(
            profile.maxLoadRps * static_cast<double>(nodes), 0.4));
    }
    cluster::ClusterManager fleet(cfg, ctx.profiles, std::move(loads), 42);
    const auto factory = [&](const sim::MachineConfig &machine,
                             const std::vector<sim::ServiceProfile> &svcs,
                             std::uint64_t seed) {
        harness::ManagerContext node_ctx = ctx;
        node_ctx.machine = machine;
        node_ctx.profiles = svcs;
        node_ctx.seed = seed;
        return registry.make("twig", node_ctx);
    };
    for (std::size_t n = 0; n < nodes; ++n)
        fleet.addNode(ctx.machine, factory, &donor);

    for (int i = 0; i < 50; ++i)
        fleet.step();
    ASSERT_EQ(fleet.batchedNodeCount(), nodes);

    const long long n = countAllocations([&] {
        for (int i = 0; i < 5; ++i)
            fleet.step();
    });
    EXPECT_EQ(n, 0) << "steady-state warm Twig fleet step allocated";
}
