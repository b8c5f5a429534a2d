/** @file Unit tests for the mapper module and resource arbitration. */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "core/mapper.hh"

using namespace twig::core;
using namespace twig::sim;

namespace {

MachineConfig
machine()
{
    return MachineConfig{};
}

std::set<std::size_t>
idSet(const std::vector<std::size_t> &ids)
{
    return {ids.begin(), ids.end()};
}

} // namespace

TEST(Mapper, SingleServiceGetsRequestedCores)
{
    Mapper mapper(machine());
    const auto out = mapper.map({ResourceRequest{6, 3}});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dedicatedCores.size(), 6u);
    EXPECT_TRUE(out[0].sharedCores.empty());
    EXPECT_DOUBLE_EQ(out[0].freqGhz, 1.5);
    EXPECT_EQ(out[0].shareCount, 1u);
}

TEST(Mapper, RequestsClampedToValidRange)
{
    Mapper mapper(machine());
    const auto out = mapper.map({ResourceRequest{0, 99}});
    EXPECT_EQ(out[0].dedicatedCores.size(), 1u); // at least one core
    EXPECT_DOUBLE_EQ(out[0].freqGhz, 2.0);       // clamped to max DVFS

    const auto big = mapper.map({ResourceRequest{500, 0}});
    EXPECT_EQ(big[0].dedicatedCores.size(), 18u);
}

TEST(Mapper, DisjointAllocationsWhenTheyFit)
{
    Mapper mapper(machine());
    const auto out =
        mapper.map({ResourceRequest{6, 2}, ResourceRequest{8, 7}});
    const auto a = idSet(out[0].dedicatedCores);
    const auto b = idSet(out[1].dedicatedCores);
    EXPECT_EQ(a.size(), 6u);
    EXPECT_EQ(b.size(), 8u);
    for (std::size_t id : a) {
        EXPECT_EQ(b.count(id), 0u);
        EXPECT_LT(id, 18u);
    }
}

TEST(Mapper, LocalityPrefersStrideTwo)
{
    // The paper's example: few-core services receive even-stride IDs.
    Mapper mapper(machine());
    const auto out = mapper.map({ResourceRequest{3, 8}});
    const auto &ids = out[0].dedicatedCores;
    ASSERT_EQ(ids.size(), 3u);
    EXPECT_EQ(ids[0], 0u);
    EXPECT_EQ(ids[1], 2u);
    EXPECT_EQ(ids[2], 4u);
}

TEST(Mapper, ServicesStartInSeparateRegions)
{
    Mapper mapper(machine());
    const auto out =
        mapper.map({ResourceRequest{3, 8}, ResourceRequest{4, 8}});
    // Service 1's region starts at core 9 (18/2).
    EXPECT_EQ(out[1].dedicatedCores[0], 9u);
    EXPECT_EQ(out[1].dedicatedCores[1], 11u);
}

TEST(Mapper, ArbitrationPaperExample)
{
    // Paper §IV (scaled to a 10-core socket): sv-1 wants 8 @ 1.2 GHz,
    // sv-2 wants 5 @ 2.0 GHz. Overlap v = 3, so sv-1 keeps 5 dedicated,
    // sv-2 keeps 2, and 3 cores are time-shared at the highest
    // requested DVFS state (2.0 GHz).
    MachineConfig m;
    m.numCores = 10;
    Mapper mapper(m);
    const auto out =
        mapper.map({ResourceRequest{8, 0}, ResourceRequest{5, 8}});

    EXPECT_EQ(out[0].dedicatedCores.size(), 5u);
    EXPECT_EQ(out[1].dedicatedCores.size(), 2u);
    EXPECT_EQ(out[0].sharedCores.size(), 3u);
    EXPECT_EQ(out[1].sharedCores.size(), 3u);
    EXPECT_EQ(idSet(out[0].sharedCores), idSet(out[1].sharedCores));
    EXPECT_EQ(out[0].shareCount, 2u);
    EXPECT_EQ(out[1].shareCount, 2u);
    EXPECT_DOUBLE_EQ(out[0].freqGhz, 1.2);
    EXPECT_DOUBLE_EQ(out[1].freqGhz, 2.0);
    EXPECT_DOUBLE_EQ(out[0].sharedFreqGhz, 2.0);
    EXPECT_DOUBLE_EQ(out[1].sharedFreqGhz, 2.0);
}

TEST(Mapper, ArbitrationUsesEveryCoreExactlyOnce)
{
    MachineConfig m;
    Mapper mapper(m);
    const auto out =
        mapper.map({ResourceRequest{14, 4}, ResourceRequest{12, 6}});
    std::set<std::size_t> all;
    std::size_t listed = 0;
    for (const auto &a : out) {
        for (std::size_t id : a.dedicatedCores) {
            EXPECT_TRUE(all.insert(id).second) << "dup core " << id;
            ++listed;
        }
    }
    // Shared pool is listed identically in both assignments.
    for (std::size_t id : out[0].sharedCores) {
        EXPECT_TRUE(all.insert(id).second);
        ++listed;
    }
    EXPECT_EQ(listed, m.numCores);
    EXPECT_EQ(all.size(), m.numCores);
}

TEST(Mapper, ArbitrationPhysicalCapacityConserved)
{
    // The mapper hands out every physical core exactly once: the sum
    // of dedicated cores plus the (single) shared pool is the socket.
    // How much of the pool each sharer can *use* is decided by the
    // server's work-conserving split at runtime.
    MachineConfig m;
    Mapper mapper(m);
    const auto out =
        mapper.map({ResourceRequest{18, 8}, ResourceRequest{18, 8}});
    const std::size_t total = out[0].dedicatedCores.size() +
        out[1].dedicatedCores.size() + out[0].sharedCores.size();
    EXPECT_EQ(total, m.numCores);
    EXPECT_EQ(idSet(out[0].sharedCores), idSet(out[1].sharedCores));
}

TEST(Mapper, ThreeWayOverflow)
{
    MachineConfig m;
    Mapper mapper(m);
    const auto out = mapper.map({ResourceRequest{10, 0},
                                 ResourceRequest{10, 4},
                                 ResourceRequest{10, 8}});
    // Every service was cut, so all three share the pool at 2.0 GHz.
    std::size_t shared_participants = 0;
    std::size_t dedicated_total = 0;
    for (const auto &a : out) {
        dedicated_total += a.dedicatedCores.size();
        if (!a.sharedCores.empty()) {
            ++shared_participants;
            EXPECT_EQ(a.shareCount, 3u);
            EXPECT_DOUBLE_EQ(a.sharedFreqGhz, 2.0);
        }
    }
    EXPECT_EQ(shared_participants, 3u);
    EXPECT_EQ(dedicated_total + out[0].sharedCores.size(), 18u);
}

TEST(Mapper, UncutServiceKeepsDedicatedOnly)
{
    MachineConfig m;
    Mapper mapper(m);
    // 2 + 18 = 20 > 18: overlap 2; service 0 (want 2) ends up with
    // some arbitration outcome but the physical cores stay 18.
    const auto out =
        mapper.map({ResourceRequest{2, 0}, ResourceRequest{18, 8}});
    std::set<std::size_t> all;
    for (const auto &a : out) {
        for (std::size_t id : a.dedicatedCores)
            EXPECT_TRUE(all.insert(id).second);
    }
    for (std::size_t id : out[1].sharedCores)
        all.insert(id);
    EXPECT_LE(all.size(), 18u);
}

TEST(Mapper, NoRequestsThrows)
{
    Mapper mapper(machine());
    EXPECT_THROW(mapper.map({}), twig::common::FatalError);
}

class MapperPairSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(MapperPairSweep, PhysicalCoresNeverExceedSocket)
{
    // Property: for any pair of requests, every ID is valid, dedicated
    // sets are disjoint, and dedicated + pool cover at most the socket.
    Mapper mapper(machine());
    const auto [r1, r2] = GetParam();
    const auto out = mapper.map({
        ResourceRequest{static_cast<std::size_t>(r1), 3},
        ResourceRequest{static_cast<std::size_t>(r2), 5}});
    std::set<std::size_t> ids;
    for (const auto &a : out) {
        for (std::size_t id : a.dedicatedCores) {
            EXPECT_LT(id, 18u);
            EXPECT_TRUE(ids.insert(id).second) << "dup core " << id;
        }
        for (std::size_t id : a.sharedCores)
            EXPECT_LT(id, 18u);
        EXPECT_GE(a.effectiveCores(), 0.5);
    }
    for (std::size_t id : out[0].sharedCores)
        EXPECT_TRUE(ids.insert(id).second) << "pool overlaps dedicated";
    EXPECT_LE(ids.size(), 18u);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, MapperPairSweep,
    ::testing::Combine(::testing::Values(1, 4, 9, 14, 18),
                       ::testing::Values(1, 5, 10, 18)));

TEST(Mapper, RandomisedRequestsKeepInvariants)
{
    // Property sweep: any K in [1,4], any requests — dedicated sets are
    // disjoint, IDs valid, one shared pool listed identically by every
    // participant, shared frequency is the max of participants.
    twig::common::Rng rng(97);
    Mapper mapper(machine());
    for (int trial = 0; trial < 200; ++trial) {
        const auto k = static_cast<std::size_t>(rng.uniformInt(1, 4));
        std::vector<ResourceRequest> reqs(k);
        for (auto &r : reqs) {
            r.numCores = static_cast<std::size_t>(rng.uniformInt(1, 18));
            r.dvfsIndex = static_cast<std::size_t>(rng.uniformInt(9));
        }
        const auto out = mapper.map(reqs);
        ASSERT_EQ(out.size(), k);

        std::set<std::size_t> dedicated_ids;
        const std::vector<std::size_t> *pool = nullptr;
        double max_part_freq = 0.0;
        for (const auto &a : out) {
            for (std::size_t id : a.dedicatedCores) {
                EXPECT_LT(id, 18u);
                EXPECT_TRUE(dedicated_ids.insert(id).second);
            }
            if (!a.sharedCores.empty()) {
                if (pool == nullptr)
                    pool = &a.sharedCores;
                else
                    EXPECT_EQ(idSet(*pool), idSet(a.sharedCores));
                max_part_freq = std::max(max_part_freq, a.freqGhz);
            }
        }
        if (pool != nullptr) {
            for (std::size_t id : *pool) {
                EXPECT_LT(id, 18u);
                EXPECT_EQ(dedicated_ids.count(id), 0u);
            }
            for (const auto &a : out) {
                if (!a.sharedCores.empty()) {
                    EXPECT_DOUBLE_EQ(a.sharedFreqGhz, max_part_freq);
                }
            }
        }
    }
}
