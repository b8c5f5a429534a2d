/**
 * @file
 * Randomized differential test of the sorted-lane dispatch against the
 * seed's algorithm (oracle::ReferenceQueueSim, tests/oracle/), at the
 * RequestQueueSim level.
 *
 * tests/test_sim_ab.cc pins whole-server runs to golden hashes; this
 * file compares live against the oracle, attacking the dispatch core
 * with adversarial arrival patterns — bursts into empty queues,
 * strings of empty intervals, single-core classes, zero-core
 * intervals, sustained saturation, tiny backlog caps, node-class rate
 * scales, every class size across the lanes' block boundaries — plus
 * fuzzed random schedules. Every interval's result is compared with
 * exact equality (operator== on doubles, no tolerance),
 * including the per-request latenciesMs vector element by element: the
 * optimized simulator must produce the same requests, in the same
 * order, with the same bits. RequestConservation fuzzes the same
 * kind of schedules, with and without a tiny backlog cap, against the
 * per-interval request balance instead of the oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autoscale/node_class.hh"
#include "common/rng.hh"
#include "oracle/reference_queue_sim.hh"
#include "services/tailbench.hh"
#include "sim/machine.hh"
#include "sim/queue_sim.hh"

using namespace twig::sim;
using twig::common::Rng;
using twig::oracle::ReferenceQueueSim;

namespace {

ServiceProfile
testProfile(double base_ms = 5.0, double cv = 0.5)
{
    ServiceProfile p;
    p.name = "diff";
    p.maxLoadRps = 2000.0;
    p.qosTargetMs = 20.0;
    p.baseServiceTimeMs = base_ms;
    p.serviceTimeCv = cv;
    p.freqExponent = 1.0;
    p.timeoutMs = 400.0;
    return p;
}

CoreAssignment
dedicated(std::size_t n, double ghz = 2.0)
{
    CoreAssignment a;
    for (std::size_t i = 0; i < n; ++i)
        a.dedicatedCores.push_back(i);
    a.freqGhz = ghz;
    a.sharedFreqGhz = ghz;
    return a;
}

CoreAssignment
mixed(std::size_t n_ded, std::size_t n_shared, std::size_t share_count,
      double usable, double ghz = 2.0, double shared_ghz = 1.6)
{
    CoreAssignment a;
    for (std::size_t i = 0; i < n_ded; ++i)
        a.dedicatedCores.push_back(i);
    for (std::size_t i = 0; i < n_shared; ++i)
        a.sharedCores.push_back(n_ded + i);
    a.shareCount = share_count;
    a.sharedUsableCores = usable;
    a.freqGhz = ghz;
    a.sharedFreqGhz = shared_ghz;
    return a;
}

/** One interval of a differential schedule. */
struct Interval
{
    double rps;
    CoreAssignment assignment;
    double inflation = 1.0;
};

/** Empty when @p ro and @p rr agree exactly on every result field,
 * every latency bit and the backlog left behind; otherwise the first
 * difference. */
std::string
difference(const QueueIntervalResult &ro, const QueueIntervalResult &rr,
           std::size_t backlog_o, std::size_t backlog_r)
{
    std::ostringstream out;
    out.precision(17);
    const auto field = [&](const char *name, auto o, auto r) {
        if (out.tellp() == 0 && o != r)
            out << name << " " << o << " != " << r;
    };
    field("completed", ro.completed, rr.completed);
    field("arrivals", ro.arrivals, rr.arrivals);
    field("dropped", ro.dropped, rr.dropped);
    field("queuedAtEnd", ro.queuedAtEnd, rr.queuedAtEnd);
    field("p99Ms", ro.p99Ms, rr.p99Ms);
    field("p99InstantMs", ro.p99InstantMs, rr.p99InstantMs);
    field("busyCoreSeconds", ro.busyCoreSeconds, rr.busyCoreSeconds);
    field("latencies", ro.latenciesMs.size(), rr.latenciesMs.size());
    for (std::size_t j = 0; j < ro.latenciesMs.size() && out.tellp() == 0;
         ++j) {
        if (ro.latenciesMs[j] != rr.latenciesMs[j])
            out << "request " << j << " latency " << ro.latenciesMs[j]
                << " != " << rr.latenciesMs[j];
    }
    field("backlog", backlog_o, backlog_r);
    return out.str();
}

/** Step the simulator and the oracle through @p schedule and require
 * exact equality of every result field, latencies element-wise
 * included. Adds the requests dropped to @p dropped when given. */
void
runDiff(const ServiceProfile &profile,
        const std::vector<Interval> &schedule, std::uint64_t seed,
        std::size_t max_pending = 200000, double rate_scale = 1.0,
        std::size_t *dropped = nullptr)
{
    RequestQueueSim optimized(profile, Rng(seed), 2.0, max_pending,
                              rate_scale);
    ReferenceQueueSim reference(profile, Rng(seed), 2.0, max_pending,
                                rate_scale);

    double t0 = 0.0;
    for (std::size_t i = 0; i < schedule.size(); ++i, t0 += 1.0) {
        const Interval &iv = schedule[i];
        const auto &ro =
            optimized.run(t0, 1.0, iv.rps, iv.assignment, iv.inflation);
        const auto &rr =
            reference.run(t0, 1.0, iv.rps, iv.assignment, iv.inflation);
        ASSERT_EQ(difference(ro, rr, optimized.backlog(),
                             reference.backlog()),
                  "")
            << "first divergence at interval " << i;
        if (dropped != nullptr)
            *dropped += ro.dropped;
    }
}

/** One queue of a set that shares a thread's simulator scratch: its
 * profile, schedule, seed and backlog cap. */
struct QueueCase
{
    const char *name;
    ServiceProfile profile;
    std::vector<Interval> schedule;
    std::uint64_t seed;
    std::size_t maxPending = 200000;
};

/** Step every case's simulator and its own oracle twin round-robin on
 * the calling thread, one interval of each queue in turn, comparing
 * each result before the next queue runs. Empty when every interval
 * of every queue matched; otherwise the first difference. */
std::string
stepRoundRobin(const std::vector<const QueueCase *> &cases)
{
    struct Twin
    {
        RequestQueueSim optimized;
        ReferenceQueueSim reference;
    };
    std::deque<Twin> twins;
    std::size_t len = 0;
    for (const QueueCase *c : cases) {
        twins.push_back({RequestQueueSim(c->profile, Rng(c->seed), 2.0,
                                         c->maxPending),
                         ReferenceQueueSim(c->profile, Rng(c->seed), 2.0,
                                           c->maxPending)});
        len = std::max(len, c->schedule.size());
    }
    for (std::size_t i = 0; i < len; ++i) {
        const double t0 = static_cast<double>(i);
        for (std::size_t q = 0; q < cases.size(); ++q) {
            const QueueCase &c = *cases[q];
            const Interval &iv = c.schedule[i % c.schedule.size()];
            Twin &twin = twins[q];
            const auto &ro = twin.optimized.run(
                t0, 1.0, iv.rps, iv.assignment, iv.inflation);
            const auto &rr = twin.reference.run(
                t0, 1.0, iv.rps, iv.assignment, iv.inflation);
            const std::string diff =
                difference(ro, rr, twin.optimized.backlog(),
                           twin.reference.backlog());
            if (!diff.empty()) {
                return std::string(c.name) + ", interval " +
                    std::to_string(i) + ": " + diff;
            }
        }
    }
    return "";
}

/** Five queues of different shapes, so each run follows a queue whose
 * lane arrays were longer or shorter, with other classes and another
 * load: 18 dedicated cores; all three speed classes; 40 dedicated
 * cores; 6 cores overloaded into a 64-request backlog cap with
 * timeouts firing; and no cores at all. */
std::vector<QueueCase>
sharedScratchCases()
{
    std::vector<QueueCase> cases;
    QueueCase wide{"18 dedicated", testProfile(), {}, 41};
    QueueCase classes{"three classes", testProfile(6.75, 0.7), {}, 43};
    QueueCase widest{"40 dedicated", testProfile(20.0, 0.5), {}, 59};
    QueueCase overload{"6 overloaded", testProfile(60.0, 0.5), {}, 47, 64};
    QueueCase none{"zero cores", testProfile(), {}, 53};
    const double mults[] = {0.3, 0.7, 1.1, 0.5, 0.9};
    for (int i = 0; i < 40; ++i) {
        const double m = mults[i % 5];
        wide.schedule.push_back({m * 18 * 200.0, dedicated(18)});
        classes.schedule.push_back(
            {m * 6 * 200.0, mixed(3, 4, 2, 2.5, 2.0, 1.4), 1.2});
        widest.schedule.push_back({m * 40 * 50.0, dedicated(40)});
        overload.schedule.push_back(
            {(1.2 + m) * 6 * 1000.0 / 60.0, dedicated(6, 1.6)});
        none.schedule.push_back({m * 4 * 200.0, CoreAssignment{}});
    }
    cases.push_back(std::move(wide));
    cases.push_back(std::move(classes));
    cases.push_back(std::move(widest));
    cases.push_back(std::move(overload));
    cases.push_back(std::move(none));
    return cases;
}

/** A random 20-49 interval schedule: random load multipliers
 * (including zero and deep overload), random assignments (single-core,
 * zero-core, mixed shared/fractional, full socket), random DVFS and
 * inflation. */
std::vector<Interval>
fuzzedSchedule(Rng &fuzz)
{
    const double mults[] = {0.0, 0.0, 0.1, 0.5, 0.9, 1.2, 2.5};
    std::vector<Interval> schedule;
    const std::size_t len = 20 + fuzz.uniformInt(std::uint64_t{30});
    for (std::size_t i = 0; i < len; ++i) {
        Interval iv;
        const double ghz = 1.2 + 0.1 * static_cast<double>(
            fuzz.uniformInt(std::uint64_t{9}));
        switch (fuzz.uniformInt(std::uint64_t{5})) {
        case 0:
            iv.assignment = dedicated(1, ghz);
            break;
        case 1:
            iv.assignment = CoreAssignment{};
            break;
        case 2:
            iv.assignment = dedicated(
                1 + fuzz.uniformInt(std::uint64_t{18}), ghz);
            break;
        case 3:
            iv.assignment = mixed(
                fuzz.uniformInt(std::uint64_t{4}),
                1 + fuzz.uniformInt(std::uint64_t{8}),
                2 + fuzz.uniformInt(std::uint64_t{3}),
                fuzz.uniform(0.5, 6.0), ghz, ghz);
            break;
        default:
            iv.assignment = mixed(
                1 + fuzz.uniformInt(std::uint64_t{8}), 2, 2, -1.0,
                ghz, 2.0);
            break;
        }
        const std::size_t cores =
            iv.assignment.dedicatedCores.size() +
            iv.assignment.sharedCores.size();
        iv.rps = mults[fuzz.uniformInt(std::uint64_t{7})] *
            static_cast<double>(cores == 0 ? 4 : cores) * 200.0;
        iv.inflation = fuzz.uniform(1.0, 2.0);
        schedule.push_back(std::move(iv));
    }
    return schedule;
}

} // namespace

TEST(DispatchDiff, BurstsIntoEmptyIntervals)
{
    // A 3x burst, then empty intervals that drain the backlog with no
    // new arrivals: dispatch must walk the ring without fresh input,
    // and arrivals-free intervals must leave the RNG stream aligned.
    std::vector<Interval> schedule;
    for (int cycle = 0; cycle < 12; ++cycle) {
        schedule.push_back({3.0 * 8 * 200.0, dedicated(8)});
        schedule.push_back({0.0, dedicated(8)});
        schedule.push_back({0.0, dedicated(8)});
        schedule.push_back({0.0, dedicated(8)});
    }
    runDiff(testProfile(), schedule, 7);
}

TEST(DispatchDiff, SingleCoreClassOverload)
{
    // One core, offered load past capacity: every request waits on
    // the same free-time value, timeouts fire, the queue grows.
    std::vector<Interval> schedule(40, {1.4 * 200.0, dedicated(1)});
    runDiff(testProfile(), schedule, 11);
}

TEST(DispatchDiff, AllCoresBusySaturation)
{
    // 18 cores at 130% load for a sustained stretch: every core stays
    // busy past the interval end and the backlog grows, then a light
    // stretch drains it.
    std::vector<Interval> schedule;
    for (int i = 0; i < 25; ++i)
        schedule.push_back({1.3 * 18 * 200.0, dedicated(18)});
    for (int i = 0; i < 15; ++i)
        schedule.push_back({0.3 * 18 * 200.0, dedicated(18)});
    runDiff(testProfile(), schedule, 13);
}

TEST(DispatchDiff, ZeroCoreIntervalsSpillEverything)
{
    // Intervals granting no cores at all (service swapped out):
    // arrivals must spill to the backlog untouched on both sides,
    // then get serviced when cores return.
    std::vector<Interval> schedule;
    for (int cycle = 0; cycle < 10; ++cycle) {
        schedule.push_back({0.8 * 4 * 200.0, dedicated(4)});
        schedule.push_back({0.5 * 4 * 200.0, CoreAssignment{}});
        schedule.push_back({0.8 * 4 * 200.0, dedicated(4)});
    }
    runDiff(testProfile(), schedule, 17);
}

TEST(DispatchDiff, TinyBacklogCapDrops)
{
    // max_pending of 64: overload rams the ring's capacity cap, so
    // accept/drop accounting and the overflow path must agree.
    std::vector<Interval> schedule(30, {2.0 * 2 * 200.0, dedicated(2)});
    runDiff(testProfile(), schedule, 19, /*max_pending=*/64);
}

TEST(DispatchDiff, SharedAndFractionalClasses)
{
    // All three speed classes at once (dedicated, shared-full,
    // shared-fractional) with differing frequencies, so dispatch
    // selects among lane sets with distinct service rates.
    std::vector<Interval> schedule;
    for (int i = 0; i < 30; ++i) {
        schedule.push_back(
            {0.9 * 6 * 200.0, mixed(3, 4, 2, 2.5, 2.0, 1.4)});
        schedule.push_back(
            {0.4 * 6 * 200.0, mixed(2, 6, 3, 4.0, 1.8, 1.8)});
    }
    runDiff(testProfile(6.75, 0.7), schedule, 23);
}

TEST(DispatchDiff, NodeClassRateScales)
{
    // The gen1 and gen2 node classes scale every core's service rate
    // (MachineConfig::serviceRateScale), which divides each request's
    // mean on-core time. Mixed dedicated / shared / fractional classes
    // under interference inflation, offered load scaled with capacity
    // so both a light and an overloaded stretch occur at each scale.
    for (const char *id : {"gen1", "gen2"}) {
        const double scale =
            twig::autoscale::findNodeClass({}, id)->serviceRateScale;
        ASSERT_NE(scale, 1.0) << id;
        std::vector<Interval> schedule;
        for (int i = 0; i < 20; ++i) {
            schedule.push_back({0.8 * 6 * 200.0 * scale,
                                mixed(3, 4, 2, 2.5, 2.0, 1.4), 1.3});
            schedule.push_back({1.3 * 6 * 200.0 * scale,
                                mixed(2, 6, 3, 3.5, 1.8, 1.8), 1.7});
            schedule.push_back(
                {0.5 * 8 * 200.0 * scale, dedicated(8, 1.6), 1.1});
        }
        runDiff(testProfile(6.75, 0.7), schedule, 29,
                /*max_pending=*/200000, scale);
        if (::testing::Test::HasFailure())
            FAIL() << id << " (rate scale " << scale << ") diverged";
    }
}

TEST(DispatchDiff, FuzzedSchedules)
{
    // Fuzzed schedules against the oracle. Seeds are fixed so
    // failures replay deterministically.
    Rng fuzz(0xd15f);
    for (int round = 0; round < 8; ++round) {
        const auto schedule = fuzzedSchedule(fuzz);
        runDiff(testProfile(5.0, 0.3 + 0.2 * round), schedule,
                1000 + static_cast<std::uint64_t>(round));
        if (::testing::Test::HasFailure())
            FAIL() << "fuzz round " << round << " diverged";
    }
}

TEST(DispatchDiff, EveryLaneBlockBoundary)
{
    // Each class keeps its free-times in lanes padded to blocks of 8,
    // and every ISA version inserts W of them at a time (W = 2 or 4),
    // so a class size on either side of a vector or block boundary
    // takes another last-vector path. Every dedicated class of 1-40
    // cores and every shared-full pool of 1-17 cores, with and without
    // a fractional core, runs a light stretch and an overloaded one
    // whose backlog outwaits the timeout.
    const double loads[] = {0.7, 1.3, 1.3, 1.3, 1.3, 1.3, 0.7, 0.7};
    const auto run = [&](const CoreAssignment &assignment, double cores,
                         std::uint64_t seed) {
        // 50 ms requests: each core serves 20 per second at full speed.
        std::vector<Interval> schedule;
        for (const double load : loads)
            schedule.push_back({load * cores * 20.0, assignment});
        std::size_t timeouts = 0; // the backlog cap never binds here
        runDiff(testProfile(50.0, 0.5), schedule, seed, 200000, 1.0,
                &timeouts);
        return timeouts;
    };
    for (std::size_t n = 1; n <= 40; ++n) {
        const std::size_t timeouts =
            run(dedicated(n), static_cast<double>(n), 3000 + n);
        if (::testing::Test::HasFailure())
            FAIL() << n << " dedicated cores diverged";
        EXPECT_GT(timeouts, 0u) << n << " dedicated cores";
    }
    for (std::size_t n = 1; n <= 17; ++n) {
        for (const bool fraction : {false, true}) {
            // Shared cores run at 1.6 GHz: 0.8 of a 2.0 GHz core's rate.
            const double usable =
                static_cast<double>(n) + (fraction ? 0.5 : 0.0);
            const std::size_t timeouts =
                run(mixed(0, n + (fraction ? 1 : 0), 2, usable, 2.0, 1.6),
                    0.8 * usable, 4000 + 2 * n + (fraction ? 1 : 0));
            if (::testing::Test::HasFailure())
                FAIL() << n << " shared cores (fraction " << fraction
                       << ") diverged";
            EXPECT_GT(timeouts, 0u)
                << n << " shared cores (fraction " << fraction << ")";
        }
    }
}

TEST(DispatchDiff, SharedScratchRoundRobin)
{
    // Every queue on a thread runs in the same scratch (lanes, arrival
    // and sort buffers, draws, the returned result). Five queues of
    // different shapes take turns on this thread; each must still
    // match its own oracle twin bit for bit, every interval.
    const std::vector<QueueCase> cases = sharedScratchCases();
    std::vector<const QueueCase *> all;
    for (const QueueCase &c : cases)
        all.push_back(&c);
    EXPECT_EQ(stepRoundRobin(all), "");
}

TEST(DispatchDiff, SharedScratchTwoThreads)
{
    // The same five queues split across two threads stepping at once:
    // each thread has its own scratch, so neither sees the other's
    // values (and ThreadSanitizer sees no shared write).
    const std::vector<QueueCase> cases = sharedScratchCases();
    std::string diff_a;
    std::string diff_b;
    std::thread a([&] {
        diff_a = stepRoundRobin({&cases[0], &cases[1], &cases[2]});
    });
    std::thread b([&] { diff_b = stepRoundRobin({&cases[3], &cases[4]}); });
    a.join();
    b.join();
    EXPECT_EQ(diff_a, "");
    EXPECT_EQ(diff_b, "");
}

TEST(RequestConservation, FuzzedSchedulesBalanceEveryInterval)
{
    // Every request is accounted for in every interval: the backlog
    // it started with plus its arrivals either entered service, were
    // dropped (backlog cap or timeout) or still wait. Latencies cover
    // completions and timeouts (censored at the timeout), never a
    // request the backlog cap refused. Odd rounds run with a 64-request
    // cap, so overloaded intervals overflow it.
    Rng fuzz(0xc0175e);
    std::size_t cap_drops_seen = 0;
    std::size_t timeouts_seen = 0;
    for (int round = 0; round < 8; ++round) {
        const std::size_t max_pending = round % 2 == 1 ? 64 : 200000;
        const auto schedule = fuzzedSchedule(fuzz);
        RequestQueueSim sim(testProfile(5.0, 0.3 + 0.2 * round),
                            Rng(2000 + static_cast<std::uint64_t>(round)),
                            2.0, max_pending);
        double t0 = 0.0;
        for (std::size_t i = 0; i < schedule.size(); ++i, t0 += 1.0) {
            const Interval &iv = schedule[i];
            const std::size_t before = sim.backlog();
            const auto &r =
                sim.run(t0, 1.0, iv.rps, iv.assignment, iv.inflation);
            const std::size_t room =
                before >= max_pending ? 0 : max_pending - before;
            const std::size_t cap_drops =
                r.arrivals - std::min(r.arrivals, room);

            EXPECT_EQ(before + r.arrivals,
                      r.completed + r.dropped + r.queuedAtEnd)
                << "round " << round << " interval " << i;
            EXPECT_EQ(r.queuedAtEnd, sim.backlog())
                << "round " << round << " interval " << i;
            // So latenciesMs.size() <= completed + dropped, with
            // equality whenever the cap refused nothing.
            EXPECT_EQ(r.latenciesMs.size() + cap_drops,
                      r.completed + r.dropped)
                << "round " << round << " interval " << i;
            cap_drops_seen += cap_drops;
            timeouts_seen += r.latenciesMs.size() - r.completed;
        }
        if (::testing::Test::HasFailure())
            FAIL() << "conservation round " << round << " broke";
    }
    // Both kinds of drop occurred, so both terms were exercised.
    EXPECT_GT(cap_drops_seen, 0u);
    EXPECT_GT(timeouts_seen, 0u);
}
