#include "harness/managers.hh"

#include "core/mapper.hh"
#include "harness/sweep.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

namespace twig::harness {

bool
colocationProbePasses(const sim::ServiceProfile &a,
                      const sim::ServiceProfile &b, double f,
                      std::uint64_t seed)
{
    const sim::MachineConfig machine;
    core::Mapper mapper(machine);
    const auto full = mapper.map(
        {core::ResourceRequest{machine.numCores,
                               machine.dvfs.maxIndex()},
         core::ResourceRequest{machine.numCores,
                               machine.dvfs.maxIndex()}});
    sim::Server server(machine, seed);
    server.addService(a, std::make_unique<sim::FixedLoad>(
                             a.maxLoadRps * f, 0.8));
    server.addService(b, std::make_unique<sim::FixedLoad>(
                             b.maxLoadRps * f, 0.8));
    std::size_t met = 0, n = 0;
    for (int i = 0; i < 18; ++i) {
        const auto s = server.runInterval(full);
        if (i < 3)
            continue;
        ++n;
        met += (s.services[0].p99Ms <= a.qosTargetMs &&
                s.services[1].p99Ms <= b.qosTargetMs)
            ? 1
            : 0;
    }
    return met * 10 >= n * 9; // >= 90% of probe intervals clean
}

double
colocatedMaxFraction(const sim::ServiceProfile &a,
                     const sim::ServiceProfile &b, std::uint64_t seed,
                     std::size_t jobs)
{
    std::vector<double> fractions;
    for (int pct = 60; pct >= 30; pct -= 5)
        fractions.push_back(pct / 100.0);

    if (jobs <= 1) {
        for (double f : fractions) {
            if (colocationProbePasses(a, b, f, seed))
                return f;
        }
        return fractions.back();
    }

    SweepOptions opts;
    opts.jobs = jobs;
    opts.baseSeed = seed;
    const ParallelSweep sweep(opts);
    const auto passed = sweep.map<int>(
        fractions.size(), [&](std::size_t i, std::uint64_t) {
            return colocationProbePasses(a, b, fractions[i], seed) ? 1
                                                                   : 0;
        });
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        if (passed[i])
            return fractions[i]; // largest passing, as in the walk
    }
    return fractions.back();
}

} // namespace twig::harness
