/**
 * @file
 * Microbenchmark for the NN kernels behind Twig's control loop.
 *
 * Times the BDQ-shaped GEMMs for the tiled kernels in nn/matrix.cc
 * against the seed's naive triple loops (nn::reference::*, kept
 * verbatim in tests/oracle/matrix_ref.cc), in three groups: the
 * paper-sized network's layers at minibatch 64, the layers of the fast
 * preset Twig-S trains (core::TwigConfig::fast) at minibatch 32, and
 * the same layers at one row (the decide forward). Each row reports
 * the kernel's GMAC/s. Then one Adam step of each network (ns per
 * parameter) and one gradient step of each as the control loop runs
 * it: BdqLearner::observe() on a full replay, with its share of target
 * syncs and overwritten slots.
 *
 * Emits a human-readable table and machine-readable JSON
 * (BENCH_kernels.json, or --out PATH).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "core/twig_manager.hh"
#include "nn/matrix.hh"
#include "oracle/matrix_ref.hh"
#include "rl/bdq_learner.hh"

using namespace twig;
using nn::Matrix;

namespace {

/** One GEMM problem, in output terms: [m x k] * [k x n] -> [m x n]. */
struct Shape
{
    const char *group;
    const char *name;
    std::size_t m, n, k;
};

const Shape kShapes[] = {
    // The paper-sized BDQ's layers at minibatch 64.
    {"paper", "trunk1", 64, 512, 11},  // state -> first trunk layer
    {"paper", "trunk2", 64, 256, 512}, // trunk hidden
    {"paper", "head", 64, 128, 256},   // agent embedding head
    {"paper", "branch", 64, 128, 128}, // branch hidden (stacked embeds)
    {"paper", "advout", 64, 18, 128},  // advantage output (18 cores)
    // The fast preset (trunk {64}, heads 32) at minibatch 32...
    {"fast", "trunk", 32, 64, 11},
    {"fast", "head", 32, 32, 64},
    {"fast", "branch", 32, 32, 32},
    {"fast", "cores", 32, 18, 32},
    {"fast", "dvfs", 32, 9, 32},
    {"fast", "value", 32, 1, 32},
    // ...and at one row, as each decision forwards it.
    {"row", "trunk", 1, 64, 11},
    {"row", "head", 1, 32, 64},
    {"row", "branch", 1, 32, 32},
    {"row", "cores", 1, 18, 32},
    {"row", "dvfs", 1, 9, 32},
    {"row", "value", 1, 1, 32},
};

double
nowUs()
{
    using namespace std::chrono;
    return static_cast<double>(
               duration_cast<nanoseconds>(
                   steady_clock::now().time_since_epoch())
                   .count()) /
        1000.0;
}

void
fillRandom(Matrix &m, common::Rng &rng)
{
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
}

/** Mean microseconds per call: best-of-3 trials of a calibrated batch. */
template <typename F>
double
timeUs(F &&f)
{
    f(); // warmup (sizes scratch, faults pages, resolves ifuncs)
    // Calibrate the repetition count to ~10 ms per trial.
    const double t0 = nowUs();
    f();
    const double once = std::max(nowUs() - t0, 0.01);
    const int reps = std::clamp(static_cast<int>(10000.0 / once), 3, 20000);

    double best = 1e300;
    for (int trial = 0; trial < 3; ++trial) {
        const double start = nowUs();
        for (int r = 0; r < reps; ++r)
            f();
        best = std::min(best, (nowUs() - start) / reps);
    }
    return best;
}

struct Row
{
    std::string group;
    std::string shape;
    std::string op;
    std::size_t m, n, k;
    double tiledUs;
    double referenceUs;
    double speedup() const { return referenceUs / tiledUs; }
    /** Multiply-adds per second of the tiled kernel, in billions. */
    double
    gmacPerS() const
    {
        return static_cast<double>(m * n * k) / (tiledUs * 1e3);
    }
};

volatile float g_sink; // defeat dead-code elimination

Row
benchOp(const Shape &s, const char *op, common::Rng &rng)
{
    Matrix out;
    Row row{s.group, s.name, op, s.m, s.n, s.k, 0.0, 0.0};
    if (std::strcmp(op, "matmul") == 0) {
        Matrix a(s.m, s.k), b(s.k, s.n);
        fillRandom(a, rng);
        fillRandom(b, rng);
        row.tiledUs = timeUs([&] { nn::matmul(a, b, out); });
        row.referenceUs =
            timeUs([&] { nn::reference::matmul(a, b, out); });
    } else if (std::strcmp(op, "transposeB") == 0) {
        Matrix a(s.m, s.k), b(s.n, s.k); // out = a * b^T
        fillRandom(a, rng);
        fillRandom(b, rng);
        row.tiledUs = timeUs([&] { nn::matmulTransposeB(a, b, out); });
        row.referenceUs =
            timeUs([&] { nn::reference::matmulTransposeB(a, b, out); });
    } else {
        Matrix a(s.k, s.m), b(s.k, s.n); // out = a^T * b
        fillRandom(a, rng);
        fillRandom(b, rng);
        row.tiledUs = timeUs([&] { nn::matmulTransposeA(a, b, out); });
        row.referenceUs =
            timeUs([&] { nn::reference::matmulTransposeA(a, b, out); });
    }
    g_sink = out(0, 0);
    return row;
}

/** The paper-sized learner (§IV) at minibatch 64. */
rl::BdqLearnerConfig
paperLearner()
{
    rl::BdqLearnerConfig cfg;
    cfg.net.numAgents = 2;
    cfg.net.stateDimPerAgent = 6;
    cfg.net.trunkHidden = {512, 256};
    cfg.net.agentHeadHidden = 128;
    cfg.net.branchHidden = 128;
    cfg.net.branchActions = {18, 10}; // cores, DVFS states
    cfg.net.dropoutRate = 0.0f;
    cfg.minibatch = 64;
    cfg.replay.capacity = 4096;
    cfg.minReplayBeforeTraining = 64;
    return cfg;
}

/** The learner twig_sim's Twig-S trains: the fast preset on one
 * 18-core node (11 PMCs, 18 core counts x 9 DVFS states), with the
 * 2000 transitions twig_sim's default run fills its replay with. */
rl::BdqLearnerConfig
fastLearner()
{
    rl::BdqLearnerConfig cfg = core::TwigConfig::fast(2000).learner;
    cfg.net.numAgents = 1;
    cfg.net.stateDimPerAgent = 11;
    cfg.net.branchActions = {18, 9};
    cfg.replay.capacity = 2000;
    return cfg;
}

/**
 * Microseconds per gradient step of observe() on a replay filled to
 * capacity: each call writes a pre-built transition over the oldest
 * slot and trains, and each timed trial spans one target-sync period,
 * so the steps carry their share of syncs and of slots whose cached
 * target values went stale. Best of three trials.
 */
double
benchTrainStep(rl::BdqLearnerConfig cfg, std::uint64_t seed)
{
    // Fill without training, so that the first step sees a full replay.
    cfg.minReplayBeforeTraining = cfg.replay.capacity;
    common::Rng rng(seed);
    rl::BdqLearner learner(cfg, rng);
    common::Rng env(seed + 1);
    const std::size_t period = cfg.targetUpdateInterval;
    std::vector<rl::Transition> transitions(cfg.replay.capacity +
                                            3 * period);
    for (rl::Transition &t : transitions) {
        for (std::size_t d = 0; d < cfg.net.inputDim(); ++d)
            t.state.push_back(static_cast<float>(env.uniform()));
        t.nextState = t.state;
        for (std::size_t k = 0; k < cfg.net.numAgents; ++k) {
            std::vector<std::size_t> actions;
            for (std::size_t n : cfg.net.branchActions)
                actions.push_back(env.uniformInt(n));
            t.actions.push_back(actions);
            t.rewards.push_back(env.uniform());
        }
    }
    std::size_t next = 0;
    while (next < cfg.replay.capacity)
        learner.observe(std::move(transitions[next++]));

    double best = 1e300;
    for (int trial = 0; trial < 3; ++trial) {
        const double start = nowUs();
        for (std::size_t i = 0; i < period; ++i)
            learner.observe(std::move(transitions[next++]));
        best = std::min(best, (nowUs() - start) /
                                  static_cast<double>(period));
    }
    return best / static_cast<double>(cfg.gradientStepsPerTrain);
}

/** Nanoseconds per parameter of one MultiAgentBdq::adamStep(). */
double
benchAdamNsPerParam(const rl::BdqLearnerConfig &cfg, std::uint64_t seed)
{
    common::Rng rng(seed);
    nn::MultiAgentBdq net(cfg.net, rng);
    const double us = timeUs([&] { net.adamStep(); });
    return us * 1e3 / static_cast<double>(net.paramCount());
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 42;
    std::string out_path = "BENCH_kernels.json";
    common::FlagParser flags;
    flags.addCount("--seed", &seed, "RNG seed (default 42)");
    flags.addString("--out", &out_path,
                    "JSON report path (default BENCH_kernels.json)");
    flags.parseOrExit(argc, argv);

    bench::banner("Kernel microbenchmark: tiled GEMM vs seed naive "
                  "loops (paper BDQ at batch 64, fast preset at batch 32 "
                  "and one row)");
    common::Rng rng(seed);

    std::vector<Row> rows;
    std::printf("%-6s %-7s %-11s %17s %10s %10s %8s %7s\n", "group",
                "shape", "op", "m x n x k", "tiled(us)", "naive(us)",
                "speedup", "GMAC/s");
    for (const auto &s : kShapes) {
        for (const char *op : {"matmul", "transposeB", "transposeA"}) {
            rows.push_back(benchOp(s, op, rng));
            const Row &r = rows.back();
            std::printf("%-6s %-7s %-11s %4zu x %4zu x %4zu %10.2f %10.2f "
                        "%7.2fx %7.2f\n",
                        r.group.c_str(), r.shape.c_str(), r.op.c_str(), r.m,
                        r.n, r.k, r.tiledUs, r.referenceUs, r.speedup(),
                        r.gmacPerS());
        }
    }

    const rl::BdqLearnerConfig paper = paperLearner();
    const rl::BdqLearnerConfig fast = fastLearner();
    const double adam_paper_ns = benchAdamNsPerParam(paper, seed);
    const double adam_fast_ns = benchAdamNsPerParam(fast, seed);
    const double train_us = benchTrainStep(paper, seed);
    const double train_fast_us = benchTrainStep(fast, seed);
    std::printf("\nMultiAgentBdq::adamStep: paper net %.2f ns/param, "
                "fast preset %.2f ns/param\n",
                adam_paper_ns, adam_fast_ns);
    std::printf("Gradient step (BdqLearner::observe on a full replay): "
                "paper net (batch 64) %.1f us, fast preset (batch %zu) "
                "%.1f us\n",
                train_us, fast.minibatch, train_fast_us);

    double log_sum = 0.0;
    double min_speedup = 1e300;
    for (const Row &r : rows) {
        log_sum += std::log(r.speedup());
        min_speedup = std::min(min_speedup, r.speedup());
    }
    const double geomean =
        std::exp(log_sum / static_cast<double>(rows.size()));
    std::printf("speedup over the seed kernels: geomean %.2fx, "
                "min %.2fx\n",
                geomean, min_speedup);

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"unit\": \"us\",\n  \"kernels\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(f,
                     "    {\"group\": \"%s\", \"shape\": \"%s\", "
                     "\"op\": \"%s\", \"m\": %zu, \"n\": %zu, "
                     "\"k\": %zu, \"tiled_us\": %.3f, "
                     "\"reference_us\": %.3f, \"speedup\": %.3f, "
                     "\"gmac_per_s\": %.3f}%s\n",
                     r.group.c_str(), r.shape.c_str(), r.op.c_str(), r.m,
                     r.n, r.k, r.tiledUs, r.referenceUs, r.speedup(),
                     r.gmacPerS(), i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"adam_ns_per_param\": %.3f,\n"
                 "  \"adam_fast_ns_per_param\": %.3f,\n"
                 "  \"train_step_us\": %.3f,\n"
                 "  \"train_step_fast_us\": %.3f,\n"
                 "  \"geomean_speedup\": %.3f,\n"
                 "  \"min_speedup\": %.3f\n}\n",
                 adam_paper_ns, adam_fast_ns, train_us, train_fast_us,
                 geomean, min_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
