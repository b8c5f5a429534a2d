/**
 * @file
 * Microbenchmark for the NN kernels behind Twig's control loop.
 *
 * Times the BDQ-shaped GEMMs (batch 64: trunk, head, branch and
 * advantage-output layers) for the tiled kernels in nn/matrix.cc
 * against the seed's naive triple loops (nn::reference::*, kept
 * verbatim in tests/oracle/matrix_ref.cc), plus one full
 * BdqLearner::trainStep().
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
#include "nn/matrix.hh"
#include "oracle/matrix_ref.hh"
#include "rl/bdq_learner.hh"

using namespace twig;
using nn::Matrix;

namespace {

/** One GEMM problem, in output terms: [m x k] * [k x n] -> [m x n]. */
struct Shape
{
    const char *name;
    std::size_t m, n, k;
};

// The layers of the paper-sized BDQ forward pass at minibatch 64.
const Shape kShapes[] = {
    {"trunk1", 64, 512, 11},  // state -> first trunk layer
    {"trunk2", 64, 256, 512}, // trunk hidden
    {"head", 64, 128, 256},   // agent embedding head
    {"branch", 64, 128, 128}, // branch hidden (stacked embeds)
    {"advout", 64, 18, 128},  // advantage output (18 core actions)
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
    std::string shape;
    std::string op;
    std::size_t m, n, k;
    double tiledUs;
    double referenceUs;
    double speedup() const { return referenceUs / tiledUs; }
};

volatile float g_sink; // defeat dead-code elimination

Row
benchOp(const Shape &s, const char *op, common::Rng &rng)
{
    Matrix out;
    Row row{s.name, op, s.m, s.n, s.k, 0.0, 0.0};
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

/** Paper-sized learner (§IV) at minibatch 64, replay pre-filled. */
double
benchTrainStep(std::uint64_t seed)
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

    common::Rng rng(seed);
    rl::BdqLearner learner(cfg, rng);
    common::Rng env(seed + 1);
    for (int i = 0; i < 256; ++i) {
        rl::Transition t;
        for (std::size_t d = 0; d < cfg.net.inputDim(); ++d)
            t.state.push_back(static_cast<float>(env.uniform()));
        t.nextState = t.state;
        for (std::size_t k = 0; k < cfg.net.numAgents; ++k) {
            t.actions.push_back(
                {env.uniformInt(18), env.uniformInt(10)});
            t.rewards.push_back(env.uniform());
        }
        learner.observe(t);
    }
    return timeUs([&] { learner.trainStep(); });
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
                  "loops (BDQ shapes, batch 64)");
    common::Rng rng(seed);

    std::vector<Row> rows;
    std::printf("%-8s %-11s %18s %13s %13s %9s\n", "shape", "op",
                "m x n x k", "tiled(us)", "naive(us)", "speedup");
    for (const auto &s : kShapes) {
        for (const char *op : {"matmul", "transposeB", "transposeA"}) {
            rows.push_back(benchOp(s, op, rng));
            const Row &r = rows.back();
            std::printf("%-8s %-11s %6zu x %4zu x %4zu %13.1f %13.1f "
                        "%8.2fx\n",
                        r.shape.c_str(), r.op.c_str(), r.m, r.n, r.k,
                        r.tiledUs, r.referenceUs, r.speedup());
        }
    }

    const double train_us = benchTrainStep(seed);
    std::printf("\nBdqLearner::trainStep (paper net, batch 64): "
                "%.1f us\n",
                train_us);

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
    std::fprintf(f, "{\n  \"unit\": \"us\",\n  \"batch\": 64,\n"
                    "  \"kernels\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(f,
                     "    {\"shape\": \"%s\", \"op\": \"%s\", "
                     "\"m\": %zu, \"n\": %zu, \"k\": %zu, "
                     "\"tiled_us\": %.3f, \"reference_us\": %.3f, "
                     "\"speedup\": %.3f}%s\n",
                     r.shape.c_str(), r.op.c_str(), r.m, r.n, r.k,
                     r.tiledUs, r.referenceUs, r.speedup(),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"train_step_us\": %.3f,\n"
                 "  \"geomean_speedup\": %.3f,\n"
                 "  \"min_speedup\": %.3f\n}\n",
                 train_us, geomean, min_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
