/**
 * @file
 * Fig. 1 reproduction: can tail latency be estimated from multiple
 * PMCs, and does IPC alone suffice?
 *
 * Methodology (paper §II-A): run Memcached and Web-Search with all
 * cores at the highest DVFS setting while varying the incoming load;
 * train a deep-learning regressor on (a) the 11 normalised PMCs and
 * (b) IPC alone, and compare the tail-latency prediction error
 * distributions (PDF + violin per latency bucket). The paper uses
 * 30 000 samples; the default here is compressed (--full restores it).
 *
 * Expected shape: the multi-PMC error PDF is a tight spike at zero
 * (paper: mean -0.286 ms / sd 0.63 ms for Memcached) while the
 * IPC-only PDF is wide (mean 0.45 ms / sd 2.13 ms), with the zero-bin
 * probability at least ~2x higher for PMCs.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/mlp.hh"
#include "common/csv.hh"
#include "common/rng.hh"
#include "core/mapper.hh"
#include "core/monitor.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"
#include "stats/histogram.hh"
#include "stats/summary.hh"

using namespace twig;

namespace {

/** Load generator that redraws a random fraction every interval. */
class RandomLoad : public sim::LoadGenerator
{
  public:
    RandomLoad(double max_rps, std::uint64_t seed)
        : maxRps_(max_rps), rng_(seed)
    {
    }

    double
    rps(std::size_t step) const override
    {
        // Deterministic per step: hash the step into [0.3, 1.25) of
        // the maximum load — straddling the knee, where tail latency
        // actually depends on load (below it the p99 is just the
        // service-time tail and there is nothing to predict).
        std::uint64_t s = seed_ ^ (step * 0x9e3779b97f4a7c15ULL);
        const double u =
            static_cast<double>(common::splitmix64(s) >> 11) * 0x1.0p-53;
        return maxRps_ * (0.3 + 0.95 * u);
    }

  private:
    double maxRps_;
    common::Rng rng_;
    std::uint64_t seed_ = 0x5eed;
};

struct Dataset
{
    std::vector<std::vector<float>> pmcInputs; // 11 features
    std::vector<float> ipcInputs;              // 1 feature
    std::vector<float> latencies;              // targets (ms)
};

Dataset
collect(const sim::ServiceProfile &profile, std::size_t samples,
        std::uint64_t seed)
{
    const sim::MachineConfig machine;
    const auto maxima = services::calibrateCounterMaxima(machine);
    sim::Server server(machine, seed);
    server.addService(profile, std::make_unique<RandomLoad>(
                                   profile.maxLoadRps, seed + 1));
    core::SystemMonitor monitor(1, maxima, 1); // raw normalisation
    core::Mapper mapper(machine);
    const auto assignment = mapper.map({core::ResourceRequest{
        machine.numCores, machine.dvfs.maxIndex()}});

    Dataset ds;
    ds.pmcInputs.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
        const auto stats = server.runInterval(assignment);
        const auto &svc = stats.services[0];
        monitor.update(0, svc.pmcs);
        const auto state = monitor.state(0);
        ds.pmcInputs.emplace_back(state.begin(), state.end());
        const double cycles = svc.pmcs[static_cast<std::size_t>(
            sim::Pmc::UnhaltedCoreCycles)];
        const double instr = svc.pmcs[static_cast<std::size_t>(
            sim::Pmc::InstructionRetired)];
        ds.ipcInputs.push_back(
            cycles > 0.0 ? static_cast<float>(instr / cycles) : 0.0f);
        // The instantaneous p99: the trailing-window measure smears
        // across load changes and would blur the relationship.
        ds.latencies.push_back(static_cast<float>(svc.p99InstantMs));
    }
    return ds;
}

/** Train an MLP regressor and return held-out prediction errors. */
std::vector<double>
regress(const std::vector<std::vector<float>> &inputs,
        const std::vector<float> &targets, std::size_t input_dim,
        std::uint64_t seed)
{
    common::Rng rng(seed);
    nn::MlpConfig cfg;
    cfg.inputDim = input_dim;
    cfg.hidden = {64, 32};
    cfg.outputDim = 1;
    cfg.adam.learningRate = 0.003f;
    nn::Mlp mlp(cfg, rng);

    const std::size_t n = inputs.size();
    const std::size_t train_n = n * 4 / 5;

    // Normalise targets to keep the optimiser well-scaled.
    float t_mean = 0.0f;
    for (float t : targets)
        t_mean += t;
    t_mean /= static_cast<float>(n);
    float t_scale = 0.0f;
    for (float t : targets)
        t_scale += (t - t_mean) * (t - t_mean);
    t_scale = std::sqrt(t_scale / static_cast<float>(n));
    if (t_scale <= 0.0f)
        t_scale = 1.0f;

    const std::size_t batch = 64;
    nn::Matrix x(batch, input_dim), y(batch, 1);
    const std::size_t iters = 60 * train_n / batch;
    for (std::size_t it = 0; it < iters; ++it) {
        for (std::size_t b = 0; b < batch; ++b) {
            const auto idx =
                static_cast<std::size_t>(rng.uniformInt(train_n));
            for (std::size_t f = 0; f < input_dim; ++f)
                x(b, f) = inputs[idx][f];
            y(b, 0) = (targets[idx] - t_mean) / t_scale;
        }
        mlp.trainStep(x, y);
    }

    std::vector<double> errors;
    errors.reserve(n - train_n);
    for (std::size_t i = train_n; i < n; ++i) {
        const auto pred = mlp.predictOne(inputs[i]);
        const double pred_ms = pred[0] * t_scale + t_mean;
        errors.push_back(pred_ms - targets[i]);
    }
    return errors;
}

void
runService(const std::string &name, std::size_t samples,
           std::uint64_t seed, double paper_pmc_mean,
           double paper_pmc_sd, double paper_ipc_mean,
           double paper_ipc_sd)
{
    const auto profile = services::byName(name);
    const auto ds = collect(profile, samples, seed);

    std::vector<std::vector<float>> ipc_rows;
    ipc_rows.reserve(ds.ipcInputs.size());
    for (float v : ds.ipcInputs)
        ipc_rows.push_back({v});

    const auto pmc_err =
        regress(ds.pmcInputs, ds.latencies, sim::kNumPmcs, seed + 7);
    const auto ipc_err = regress(ipc_rows, ds.latencies, 1, seed + 8);

    auto summarise = [](const std::vector<double> &errs) {
        stats::RunningStats s;
        for (double e : errs)
            s.add(e);
        return s;
    };
    const auto pmc_stats = summarise(pmc_err);
    const auto ipc_stats = summarise(ipc_err);

    // "Probability of zero prediction error": mass of the PDF bin
    // centred at zero (bin width = 5 % of the error range).
    const double span = 4.0 * std::max(pmc_stats.stddev(),
                                       ipc_stats.stddev());
    stats::Histogram pmc_pdf(-span, span, 41), ipc_pdf(-span, span, 41);
    for (double e : pmc_err)
        pmc_pdf.add(e);
    for (double e : ipc_err)
        ipc_pdf.add(e);
    const double p0_pmc = pmc_pdf.binFraction(20);
    const double p0_ipc = ipc_pdf.binFraction(20);

    std::printf("\n--- %s (%zu samples, %zu held out) ---\n",
                name.c_str(), samples, pmc_err.size());
    std::printf("%-14s %12s %12s | paper mean/sd\n", "predictor",
                "mean err(ms)", "sd err(ms)");
    std::printf("%-14s %12.3f %12.3f | %.3f / %.2f\n", "11 PMCs",
                pmc_stats.mean(), pmc_stats.stddev(), paper_pmc_mean,
                paper_pmc_sd);
    std::printf("%-14s %12.3f %12.3f | %.3f / %.2f\n", "IPC only",
                ipc_stats.mean(), ipc_stats.stddev(), paper_ipc_mean,
                paper_ipc_sd);
    std::printf("zero-error probability: PMCs %.3f vs IPC %.3f "
                "(ratio %.2fx; paper: >= 1.91x)\n",
                p0_pmc, p0_ipc, p0_ipc > 0 ? p0_pmc / p0_ipc : 99.0);

    // Violin data: prediction-error quartiles per latency bucket.
    std::printf("violin (error quartiles per measured-latency "
                "bucket):\n");
    std::vector<double> lat_sorted(ds.latencies.begin() +
                                       (ds.latencies.size() * 4 / 5),
                                   ds.latencies.end());
    const double lat_lo = stats::percentileOf(lat_sorted, 2.0);
    const double lat_hi = stats::percentileOf(lat_sorted, 98.0);
    const int buckets = 5;
    for (int b = 0; b < buckets; ++b) {
        const double lo =
            lat_lo + (lat_hi - lat_lo) * b / buckets;
        const double hi =
            lat_lo + (lat_hi - lat_lo) * (b + 1) / buckets;
        std::vector<double> pe, ie;
        for (std::size_t i = 0; i < pmc_err.size(); ++i) {
            const double lat = lat_sorted[i];
            if (lat >= lo && lat < hi) {
                pe.push_back(pmc_err[i]);
                ie.push_back(ipc_err[i]);
            }
        }
        if (pe.size() < 5)
            continue;
        std::printf("  lat [%6.1f, %6.1f) ms  n=%4zu  "
                    "PMC med %+7.2f iqr %6.2f | IPC med %+7.2f "
                    "iqr %6.2f\n",
                    lo, hi, pe.size(), stats::percentileOf(pe, 50),
                    stats::percentileOf(pe, 75) -
                        stats::percentileOf(pe, 25),
                    stats::percentileOf(ie, 50),
                    stats::percentileOf(ie, 75) -
                        stats::percentileOf(ie, 25));
    }

    // Dump the PDF for plotting.
    common::CsvWriter csv("fig01_" + name + "_pdf.csv");
    csv.header({"error_ms", "pmc_density", "ipc_density"});
    for (std::size_t bin = 0; bin < pmc_pdf.bins(); ++bin) {
        csv.row(pmc_pdf.binCenter(bin), pmc_pdf.density(bin),
                ipc_pdf.density(bin));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    flags.parseOrExit(argc, argv);
    const std::size_t samples = full ? 30000 : 4000;

    bench::banner("Fig. 1: tail-latency prediction from PMCs vs IPC "
                  "(Memcached, Web-Search)");
    runService("memcached", samples, seed, -0.286, 0.63, 0.45,
               2.13);
    runService("web-search", samples, seed + 100, -0.132, 0.37,
               0.24, 0.72);
    std::printf("\n(CSV PDFs written to fig01_<service>_pdf.csv; paper "
                "errors are in their ms scale,\nours in the "
                "simulator's — compare shapes and ratios, not absolute "
                "values.)\n");
    return 0;
}
