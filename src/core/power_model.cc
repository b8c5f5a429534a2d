#include "core/power_model.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "stats/regression.hh"

namespace twig::core {

double
ServicePowerModel::mseOn(const std::vector<PowerSample> &samples,
                         const std::vector<std::size_t> &indices,
                         double kappa, double sigma, double omega)
{
    double s = 0.0;
    for (std::size_t i : indices) {
        const PowerSample &p = samples[i];
        const double pred = kappa * p.loadFraction + sigma * p.numCores +
            omega * omega * p.dvfsGhz;
        const double e = pred - p.dynamicPowerW;
        s += e * e;
    }
    return s / static_cast<double>(indices.size());
}

PowerFitReport
ServicePowerModel::report(const std::vector<PowerSample> &samples) const
{
    std::vector<double> pred, truth;
    pred.reserve(samples.size());
    truth.reserve(samples.size());
    for (const auto &p : samples) {
        pred.push_back(predict(p.loadFraction, p.numCores, p.dvfsGhz));
        truth.push_back(p.dynamicPowerW);
    }
    PowerFitReport r;
    r.trainMse = stats::meanSquaredError(pred, truth);
    r.rSquared = stats::rSquared(pred, truth);
    r.paaePercent = stats::meanAbsolutePercentageError(pred, truth);
    return r;
}

PowerFitReport
ServicePowerModel::fit(const std::vector<PowerSample> &samples,
                       common::Rng &rng, std::size_t n_iter,
                       std::size_t folds)
{
    common::fatalIf(samples.size() < folds,
                    "power fit: need at least ", folds, " samples");

    // Search ranges sized from the data: the largest observed power
    // bounds every coefficient's useful magnitude.
    double max_p = 0.0, max_cores = 1.0;
    for (const auto &s : samples) {
        max_p = std::max(max_p, s.dynamicPowerW);
        max_cores = std::max(max_cores, s.numCores);
    }
    const std::vector<stats::ParamRange> ranges = {
        {0.0, max_p},                 // kappa: W per unit load
        {0.0, max_p / max_cores},     // sigma: W per core
        {0.0, std::sqrt(max_p / 1.2)} // omega: sqrt(W per GHz)
    };

    const auto fold_idx = stats::kfoldSplit(samples.size(), folds, rng);

    auto cv_mse = [&](const std::vector<double> &params) {
        double total = 0.0;
        for (const auto &held_out : fold_idx) {
            // Score on the held-out fold only; the model has no
            // training step beyond its coefficients, so CV here guards
            // against a lucky fit to a subset of the design points.
            total += mseOn(samples, held_out, params[0], params[1],
                           params[2]);
        }
        return total / static_cast<double>(fold_idx.size());
    };

    const auto result =
        stats::randomGridSearch(ranges, cv_mse, n_iter, rng);
    kappa_ = result.bestParams[0];
    sigma_ = result.bestParams[1];
    omega_ = result.bestParams[2];

    PowerFitReport r = report(samples);
    r.crossValidationMse = result.bestScore;
    return r;
}

PowerFitReport
ServicePowerModel::fitClosedForm(const std::vector<PowerSample> &samples)
{
    common::fatalIf(samples.size() < 3,
                    "power fit: need at least 3 samples");
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    rows.reserve(samples.size());
    y.reserve(samples.size());
    for (const auto &s : samples) {
        rows.push_back({s.loadFraction, s.numCores, s.dvfsGhz});
        y.push_back(s.dynamicPowerW);
    }
    const auto w = stats::leastSquares(rows, y);
    kappa_ = w[0];
    sigma_ = w[1];
    // The DVFS coefficient enters as omega^2; a (non-physical) negative
    // least-squares solution clamps to zero.
    omega_ = w[2] > 0.0 ? std::sqrt(w[2]) : 0.0;

    PowerFitReport r = report(samples);
    r.crossValidationMse = r.trainMse;
    return r;
}

} // namespace twig::core
