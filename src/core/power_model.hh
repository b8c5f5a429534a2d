/**
 * @file
 * Twig's first-order per-service power model (paper Eq. 2 / Fig. 4):
 *
 *     Power_app = kappa * load + sigma * num_cores + omega^2 * DVFS
 *
 * RAPL only reports socket-level power, so each agent needs this model
 * to know the power cost of the allocation *it* requested. The paper
 * fits the coefficients with a random grid search under 5-fold cross
 * validation over profiling runs at three load levels across alternate
 * core counts and DVFS states; the model is used only inside the reward
 * during training, never for reporting results. A deployed
 * (exploit-only) Twig computes no reward, so it is built without a
 * model and skips the profiling campaign entirely
 * (TwigServiceSpec::powerModel is optional).
 */

#ifndef TWIG_CORE_POWER_MODEL_HH
#define TWIG_CORE_POWER_MODEL_HH

#include <cstddef>
#include <vector>

#include "common/rng.hh"

namespace twig::core {

/** One profiling observation. */
struct PowerSample
{
    double loadFraction = 0.0; ///< offered load / max load, [0, 1]
    double numCores = 1.0;
    double dvfsGhz = 1.2;
    double dynamicPowerW = 0.0; ///< measured (current - idle) power
};

/** Fit diagnostics. */
struct PowerFitReport
{
    double crossValidationMse = 0.0; ///< 5-fold CV MSE (W^2)
    double trainMse = 0.0;
    double rSquared = 0.0;
    double paaePercent = 0.0; ///< percentage absolute average error
};

/** The Eq. 2 model. */
class ServicePowerModel
{
  public:
    ServicePowerModel() = default;

    /** Construct with known coefficients. */
    ServicePowerModel(double kappa, double sigma, double omega)
        : kappa_(kappa), sigma_(sigma), omega_(omega)
    {
    }

    /** Predicted dynamic power, W. */
    double
    predict(double load_fraction, double num_cores, double dvfs_ghz) const
    {
        return kappa_ * load_fraction + sigma_ * num_cores +
            omega_ * omega_ * dvfs_ghz;
    }

    double kappa() const { return kappa_; }
    double sigma() const { return sigma_; }
    double omega() const { return omega_; }

    /**
     * Paper-faithful fit: random grid search over (kappa, sigma, omega)
     * scored by 5-fold cross-validation MSE.
     *
     * @param samples  profiling observations
     * @param rng      randomness for the search and fold shuffling
     * @param n_iter   random search iterations
     * @param folds    cross-validation folds (paper: 5)
     */
    PowerFitReport fit(const std::vector<PowerSample> &samples,
                       common::Rng &rng, std::size_t n_iter = 4000,
                       std::size_t folds = 5);

    /**
     * Closed-form least-squares fit (the model is linear in kappa,
     * sigma, omega^2); faster alternative used by tests to bound how
     * far the random search lands from the optimum.
     */
    PowerFitReport fitClosedForm(const std::vector<PowerSample> &samples);

  private:
    /** Mean squared error over samples[indices], summed in index
     * order (a CV fold is scored in place, never copied). */
    static double mseOn(const std::vector<PowerSample> &samples,
                        const std::vector<std::size_t> &indices,
                        double kappa, double sigma, double omega);
    PowerFitReport report(const std::vector<PowerSample> &samples) const;

    double kappa_ = 0.0;
    double sigma_ = 0.0;
    double omega_ = 0.0;
};

} // namespace twig::core

#endif // TWIG_CORE_POWER_MODEL_HH
