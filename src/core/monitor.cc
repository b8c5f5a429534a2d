#include "core/monitor.hh"

#include <algorithm>

#include "common/error.hh"

namespace twig::core {

SystemMonitor::SystemMonitor(std::size_t num_services,
                             const sim::PmcVector &maxima, std::size_t eta)
    : maxima_(maxima), eta_(eta), history_(num_services)
{
    common::fatalIf(num_services == 0, "monitor: no services");
    common::fatalIf(eta == 0, "monitor: eta must be >= 1");
    for (double m : maxima_)
        common::fatalIf(m <= 0.0, "monitor: non-positive counter ceiling");
    for (History &h : history_)
        h.ring.resize(eta_);
}

void
SystemMonitor::update(std::size_t idx, const sim::PmcVector &raw)
{
    common::fatalIf(idx >= history_.size(), "monitor: bad service index");
    History &h = history_[idx];
    h.newest = h.newest + 1 == eta_ ? 0 : h.newest + 1;
    sim::PmcVector &normalised = h.ring[h.newest];
    for (std::size_t c = 0; c < sim::kNumPmcs; ++c) {
        normalised[c] =
            std::clamp(raw[c] / maxima_[c], 0.0, 1.0);
    }
    h.count = std::min(h.count + 1, eta_);
}

ServiceState
SystemMonitor::state(std::size_t idx) const
{
    common::fatalIf(idx >= history_.size(), "monitor: bad service index");
    ServiceState out;
    stateInto(idx, out.data());
    return out;
}

void
SystemMonitor::stateInto(std::size_t idx, float *out) const
{
    const History &h = history_[idx];
    std::fill(out, out + sim::kNumPmcs, 0.0f);
    if (h.count == 0)
        return;

    // Linearly decaying recency weights: newest snapshot weighs eta,
    // oldest weighs 1; normalised to sum to one.
    double weight_sum = 0.0;
    for (std::size_t j = 0; j < h.count; ++j)
        weight_sum += static_cast<double>(eta_ - j);
    for (std::size_t j = 0; j < h.count; ++j) {
        const double w =
            static_cast<double>(eta_ - j) / weight_sum;
        const sim::PmcVector &snap =
            h.ring[(h.newest + eta_ - j) % eta_]; // j-th newest
        for (std::size_t c = 0; c < sim::kNumPmcs; ++c)
            out[c] += static_cast<float>(w * snap[c]);
    }
}

void
SystemMonitor::jointStateInto(std::vector<float> &out) const
{
    out.resize(history_.size() * sim::kNumPmcs);
    for (std::size_t i = 0; i < history_.size(); ++i)
        stateInto(i, out.data() + i * sim::kNumPmcs);
}

void
SystemMonitor::reset(std::size_t idx)
{
    common::fatalIf(idx >= history_.size(), "monitor: bad service index");
    history_[idx].count = 0;
}

} // namespace twig::core
