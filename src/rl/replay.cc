#include "rl/replay.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace twig::rl {

SumTree::SumTree(std::size_t capacity) : capacity_(capacity)
{
    common::fatalIf(capacity == 0, "SumTree: zero capacity");
    leafBase_ = 1;
    while (leafBase_ < capacity)
        leafBase_ <<= 1;
    nodes_.assign(2 * leafBase_, 0.0);
}

void
SumTree::set(std::size_t idx, double priority)
{
    common::fatalIf(idx >= capacity_, "SumTree::set: index out of range");
    common::fatalIf(priority < 0.0, "SumTree::set: negative priority");
    std::size_t node = leafBase_ + idx;
    const double delta = priority - nodes_[node];
    while (node >= 1) {
        nodes_[node] += delta;
        node >>= 1;
    }
}

double
SumTree::get(std::size_t idx) const
{
    common::fatalIf(idx >= capacity_, "SumTree::get: index out of range");
    return nodes_[leafBase_ + idx];
}

double
SumTree::total() const
{
    return nodes_[1];
}

std::size_t
SumTree::find(double mass) const
{
    std::size_t node = 1;
    while (node < leafBase_) {
        const std::size_t left = 2 * node;
        if (mass < nodes_[left]) {
            node = left;
        } else {
            mass -= nodes_[left];
            node = left + 1;
        }
    }
    std::size_t leaf = node - leafBase_;
    // Numerical slack can land on a zero-priority tail leaf; clamp back.
    if (leaf >= capacity_)
        leaf = capacity_ - 1;
    return leaf;
}

PrioritizedReplay::PrioritizedReplay(const ReplayConfig &cfg)
    : cfg_(cfg), tree_(cfg.capacity)
{
    common::fatalIf(cfg.alpha < 0.0, "replay: alpha must be >= 0");
    buffer_.reserve(std::min<std::size_t>(cfg.capacity, 65536));
}

std::size_t
PrioritizedReplay::add(Transition t)
{
    const std::size_t slot = next_;
    if (buffer_.size() < cfg_.capacity && next_ == buffer_.size()) {
        buffer_.push_back(std::move(t));
    } else {
        buffer_[next_] = std::move(t);
    }
    tree_.set(next_, std::pow(maxPriority_, cfg_.alpha));
    next_ = (next_ + 1) % cfg_.capacity;
    size_ = std::min(size_ + 1, cfg_.capacity);
    return slot;
}

void
PrioritizedReplay::sampleInto(std::size_t n, double beta,
                              common::Rng &rng, ReplaySample &out) const
{
    common::fatalIf(size_ == 0, "replay: cannot sample from empty buffer");
    common::fatalIf(n == 0, "replay: sample size must be >= 1");

    out.indices.clear();
    out.weights.clear();
    out.indices.reserve(n);
    out.weights.reserve(n);

    const double total = tree_.total();
    common::panicIf(total <= 0.0, "replay: zero total priority");

    // Stratified sampling across n equal slices of the priority mass.
    const double slice = total / static_cast<double>(n);
    double max_w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double mass =
            slice * (static_cast<double>(i) + rng.uniform());
        std::size_t idx = tree_.find(std::min(mass, total * (1 - 1e-12)));
        if (idx >= size_)
            idx = size_ - 1; // unfilled leaves carry zero mass; defensive
        out.indices.push_back(idx);
        const double p = tree_.get(idx) / total;
        const double w =
            std::pow(static_cast<double>(size_) * std::max(p, 1e-12),
                     -beta);
        out.weights.push_back(w);
        max_w = std::max(max_w, w);
    }
    if (max_w > 0.0) {
        for (auto &w : out.weights)
            w /= max_w;
    }
}

void
PrioritizedReplay::updatePriorities(const std::vector<std::size_t> &indices,
                                    const std::vector<double> &td_errors)
{
    common::fatalIf(indices.size() != td_errors.size(),
                    "replay: priority update size mismatch");
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const double p = std::abs(td_errors[i]) + cfg_.epsilonPriority;
        maxPriority_ = std::max(maxPriority_, p);
        tree_.set(indices[i], std::pow(p, cfg_.alpha));
    }
}

} // namespace twig::rl
