#include "core/mapper.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/sim_counters.hh"

namespace twig::core {

Mapper::Mapper(const sim::MachineConfig &machine) : machine_(machine)
{
    common::fatalIf(machine.numCores == 0, "mapper: zero cores");
}

void
Mapper::allocateIdsInto(std::size_t svc_idx, std::size_t num_services,
                        std::size_t count, std::vector<std::size_t> &ids)
{
    const std::size_t n = machine_.numCores;
    ids.clear();
    ids.reserve(count);

    // Start each service in its own region of the socket, then prefer
    // stride-2 IDs (cache locality: neighbouring cores share L2/ring
    // stops), falling back to any free core.
    const std::size_t start = num_services > 0
        ? (svc_idx * n) / num_services
        : 0;
    for (std::size_t stride : {std::size_t{2}, std::size_t{1}}) {
        for (std::size_t j = 0; j < n && ids.size() < count; ++j) {
            const std::size_t id = (start + j * stride) % n;
            if (!used_[id]) {
                used_[id] = true;
                ids.push_back(id);
            }
        }
    }
    common::panicIf(ids.size() != count,
                    "mapper: ran out of cores during ID assignment");
}

std::vector<sim::CoreAssignment>
Mapper::map(const std::vector<ResourceRequest> &requests)
{
    std::vector<sim::CoreAssignment> out;
    mapInto(requests, out);
    return out;
}

void
Mapper::mapInto(const std::vector<ResourceRequest> &requests,
                std::vector<sim::CoreAssignment> &out)
{
    common::simprof::ScopedPhaseTimer timer(common::simprof::Phase::Map);
    const std::size_t n = machine_.numCores;
    const std::size_t k = requests.size();
    common::fatalIf(k == 0, "mapper: no requests");

    // Clamp requests into the valid range.
    want_.resize(k);
    dvfs_.resize(k);
    std::size_t total = 0;
    for (std::size_t i = 0; i < k; ++i) {
        want_[i] = std::clamp<std::size_t>(requests[i].numCores, 1, n);
        dvfs_[i] = std::min(requests[i].dvfsIndex,
                            machine_.dvfs.maxIndex());
        total += want_[i];
    }

    out.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
        out[i].dedicatedCores.clear();
        out[i].sharedCores.clear();
        out[i].freqGhz = machine_.dvfs.freq(dvfs_[i]);
        out[i].sharedFreqGhz = out[i].freqGhz;
        out[i].shareCount = 1;
        out[i].sharedUsableCores = -1.0;
    }

    used_.assign(n, false);

    if (total <= n) {
        // No conflict: everyone gets dedicated cores.
        for (std::size_t i = 0; i < k; ++i)
            allocateIdsInto(i, k, want_[i], out[i].dedicatedCores);
        return;
    }

    // Arbitration: find the smallest overlap v such that giving every
    // service max(0, want - v) dedicated cores plus v shared cores fits
    // on the socket.
    std::size_t v = 1;
    std::size_t dedicated_total = 0;
    for (;; ++v) {
        dedicated_total = 0;
        for (std::size_t i = 0; i < k; ++i)
            dedicated_total += want_[i] > v ? want_[i] - v : 0;
        if (dedicated_total + v <= n)
            break;
        common::panicIf(v > n, "mapper: arbitration failed to converge");
    }

    dedicated_.resize(k);
    for (std::size_t i = 0; i < k; ++i)
        dedicated_[i] = want_[i] > v ? want_[i] - v : 0;

    // Hand any leftover cores back, largest cut first.
    std::size_t leftover = n - v - dedicated_total;
    while (leftover > 0) {
        std::size_t best = k;
        std::size_t best_cut = 0;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t cut = want_[i] - dedicated_[i];
            if (cut > best_cut) {
                best_cut = cut;
                best = i;
            }
        }
        if (best == k)
            break;
        ++dedicated_[best];
        --leftover;
    }

    // The shared pool serves every service whose request was cut; it
    // runs at the highest DVFS state among the participants.
    std::size_t participants = 0;
    double shared_freq = machine_.dvfs.freq(0);
    for (std::size_t i = 0; i < k; ++i) {
        if (dedicated_[i] < want_[i]) {
            ++participants;
            shared_freq = std::max(shared_freq, out[i].freqGhz);
        }
    }

    for (std::size_t i = 0; i < k; ++i)
        allocateIdsInto(i, k, dedicated_[i], out[i].dedicatedCores);

    sharedIds_.clear();
    sharedIds_.reserve(v);
    for (std::size_t id = 0; id < n && sharedIds_.size() < v; ++id) {
        if (!used_[id]) {
            used_[id] = true;
            sharedIds_.push_back(id);
        }
    }
    common::panicIf(sharedIds_.size() != v,
                    "mapper: shared pool allocation failed");

    for (std::size_t i = 0; i < k; ++i) {
        if (dedicated_[i] < want_[i]) {
            out[i].sharedCores = sharedIds_;
            out[i].shareCount = participants;
            out[i].sharedFreqGhz = shared_freq;
        }
    }
}

} // namespace twig::core
