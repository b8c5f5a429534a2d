/**
 * @file
 * Node capability classes for heterogeneous / mixed-generation fleets.
 *
 * A NodeClass is a named hardware capability descriptor — cores per
 * socket, DVFS ladder, per-core service-rate scaling (big.LITTLE-style
 * asymmetry or an IPC bump between CPU generations) and a $/node-hour
 * price. It expands to a sim::MachineConfig for node construction,
 * whose capacity() (cores x peak GHz x rate scale) is what the
 * Router deals load by, so a fleet mixing generations is balanced by
 * what each node can actually serve, not by node count.
 *
 * Classes are read from a ScenarioSpec's `cluster.node_classes` block
 * (strictly: an unknown key is fatal); a small built-in catalogue
 * provides the common shapes so scenarios (and `--node-class` bench
 * flags) can reference them by id without re-declaring the hardware.
 */

#ifndef TWIG_AUTOSCALE_NODE_CLASS_HH
#define TWIG_AUTOSCALE_NODE_CLASS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/machine.hh"

namespace twig::autoscale {

/** One hardware capability class a fleet slot can be provisioned as. */
struct NodeClass
{
    /** Identifier scenarios reference ("std18", "gen2", ...). */
    std::string id;
    /** Cores available to LC services on one socket. */
    std::size_t cores = 18;
    /** Per-core DVFS ladder (big.LITTLE classes ship shorter/lower
     * ladders). */
    sim::DvfsLadder dvfs;
    /** Per-core service-rate multiplier vs the reference part
     * (MachineConfig::serviceRateScale). */
    double serviceRateScale = 1.0;
    /** Deterministic price while the node is powered (active or
     * draining), $/node-hour. */
    double dollarsPerHour = 1.0;

    /** Expand to a machine description (reference power model with
     * this class's cores, ladder and rate scale). */
    sim::MachineConfig machine() const;

    /** Structural validation; returns an error message or "". */
    std::string validate() const;

    static NodeClass fromJson(const common::Json &j);
};

/** The built-in catalogue: reference and common heterogeneous shapes.
 *
 *  - "std18":   the paper's 18-core E5-2695v4 reference, $1.00/h
 *  - "little6": 6-core efficiency class on a 1.0-1.6 GHz ladder, $0.30/h
 *  - "gen1":    previous-generation 18-core part, 0.85x rate, $0.70/h
 *  - "gen2":    next-generation 18-core part, 1.25x rate, $1.25/h
 */
const std::vector<NodeClass> &builtinNodeClasses();

/** True when @p id names a built-in class. */
bool isBuiltinNodeClass(const std::string &id);

/** Look up @p id in @p classes then the built-in catalogue; nullptr
 * when neither defines it. */
const NodeClass *findNodeClass(const std::vector<NodeClass> &classes,
                               const std::string &id);

} // namespace twig::autoscale

#endif // TWIG_AUTOSCALE_NODE_CLASS_HH
