/** @file NodeClass expansion, validation, JSON reader, catalogue. */

#include "autoscale/node_class.hh"

#include <sstream>

namespace twig::autoscale {

sim::MachineConfig
NodeClass::machine() const
{
    sim::MachineConfig m;
    m.numCores = cores;
    m.dvfs = dvfs;
    m.serviceRateScale = serviceRateScale;
    return m;
}

std::string
NodeClass::validate() const
{
    std::ostringstream err;
    if (id.empty())
        return "node class with empty id";
    if (cores == 0) {
        err << "node class '" << id << "' has zero cores";
        return err.str();
    }
    if (dvfs.minGhz <= 0.0 || dvfs.maxGhz < dvfs.minGhz ||
        dvfs.stepGhz <= 0.0) {
        err << "node class '" << id << "' has an invalid DVFS ladder";
        return err.str();
    }
    if (serviceRateScale <= 0.0) {
        err << "node class '" << id
            << "' needs a positive service_rate_scale";
        return err.str();
    }
    if (dollarsPerHour < 0.0) {
        err << "node class '" << id << "' has a negative dollars_per_hour";
        return err.str();
    }
    return "";
}

NodeClass
NodeClass::fromJson(const common::Json &j, std::size_t index)
{
    NodeClass c;
    c.id = j.at("id").asString();
    const std::string where =
        "node class " + std::to_string(index) + " (" + c.id + ")";
    j.allowOnly({"id", "cores", "dvfs", "service_rate_scale",
                 "dollars_per_hour"},
                where);
    c.cores = static_cast<std::size_t>(j.indexOr("cores", c.cores));
    if (const common::Json *d = j.find("dvfs")) {
        d->allowOnly({"min_ghz", "max_ghz", "step_ghz"}, "dvfs of " + where);
        c.dvfs.minGhz = d->numberOr("min_ghz", c.dvfs.minGhz);
        c.dvfs.maxGhz = d->numberOr("max_ghz", c.dvfs.maxGhz);
        c.dvfs.stepGhz = d->numberOr("step_ghz", c.dvfs.stepGhz);
    }
    c.serviceRateScale =
        j.numberOr("service_rate_scale", c.serviceRateScale);
    c.dollarsPerHour = j.numberOr("dollars_per_hour", c.dollarsPerHour);
    return c;
}

const std::vector<NodeClass> &
builtinNodeClasses()
{
    static const std::vector<NodeClass> catalogue = [] {
        std::vector<NodeClass> v;
        NodeClass std18;
        std18.id = "std18";
        v.push_back(std18);

        NodeClass little6;
        little6.id = "little6";
        little6.cores = 6;
        little6.dvfs.minGhz = 1.0;
        little6.dvfs.maxGhz = 1.6;
        little6.dvfs.stepGhz = 0.1;
        little6.dollarsPerHour = 0.30;
        v.push_back(little6);

        NodeClass gen1;
        gen1.id = "gen1";
        gen1.serviceRateScale = 0.85;
        gen1.dollarsPerHour = 0.70;
        v.push_back(gen1);

        NodeClass gen2;
        gen2.id = "gen2";
        gen2.serviceRateScale = 1.25;
        gen2.dollarsPerHour = 1.25;
        v.push_back(gen2);
        return v;
    }();
    return catalogue;
}

bool
isBuiltinNodeClass(const std::string &id)
{
    for (const NodeClass &c : builtinNodeClasses())
        if (c.id == id)
            return true;
    return false;
}

const NodeClass *
findNodeClass(const std::vector<NodeClass> &classes, const std::string &id)
{
    for (const NodeClass &c : classes)
        if (c.id == id)
            return &c;
    for (const NodeClass &c : builtinNodeClasses())
        if (c.id == id)
            return &c;
    return nullptr;
}

} // namespace twig::autoscale
