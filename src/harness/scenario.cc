#include "harness/scenario.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace twig::harness {

using common::Json;

// --- ServiceLoadSpec -------------------------------------------------

ServiceLoadSpec
ServiceLoadSpec::fromJson(const Json &j, std::size_t index,
                          const std::string &within)
{
    ServiceLoadSpec s;
    s.pattern = j.stringOr("pattern", s.pattern);
    // Each pattern takes only the keys makeLoadFromSpec reads for it: a
    // "fixed" entry with a period_steps is fatal, not a fixed load. An
    // unknown pattern takes every key; validate() refuses it.
    std::string where =
        "service entry " + std::to_string(index) + " (" + s.pattern + ")";
    if (!within.empty())
        where += " of " + within;
    if (s.pattern == "fixed") {
        j.allowOnly({"service", "pattern", "fraction", "max_scale",
                     "max_rps"},
                    where);
    } else if (s.pattern == "diurnal" || s.pattern == "ramp") {
        j.allowOnly({"service", "pattern", "fraction", "max_scale",
                     "max_rps", "low_fraction", "period_steps"},
                    where);
    } else if (s.pattern == "step") {
        j.allowOnly({"service", "pattern", "fraction", "max_scale",
                     "max_rps", "low_fraction", "period_steps",
                     "change_factor"},
                    where);
    } else if (s.pattern == "trace") {
        j.allowOnly({"service", "pattern", "fraction", "max_scale",
                     "max_rps", "low_fraction", "period_steps",
                     "trace_path", "trace_column"},
                    where);
    } else {
        j.allowOnly({"service", "pattern", "fraction", "max_scale",
                     "max_rps", "low_fraction", "period_steps",
                     "change_factor", "trace_path", "trace_column"},
                    where);
    }
    s.service = j.at("service").asString();
    s.fraction = j.numberOr("fraction", s.fraction);
    s.maxScale = j.numberOr("max_scale", s.maxScale);
    s.maxRps = j.numberOr("max_rps", s.maxRps);
    s.lowFraction = j.numberOr("low_fraction", s.lowFraction);
    s.periodSteps = static_cast<std::size_t>(
        j.indexOr("period_steps", s.periodSteps));
    s.changeFactor = j.numberOr("change_factor", s.changeFactor);
    s.tracePath = j.stringOr("trace_path", s.tracePath);
    s.traceColumn = j.stringOr("trace_column", s.traceColumn);
    return s;
}

// --- TransferSpec ----------------------------------------------------

TransferSpec
TransferSpec::fromJson(const Json &j, std::size_t index, std::size_t event)
{
    j.allowOnly({"service_index", "service", "spec_seed", "reexplore_steps"},
                "transfer " + std::to_string(index) + " of event " +
                    std::to_string(event));
    TransferSpec t;
    t.serviceIndex = static_cast<std::size_t>(
        j.indexOr("service_index", t.serviceIndex));
    t.service = j.at("service").asString();
    t.specSeed = j.indexOr("spec_seed", t.specSeed);
    t.reexploreSteps = static_cast<std::size_t>(
        j.indexOr("reexplore_steps", t.reexploreSteps));
    return t;
}

// --- ScenarioEvent ---------------------------------------------------

ScenarioEvent
ScenarioEvent::fromJson(const Json &j, std::size_t index)
{
    const std::string where = "event " + std::to_string(index);
    j.allowOnly({"after_steps", "transfers", "services", "server_seed"},
                where);
    ScenarioEvent e;
    e.afterSteps =
        static_cast<std::size_t>(j.at("after_steps").asIndex());
    if (const Json *arr = j.find("transfers")) {
        for (std::size_t i = 0; i < arr->size(); ++i)
            e.transfers.push_back(
                TransferSpec::fromJson(arr->at(i), i, index));
    }
    if (const Json *arr = j.find("services")) {
        for (std::size_t i = 0; i < arr->size(); ++i)
            e.services.push_back(
                ServiceLoadSpec::fromJson(arr->at(i), i, where));
    }
    if (const Json *seed = j.find("server_seed"))
        e.serverSeed = seed->asIndex();
    return e;
}

// --- ScenarioSpec ----------------------------------------------------

std::size_t
ScenarioSpec::resolvedWindow() const
{
    if (window != 0)
        return std::min(window, steps);
    if (topology == "cluster")
        return std::min(std::max<std::size_t>(steps / 4, 1), steps);
    return std::max<std::size_t>(steps / 6, 1);
}

const std::vector<ServiceLoadSpec> &
ScenarioSpec::finalServices() const
{
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
        if (!it->services.empty())
            return it->services;
    }
    return services;
}

std::string
ScenarioSpec::validate(const ManagerRegistry &registry) const
{
    if (topology != "single" && topology != "cluster")
        return "unknown topology '" + topology +
            "' (want single | cluster)";
    if (services.empty())
        return "scenario hosts no services";
    if (steps == 0)
        return "scenario has zero steps";
    if (machineCores == 0)
        return "scenario machine has zero cores";

    auto checkLoads =
        [](const std::vector<ServiceLoadSpec> &loads) -> std::string {
        for (const auto &s : loads) {
            if (s.service.empty())
                return "service entry without a name";
            if (s.pattern != "fixed" && s.pattern != "diurnal" &&
                s.pattern != "step" && s.pattern != "ramp" &&
                s.pattern != "trace") {
                return "unknown load pattern '" + s.pattern +
                    "' (want fixed | diurnal | step | ramp | trace)";
            }
            if (s.pattern == "trace" &&
                (s.tracePath.empty() || s.traceColumn.empty()))
                return "trace pattern needs trace_path and trace_column";
            if (!std::isfinite(s.fraction) || !std::isfinite(s.maxScale) ||
                !std::isfinite(s.maxRps) ||
                !std::isfinite(s.lowFraction) ||
                !std::isfinite(s.changeFactor))
                return "service '" + s.service +
                    "' has a non-finite load value";
            if (!(s.fraction > 0.0))
                return "service '" + s.service +
                    "' needs a load fraction > 0";
            if (!(s.maxScale > 0.0))
                return "service '" + s.service + "' needs max_scale > 0";
            if (s.maxRps < 0.0)
                return "service '" + s.service + "' needs max_rps >= 0";
        }
        return {};
    };
    if (auto err = checkLoads(services); !err.empty())
        return err;

    // The manager is built for the initial mix; event segments must
    // keep the service count (the manager's branching is fixed).
    const std::size_t n_svc = services.size();
    if (auto err = registry.validate(manager, n_svc); !err.empty())
        return err;
    for (const auto &e : events) {
        if (e.afterSteps == 0)
            return "event with zero after_steps";
        if (auto err = checkLoads(e.services); !err.empty())
            return err;
        if (!e.services.empty() && e.services.size() != n_svc)
            return "event changes the service count (manager "
                   "architecture is fixed at construction)";
        for (const auto &t : e.transfers) {
            if (t.serviceIndex >= n_svc)
                return "transfer service_index out of range";
            if (t.service.empty())
                return "transfer without a target service";
            if (manager != "twig")
                return "transfers need the twig manager";
        }
    }

    if (topology == "cluster") {
        if (nodes == 0)
            return "cluster scenario with zero nodes";
        if (policy != "static" && policy != "wrr" &&
            policy != "p2c-latency")
            return "unknown routing policy '" + policy +
                "' (want static | wrr | p2c-latency)";
        if (domains == 0)
            return "cluster scenario with zero routing domains";
        if (domains > totalNodes())
            return "more routing domains than nodes";
        if (!checkpoint.empty() && manager != "twig")
            return "checkpoint warm-start needs the twig manager";
        if (!events.empty())
            return "events are only supported on the single topology";
        for (std::size_t i = 0; i < nodeClasses.size(); ++i) {
            const autoscale::NodeClass &cls = nodeClasses[i];
            if (auto err = cls.validate(); !err.empty())
                return err;
            if (autoscale::isBuiltinNodeClass(cls.id))
                return "node class id '" + cls.id +
                    "' shadows a built-in class";
            for (std::size_t k = 0; k < i; ++k) {
                if (nodeClasses[k].id == cls.id)
                    return "duplicate node class id '" + cls.id + "'";
            }
        }
        if (hetero && !fleetClasses.empty())
            return "hetero and a fleet class list are mutually "
                   "exclusive (the class list already fixes each "
                   "slot's shape)";
        for (const auto &id : fleetClasses) {
            if (autoscale::findNodeClass(nodeClasses, id) == nullptr)
                return "fleet references undefined node class id '" +
                    id + "'";
        }
        if (autoscale) {
            if (auto err = autoscale->validate(); !err.empty())
                return err;
            if (nodes < autoscale->minNodes ||
                nodes > autoscale->maxNodes)
                return "autoscale initial nodes outside "
                       "[min_nodes, max_nodes]";
        }
        if (auto err = faults.validate(totalNodes(), n_svc);
            !err.empty())
            return err;
    } else {
        if (!faults.empty())
            return "faults are only supported on the cluster topology";
        if (autoscale)
            return "autoscale is only supported on the cluster "
                   "topology";
        if (!nodeClasses.empty() || !fleetClasses.empty())
            return "node classes are only supported on the cluster "
                   "topology";
    }
    return {};
}

ScenarioSpec
ScenarioSpec::fromJson(const Json &j)
{
    j.allowOnly({"name", "description", "topology", "machine_cores",
                 "services", "manager", "steps", "window", "horizon",
                 "seed", "events", "cluster", "faults"},
                "scenario");
    ScenarioSpec s;
    s.name = j.stringOr("name", "");
    s.description = j.stringOr("description", "");
    s.topology = j.stringOr("topology", s.topology);
    s.machineCores = static_cast<std::size_t>(
        j.indexOr("machine_cores", s.machineCores));

    const Json &svcs = j.at("services");
    for (std::size_t i = 0; i < svcs.size(); ++i)
        s.services.push_back(ServiceLoadSpec::fromJson(svcs.at(i), i));

    if (const Json *mgr = j.find("manager")) {
        mgr->allowOnly({"name", "paper", "seed", "knobs"}, "manager");
        s.manager = mgr->stringOr("name", s.manager);
        s.paper = mgr->boolOr("paper", false);
        if (const Json *seed = mgr->find("seed"))
            s.managerSeed = seed->asIndex();
        if (const Json *k = mgr->find("knobs")) {
            k->allowOnly({"theta", "eta", "alpha", "exploit_only"},
                         "knobs");
            if (const Json *v = k->find("theta"))
                s.knobs.theta = v->asNumber();
            if (const Json *v = k->find("eta"))
                s.knobs.eta = static_cast<std::size_t>(v->asIndex());
            if (const Json *v = k->find("alpha"))
                s.knobs.alpha = v->asNumber();
            s.knobs.exploitOnly = k->boolOr("exploit_only", false);
        }
    }

    s.steps = static_cast<std::size_t>(j.indexOr("steps", s.steps));
    s.window = static_cast<std::size_t>(j.indexOr("window", 0));
    s.horizon = static_cast<std::size_t>(j.indexOr("horizon", 0));
    s.seed = j.indexOr("seed", s.seed);

    if (const Json *arr = j.find("events")) {
        for (std::size_t i = 0; i < arr->size(); ++i)
            s.events.push_back(ScenarioEvent::fromJson(arr->at(i), i));
    }

    if (const Json *c = j.find("cluster")) {
        c->allowOnly({"nodes", "hetero", "policy", "domains", "checkpoint",
                      "node_classes", "fleet", "autoscale"},
                     "cluster");
        s.nodes = static_cast<std::size_t>(c->indexOr("nodes", s.nodes));
        s.hetero = c->boolOr("hetero", false);
        s.policy = c->stringOr("policy", s.policy);
        s.domains =
            static_cast<std::size_t>(c->indexOr("domains", s.domains));
        s.checkpoint = c->stringOr("checkpoint", "");
        if (const Json *arr = c->find("node_classes")) {
            for (std::size_t i = 0; i < arr->size(); ++i)
                s.nodeClasses.push_back(
                    autoscale::NodeClass::fromJson(arr->at(i), i));
        }
        if (const Json *arr = c->find("fleet")) {
            for (std::size_t i = 0; i < arr->size(); ++i)
                s.fleetClasses.push_back(arr->at(i).asString());
        }
        if (const Json *a = c->find("autoscale"))
            s.autoscale = autoscale::AutoscaleConfig::fromJson(*a);
    }
    if (const Json *f = j.find("faults"))
        s.faults = faults::FaultSpec::fromJson(*f);
    return s;
}

ScenarioSpec
ScenarioSpec::fromFile(const std::string &path)
{
    return fromJson(Json::parseFile(path));
}

} // namespace twig::harness
