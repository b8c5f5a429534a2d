/** @file
 * Tests for the declarative scenario layer: the strict ScenarioSpec
 * reader (every key of every block read from a JSON text, unknown and
 * repeated keys fatal), registry/spec validation errors, and
 * fixed-seed golden runs proving the engine reproduces hand-built
 * harness runs on both topologies (the refactored benches rely on this
 * equivalence).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/static_manager.hh"
#include "cluster/cluster_manager.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "core/twig_manager.hh"
#include "harness/engine.hh"
#include "harness/profiling.hh"
#include "harness/runner.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

using namespace twig;
using namespace twig::harness;

namespace {

ScenarioSpec
richSpec()
{
    ScenarioSpec spec;
    spec.name = "rich";
    spec.description = "every optional field set";
    spec.services.push_back([] {
        ServiceLoadSpec s;
        s.service = "masstree";
        s.pattern = "diurnal";
        s.fraction = 0.8;
        s.maxScale = 0.6;
        s.lowFraction = 0.2;
        s.periodSteps = 50;
        return s;
    }());
    spec.services.push_back([] {
        ServiceLoadSpec s;
        s.service = "moses";
        s.pattern = "trace";
        s.fraction = 1.0;
        s.maxRps = 1234.5;
        s.tracePath = "traces/moses.csv";
        s.traceColumn = "rps";
        return s;
    }());
    spec.manager = "twig";
    spec.knobs.theta = 0.25;
    spec.knobs.eta = 9;
    spec.knobs.alpha = 0.6;
    spec.knobs.exploitOnly = true;
    spec.paper = true;
    spec.managerSeed = 4082637488651899829ULL; // > 2^53: exactness
    spec.steps = 1800;
    spec.window = 300;
    spec.horizon = 1500;
    spec.seed = 7297471543603743092ULL;
    ScenarioEvent event;
    event.afterSteps = 700;
    event.transfers.push_back([] {
        TransferSpec t;
        t.serviceIndex = 1;
        t.service = "xapian";
        t.specSeed = 47;
        t.reexploreSteps = 100;
        return t;
    }());
    event.services.push_back(spec.services[0]);
    event.services.push_back([] {
        ServiceLoadSpec s;
        s.service = "moses";
        s.pattern = "step";
        s.fraction = 0.9;
        s.changeFactor = 0.3;
        return s;
    }());
    event.serverSeed = 99;
    spec.events.push_back(event);
    return spec;
}

/** richSpec() as a scenario file writes it. The seeds above 2^53
 * check that integer literals keep all 64 bits. */
constexpr const char *kRichSpecJson = R"({
  "name": "rich",
  "description": "every optional field set",
  "services": [
    {"service": "masstree", "pattern": "diurnal", "fraction": 0.8,
     "max_scale": 0.6, "low_fraction": 0.2, "period_steps": 50},
    {"service": "moses", "pattern": "trace", "fraction": 1.0,
     "max_rps": 1234.5,
     "trace_path": "traces/moses.csv", "trace_column": "rps"}
  ],
  "manager": {"name": "twig", "paper": true, "seed": 4082637488651899829,
              "knobs": {"theta": 0.25, "eta": 9, "alpha": 0.6,
                        "exploit_only": true}},
  "steps": 1800,
  "window": 300,
  "horizon": 1500,
  "seed": 7297471543603743092,
  "events": [
    {"after_steps": 700,
     "transfers": [{"service_index": 1, "service": "xapian",
                    "spec_seed": 47, "reexplore_steps": 100}],
     "services": [
       {"service": "masstree", "pattern": "diurnal", "fraction": 0.8,
        "max_scale": 0.6, "low_fraction": 0.2, "period_steps": 50},
       {"service": "moses", "pattern": "step", "fraction": 0.9,
        "change_factor": 0.3}
     ],
     "server_seed": 99}
  ]
})";

/** Field-by-field equality of two specs, nested blocks included
 * (doubles exactly: a parsed literal is the nearest double, as the
 * compiler's is). */
void
expectSameSpec(const ScenarioSpec &got, const ScenarioSpec &want)
{
    auto same_loads = [](const std::vector<ServiceLoadSpec> &g,
                         const std::vector<ServiceLoadSpec> &w) {
        ASSERT_EQ(g.size(), w.size());
        for (std::size_t i = 0; i < g.size(); ++i) {
            SCOPED_TRACE("service entry " + std::to_string(i));
            EXPECT_EQ(g[i].service, w[i].service);
            EXPECT_EQ(g[i].pattern, w[i].pattern);
            EXPECT_EQ(g[i].fraction, w[i].fraction);
            EXPECT_EQ(g[i].maxScale, w[i].maxScale);
            EXPECT_EQ(g[i].maxRps, w[i].maxRps);
            EXPECT_EQ(g[i].lowFraction, w[i].lowFraction);
            EXPECT_EQ(g[i].periodSteps, w[i].periodSteps);
            EXPECT_EQ(g[i].changeFactor, w[i].changeFactor);
            EXPECT_EQ(g[i].tracePath, w[i].tracePath);
            EXPECT_EQ(g[i].traceColumn, w[i].traceColumn);
        }
    };

    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.description, want.description);
    EXPECT_EQ(got.topology, want.topology);
    EXPECT_EQ(got.machineCores, want.machineCores);
    same_loads(got.services, want.services);
    EXPECT_EQ(got.manager, want.manager);
    EXPECT_EQ(got.knobs.theta, want.knobs.theta);
    EXPECT_EQ(got.knobs.eta, want.knobs.eta);
    EXPECT_EQ(got.knobs.alpha, want.knobs.alpha);
    EXPECT_EQ(got.knobs.exploitOnly, want.knobs.exploitOnly);
    EXPECT_EQ(got.paper, want.paper);
    EXPECT_EQ(got.managerSeed, want.managerSeed);
    EXPECT_EQ(got.steps, want.steps);
    EXPECT_EQ(got.window, want.window);
    EXPECT_EQ(got.horizon, want.horizon);
    EXPECT_EQ(got.seed, want.seed);

    ASSERT_EQ(got.events.size(), want.events.size());
    for (std::size_t e = 0; e < got.events.size(); ++e) {
        SCOPED_TRACE("event " + std::to_string(e));
        const ScenarioEvent &g = got.events[e];
        const ScenarioEvent &w = want.events[e];
        EXPECT_EQ(g.afterSteps, w.afterSteps);
        ASSERT_EQ(g.transfers.size(), w.transfers.size());
        for (std::size_t t = 0; t < g.transfers.size(); ++t) {
            EXPECT_EQ(g.transfers[t].serviceIndex,
                      w.transfers[t].serviceIndex);
            EXPECT_EQ(g.transfers[t].service, w.transfers[t].service);
            EXPECT_EQ(g.transfers[t].specSeed, w.transfers[t].specSeed);
            EXPECT_EQ(g.transfers[t].reexploreSteps,
                      w.transfers[t].reexploreSteps);
        }
        same_loads(g.services, w.services);
        EXPECT_EQ(g.serverSeed, w.serverSeed);
    }

    EXPECT_EQ(got.nodes, want.nodes);
    EXPECT_EQ(got.hetero, want.hetero);
    EXPECT_EQ(got.policy, want.policy);
    EXPECT_EQ(got.domains, want.domains);
    EXPECT_EQ(got.checkpoint, want.checkpoint);

    EXPECT_EQ(got.faults.checkpointEverySteps,
              want.faults.checkpointEverySteps);
    ASSERT_EQ(got.faults.actions.size(), want.faults.actions.size());
    for (std::size_t i = 0; i < got.faults.actions.size(); ++i) {
        SCOPED_TRACE("fault event " + std::to_string(i));
        const faults::FaultAction &g = got.faults.actions[i];
        const faults::FaultAction &w = want.faults.actions[i];
        EXPECT_EQ(g.kind, w.kind);
        EXPECT_EQ(g.atStep, w.atStep);
        EXPECT_EQ(g.node, w.node);
        EXPECT_EQ(g.service, w.service);
        EXPECT_EQ(g.durationSteps, w.durationSteps);
        EXPECT_EQ(g.restartAfterSteps, w.restartAfterSteps);
        EXPECT_EQ(g.recovery, w.recovery);
        EXPECT_EQ(g.maxDvfsIndex, w.maxDvfsIndex);
        EXPECT_EQ(g.sigma, w.sigma);
        EXPECT_EQ(g.staleProb, w.staleProb);
        EXPECT_EQ(g.multiplier, w.multiplier);
    }

    ASSERT_EQ(got.nodeClasses.size(), want.nodeClasses.size());
    for (std::size_t i = 0; i < got.nodeClasses.size(); ++i) {
        SCOPED_TRACE("node class " + std::to_string(i));
        const autoscale::NodeClass &g = got.nodeClasses[i];
        const autoscale::NodeClass &w = want.nodeClasses[i];
        EXPECT_EQ(g.id, w.id);
        EXPECT_EQ(g.cores, w.cores);
        EXPECT_EQ(g.dvfs.minGhz, w.dvfs.minGhz);
        EXPECT_EQ(g.dvfs.maxGhz, w.dvfs.maxGhz);
        EXPECT_EQ(g.dvfs.stepGhz, w.dvfs.stepGhz);
        EXPECT_EQ(g.serviceRateScale, w.serviceRateScale);
        EXPECT_EQ(g.dollarsPerHour, w.dollarsPerHour);
    }
    EXPECT_EQ(got.fleetClasses, want.fleetClasses);

    ASSERT_EQ(got.autoscale.has_value(), want.autoscale.has_value());
    if (got.autoscale) {
        const autoscale::AutoscaleConfig &g = *got.autoscale;
        const autoscale::AutoscaleConfig &w = *want.autoscale;
        EXPECT_EQ(g.minNodes, w.minNodes);
        EXPECT_EQ(g.maxNodes, w.maxNodes);
        EXPECT_EQ(g.hiUtilization, w.hiUtilization);
        EXPECT_EQ(g.loUtilization, w.loUtilization);
        EXPECT_EQ(g.outTardiness, w.outTardiness);
        EXPECT_EQ(g.persistIntervals, w.persistIntervals);
        EXPECT_EQ(g.cooldownIntervals, w.cooldownIntervals);
        EXPECT_EQ(g.outStepNodes, w.outStepNodes);
        EXPECT_EQ(g.inStepNodes, w.inStepNodes);
        EXPECT_EQ(g.drainIntervals, w.drainIntervals);
    }
}

ScenarioSpec
parseSpec(const std::string &text)
{
    return ScenarioSpec::fromJson(common::Json::parse(text));
}

/** A learning Twig built by hand, independent of the registry:
 * profiled Eq. 2 models (seed ^ 77) and the fast preset. */
std::unique_ptr<core::TwigManager>
handBuiltTwig(const sim::MachineConfig &machine,
              const std::vector<sim::ServiceProfile> &profiles,
              std::size_t horizon, std::uint64_t seed)
{
    const auto maxima = services::calibrateCounterMaxima(machine);
    std::vector<core::TwigServiceSpec> specs;
    for (const auto &p : profiles)
        specs.push_back(makeTwigSpec(p, machine, seed ^ 77));
    return std::make_unique<core::TwigManager>(
        core::TwigConfig::fast(horizon), machine, maxima, std::move(specs),
        seed);
}

} // namespace

TEST(ScenarioSpec, JsonRoundTripIsByteIdentical)
{
    // Every key of the scenario, service entry, manager, knobs, event
    // and transfer blocks, each away from its default.
    expectSameSpec(parseSpec(kRichSpecJson), richSpec());
}

TEST(ScenarioSpec, ClusterFieldsRoundTrip)
{
    ScenarioSpec spec;
    spec.name = "fleet";
    spec.topology = "cluster";
    spec.machineCores = 12;
    ServiceLoadSpec s;
    s.service = "masstree";
    spec.services.push_back(s);
    spec.nodes = 8;
    spec.hetero = true;
    spec.policy = "wrr";
    spec.domains = 4;
    spec.checkpoint = "donor_{cores}c.ckpt";
    spec.faults.checkpointEverySteps = 5;
    faults::FaultAction crash;
    crash.atStep = 30;
    crash.node = 3;
    crash.restartAfterSteps = 10;
    spec.faults.actions.push_back(crash);

    expectSameSpec(parseSpec(R"({
      "name": "fleet", "topology": "cluster", "machine_cores": 12,
      "services": [{"service": "masstree"}],
      "cluster": {"nodes": 8, "hetero": true, "policy": "wrr",
                  "domains": 4, "checkpoint": "donor_{cores}c.ckpt"},
      "faults": {"checkpoint_every": 5,
                 "events": [{"type": "node_crash", "at": 30, "node": 3,
                             "restart_after": 10}]}
    })"),
                   spec);
}

TEST(ScenarioSpec, AutoscaleAndFleetBlocksRoundTrip)
{
    ScenarioSpec spec;
    spec.name = "elastic";
    spec.topology = "cluster";
    ServiceLoadSpec s;
    s.service = "masstree";
    spec.services.push_back(s);
    spec.manager = "static";
    spec.nodes = 3;
    autoscale::NodeClass custom;
    custom.id = "fat32";
    custom.cores = 32;
    custom.dvfs.maxGhz = 2.6;
    custom.serviceRateScale = 1.1;
    custom.dollarsPerHour = 1.8;
    spec.nodeClasses.push_back(custom);
    spec.fleetClasses = {"fat32", "gen1", "std18"};
    autoscale::AutoscaleConfig cfg;
    cfg.minNodes = 2;
    cfg.maxNodes = 6;
    cfg.hiUtilization = 0.65;
    cfg.cooldownIntervals = 4;
    spec.autoscale = cfg;

    const ScenarioSpec back = parseSpec(R"({
      "name": "elastic", "topology": "cluster",
      "services": [{"service": "masstree"}],
      "manager": {"name": "static"},
      "cluster": {
        "nodes": 3,
        "node_classes": [{"id": "fat32", "cores": 32,
                          "dvfs": {"max_ghz": 2.6},
                          "service_rate_scale": 1.1,
                          "dollars_per_hour": 1.8}],
        "fleet": ["fat32", "gen1", "std18"],
        "autoscale": {"min_nodes": 2, "max_nodes": 6,
                      "hi_utilization": 0.65, "cooldown": 4}
      }
    })");
    expectSameSpec(back, spec);
    // With an autoscale block `nodes` is the initial count and the
    // fleet provisions max_nodes slots.
    EXPECT_EQ(back.totalNodes(), 6u);
}

TEST(ScenarioSpec, MisspelledKeyIsFatalInEveryBlock)
{
    // One cluster scenario opening all twelve blocks the reader
    // checks; the n-th '%' is where row n adds its key.
    const std::string every_block = R"({
      "name": "strict", "topology": "cluster"%,
      "services": [{"service": "masstree"%}],
      "manager": {"name": "twig"%, "knobs": {"theta": 0.5%}},
      "events": [{"after_steps": 5%,
                  "transfers": [{"service": "moses"%}]}],
      "cluster": {"nodes": 2%,
                  "node_classes": [{"id": "fat"%,
                                    "dvfs": {"max_ghz": 2.4%}}],
                  "autoscale": {"min_nodes": 1, "max_nodes": 2%}},
      "faults": {"checkpoint_every": 5%,
                 "events": [{"type": "node_crash", "at": 3%}]}})";
    const struct
    {
        const char *where;
        const char *key;
    } rows[] = {
        {"scenario", "stepz"},
        {"service entry 0 (fixed)", "patern"},
        {"manager", "nmae"},         {"knobs", "thetta"},
        {"event", "after_step"},     {"transfer", "service_idx"},
        {"cluster", "node"},         {"node class", "core"},
        {"dvfs", "max_ghZ"},         {"autoscale", "cooldwn"},
        {"faults", "checkpoint_evry"},
        {"fault event 0 (node_crash)", "durations"},
    };
    auto with_key = [&](std::size_t block, const std::string &key) {
        std::string text;
        std::size_t marker = 0;
        for (char c : every_block) {
            if (c != '%')
                text += c;
            else if (marker++ == block)
                text += ", \"" + key + "\": 1";
        }
        return text;
    };
    // The text without an added key passes, so each failure below is
    // its key.
    EXPECT_NO_THROW(parseSpec(with_key(std::size(rows), "")));
    for (std::size_t block = 0; block < std::size(rows); ++block) {
        SCOPED_TRACE(rows[block].where);
        try {
            parseSpec(with_key(block, rows[block].key));
            ADD_FAILURE() << "expected FatalError";
        } catch (const common::FatalError &err) {
            EXPECT_EQ(std::string(err.what()),
                      std::string("fatal: json: unknown key '") +
                          rows[block].key + "' in " + rows[block].where);
        }
    }
}

TEST(ScenarioSpec, KeyItsKindOrPatternDoesNotReadIsFatal)
{
    // Each fault kind and load pattern, with the keys it reads. Every
    // other key of its family is fatal, naming the key, the entry's
    // index (1: a valid entry precedes it) and its kind or pattern;
    // every key it reads parses.
    using Table =
        std::vector<std::pair<std::string, std::vector<std::string>>>;
    const std::vector<std::string> fault_keys = {
        "type", "at", "node", "service", "duration", "restart_after",
        "recovery", "max_dvfs", "sigma", "stale_prob", "multiplier"};
    const Table kinds = {
        {"node_crash", {"type", "at", "node", "restart_after", "recovery"}},
        {"thermal_throttle", {"type", "at", "node", "duration", "max_dvfs"}},
        {"pmc_noise",
         {"type", "at", "node", "duration", "sigma", "stale_prob"}},
        {"load_surge", {"type", "at", "service", "duration", "multiplier"}},
        {"checkpoint_corrupt", {"type", "at", "node"}},
    };
    const std::vector<std::string> load_keys = {
        "service", "pattern", "fraction", "max_scale", "max_rps",
        "low_fraction", "period_steps", "change_factor", "trace_path",
        "trace_column"};
    const std::vector<std::string> shaped = {
        "service", "pattern", "fraction", "max_scale", "max_rps",
        "low_fraction", "period_steps"};
    auto plus = [](std::vector<std::string> keys,
                   std::initializer_list<std::string> more) {
        keys.insert(keys.end(), more);
        return keys;
    };
    const Table patterns = {
        {"fixed",
         {"service", "pattern", "fraction", "max_scale", "max_rps"}},
        {"diurnal", shaped},
        {"ramp", shaped},
        {"step", plus(shaped, {"change_factor"})},
        {"trace", plus(shaped, {"trace_path", "trace_column"})},
    };

    // A value each key parses as (the entry's own keys are set above).
    auto field = [](const std::string &key) {
        const bool text = key == "recovery" || key == "trace_path" ||
            key == "trace_column";
        return ", \"" + key + "\": " +
            (key == "recovery" ? "\"cold\"" : text ? "\"x\"" : "1");
    };
    auto fault_text = [&](const std::string &kind,
                          const std::vector<std::string> &keys) {
        std::string entry = "{\"type\": \"" + kind + "\"";
        for (const auto &key : keys) {
            if (key != "type")
                entry += field(key);
        }
        return R"({"events": [{"type": "checkpoint_corrupt", "at": 1}, )" +
            entry + "}]}";
    };
    auto load_text = [&](const std::string &pattern,
                         const std::vector<std::string> &keys) {
        std::string entry =
            "{\"service\": \"moses\", \"pattern\": \"" + pattern + "\"";
        for (const auto &key : keys) {
            if (key != "service" && key != "pattern")
                entry += field(key);
        }
        return R"({"services": [{"service": "masstree"}, )" + entry +
            "}]}";
    };
    auto expect_fatal = [](auto parse, const std::string &want) {
        try {
            parse();
            ADD_FAILURE() << "expected FatalError: " << want;
        } catch (const common::FatalError &err) {
            EXPECT_EQ(std::string(err.what()), want);
        }
    };
    auto reads = [](const std::vector<std::string> &keys,
                    const std::string &key) {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    };

    for (const auto &[kind, own] : kinds) {
        SCOPED_TRACE(kind);
        EXPECT_NO_THROW(faults::FaultSpec::fromJson(
            common::Json::parse(fault_text(kind, own))));
        for (const auto &key : fault_keys) {
            if (reads(own, key))
                continue;
            const std::string text = fault_text(kind, plus(own, {key}));
            expect_fatal(
                [&] {
                    faults::FaultSpec::fromJson(common::Json::parse(text));
                },
                "fatal: json: unknown key '" + key +
                    "' in fault event 1 (" + kind + ")");
        }
    }
    for (const auto &[pattern, own] : patterns) {
        SCOPED_TRACE(pattern);
        EXPECT_NO_THROW(parseSpec(load_text(pattern, own)));
        for (const auto &key : load_keys) {
            if (reads(own, key))
                continue;
            const std::string text = load_text(pattern, plus(own, {key}));
            expect_fatal([&] { parseSpec(text); },
                         "fatal: json: unknown key '" + key +
                             "' in service entry 1 (" + pattern + ")");
        }
    }
}

TEST(ScenarioSpec, RepeatedKeyIsFatal)
{
    // At the top level and inside a block; the message names the key
    // and the line and column where it repeats.
    const struct
    {
        const char *text;
        const char *error;
    } rows[] = {
        {"{\"steps\": 20,\n \"services\": [{\"service\": \"masstree\"}],\n"
         " \"steps\": 30}",
         "fatal: json parse error at 3:9: duplicate object key 'steps'"},
        {"{\"services\": [{\"service\": \"masstree\",\n"
         " \"fraction\": 0.5, \"fraction\": 0.9}]}",
         "fatal: json parse error at 2:29: duplicate object key "
         "'fraction'"},
    };
    for (const auto &row : rows) {
        try {
            parseSpec(row.text);
            ADD_FAILURE() << "expected FatalError: " << row.text;
        } catch (const common::FatalError &err) {
            EXPECT_EQ(std::string(err.what()), row.error);
        }
    }
}

TEST(ScenarioSpec, ValidateCatchesElasticFleetErrors)
{
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    ScenarioSpec spec;
    spec.topology = "cluster";
    ServiceLoadSpec s;
    s.service = "masstree";
    spec.services.push_back(s);
    spec.nodes = 3;
    autoscale::AutoscaleConfig cfg;
    cfg.minNodes = 2;
    cfg.maxNodes = 6;
    spec.autoscale = cfg;
    EXPECT_EQ(spec.validate(registry), "");

    auto broken = spec;
    broken.autoscale->minNodes = 7;
    EXPECT_EQ(broken.validate(registry),
              "autoscale block with min_nodes > max_nodes");

    broken = spec;
    broken.autoscale->cooldownIntervals = 0;
    EXPECT_EQ(broken.validate(registry),
              "autoscale block with cooldown 0 (would oscillate every "
              "interval)");

    broken = spec;
    broken.nodes = 1; // below min_nodes 2
    EXPECT_EQ(broken.validate(registry),
              "autoscale initial nodes outside [min_nodes, max_nodes]");

    broken = spec;
    broken.fleetClasses = {"gen9"};
    EXPECT_EQ(broken.validate(registry),
              "fleet references undefined node class id 'gen9'");

    broken = spec;
    autoscale::NodeClass shadow;
    shadow.id = "std18";
    broken.nodeClasses.push_back(shadow);
    EXPECT_EQ(broken.validate(registry),
              "node class id 'std18' shadows a built-in class");

    broken = spec;
    autoscale::NodeClass dup;
    dup.id = "fat32";
    broken.nodeClasses.push_back(dup);
    broken.nodeClasses.push_back(dup);
    EXPECT_EQ(broken.validate(registry),
              "duplicate node class id 'fat32'");

    broken = spec;
    broken.autoscale.reset();
    broken.hetero = true;
    broken.fleetClasses = {"std18"};
    EXPECT_EQ(broken.validate(registry),
              "hetero and a fleet class list are mutually exclusive "
              "(the class list already fixes each slot's shape)");

    // Neither block means anything on the single topology.
    broken = spec;
    broken.topology = "single";
    EXPECT_EQ(broken.validate(registry),
              "autoscale is only supported on the cluster topology");

    broken = spec;
    broken.topology = "single";
    broken.autoscale.reset();
    broken.fleetClasses = {"std18"};
    EXPECT_EQ(broken.validate(registry),
              "node classes are only supported on the cluster "
              "topology");
}

TEST(ScenarioSpec, DomainsDefaultToOneAndOmitFromJson)
{
    // A cluster block without `domains` is the flat-equivalent single
    // domain.
    const ScenarioSpec spec = parseSpec(
        R"({"topology": "cluster", "services": [{"service": "masstree"}],
            "cluster": {"nodes": 4}})");
    EXPECT_EQ(spec.domains, 1u);
}

#ifdef TWIG_SOURCE_DIR
TEST(ScenarioSpec, ShippedFig05FileCarriesTheSweepCellSeeds)
{
    const auto spec = ScenarioSpec::fromFile(
        std::string(TWIG_SOURCE_DIR) + "/scenarios/fig05.json");
    EXPECT_EQ(spec.name, "fig05");
    EXPECT_EQ(spec.manager, "twig");
    ASSERT_EQ(spec.services.size(), 1u);
    EXPECT_EQ(spec.services[0].service, "masstree");
    EXPECT_DOUBLE_EQ(spec.services[0].fraction, 0.5);
    // sweepSeed(42, pair=1) / sweepSeed(42, idx=7) of the fig05 sweep.
    EXPECT_EQ(spec.seed, 7297471543603743092ULL);
    ASSERT_TRUE(spec.managerSeed.has_value());
    EXPECT_EQ(*spec.managerSeed, 4082637488651899829ULL);
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    EXPECT_EQ(spec.validate(registry), "");
}
#endif

TEST(Registry, UnknownManagerListsValidNames)
{
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    EXPECT_EQ(registry.validate("nope", 1),
              "unknown manager 'nope', valid managers are: twig, "
              "static, hipster, heracles, parties");
    EXPECT_EQ(registry.validate("hipster", 2),
              "manager 'hipster' only supports a single service (2 "
              "requested)");
    EXPECT_EQ(registry.validate("heracles", 3),
              "manager 'heracles' only supports a single service (3 "
              "requested)");
    EXPECT_EQ(registry.validate("twig", 2), "");
}

TEST(Registry, ExploitOnlyTwigIsBuiltWithoutAPowerModel)
{
    ManagerContext ctx;
    ctx.profiles = {services::masstree(), services::imgdnn()};
    ctx.seed = 5;
    ctx.knobs.exploitOnly = true;
    auto manager = ManagerRegistry::builtin().make("twig", ctx);
    auto &twig = dynamic_cast<core::TwigManager &>(*manager);
    EXPECT_TRUE(twig.exploitOnly());
    // No Eq. 2 model was fitted, so the manager can never learn.
    EXPECT_THROW(twig.setExploitOnly(false), common::FatalError);
    EXPECT_TRUE(twig.exploitOnly());

    ctx.knobs.exploitOnly = false;
    auto learning = ManagerRegistry::builtin().make("twig", ctx);
    auto &learner = dynamic_cast<core::TwigManager &>(*learning);
    EXPECT_FALSE(learner.exploitOnly());
    learner.setExploitOnly(true);
    learner.setExploitOnly(false);
    EXPECT_FALSE(learner.exploitOnly());
}

TEST(ScenarioSpec, ValidateCatchesStructuralErrors)
{
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    ScenarioSpec spec;
    spec.services.push_back([] {
        ServiceLoadSpec s;
        s.service = "masstree";
        return s;
    }());

    EXPECT_EQ(spec.validate(registry), "");

    auto broken = spec;
    broken.topology = "mesh";
    EXPECT_EQ(broken.validate(registry),
              "unknown topology 'mesh' (want single | cluster)");

    broken = spec;
    broken.steps = 0;
    EXPECT_EQ(broken.validate(registry), "scenario has zero steps");

    broken = spec;
    broken.services.clear();
    EXPECT_EQ(broken.validate(registry), "scenario hosts no services");

    broken = spec;
    broken.services[0].pattern = "sawtooth";
    EXPECT_EQ(broken.validate(registry),
              "unknown load pattern 'sawtooth' (want fixed | diurnal | "
              "step | ramp | trace)");

    broken = spec;
    broken.services[0].pattern = "trace";
    EXPECT_EQ(broken.validate(registry),
              "trace pattern needs trace_path and trace_column");

    broken = spec;
    ScenarioEvent event;
    event.afterSteps = 10;
    event.services.push_back(broken.services[0]);
    event.services.push_back(broken.services[0]);
    broken.events.push_back(event);
    EXPECT_EQ(broken.validate(registry),
              "event changes the service count (manager architecture "
              "is fixed at construction)");

    broken = spec;
    broken.manager = "static";
    ScenarioEvent swap;
    swap.afterSteps = 10;
    swap.transfers.push_back([] {
        TransferSpec t;
        t.serviceIndex = 0;
        t.service = "moses";
        return t;
    }());
    broken.events.push_back(swap);
    EXPECT_EQ(broken.validate(registry),
              "transfers need the twig manager");

    broken = spec;
    broken.topology = "cluster";
    broken.policy = "fastest";
    EXPECT_EQ(broken.validate(registry),
              "unknown routing policy 'fastest' (want static | wrr | "
              "p2c-latency)");

    broken = spec;
    broken.topology = "cluster";
    broken.domains = 0;
    EXPECT_EQ(broken.validate(registry),
              "cluster scenario with zero routing domains");

    broken = spec;
    broken.topology = "cluster";
    broken.nodes = 4;
    broken.domains = 8;
    EXPECT_EQ(broken.validate(registry),
              "more routing domains than nodes");
}

TEST(ScenarioSpec, ValidateRejectsNonFiniteAndNonPositiveLoads)
{
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    ScenarioSpec spec;
    spec.services.push_back([] {
        ServiceLoadSpec s;
        s.service = "masstree";
        return s;
    }());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::string non_finite =
        "service 'masstree' has a non-finite load value";

    for (double ServiceLoadSpec::*field :
         {&ServiceLoadSpec::fraction, &ServiceLoadSpec::maxScale,
          &ServiceLoadSpec::maxRps, &ServiceLoadSpec::lowFraction,
          &ServiceLoadSpec::changeFactor}) {
        for (double bad : {nan, inf, -inf}) {
            auto broken = spec;
            broken.services[0].*field = bad;
            EXPECT_EQ(broken.validate(registry), non_finite);
        }
    }

    for (double bad : {0.0, -3.0}) {
        auto broken = spec;
        broken.services[0].fraction = bad;
        EXPECT_EQ(broken.validate(registry),
                  "service 'masstree' needs a load fraction > 0");
        broken = spec;
        broken.services[0].maxScale = bad;
        EXPECT_EQ(broken.validate(registry),
                  "service 'masstree' needs max_scale > 0");
    }
    auto broken = spec;
    broken.services[0].maxRps = -1.0;
    EXPECT_EQ(broken.validate(registry),
              "service 'masstree' needs max_rps >= 0");

    // Event segments and scenario files get the same check.
    broken = spec;
    ScenarioEvent event;
    event.afterSteps = 10;
    event.services.push_back(spec.services[0]);
    event.services[0].fraction = nan;
    broken.events.push_back(event);
    EXPECT_EQ(broken.validate(registry), non_finite);

    const auto from_file = ScenarioSpec::fromJson(common::Json::parse(
        R"({"services": [{"service": "masstree", "fraction": -3}]})"));
    EXPECT_EQ(from_file.validate(registry),
              "service 'masstree' needs a load fraction > 0");
    EXPECT_THROW(Engine().run(from_file), common::FatalError);
}

// --- golden runs: the engine reproduces hand-built harness runs ------

TEST(Engine, Fig05StaticCellMatchesHandBuiltRunner)
{
    ScenarioSpec spec;
    spec.name = "golden-static";
    ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.fraction = 0.5;
    spec.services.push_back(svc);
    spec.manager = "static";
    spec.steps = 120;
    spec.window = 30;
    spec.seed = 7;
    const auto engine_run = Engine().run(spec);

    const sim::MachineConfig machine;
    const auto profile = services::masstree();
    sim::Server server(machine, 7);
    server.addService(profile, std::make_unique<sim::FixedLoad>(
                                   profile.maxLoadRps, 0.5));
    baselines::StaticManager manager(machine);
    ExperimentRunner runner(server, manager);
    RunOptions opt;
    opt.steps = 120;
    opt.summaryWindow = 30;
    const auto direct = runner.run(opt);

    EXPECT_DOUBLE_EQ(engine_run.single.metrics.energyJoules,
                     direct.metrics.energyJoules);
    EXPECT_DOUBLE_EQ(engine_run.single.metrics.meanPowerW,
                     direct.metrics.meanPowerW);
    EXPECT_DOUBLE_EQ(
        engine_run.single.metrics.services[0].qosGuaranteePct,
        direct.metrics.services[0].qosGuaranteePct);
    EXPECT_EQ(engine_run.managerName, "static");
}

TEST(Engine, Fig05TwigCellMatchesHandBuiltRunner)
{
    ScenarioSpec spec;
    spec.name = "golden-twig";
    ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.fraction = 0.5;
    spec.services.push_back(svc);
    spec.manager = "twig";
    spec.managerSeed = 101;
    spec.steps = 150;
    spec.window = 40;
    spec.horizon = 150;
    spec.seed = 55;
    const auto engine_run = Engine().run(spec);

    const sim::MachineConfig machine;
    const auto profile = services::masstree();
    auto manager = handBuiltTwig(machine, {profile}, 150, 101);
    sim::Server server(machine, 55);
    server.addService(profile, std::make_unique<sim::FixedLoad>(
                                   profile.maxLoadRps, 0.5));
    ExperimentRunner runner(server, *manager);
    RunOptions opt;
    opt.steps = 150;
    opt.summaryWindow = 40;
    const auto direct = runner.run(opt);

    EXPECT_DOUBLE_EQ(engine_run.single.metrics.energyJoules,
                     direct.metrics.energyJoules);
    EXPECT_DOUBLE_EQ(
        engine_run.single.metrics.services[0].qosGuaranteePct,
        direct.metrics.services[0].qosGuaranteePct);
    EXPECT_DOUBLE_EQ(
        engine_run.single.metrics.services[0].meanTardiness,
        direct.metrics.services[0].meanTardiness);
}

TEST(Engine, Fig12ColocCellMatchesHandBuiltRunner)
{
    const double coloc = 0.6;
    ScenarioSpec spec;
    spec.name = "golden-coloc";
    ServiceLoadSpec mt;
    mt.service = "masstree";
    mt.fraction = 0.2;
    mt.maxScale = coloc;
    spec.services.push_back(mt);
    ServiceLoadSpec mo;
    mo.service = "moses";
    mo.fraction = 0.8;
    mo.maxScale = coloc;
    spec.services.push_back(mo);
    spec.manager = "twig";
    spec.managerSeed = 9;
    spec.steps = 160;
    spec.window = 40;
    spec.horizon = 120;
    spec.seed = 11;
    const auto engine_run = Engine().run(spec);

    const sim::MachineConfig machine;
    const auto mt_p = services::masstree();
    const auto mo_p = services::moses();
    auto manager = handBuiltTwig(machine, {mt_p, mo_p}, 120, 9);
    sim::Server server(machine, 11);
    server.addService(mt_p, std::make_unique<sim::FixedLoad>(
                                mt_p.maxLoadRps * coloc, 0.2));
    server.addService(mo_p, std::make_unique<sim::FixedLoad>(
                                mo_p.maxLoadRps * coloc, 0.8));
    ExperimentRunner runner(server, *manager);
    RunOptions opt;
    opt.steps = 160;
    opt.summaryWindow = 40;
    const auto direct = runner.run(opt);

    EXPECT_DOUBLE_EQ(engine_run.single.metrics.energyJoules,
                     direct.metrics.energyJoules);
    EXPECT_DOUBLE_EQ(engine_run.single.metrics.avgQosGuaranteePct(),
                     direct.metrics.avgQosGuaranteePct());
}

TEST(Engine, ClusterGoldenRunMatchesHandBuiltFleet)
{
    ScenarioSpec spec;
    spec.name = "golden-cluster";
    spec.topology = "cluster";
    ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.fraction = 0.5;
    spec.services.push_back(svc);
    spec.manager = "static";
    spec.steps = 40;
    spec.window = 10;
    spec.seed = 5;
    spec.nodes = 2;
    spec.hetero = false;
    spec.policy = "static";
    const auto engine_run = Engine().run(spec);
    EXPECT_TRUE(engine_run.cluster);

    const sim::MachineConfig machine;
    const auto profile = services::masstree();
    cluster::ClusterConfig cfg;
    cfg.router.policy = cluster::RoutingPolicy::Static;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    // Two full-size nodes: fleet capacity is 2x one reference node.
    loads.push_back(std::make_unique<sim::FixedLoad>(
        profile.maxLoadRps * 2.0, 0.5));
    cluster::ClusterManager fleet(cfg, {profile}, std::move(loads), 5);
    for (std::size_t n = 0; n < 2; ++n) {
        fleet.addNode(
            machine,
            [](const sim::MachineConfig &m,
               const std::vector<sim::ServiceProfile> &,
               std::uint64_t) -> std::unique_ptr<core::TaskManager> {
                return std::make_unique<baselines::StaticManager>(m);
            });
    }
    const auto direct = fleet.run(40, 10);

    EXPECT_DOUBLE_EQ(engine_run.fleet.metrics.energyJoules,
                     direct.metrics.energyJoules);
    EXPECT_DOUBLE_EQ(engine_run.fleet.metrics.meanPowerW,
                     direct.metrics.meanPowerW);
    ASSERT_EQ(engine_run.fleet.metrics.windowP99Ms.size(), 1u);
    EXPECT_DOUBLE_EQ(engine_run.fleet.metrics.windowP99Ms[0],
                     direct.metrics.windowP99Ms[0]);

    // Determinism: the same spec reproduces the same metrics.
    const auto again = Engine().run(spec);
    EXPECT_DOUBLE_EQ(again.fleet.metrics.energyJoules,
                     engine_run.fleet.metrics.energyJoules);
}

TEST(Engine, SinksSeeEveryMeasuredStepInOrder)
{
    class CountingSink : public RecordSink
    {
      public:
        void
        begin(const ScenarioSpec &,
              const std::vector<sim::ServiceProfile> &profiles) override
        {
            beginCalls++;
            services = profiles.size();
        }
        void
        record(const StepRecord &rec) override
        {
            EXPECT_EQ(rec.step, steps); // strictly ordered from 0
            EXPECT_EQ(rec.p99Ms.size(), services);
            EXPECT_EQ(rec.cores.size(), services);
            steps++;
        }
        void end() override { endCalls++; }

        std::size_t beginCalls = 0, endCalls = 0, steps = 0;
        std::size_t services = 0;
    };

    ScenarioSpec spec;
    spec.name = "sink-order";
    ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.fraction = 0.5;
    spec.services.push_back(svc);
    spec.manager = "static";
    spec.steps = 25;
    spec.window = 10;
    spec.seed = 3;

    CountingSink sink;
    EngineOptions opts;
    opts.sinks.push_back(&sink);
    Engine(opts).run(spec);
    EXPECT_EQ(sink.beginCalls, 1u);
    EXPECT_EQ(sink.endCalls, 1u);
    EXPECT_EQ(sink.steps, 25u);
}

TEST(Engine, SinksSeeEachIntervalAsItRuns)
{
    // A manager that counts its decisions (the initial requests
    // included) and asks for a different core count each time. Each
    // record arrives while its interval is current: after exactly
    // step + 1 decisions, with the cores that interval was mapped
    // with.
    class CountingManager : public core::TaskManager
    {
      public:
        std::string name() const override { return "counting"; }
        void
        decideInto(const sim::ServerIntervalStats &,
                   std::vector<core::ResourceRequest> &out) override
        {
            out.assign(1, request());
        }
        std::vector<core::ResourceRequest>
        initialRequests(std::size_t num_services,
                        const sim::MachineConfig &) const override
        {
            return std::vector<core::ResourceRequest>(num_services,
                                                      request());
        }
        /** Decision k asks for 1 + k % 18 cores at the top DVFS state. */
        static std::size_t coresOf(std::size_t k) { return 1 + k % 18; }

        mutable std::size_t decisions = 0;

      private:
        core::ResourceRequest
        request() const
        {
            return {coresOf(decisions++), sim::DvfsLadder{}.maxIndex()};
        }
    };
    class LiveSink : public RecordSink
    {
      public:
        explicit LiveSink(const CountingManager &m) : manager(m) {}
        void
        record(const StepRecord &rec) override
        {
            EXPECT_EQ(manager.decisions, rec.step + 1) << rec.step;
            ASSERT_EQ(rec.cores.size(), 1u);
            EXPECT_EQ(rec.cores[0], CountingManager::coresOf(rec.step))
                << rec.step;
            ++records;
        }

        const CountingManager &manager;
        std::size_t records = 0;
    };

    ScenarioSpec spec;
    spec.name = "sink-live";
    ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.fraction = 0.3;
    spec.services.push_back(svc);
    spec.manager = "static";
    spec.steps = 30;
    spec.window = 10;
    spec.seed = 5;

    CountingManager manager;
    LiveSink sink(manager);
    EngineOptions opts;
    opts.managerOverride = &manager;
    opts.sinks.push_back(&sink);
    const auto result = Engine(opts).run(spec);
    EXPECT_EQ(sink.records, 30u);
    EXPECT_EQ(manager.decisions, 31u);
    EXPECT_TRUE(result.single.trace.empty()); // kept only on request
}

TEST(Engine, InvalidSpecIsFatal)
{
    ScenarioSpec spec; // no services
    EXPECT_THROW(Engine().run(spec), common::FatalError);
}
