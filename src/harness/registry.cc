#include "harness/registry.hh"

#include "baselines/heracles.hh"
#include "baselines/hipster.hh"
#include "baselines/parties.hh"
#include "baselines/static_manager.hh"
#include "common/error.hh"
#include "core/twig_manager.hh"
#include "harness/profiling.hh"
#include "services/microbench.hh"

namespace twig::harness {

namespace {

std::unique_ptr<core::TaskManager>
makeTwigFromContext(const ManagerContext &ctx)
{
    const auto maxima = services::calibrateCounterMaxima(ctx.machine);
    // Only the training reward reads the Eq. 2 power model: a deployed
    // (exploit-only) replica skips the profiling campaign and the fit.
    std::vector<core::TwigServiceSpec> specs;
    for (const auto &p : ctx.profiles) {
        specs.push_back(ctx.knobs.exploitOnly
                            ? makeDeployedTwigSpec(p)
                            : makeTwigSpec(p, ctx.machine, ctx.seed ^ 77));
    }
    auto cfg = ctx.full ? core::TwigConfig::paper()
                        : core::TwigConfig::fast(ctx.schedule.horizon);
    if (ctx.knobs.theta)
        cfg.reward.theta = *ctx.knobs.theta;
    if (ctx.knobs.eta)
        cfg.eta = *ctx.knobs.eta;
    if (ctx.knobs.alpha)
        cfg.learner.replay.alpha = *ctx.knobs.alpha;
    cfg.exploitOnly = ctx.knobs.exploitOnly;
    return std::make_unique<core::TwigManager>(cfg, ctx.machine, maxima,
                                               std::move(specs), ctx.seed);
}

void
rejectKnobs(const ManagerContext &ctx, const std::string &name)
{
    common::fatalIf(ctx.knobs.any(), "manager '", name,
                    "' takes no knobs (knobs are twig-only)");
}

} // namespace

const ManagerRegistry &
ManagerRegistry::builtin()
{
    static const ManagerRegistry registry = [] {
        ManagerRegistry r;
        r.add("twig", false, makeTwigFromContext);
        r.add("static", false, [](const ManagerContext &ctx) {
            rejectKnobs(ctx, "static");
            return std::make_unique<baselines::StaticManager>(
                ctx.machine);
        });
        r.add("hipster", true, [](const ManagerContext &ctx) {
            rejectKnobs(ctx, "hipster");
            // Learning phase compressed to the horizon.
            baselines::HipsterConfig cfg;
            cfg.learningPhaseSteps =
                ctx.full ? 7500 : ctx.schedule.horizon / 2;
            return std::make_unique<baselines::Hipster>(
                cfg, ctx.machine, makeBaselineSpec(ctx.profiles.at(0)),
                ctx.seed);
        });
        r.add("heracles", true, [](const ManagerContext &ctx) {
            rejectKnobs(ctx, "heracles");
            // Paper-configured thresholds; lockout compressed.
            baselines::HeraclesConfig cfg;
            cfg.lockoutSteps = ctx.full ? 300 : 60;
            return std::make_unique<baselines::Heracles>(
                cfg, ctx.machine, makeBaselineSpec(ctx.profiles.at(0)));
        });
        r.add("parties", false, [](const ManagerContext &ctx) {
            rejectKnobs(ctx, "parties");
            std::vector<baselines::BaselineServiceSpec> specs;
            for (const auto &p : ctx.profiles)
                specs.push_back(makeBaselineSpec(p));
            return std::make_unique<baselines::Parties>(
                baselines::PartiesConfig{}, ctx.machine, std::move(specs),
                ctx.seed);
        });
        return r;
    }();
    return registry;
}

void
ManagerRegistry::add(const std::string &name, bool single_service_only,
                     Factory factory)
{
    for (auto &e : entries_) {
        if (e.name == name) {
            e.singleServiceOnly = single_service_only;
            e.factory = std::move(factory);
            return;
        }
    }
    entries_.push_back({name, single_service_only, std::move(factory)});
}

bool
ManagerRegistry::has(const std::string &name) const
{
    return findEntry(name) != nullptr;
}

std::vector<std::string>
ManagerRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(e.name);
    return out;
}

std::string
ManagerRegistry::namesCsv() const
{
    std::string out;
    for (const auto &e : entries_) {
        if (!out.empty())
            out += ", ";
        out += e.name;
    }
    return out;
}

std::string
ManagerRegistry::validate(const std::string &name,
                          std::size_t num_services) const
{
    const Entry *e = findEntry(name);
    if (e == nullptr)
        return "unknown manager '" + name + "', valid managers are: " +
            namesCsv();
    if (e->singleServiceOnly && num_services > 1)
        return "manager '" + name + "' only supports a single service (" +
            std::to_string(num_services) + " requested)";
    return {};
}

std::unique_ptr<core::TaskManager>
ManagerRegistry::make(const std::string &name,
                      const ManagerContext &ctx) const
{
    const std::string err = validate(name, ctx.profiles.size());
    common::fatalIf(!err.empty(), err);
    return findEntry(name)->factory(ctx);
}

const ManagerRegistry::Entry *
ManagerRegistry::findEntry(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

} // namespace twig::harness
