/**
 * @file
 * Name → factory registry for task managers. Tools, benches, the
 * scenario engine and the tests all construct managers through here,
 * so there is exactly one spelling of each name, one "unknown manager"
 * error listing the valid names, and one place that knows hipster and
 * heracles only manage a single service.
 */

#ifndef TWIG_HARNESS_REGISTRY_HH
#define TWIG_HARNESS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/task_manager.hh"
#include "harness/managers.hh"
#include "sim/machine.hh"
#include "sim/service_profile.hh"

namespace twig::harness {

/** Optional overrides of Twig's empirically-set design knobs. */
struct ManagerKnobs
{
    std::optional<double> theta;      ///< reward balance (reward.theta)
    std::optional<std::size_t> eta;   ///< monitor smoothing window
    std::optional<double> alpha;      ///< replay priority exponent
    /** Skip training and exploration, and with them the Eq. 2 power
     * profiling only the training reward needs. */
    bool exploitOnly = false;

    bool
    any() const
    {
        return theta || eta || alpha || exploitOnly;
    }
};

/** Everything a manager factory may need. */
struct ManagerContext
{
    sim::MachineConfig machine;
    std::vector<sim::ServiceProfile> profiles;
    Schedule schedule{900, 150, 900};
    /** Paper-length time constants instead of compressed ones. */
    bool full = false;
    std::uint64_t seed = 0;
    ManagerKnobs knobs;
};

/** Registry of manager factories, keyed by name. */
class ManagerRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<core::TaskManager>(
        const ManagerContext &)>;

    /** The built-in managers: twig, static, hipster, heracles,
     * parties. */
    static const ManagerRegistry &builtin();

    /** Register a factory (overwrites an existing name). */
    void add(const std::string &name, bool single_service_only,
             Factory factory);

    bool has(const std::string &name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** Comma-separated names() for error/usage text. */
    std::string namesCsv() const;

    /**
     * Check that @p name exists and supports @p num_services services;
     * returns an error message ("unknown manager '…', valid managers
     * are: …") or the empty string when fine. Lets callers reject bad
     * input at parse time.
     */
    std::string validate(const std::string &name,
                         std::size_t num_services) const;

    /** Build a manager; fatal (common::FatalError) when validate()
     * would complain. */
    std::unique_ptr<core::TaskManager>
    make(const std::string &name, const ManagerContext &ctx) const;

  private:
    struct Entry
    {
        std::string name;
        bool singleServiceOnly = false;
        Factory factory;
    };

    const Entry *findEntry(const std::string &name) const;

    std::vector<Entry> entries_;
};

} // namespace twig::harness

#endif // TWIG_HARNESS_REGISTRY_HH
