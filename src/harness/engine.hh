/**
 * @file
 * Scenario engine: executes a ScenarioSpec on either topology —
 * a single sim::Server driven through ExperimentRunner, or an N-node
 * cluster::ClusterManager fleet — building the manager through the
 * ManagerRegistry and emitting per-step records through composable
 * RecordSinks (CSV trace, recomputed metrics, simulator cycle
 * profile). Every tool and comparison bench funnels through here, so
 * a scenario file, a CLI invocation and a bench cell are the same run.
 */

#ifndef TWIG_HARNESS_ENGINE_HH
#define TWIG_HARNESS_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "common/csv.hh"
#include "harness/metrics.hh"
#include "harness/registry.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"

namespace twig::harness {

/** One per-step record, topology-independent. */
struct StepRecord
{
    std::size_t step = 0;
    /** Socket power (single) / summed fleet power (cluster), W. */
    double powerW = 0.0;
    std::vector<double> offeredRps;
    std::vector<double> p99Ms;
    /** Requested cores / DVFS indices; empty on the cluster topology
     * (resource decisions are per-node there). */
    std::vector<std::size_t> cores;
    std::vector<std::size_t> dvfs;
};

/** Observer of the final (measured) segment's per-step records. */
class RecordSink
{
  public:
    virtual ~RecordSink() = default;

    /** Called once before the run, with the final segment's service
     * profiles. */
    virtual void
    begin(const ScenarioSpec &spec,
          const std::vector<sim::ServiceProfile> &profiles)
    {
        (void)spec;
        (void)profiles;
    }

    virtual void record(const StepRecord &rec) = 0;

    /** Called for every fault event of a step, before that step's
     * record() (cluster topology with a fault schedule only). */
    virtual void fault(const faults::FaultEvent &ev) { (void)ev; }

    /** Called once after the last record. */
    virtual void end() {}
};

/** CSV trace writer: cores/DVFS/p99/RPS per service on the single
 * topology, fleet RPS/p99 per service on the cluster. */
class CsvTraceSink : public RecordSink
{
  public:
    explicit CsvTraceSink(std::string path) : path_(std::move(path)) {}

    void begin(const ScenarioSpec &spec,
               const std::vector<sim::ServiceProfile> &profiles) override;
    void record(const StepRecord &rec) override;

    const std::string &path() const { return path_; }
    /** Rows written so far. */
    std::size_t records() const { return records_; }

  private:
    std::string path_;
    std::unique_ptr<common::CsvWriter> csv_;
    bool singleTopology_ = true;
    std::size_t numServices_ = 0;
    std::size_t records_ = 0;
    std::vector<double> row_;
};

/** Writes the fault-event stream as CSV (tools' --fault-trace): one
 * row per event with the kind name and the kind-specific scalars. */
class FaultCsvSink : public RecordSink
{
  public:
    explicit FaultCsvSink(std::string path) : path_(std::move(path)) {}

    void begin(const ScenarioSpec &spec,
               const std::vector<sim::ServiceProfile> &profiles) override;
    void record(const StepRecord &rec) override { (void)rec; }
    void fault(const faults::FaultEvent &ev) override;
    /** Close the file so the event stream is complete on disk. */
    void end() override { csv_.reset(); }

    const std::string &path() const { return path_; }
    /** Events written so far. */
    std::size_t events() const { return events_; }

  private:
    std::string path_;
    std::unique_ptr<common::CsvWriter> csv_;
    std::size_t events_ = 0;
};

/** Wraps the run in the per-phase cycle counters and prints one
 * control-interval table at end() (tools' --sim-profile): cycles,
 * calls and share of the wall time from begin() to end() for every
 * simulator and agent phase, then the unattributed rest. A share
 * budget (--profile-max-share) additionally flags every simulator
 * phase whose share of the simulator's cycles exceeds it, so a CI run
 * can assert "no phase above N%" instead of eyeballing the table. */
class SimProfileSink : public RecordSink
{
  public:
    /** @param max_share_pct  flag simulator phases above this share
     *  of the simulator's cycles; the default never flags. */
    explicit SimProfileSink(double max_share_pct = 100.0)
        : maxSharePct_(max_share_pct)
    {
    }

    void begin(const ScenarioSpec &spec,
               const std::vector<sim::ServiceProfile> &profiles) override;
    void record(const StepRecord &rec) override { (void)rec; }
    void end() override;

    /** Whether end() found a phase above the share budget. */
    bool exceeded() const { return exceeded_; }

  private:
    double maxSharePct_;
    bool exceeded_ = false;
    std::size_t steps_ = 0;
    std::uint64_t startCycles_ = 0;
};

/** Engine execution options (runtime concerns that are not part of
 * the experiment's identity, so they live outside the spec). */
struct EngineOptions
{
    /** Node-stepping threads on the cluster topology (bit-identical
     * at any value). */
    std::size_t jobs = 1;
    /** Keep the single-topology per-step trace in the result. */
    bool recordTrace = false;
    /** Observers of the final segment (not owned). */
    std::vector<RecordSink *> sinks;
    /** Run this manager instead of building one from the spec
     * (single topology only; for pre-built or ablated managers). */
    core::TaskManager *managerOverride = nullptr;
    /** Cluster: write node 0's trained BDQ checkpoint here after the
     * run (the manager must be a TwigManager). */
    std::string saveCheckpoint;
    /** Manager registry (default: ManagerRegistry::builtin()). */
    const ManagerRegistry *registry = nullptr;
};

/** A fleet built from a cluster-topology spec, plus the derived
 * pieces a live driver needs (see buildFleet). */
struct FleetSetup
{
    std::vector<sim::ServiceProfile> profiles;
    /** Effective fleet-wide peak RPS per service (absolute max_rps
     * override, or profile max x maxScale x fleet capacity). */
    std::vector<double> maxRps;
    std::unique_ptr<cluster::ClusterManager> fleet;
};

/** Effective fleet-wide peak RPS per service of a cluster-topology
 * spec (the same capacity scaling buildFleet applies) — what a live
 * front-end clamps observed arrival rates to. */
std::vector<double> fleetMaxRps(const ScenarioSpec &spec);

/**
 * Build the fleet a cluster-topology spec describes: nodes, managers
 * (warm-started from the spec's checkpoint when set), router policy
 * and fault schedule — everything except running it. When
 * @p loads_override is non-empty it supplies the fleet load
 * generators (one per service, same order) instead of the spec's
 * declarative patterns; this is how twig_serve plugs live socket
 * arrivals in as just another load source (serve::LiveLoad) while the
 * batch path stays byte-identical. The spec must already validate
 * against @p registry, and @p registry must outlive the fleet (node
 * rebuilds after faults go back through it).
 */
FleetSetup
buildFleet(const ScenarioSpec &spec, const ManagerRegistry &registry,
           std::size_t jobs,
           std::vector<std::unique_ptr<sim::LoadGenerator>>
               loads_override = {});

/** Result of one scenario run. */
struct EngineResult
{
    bool cluster = false;
    /** TaskManager::name() of the manager that ran (single only). */
    std::string managerName;
    /** Single topology: final-segment metrics (+ trace when
     * EngineOptions::recordTrace). */
    RunResult single;
    /** Cluster topology: fleet metrics + always-on fleet trace. */
    cluster::FleetRunResult fleet;

    /** Topology-independent view of the headline numbers. */
    double meanPowerW() const;
    double energyJoules() const;
    std::size_t windowSteps() const;
    double avgQosGuaranteePct() const;
};

/** Executes ScenarioSpecs. */
class Engine
{
  public:
    explicit Engine(EngineOptions options = {})
        : options_(std::move(options))
    {
    }

    /** Run @p spec (fatal on a spec that fails validate()). */
    EngineResult run(const ScenarioSpec &spec) const;

  private:
    EngineResult runSingle(const ScenarioSpec &spec,
                           const ManagerRegistry &registry) const;
    EngineResult runCluster(const ScenarioSpec &spec,
                            const ManagerRegistry &registry) const;

    EngineOptions options_;
};

} // namespace twig::harness

#endif // TWIG_HARNESS_ENGINE_HH
