/**
 * @file
 * The co-run harness: turns named tenants (zoo workloads or captured
 * trace files) into CorunStreams, drives an N-core Simulator, and
 * reports the multi-programmed summary metrics the scheduling
 * literature uses — weighted speedup (sum of each tenant's IPC
 * relative to running alone) and fairness (min/max relative progress).
 */

#ifndef CACHESCOPE_HARNESS_CORUN_HH
#define CACHESCOPE_HARNESS_CORUN_HH

#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "trace/workload.hh"

namespace cachescope {

/**
 * One co-run tenant: either a live workload (captured into memory and
 * replayed through the arbiter) or a pre-recorded trace file (streamed
 * from disk). Exactly one of the two fields is set.
 */
struct CorunTenant
{
    std::shared_ptr<Workload> workload;
    std::string tracePath;

    static CorunTenant
    fromWorkload(std::shared_ptr<Workload> w)
    {
        CorunTenant t;
        t.workload = std::move(w);
        return t;
    }

    static CorunTenant
    fromTrace(std::string path)
    {
        CorunTenant t;
        t.tracePath = std::move(path);
        return t;
    }

    /** Display name: the workload's name or the trace path. */
    std::string name() const;
};

/** Options for one harness-level co-run. */
struct CorunRunOptions
{
    CorunConfig config;
    /**
     * Additionally simulate each tenant *alone* under the same
     * configuration to compute weighted speedup and fairness. Roughly
     * doubles the work; off by default.
     */
    bool soloBaselines = false;
};

/** Everything a harness-level co-run reports. */
struct CorunReport
{
    CorunResult result;
    std::vector<std::string> tenantNames;
    /** Per-tenant solo IPCs (empty unless soloBaselines). */
    std::vector<double> soloIpc;
    /** Sum over tenants of IPC_corun / IPC_alone (0 w/o baselines). */
    double weightedSpeedup = 0.0;
    /** min/max of the per-tenant relative progress (0 w/o baselines). */
    double fairness = 0.0;
    /** Wall-clock duration of the co-run pass (baselines excluded). */
    double wallSeconds = 0.0;
    /**
     * The pass's host-time gauges (setThroughputGauges): "sim.*" over
     * all cores and, with N >= 2 cores, "core<i>.sim.*" per core.
     */
    MetricsRegistry hostTime;

    /**
     * Export the full co-run tree (CorunResult::exportMetrics), the
     * host-time gauges and, when baselines ran,
     * "corun.weighted_speedup"/"corun.fairness" and per-core
     * "core<i>.derived.solo_ipc"/".speedup_over_solo".
     * Baseline gauges are only emitted for N >= 2 cores, keeping the
     * 1-core export byte-identical to a single-core run.
     */
    void exportMetrics(MetricsRegistry &metrics,
                       const std::string &prefix = "") const;
};

/**
 * Run @p tenants together over one shared LLC.
 *
 * Workload tenants get their warmup raised by warmupHint() (matching
 * runOne) and are captured up to warmup + measure instructions; trace
 * tenants stream straight from disk and use the configured warmup.
 * @return the report, or an error for unreadable/corrupt trace tenants
 * and invalid configurations. Throws CancelledError on cancellation,
 * like runOne.
 */
Expected<CorunReport> runCorun(const std::vector<CorunTenant> &tenants,
                               const CorunRunOptions &options);

} // namespace cachescope

#endif // CACHESCOPE_HARNESS_CORUN_HH
