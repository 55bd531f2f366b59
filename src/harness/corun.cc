/**
 * @file
 * Co-run harness implementation: tenant capture, stream assembly, the
 * shared-LLC simulation itself, and the solo-baseline pass behind
 * weighted speedup and fairness.
 */

#include "harness/corun.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "harness/experiment.hh"
#include "trace/trace_io.hh"

namespace cachescope {

namespace {

/**
 * Captures a workload's instruction stream into memory, bounded by a
 * budget (0 = capture everything). The co-run arbiter pulls records,
 * while workloads push them — this sink is the adapter between the two.
 */
class CaptureSink final : public InstructionSink
{
  public:
    explicit CaptureSink(std::uint64_t budget) : budget_(budget) {}

    void
    onInstruction(const TraceRecord &rec) override
    {
        records_.push_back(rec);
    }

    bool
    wantsMore() const override
    {
        return budget_ == 0 || records_.size() < budget_;
    }

    std::vector<TraceRecord>
    take()
    {
        return std::move(records_);
    }

  private:
    std::uint64_t budget_;
    std::vector<TraceRecord> records_;
};

/** A stream over an in-memory record vector (captured workloads). */
class VectorStream final : public CorunStream
{
  public:
    explicit VectorStream(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {}

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ >= records_.size())
            return false;
        rec = records_[pos_++];
        return true;
    }

  private:
    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
};

/** A stream over a binary trace file (memory-light replay). */
class TraceFileStream final : public CorunStream
{
  public:
    explicit TraceFileStream(std::unique_ptr<TraceReader> reader)
        : reader_(std::move(reader))
    {}

    bool next(TraceRecord &rec) override { return reader_->next(rec); }

    /** Non-OK once the reader hit truncation or corruption. */
    const Status &status() const { return reader_->status(); }

  private:
    std::unique_ptr<TraceReader> reader_;
};

/** Solo IPC of a trace tenant under @p config (for baselines). */
Expected<double>
soloTraceIpc(const std::string &path, const SimConfig &config)
{
    auto reader_or = TraceReader::open(path);
    if (!reader_or.ok())
        return reader_or.status();
    std::unique_ptr<TraceReader> reader = reader_or.take();
    Simulator sim(config);
    TraceRecord rec;
    while (sim.wantsMore() && reader->next(rec))
        sim.onInstruction(rec);
    CS_TRY(reader->status());
    return sim.result().ipc();
}

} // namespace

std::string
CorunTenant::name() const
{
    return workload ? workload->name() : tracePath;
}

void
CorunReport::exportMetrics(MetricsRegistry &metrics,
                           const std::string &prefix) const
{
    result.exportMetrics(metrics, prefix);
    // The same host-time gauges runOne() emits, so the 1-core co-run
    // tree has exactly the single-core tree's paths.
    metrics.merge(hostTime, prefix);
    if (soloIpc.empty() || result.cores.size() < 2)
        return;
    const std::string p = prefix.empty() ? "" : prefix + ".";
    metrics.setGauge(p + "corun.weighted_speedup", weightedSpeedup);
    metrics.setGauge(p + "corun.fairness", fairness);
    for (std::size_t i = 0; i < result.cores.size(); ++i) {
        const std::string cp = p + "core" + std::to_string(i);
        metrics.setGauge(cp + ".derived.solo_ipc", soloIpc[i]);
        if (soloIpc[i] > 0.0) {
            metrics.setGauge(cp + ".derived.speedup_over_solo",
                             result.cores[i].ipc() / soloIpc[i]);
        }
    }
}

Expected<CorunReport>
runCorun(const std::vector<CorunTenant> &tenants,
         const CorunRunOptions &options)
{
    const auto start = std::chrono::steady_clock::now();
    const std::size_t n = tenants.size();
    CorunConfig config = options.config;

    // Per-tenant warmups: workload tenants get their warmupHint()
    // honoured exactly like runOne(); trace tenants use the template's.
    config.coreWarmups.assign(n, config.base.warmupInstructions);
    for (std::size_t i = 0; i < n; ++i) {
        if (tenants[i].workload) {
            config.coreWarmups[i] =
                std::max(config.coreWarmups[i],
                         tenants[i].workload->warmupHint());
        }
    }
    CS_TRY(config.validate(n));
    for (const CorunTenant &t : tenants) {
        if (!t.workload && t.tracePath.empty())
            return invalidArgumentError(
                "corun tenant has neither a workload nor a trace path");
    }

    std::vector<std::unique_ptr<CorunStream>> streams;
    std::vector<TraceFileStream *> file_streams(n, nullptr);
    streams.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (tenants[i].workload) {
            const InstCount measure = config.base.measureInstructions;
            const std::uint64_t budget =
                measure == 0 ? 0 : config.coreWarmups[i] + measure;
            CaptureSink sink(budget);
            tenants[i].workload->run(sink);
            streams.push_back(std::make_unique<VectorStream>(sink.take()));
        } else {
            auto reader_or = TraceReader::open(tenants[i].tracePath);
            if (!reader_or.ok())
                return reader_or.status();
            auto stream =
                std::make_unique<TraceFileStream>(reader_or.take());
            file_streams[i] = stream.get();
            streams.push_back(std::move(stream));
        }
    }

    Simulator sim(config, n);
    std::vector<CorunStream *> raw;
    raw.reserve(n);
    for (const auto &s : streams)
        raw.push_back(s.get());
    sim.run(raw);
    const auto end = std::chrono::steady_clock::now();

    // A trace stream that dried up because of truncation or corruption
    // is an input error, not a short tenant.
    for (std::size_t i = 0; i < n; ++i) {
        if (file_streams[i] != nullptr)
            CS_TRY(file_streams[i]->status());
    }

    // A tenant whose stream ended inside its warmup produced no
    // measured traffic at all; worth a warning, not an error.
    for (std::size_t i = 0; i < n; ++i) {
        sim.warnIfWarmupUnfinished(
            "corun tenant '" + tenants[i].name() + "'", i);
    }

    // Everything outside the measured phase, tenant capture included,
    // lands on the warmup side of the split, as in runOne().
    CorunReport report;
    report.result = sim.corunResult();
    report.tenantNames.reserve(n);
    HostTimes pass{.start = start,
                   .end = end,
                   .firstInstruction = std::nullopt,
                   .measureStart = sim.barrierOpenedAt(),
                   .instructions = 0};
    for (std::size_t i = 0; i < n; ++i) {
        report.tenantNames.push_back(tenants[i].name());
        pass.instructions += sim.instructionsConsumed(i);
        const auto first = sim.firstInstructionAt(i);
        if (first && (!pass.firstInstruction ||
                      *first < *pass.firstInstruction)) {
            pass.firstInstruction = first;
        }
        if (n >= 2) {
            setThroughputGauges(
                report.hostTime, "core" + std::to_string(i),
                {.start = start,
                 .end = end,
                 .firstInstruction = first,
                 .measureStart = sim.warmupEndedAt(i),
                 .instructions = sim.instructionsConsumed(i)});
        }
    }
    setThroughputGauges(report.hostTime, "", pass);
    report.wallSeconds =
        std::chrono::duration<double>(end - start).count();

    if (!options.soloBaselines)
        return report;

    // Solo pass: each tenant alone under the same template (same
    // warmup/measure windows, same LLC policy, whole LLC to itself).
    report.soloIpc.assign(n, 0.0);
    double speedup_sum = 0.0;
    double rel_min = 0.0;
    double rel_max = 0.0;
    bool have_rel = false;
    for (std::size_t i = 0; i < n; ++i) {
        double solo = 0.0;
        if (tenants[i].workload) {
            solo = runOne(*tenants[i].workload, config.base).ipc();
        } else {
            SimConfig solo_cfg = config.base;
            solo_cfg.warmupInstructions = config.coreWarmups[i];
            auto ipc_or = soloTraceIpc(tenants[i].tracePath, solo_cfg);
            if (!ipc_or.ok())
                return ipc_or.status();
            solo = ipc_or.value();
        }
        report.soloIpc[i] = solo;
        if (solo > 0.0) {
            const double rel = report.result.cores[i].ipc() / solo;
            speedup_sum += rel;
            if (!have_rel || rel < rel_min)
                rel_min = rel;
            if (!have_rel || rel > rel_max)
                rel_max = rel;
            have_rel = true;
        }
    }
    report.weightedSpeedup = speedup_sum;
    report.fairness = (have_rel && rel_max > 0.0) ? rel_min / rel_max : 0.0;
    return report;
}

} // namespace cachescope
