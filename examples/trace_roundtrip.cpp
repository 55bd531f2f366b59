/**
 * @file
 * Trace-tooling scenario: capture a workload's instruction stream to a
 * binary trace file (the ChampSim-style workflow), inspect it, then
 * replay it through the simulator and verify the replay reproduces the
 * live run exactly.
 *
 * Usage: trace_roundtrip [path] [records]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/cascade_lake.hh"
#include "trace/profile.hh"
#include "trace/trace_io.hh"
#include "workloads/synthetic.hh"

using namespace cachescope;

namespace {

/** Forward records into a TraceWriter up to a budget. */
class BoundedCapture : public InstructionSink
{
  public:
    BoundedCapture(TraceWriter &writer, std::uint64_t budget)
        : writer(writer), budget(budget)
    {}

    void
    onInstruction(const TraceRecord &rec) override
    {
        writer.onInstruction(rec);
    }

    bool
    wantsMore() const override
    {
        // A writer that hit an I/O error drops records, so its count
        // stops growing; stop on the error too or the loop never ends.
        return writer.status().ok() && writer.recordsWritten() < budget;
    }

  private:
    TraceWriter &writer;
    std::uint64_t budget;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string path = argc > 1 ? argv[1] : "/tmp/cachescope.trace";
    const std::uint64_t records = argc > 2
        ? std::strtoull(argv[2], nullptr, 10) : 4'000'000;

    SynthParams params;
    params.mainBytes = 4ull << 20;
    SyntheticWorkload workload("demo", SynthPattern::GatherZipf, params);

    // 1. Capture.
    std::printf("Capturing %llu records of %s to %s...\n",
                static_cast<unsigned long long>(records),
                workload.name().c_str(), path.c_str());
    {
        TraceWriter writer(path);
        BoundedCapture capture(writer, records);
        workload.run(capture);
        if (Status s = writer.finish(); !s.ok()) {
            std::fprintf(stderr, "capture failed: %s\n",
                         s.message().c_str());
            return 1;
        }
    }

    // 2. Inspect.
    {
        TraceReader reader(path);
        CountingSink counts;
        PcProfiler profiler;
        TraceRecord rec;
        while (reader.next(rec)) {
            counts.onInstruction(rec);
            profiler.onInstruction(rec);
        }
        const auto summary = profiler.summarize();
        std::printf("Trace: %llu records (%llu loads, %llu stores, "
                    "%llu branches), %llu memory PCs\n",
                    static_cast<unsigned long long>(counts.total),
                    static_cast<unsigned long long>(counts.loads),
                    static_cast<unsigned long long>(counts.stores),
                    static_cast<unsigned long long>(counts.branches),
                    static_cast<unsigned long long>(
                        summary.distinctMemoryPcs));
    }

    // 3. Replay vs live. Windows are derived from the capture length
    // so both runs consume the same stream prefix even for short
    // captures.
    const SimConfig cfg = cascadeLakeConfig("drrip", records / 10,
                                            records / 2);
    Simulator live(cfg);
    workload.run(live);

    Simulator replayed(cfg);
    TraceReader reader(path);
    if (Status s = reader.replayInto(replayed); !s.ok()) {
        std::fprintf(stderr, "replay failed: %s\n", s.message().c_str());
        return 1;
    }

    const SimResult a = live.result();
    const SimResult b = replayed.result();
    std::printf("live:   cycles=%llu llc_misses=%llu ipc=%.4f\n",
                static_cast<unsigned long long>(a.core.cycles),
                static_cast<unsigned long long>(a.llc.demandMisses()),
                a.ipc());
    std::printf("replay: cycles=%llu llc_misses=%llu ipc=%.4f\n",
                static_cast<unsigned long long>(b.core.cycles),
                static_cast<unsigned long long>(b.llc.demandMisses()),
                b.ipc());
    if (a.core.cycles != b.core.cycles ||
        a.llc.demandMisses() != b.llc.demandMisses()) {
        std::printf("MISMATCH: replay diverged from the live run\n");
        return 1;
    }
    std::printf("Replay reproduces the live simulation exactly.\n");
    std::remove(path.c_str());
    return 0;
}
