/**
 * @file
 * Experiment E7 (oracle headroom): Belady's OPT versus LRU and the
 * best online policies on GAP workloads.
 *
 * The paper's bleak outlook has two halves: online policies capture
 * nothing on graphs, and even the offline optimum has modest headroom
 * because the misses are capacity misses. This binary measures both:
 * the LLC miss reduction OPT achieves over LRU, and what fraction of
 * that (small) headroom each online policy recovers.
 */

#include "bench_util.hh"
#include "harness/experiment.hh"

using namespace cachescope;

namespace {

/**
 * Graph scale of quick mode's inputs. At bench::sweepScale()'s quick
 * scale (15) OPT removes no LLC miss on any of the four workloads, so
 * the figure would show no headroom; 18 is the smallest scale with
 * headroom on bfs as well as pr, and still runs in seconds.
 */
constexpr unsigned kQuickScale = 18;

/**
 * Smallest OPT miss reduction, as a share of LRU's misses, for which
 * the recovered columns are printed. Below it the ratio's denominator
 * is a handful of misses (one, for sssp at the quick scale), so the
 * ratio reads as a large gain or loss while measuring noise; the
 * columns print "-" instead.
 */
constexpr double kMinHeadroomShare = 0.01;

} // anonymous namespace

int
main()
{
    bench::banner("fig7", "Belady OPT headroom on GAP workloads",
                  "conclusion section: bounded headroom argument");

    GapSuiteConfig suite_cfg;
    suite_cfg.scale = bench::quickMode() ? kQuickScale : bench::sweepScale();
    suite_cfg.avgDegree = 8;
    suite_cfg.includeUniform = false;
    suite_cfg.kernels = {GapKernel::Bfs, GapKernel::PageRank,
                         GapKernel::Cc, GapKernel::Sssp};
    const auto suite = makeGapSuite(suite_cfg);

    Table table({"workload", "lru_llc_misses", "opt_llc_misses",
                 "opt_miss_reduction", "hawkeye_recovered",
                 "ship_recovered"});
    bench::BenchMetrics metrics("fig7");
    for (const auto &workload : suite) {
        const SimResult lru = runOne(*workload, bench::sweepConfig("lru"));
        const SimResult opt = runBelady(*workload, bench::sweepConfig());
        const SimResult hawkeye =
            runOne(*workload, bench::sweepConfig("hawkeye"));
        const SimResult ship =
            runOne(*workload, bench::sweepConfig("ship"));
        metrics.add(lru, workload->name() + ".lru");
        metrics.add(opt, workload->name() + ".belady");
        metrics.add(hawkeye, workload->name() + ".hawkeye");
        metrics.add(ship, workload->name() + ".ship");

        const double lru_misses =
            static_cast<double>(lru.llc.demandMisses());
        const double headroom =
            lru_misses - static_cast<double>(opt.llc.demandMisses());
        const bool has_headroom =
            headroom >= kMinHeadroomShare * lru_misses && headroom > 0.0;
        auto add_recovered = [&](const SimResult &r) {
            if (!has_headroom) {
                table.addCell("-");
                return;
            }
            table.addNumber((lru_misses -
                             static_cast<double>(r.llc.demandMisses())) /
                                headroom,
                            3);
        };

        table.newRow();
        table.addCell(workload->name());
        table.addNumber(lru_misses, 0);
        table.addNumber(static_cast<double>(opt.llc.demandMisses()), 0);
        table.addNumber(headroom / std::max(lru_misses, 1.0), 3);
        add_recovered(hawkeye);
        add_recovered(ship);
        std::fprintf(stderr, "  %-12s done\n", workload->name().c_str());
    }

    bench::emitTable(table, "fig7");
    metrics.emit();
    return 0;
}
