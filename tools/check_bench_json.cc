/**
 * @file
 * CI validator for BENCH_*.json / --metrics-json artifacts: parses
 * each file as a cachescope-metrics-v1 document and enforces the
 * schema invariants the perf-trajectory tooling relies on (non-empty
 * name, non-negative finite wall_ms, at least one counter).
 *
 * Beyond the envelope, content invariants are enforced on every
 * document: no gauge anywhere may be non-finite (an inf/nan gauge
 * means a divide-by-zero escaped the simulator); co-run documents
 * (any subtree carrying a "corun.num_cores" counter) must export one
 * "core<i>." subtree per core whose per-core LLC attribution counters
 * sum exactly to the shared "llc." totals; and set-sampling subtrees
 * (any "sampled.sample_rate" counter) must carry a sane subset size,
 * scaled estimates no smaller than their raw sibling counters, and an
 * estimated miss rate in [0, 1].
 *
 * fig7 documents must show OPT headroom: on every workload Belady's
 * LLC demand misses are at most LRU's, and on at least one strictly
 * fewer.
 *
 * usage: check_bench_json FILE [FILE ...]
 * exit codes: 0 all valid; 1 any invalid or unreadable.
 */

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "stats/metrics.hh"

using namespace cachescope;

namespace {

bool
endsWith(const std::string &path, const std::string &suffix)
{
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/**
 * @return a description of every schema violation in @p doc beyond the
 * basic envelope (empty when the document is clean): non-finite
 * gauges, malformed profile and set-sampling subtrees, co-run trees
 * whose per-core subtrees are missing or whose LLC attribution slices
 * fail to sum to the shared totals, and fig7 documents without OPT
 * headroom.
 */
std::string
contentProblems(const MetricsDocument &doc)
{
    std::string problems;
    auto complain = [&problems](const std::string &what) {
        if (!problems.empty())
            problems += "; ";
        problems += what;
    };

    const auto &counters = doc.metrics.counters();
    const auto &gauges = doc.metrics.gauges();
    for (const auto &[path, value] : gauges) {
        if (!std::isfinite(value))
            complain("gauge '" + path + "' is not finite");
    }

    // Every "profile.sample_rate" counter marks one online-profiler
    // subtree rooted at its prefix; validate that subtree's schema:
    // the core counters present and mutually consistent, the entropy
    // and concentration gauges present and in range. fig9_pc_corr
    // documents must additionally be non-empty per workload (a
    // profiled simulation that saw no LLC demand access means the
    // bench mis-ran) and carry both contrast groups.
    {
        const std::string marker = "profile.sample_rate";
        std::size_t gap_trees = 0;
        std::size_t spec_trees = 0;
        for (const auto &[path, rate] : counters) {
            if (!endsWith(path, marker))
                continue;
            const std::string prefix =
                path.substr(0, path.size() - sizeof("sample_rate") + 1);
            if (rate == 0)
                complain("'" + path + "' must be >= 1");
            const auto demand = counters.find(prefix + "demand_accesses");
            const auto sampled =
                counters.find(prefix + "sampled_accesses");
            for (const char *want :
                 {"demand_accesses", "sampled_accesses", "distinct_pcs",
                  "pcs_for_90pct", "footprint_blocks"}) {
                if (counters.find(prefix + want) == counters.end())
                    complain("profile tree '" + prefix +
                             "' lacks counter '" + want + "'");
            }
            if (demand != counters.end() && sampled != counters.end() &&
                sampled->second > demand->second) {
                complain("profile tree '" + prefix +
                         "': sampled_accesses exceeds demand_accesses");
            }
            if (gauges.find(prefix + "pc_entropy_bits") == gauges.end())
                complain("profile tree '" + prefix +
                         "' lacks gauge 'pc_entropy_bits'");
            const auto top8 =
                gauges.find(prefix + "concentration.top_8");
            if (top8 == gauges.end()) {
                complain("profile tree '" + prefix +
                         "' lacks gauge 'concentration.top_8'");
            } else if (top8->second < 0.0 || top8->second > 1.0) {
                complain("profile tree '" + prefix +
                         "': concentration.top_8 outside [0, 1]");
            }
            if (doc.name == "fig9_pc_corr") {
                if (demand != counters.end() && demand->second == 0)
                    complain("fig9 profile tree '" + prefix +
                             "' is empty (no demand accesses)");
                gap_trees += prefix.rfind("gap.", 0) == 0;
                spec_trees += prefix.rfind("spec_like.", 0) == 0;
            }
        }
        if (doc.name == "fig9_pc_corr" &&
            (gap_trees == 0 || spec_trees == 0)) {
            complain("fig9_pc_corr needs profiled workloads in both "
                     "the gap. and spec_like. groups");
        }
    }

    // Every "sampled.sample_rate" counter marks one LLC set-sampling
    // subtree rooted at its prefix (emitted only when --sample-sets >
    // 1); validate its schema: rate and subset size sane, every
    // scaled estimate >= its raw sibling counter (the x-rate scaling
    // can only grow a count, and the inequality survives the
    // counter-summing "total." aggregation of sweep documents), and —
    // where the tree carries gauges, which the counters-only "total."
    // aggregates do not — the error gauge finite (globally enforced
    // above) and the estimated miss rate a probability.
    {
        const std::string marker = "sampled.sample_rate";
        for (const auto &[path, rate] : counters) {
            if (!endsWith(path, marker))
                continue;
            const std::string prefix =
                path.substr(0, path.size() - sizeof("sample_rate") + 1);
            if (rate == 0)
                complain("'" + path + "' must be >= 1");
            const auto count_of = [&counters, &prefix,
                                   &complain](const char *name) {
                const auto it = counters.find(prefix + name);
                if (it == counters.end()) {
                    complain("sampled tree '" + prefix +
                             "' lacks counter '" + name + "'");
                    return std::uint64_t{0};
                }
                return it->second;
            };
            const std::uint64_t sets_total = count_of("sets_total");
            const std::uint64_t sets_sampled = count_of("sets_sampled");
            if (sets_sampled == 0 || sets_sampled > sets_total) {
                complain("sampled tree '" + prefix +
                         "': sets_sampled must be in [1, sets_total]");
            }
            // Raw siblings live one level up, in the cache's own
            // stats tree: demand = load + store.
            const std::string cache =
                prefix.substr(0, prefix.size() - sizeof("sampled.") + 1);
            const auto raw_demand = [&counters,
                                     &cache](const char *family) {
                std::uint64_t sum = 0;
                for (const char *type : {"load", "store"}) {
                    const auto it = counters.find(cache + family + "." +
                                                  std::string(type));
                    if (it != counters.end())
                        sum += it->second;
                }
                return sum;
            };
            const std::uint64_t raw_hits = raw_demand("hits");
            const std::uint64_t raw_misses = raw_demand("misses");
            if (count_of("demand_hits") < raw_hits) {
                complain("sampled tree '" + prefix +
                         "': scaled demand_hits below the raw count");
            }
            if (count_of("demand_misses") < raw_misses) {
                complain("sampled tree '" + prefix +
                         "': scaled demand_misses below the raw count");
            }
            if (count_of("demand_accesses") < raw_hits + raw_misses) {
                complain("sampled tree '" + prefix +
                         "': scaled demand_accesses below the raw count");
            }
            const auto mr = gauges.find(prefix + "demand_miss_rate");
            const auto se = gauges.find(prefix + "relative_stderr");
            if (mr != gauges.end() &&
                (mr->second < 0.0 || mr->second > 1.0)) {
                complain("sampled tree '" + prefix +
                         "': demand_miss_rate outside [0, 1]");
            }
            // A per-cell tree carries both gauges or neither; only
            // the counters-only aggregates may omit them.
            if ((mr == gauges.end()) != (se == gauges.end())) {
                complain("sampled tree '" + prefix +
                         "' carries only one of demand_miss_rate / "
                         "relative_stderr");
            }
        }
    }

    // Every "corun.num_cores" counter marks one co-run tree rooted at
    // its prefix; validate that tree's per-core schema.
    const std::string marker = "corun.num_cores";
    for (const auto &[path, num_cores] : counters) {
        if (!endsWith(path, marker))
            continue;
        const std::string prefix =
            path.substr(0, path.size() - marker.size());
        for (std::uint64_t i = 0; i < num_cores; ++i) {
            const std::string want =
                prefix + "core" + std::to_string(i) +
                ".core.instructions";
            if (counters.find(want) == counters.end())
                complain("co-run tree '" + prefix +
                         "' lacks counter '" + want + "'");
        }
        // The per-core LLC slices must sum exactly to the shared
        // totals (policy/prefetcher internals are shared-only and
        // exported once, so they are exempt).
        const std::string shared = prefix + "llc.";
        for (const auto &[spath, svalue] : counters) {
            if (spath.rfind(shared, 0) != 0)
                continue;
            const std::string tail = spath.substr(prefix.size());
            if (tail.find(".policy.") != std::string::npos ||
                tail.find(".prefetcher.") != std::string::npos) {
                continue;
            }
            std::uint64_t sum = 0;
            for (std::uint64_t i = 0; i < num_cores; ++i) {
                const auto it = counters.find(
                    prefix + "core" + std::to_string(i) + "." + tail);
                if (it != counters.end())
                    sum += it->second;
            }
            if (sum != svalue) {
                complain("co-run counter '" + spath +
                         "': per-core slices sum to " +
                         std::to_string(sum) + ", shared total is " +
                         std::to_string(svalue));
            }
        }
    }

    // fig7 (OPT headroom): every "<workload>.belady." tree has an LRU
    // twin. Belady is the offline optimum, so its LLC demand misses
    // can be no more than LRU's, and it must remove at least one miss
    // somewhere, or the figure shows no headroom at all.
    if (doc.name == "fig7") {
        const auto demand_misses = [&counters](const std::string &tree)
            -> std::optional<std::uint64_t> {
            const auto load = counters.find(tree + ".llc.misses.load");
            const auto store = counters.find(tree + ".llc.misses.store");
            if (load == counters.end() || store == counters.end())
                return std::nullopt;
            return load->second + store->second;
        };
        const std::string opt_marker = ".belady.llc.misses.load";
        std::size_t workloads = 0;
        std::size_t with_headroom = 0;
        for (const auto &[path, value] : counters) {
            if (!endsWith(path, opt_marker))
                continue;
            const std::string workload =
                path.substr(0, path.size() - opt_marker.size());
            const auto opt = demand_misses(workload + ".belady");
            const auto lru = demand_misses(workload + ".lru");
            if (!opt || !lru) {
                complain("fig7 workload '" + workload +
                         "' lacks belady or lru LLC miss counters");
                continue;
            }
            ++workloads;
            if (*opt > *lru) {
                complain("fig7 workload '" + workload +
                         "': belady LLC demand misses " +
                         std::to_string(*opt) + " exceed lru's " +
                         std::to_string(*lru));
            }
            with_headroom += *opt < *lru;
        }
        if (workloads == 0) {
            complain("fig7 has no workload with belady and lru trees");
        } else if (with_headroom == 0) {
            complain("fig7: belady removes no LLC demand miss on any "
                     "workload (no OPT headroom)");
        }
    }
    return problems;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s FILE [FILE ...]\n", argv[0]);
        return 1;
    }

    int bad = 0;
    for (int i = 1; i < argc; ++i) {
        const char *file = argv[i];
        auto doc_or = readMetricsJsonFile(file);
        if (!doc_or.ok()) {
            std::fprintf(stderr, "%s: %s\n", file,
                         doc_or.status().message().c_str());
            ++bad;
            continue;
        }
        const MetricsDocument doc = doc_or.take();
        const char *problem = nullptr;
        if (doc.name.empty())
            problem = "empty name";
        else if (!(doc.wallMs >= 0.0) || !std::isfinite(doc.wallMs))
            problem = "wall_ms not a finite non-negative number";
        else if (doc.metrics.counters().empty())
            problem = "no counters";
        if (problem != nullptr) {
            std::fprintf(stderr, "%s: %s\n", file, problem);
            ++bad;
            continue;
        }
        if (const std::string content = contentProblems(doc);
            !content.empty()) {
            std::fprintf(stderr, "%s: %s\n", file, content.c_str());
            ++bad;
            continue;
        }
        std::printf("%s: ok (name=%s, %zu counters, %zu gauges, "
                    "%zu histograms)\n",
                    file, doc.name.c_str(),
                    doc.metrics.counters().size(),
                    doc.metrics.gauges().size(),
                    doc.metrics.histograms().size());
    }
    return bad == 0 ? 0 : 1;
}
