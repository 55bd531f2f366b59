/**
 * @file
 * cachescope-fuzz — the differential-testing / trace-fuzzing front end.
 *
 * Draws seeds, generates adversarial access streams, and checks the
 * difftest invariant families (reference-model agreement, OPT
 * dominance, trace round-trip fidelity, metrics conservation, serial
 * vs parallel sweep equality) on each. The first violation stops the
 * run: the triggering stream is optionally minimized and written out
 * as a repro bundle (trace + config + expected/actual metric trees)
 * that `cachescope replay` and the difftest unit tests can consume.
 *
 * Flags:
 *   --seed N           first seed (default 1)
 *   --runs N           seeds to try (default 100)
 *   --time-budget-s N  stop drawing new seeds after N seconds (0 = off)
 *   --minimize         shrink the failing stream before writing it
 *   --out-dir D        scratch + repro-bundle directory (default ".")
 *   --length N         memory accesses per stream (default 8192)
 *   --no-sweep         skip the sweep-equality family (fastest)
 *   --no-conservation  skip the full-simulator conservation family
 *   --inject-bug       test-only: break LRU by one way; the run must
 *                      then fail with a model_agreement:lru violation
 *
 * Exit codes: 0 all seeds clean; 1 an invariant violation was found
 * (repro bundle written); 2 infrastructure or usage error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "difftest/difftest.hh"
#include "stats/metrics.hh"
#include "trace/trace_io.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace cachescope;
using namespace cachescope::difftest;

namespace {

/** Flags cachescope-fuzz understands; typos must not silently run. */
constexpr const char *kKnownFlags[] = {
    "seed",     "runs",     "time-budget-s",   "minimize",   "out-dir",
    "length",   "no-sweep", "no-conservation", "inject-bug",
};

/** Tiny flag parser: --key value pairs plus boolean --key. */
class Args
{
  public:
    // GCC 12 reports a spurious -Wrestrict (PR105329) when it inlines
    // these map inserts into main; the copies are tiny and disjoint.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            if (std::strncmp(argv[i], "--", 2) != 0)
                fatal("unexpected argument '%s'", argv[i]);
            const std::string key(argv[i] + 2);
            if (std::find_if(std::begin(kKnownFlags), std::end(kKnownFlags),
                             [&key](const char *f) { return key == f; }) ==
                std::end(kKnownFlags)) {
                fatal("unknown flag '--%s' (see --help)", key.c_str());
            }
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
                values.insert_or_assign(key, argv[++i]);
            } else {
                values.insert_or_assign(key, "1");
            }
        }
    }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }

    std::uint64_t
    getU64(const std::string &key, std::uint64_t fallback) const
    {
        auto it = values.find(key);
        if (it == values.end())
            return fallback;
        auto parsed = parseU64(it->second);
        if (!parsed.ok()) {
            fatal("flag --%s: %s", key.c_str(),
                  parsed.status().message().c_str());
        }
        return parsed.take();
    }

    bool has(const std::string &key) const { return values.count(key); }

  private:
    std::map<std::string, std::string> values;
};

void
usage()
{
    std::puts(
        "usage: cachescope-fuzz [--seed N] [--runs N] [--time-budget-s N]\n"
        "                       [--minimize] [--out-dir D] [--length N]\n"
        "                       [--no-sweep] [--no-conservation]\n"
        "                       [--inject-bug]\n"
        "Differentially fuzz the cache simulator against its reference\n"
        "models. Exit 0 = clean, 1 = violation (repro bundle written),\n"
        "2 = infrastructure error.");
}

/** Write a failing stream + metadata as a replayable repro bundle. */
int
writeBundle(const std::string &out_dir, const DiffFailure &failure,
            const std::vector<TraceRecord> &stream,
            std::size_t original_records, std::size_t evaluations,
            const DiffOptions &opts)
{
    namespace fs = std::filesystem;
    const std::string dir =
        out_dir + "/repro_seed" + std::to_string(failure.seed);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "cachescope-fuzz: cannot create %s: %s\n",
                     dir.c_str(), ec.message().c_str());
        return 2;
    }

    // The stream, as a trace replayable by `cachescope replay`.
    {
        auto writer = TraceWriter::open(dir + "/stream.trace");
        if (!writer.ok()) {
            std::fprintf(stderr, "cachescope-fuzz: %s\n",
                         writer.status().toString().c_str());
            return 2;
        }
        for (const TraceRecord &rec : stream)
            (*writer)->onInstruction(rec);
        const Status st = (*writer)->finish();
        if (!st.ok()) {
            std::fprintf(stderr, "cachescope-fuzz: %s\n",
                         st.toString().c_str());
            return 2;
        }
    }

    // Expected vs actual metric trees.
    Status st = writeMetricsJsonFile(
        MetricsDocument{failure.invariant, 0.0, failure.expected},
        dir + "/expected.json");
    if (st.ok()) {
        st = writeMetricsJsonFile(
            MetricsDocument{failure.invariant, 0.0, failure.actual},
            dir + "/actual.json");
    }
    if (!st.ok()) {
        std::fprintf(stderr, "cachescope-fuzz: %s\n",
                     st.toString().c_str());
        return 2;
    }

    // Human-readable reproduction recipe.
    std::FILE *cfg = std::fopen((dir + "/config.txt").c_str(), "w");
    if (!cfg) {
        std::fprintf(stderr, "cachescope-fuzz: cannot write %s/config.txt\n",
                     dir.c_str());
        return 2;
    }
    std::fprintf(cfg,
                 "seed %llu\n"
                 "stream_kind %s\n"
                 "invariant %s\n"
                 "detail %s\n"
                 "geometry sets=%u ways=%u block=%u\n"
                 "stream_records %zu\n"
                 "original_records %zu\n"
                 "minimizer_evaluations %zu\n"
                 "length_flag %zu\n",
                 static_cast<unsigned long long>(failure.seed),
                 streamKindName(failure.kind), failure.invariant.c_str(),
                 failure.detail.c_str(), opts.geometry.numSets,
                 opts.geometry.numWays, opts.geometry.blockBytes,
                 stream.size(), original_records, evaluations,
                 opts.memoryAccesses);
    std::fclose(cfg);

    std::fprintf(stderr, "cachescope-fuzz: repro bundle written to %s\n",
                 dir.c_str());
    return 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && (!std::strcmp(argv[1], "--help") ||
                     !std::strcmp(argv[1], "-h"))) {
        usage();
        return 0;
    }
    const Args args(argc, argv, 1);

    const std::uint64_t first_seed = args.getU64("seed", 1);
    const std::uint64_t runs = args.getU64("runs", 100);
    const std::uint64_t budget_s = args.getU64("time-budget-s", 0);
    const std::string out_dir = args.get("out-dir", ".");

    DiffOptions opts;
    opts.memoryAccesses =
        static_cast<std::size_t>(args.getU64("length", 8192));
    opts.scratchDir = out_dir;
    opts.checkSweep = !args.has("no-sweep");
    opts.checkConservation = !args.has("no-conservation");
    opts.injectOffByOneLru = args.has("inject-bug");

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "cachescope-fuzz: cannot create %s: %s\n",
                     out_dir.c_str(), ec.message().c_str());
        return 2;
    }

    auto driver = DifferentialDriver::create(opts);
    if (!driver.ok()) {
        std::fprintf(stderr, "cachescope-fuzz: %s\n",
                     driver.status().toString().c_str());
        return 2;
    }

    const auto start = std::chrono::steady_clock::now();
    auto elapsed_s = [&start] {
        return std::chrono::duration_cast<std::chrono::seconds>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    std::uint64_t checked = 0;
    for (std::uint64_t i = 0; i < runs; ++i) {
        if (budget_s != 0 &&
            elapsed_s() >= static_cast<long long>(budget_s)) {
            std::fprintf(stderr,
                         "cachescope-fuzz: time budget (%llus) reached "
                         "after %llu seeds\n",
                         static_cast<unsigned long long>(budget_s),
                         static_cast<unsigned long long>(checked));
            break;
        }
        const std::uint64_t seed = first_seed + i;
        auto failures = (*driver)->runSeed(seed);
        if (!failures.ok()) {
            std::fprintf(stderr, "cachescope-fuzz: %s\n",
                         failures.status().toString().c_str());
            return 2;
        }
        ++checked;
        if ((checked % 25) == 0) {
            std::fprintf(stderr,
                         "cachescope-fuzz: %llu/%llu seeds clean\n",
                         static_cast<unsigned long long>(checked),
                         static_cast<unsigned long long>(runs));
        }
        if (failures->empty())
            continue;

        const DiffFailure &failure = failures->front();
        std::fprintf(stderr,
                     "cachescope-fuzz: seed %llu (%s stream) violates "
                     "%s\n  %s\n",
                     static_cast<unsigned long long>(seed),
                     streamKindName(failure.kind),
                     failure.invariant.c_str(), failure.detail.c_str());

        std::vector<TraceRecord> stream = (*driver)->streamForSeed(seed);
        const std::size_t original = stream.size();
        std::size_t evaluations = 0;
        if (args.has("minimize")) {
            // Minimization replays the predicate many times; skip the
            // expensive whole-simulator families while shrinking.
            auto shrunk = (*driver)->minimize(stream, failure);
            evaluations = shrunk.evaluations;
            std::fprintf(
                stderr,
                "cachescope-fuzz: minimized %zu -> %zu records in %zu "
                "evaluations\n",
                original, shrunk.stream.size(), shrunk.evaluations);
            stream = std::move(shrunk.stream);
        }
        return writeBundle(out_dir, failure, stream, original, evaluations,
                           opts);
    }

    std::printf("cachescope-fuzz: %llu seeds checked, zero violations\n",
                static_cast<unsigned long long>(checked));
    return 0;
}
