/**
 * @file
 * Instrumented implementations of the six GAP benchmark kernels
 * (Beamer, Asanović & Patterson): BFS, PageRank, Connected Components,
 * Betweenness Centrality, Single-Source Shortest Paths and Triangle
 * Counting.
 *
 * Each kernel is the real algorithm executing over TracedArray views of
 * the CSR structures, so the emitted stream has the genuine data-dependent
 * access pattern: sequential Offset/Neighbour Array scans interleaved
 * with random Property Array accesses indexed by neighbour ids. Static
 * access sites get stable synthetic PCs from a per-workload PcRegion —
 * a handful of memory PCs per kernel, exactly the regime the paper
 * analyses.
 */

#ifndef CACHESCOPE_GRAPH_GAP_KERNELS_HH
#define CACHESCOPE_GRAPH_GAP_KERNELS_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/csr_graph.hh"
#include "trace/workload.hh"

namespace cachescope {

/** The six GAP kernels. */
enum class GapKernel
{
    Bfs,       ///< breadth-first search (top-down, parent array)
    PageRank,  ///< pull-based PageRank
    Cc,        ///< connected components (label propagation)
    Bc,        ///< betweenness centrality (Brandes, sampled sources)
    Sssp,      ///< single-source shortest paths (frontier relaxation)
    Tc,        ///< triangle counting (sorted-list intersection)
};

/** @return the GAP short name ("bfs", "pr", ...). */
const char *gapKernelName(GapKernel kernel);

/** Tunables shared by the kernels. */
struct GapKernelParams
{
    /** Dense workload id selecting the synthetic PC region. */
    std::uint32_t pcWorkloadId = 0;
    /** Seed for source-vertex selection. */
    std::uint64_t seed = 1;
    /** Upper bound on kernel restarts while the sink wants more. */
    std::uint32_t maxRepeats = 1024;
    /** PageRank iterations per repeat. */
    std::uint32_t pagerankIters = 10;
    /** ALU instructions modelled per edge traversal (mix calibration). */
    std::uint32_t aluPerEdge = 10;
    /** ALU instructions modelled per vertex visit. */
    std::uint32_t aluPerVertex = 6;
    /**
     * Run BFS direction-optimizing (Beamer's top-down/bottom-up
     * switching), as the real GAP bfs does. Off by default so the
     * headline experiments use the simpler, more analysable top-down
     * traversal; the difference is an experiment of its own.
     */
    bool directionOptimizingBfs = false;
    /** Frontier-edges fraction that triggers the bottom-up switch. */
    std::uint32_t bfsAlpha = 15;
    /** Frontier-size fraction that triggers the switch back. */
    std::uint32_t bfsBeta = 18;
};

/**
 * A runnable (kernel, graph) pair.
 *
 * The graph is shared: a suite builds each input once and every kernel
 * workload references it. run() is deterministic for a fixed
 * construction, as Workload requires, and may be called from several
 * threads at once.
 */
class GapWorkload : public Workload
{
  public:
    GapWorkload(GapKernel kernel, std::string graph_tag,
                std::shared_ptr<const CsrGraph> graph,
                GapKernelParams params);

    const std::string &name() const override { return displayName; }
    void run(InstructionSink &sink) override;

    /**
     * PageRank's iteration begins with a sequential O(V) contribution
     * pass; measurement should start inside the edge-dominated gather
     * phase, which is where real PageRank executions spend >95 % of
     * their instructions.
     */
    InstCount warmupHint() const override;

    GapKernel kernel() const { return kern; }
    const CsrGraph &graph() const { return *g; }

  private:
    /** @return the NA with each adjacency list sorted (TC), built on
     *  first use and kept for every later run. */
    const std::vector<NodeId> &sortedNeighbors();

    GapKernel kern;
    std::string displayName;
    std::shared_ptr<const CsrGraph> g;
    GapKernelParams params;
    std::once_flag sortedOnce;
    std::vector<NodeId> sortedNeigh;
};

} // namespace cachescope

#endif // CACHESCOPE_GRAPH_GAP_KERNELS_HH
