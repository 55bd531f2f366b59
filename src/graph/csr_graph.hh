/**
 * @file
 * Compressed Sparse Row graph representation — the data layout whose
 * irregular traversal behaviour the paper characterizes.
 *
 * The CSR encoding stores the adjacency matrix as two arrays: the
 * Offset Array (OA, one entry per vertex plus one) and the Neighbours
 * Array (NA, one entry per edge). Property Arrays (PA) carrying
 * per-vertex algorithm state are owned by the kernels.
 */

#ifndef CACHESCOPE_GRAPH_CSR_GRAPH_HH
#define CACHESCOPE_GRAPH_CSR_GRAPH_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace cachescope {

using NodeId = std::uint32_t;
using EdgeId = std::uint64_t;

/** A directed edge with an integral weight (1 for unweighted use). */
struct WeightedEdge
{
    NodeId src;
    NodeId dst;
    std::uint32_t weight = 1;
};

/**
 * Immutable CSR graph. Build via fromEdges() or a generator.
 */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Build from an edge list.
     *
     * @param num_nodes vertex count (ids must be < num_nodes).
     * @param edges edge list; duplicates and self-loops are kept
     *              (GAP's generators produce them too).
     * @param symmetrize add the reverse of every edge (undirected use).
     */
    static CsrGraph fromEdges(NodeId num_nodes,
                              std::vector<WeightedEdge> edges,
                              bool symmetrize);

    NodeId numNodes() const { return n; }
    EdgeId numEdges() const { return static_cast<EdgeId>(neigh.size()); }

    NodeId
    degree(NodeId v) const
    {
        return static_cast<NodeId>(offsets[v + 1] - offsets[v]);
    }

    /** Out-neighbour ids of @p v. */
    std::span<const NodeId>
    neighbors(NodeId v) const
    {
        return {neigh.data() + offsets[v], offsets[v + 1] - offsets[v]};
    }

    /** Edge weights aligned with neighbors(). */
    std::span<const std::uint32_t>
    weights(NodeId v) const
    {
        return {wts.data() + offsets[v], offsets[v + 1] - offsets[v]};
    }

    /** Raw arrays, exposed so kernels can trace them in place. */
    const std::vector<EdgeId> &offsetArray() const { return offsets; }
    const std::vector<NodeId> &neighborArray() const { return neigh; }
    const std::vector<std::uint32_t> &weightArray() const { return wts; }

    /** @return the transpose (CSC view of the same adjacency matrix). */
    CsrGraph transpose() const;

  private:
    NodeId n = 0;
    std::vector<EdgeId> offsets;        ///< OA, size n + 1
    std::vector<NodeId> neigh;          ///< NA, size numEdges
    std::vector<std::uint32_t> wts;     ///< per-edge weights
};

} // namespace cachescope

#endif // CACHESCOPE_GRAPH_CSR_GRAPH_HH
