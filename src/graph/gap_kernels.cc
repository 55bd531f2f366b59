/**
 * @file
 * Instrumented GAP kernel implementations.
 *
 * Common shape: CSR arrays (OA/NA and, for SSSP, weights) are traced
 * read-only views over the shared graph, so a run copies none of it;
 * property arrays and frontier queues are owning TracedArrays. Setup
 * work that a real benchmark would do outside the region of interest
 * (initializing property arrays) uses the untraced raw accessors; TC's
 * sorted adjacency is built once per workload, not per run.
 *
 * Every inner loop polls sink.wantsMore() at a coarse granularity so a
 * simulator with an instruction budget stops the workload early.
 */

#include "graph/gap_kernels.hh"

#include <algorithm>
#include <limits>
#include <span>

#include "trace/pc_site.hh"
#include "trace/traced_memory.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace cachescope {

namespace {

/** Traced read-only views of a CSR graph's arrays. */
struct TracedCsr
{
    TracedArray<const EdgeId> oa;
    TracedArray<const NodeId> na;

    /** @p neighbors replaces the graph's own NA (TC's sorted copy). */
    TracedCsr(const CsrGraph &g, std::span<const NodeId> neighbors,
              AddressSpace &space, InstructionSink &sink)
        : oa(g.offsetArray(), space, sink), na(neighbors, space, sink)
    {}

    TracedCsr(const CsrGraph &g, AddressSpace &space, InstructionSink &sink)
        : TracedCsr(g, g.neighborArray(), space, sink)
    {}
};

/** Pick a source vertex with non-zero degree (few retries, then 0). */
NodeId
pickSource(const CsrGraph &g, Rng &rng)
{
    for (int tries = 0; tries < 32; ++tries) {
        const auto v = static_cast<NodeId>(rng.nextBounded(g.numNodes()));
        if (g.degree(v) > 0)
            return v;
    }
    return 0;
}

// ------------------------------------------------------------------ BFS --

void
runBfs(const CsrGraph &g, InstructionSink &sink, const GapKernelParams &p)
{
    const NodeId n = g.numNodes();
    AddressSpace space;
    TracedCsr csr(g, space, sink);
    TracedArray<std::int64_t> parent(n, space, sink, -1);
    TracedArray<NodeId> queue(n, space, sink, 0);
    InstructionMix mix(sink);

    PcRegion region(p.pcWorkloadId);
    const Pc pc_pop = region.allocate();
    const Pc pc_oa0 = region.allocate();
    const Pc pc_oa1 = region.allocate();
    const Pc pc_na = region.allocate();
    const Pc pc_parent_ld = region.allocate();
    const Pc pc_parent_st = region.allocate();
    const Pc pc_push = region.allocate();
    const Pc pc_alu_v = region.allocate();
    const Pc pc_alu_e = region.allocate();
    const Pc pc_br = region.allocate();

    Rng rng(p.seed);
    for (std::uint32_t rep = 0; rep < p.maxRepeats && sink.wantsMore();
         ++rep) {
        for (NodeId v = 0; v < n; ++v)
            parent.raw(v) = -1;
        const NodeId source = pickSource(g, rng);
        parent.store(source, source, pc_parent_st);
        queue.store(0, source, pc_push);
        NodeId head = 0, tail = 1;

        while (head < tail && sink.wantsMore()) {
            const NodeId u = queue.load(head++, pc_pop);
            mix.alu(pc_alu_v, p.aluPerVertex);
            const EdgeId off0 = csr.oa.load(u, pc_oa0);
            const EdgeId off1 = csr.oa.load(u + 1, pc_oa1);
            for (EdgeId e = off0; e < off1; ++e) {
                const NodeId v = csr.na.load(e, pc_na);
                mix.alu(pc_alu_e, p.aluPerEdge);
                mix.branch(pc_br);
                if (parent.load(v, pc_parent_ld) < 0) {
                    parent.store(v, static_cast<std::int64_t>(u),
                                 pc_parent_st);
                    queue.store(tail++, v, pc_push);
                }
                if (((e - off0) & 1023) == 1023 && !sink.wantsMore())
                    return;
            }
        }
    }
}

// ------------------------------------------- Direction-optimizing BFS --

/**
 * Beamer's direction-optimizing BFS: top-down edge expansion while the
 * frontier is small, switching to bottom-up parent search (every
 * unvisited vertex scans its neighbours for a frontier member) when
 * the frontier's out-edge count crosses edges/alpha, and back when the
 * frontier shrinks below n/beta. The bottom-up phase is what makes
 * real GAP BFS traffic distinctive: a sequential sweep of *all*
 * vertices with a random bitmap probe per edge.
 */
void
runBfsDirectionOptimizing(const CsrGraph &g, InstructionSink &sink,
                          const GapKernelParams &p)
{
    CS_ASSERT(p.bfsAlpha > 0 && p.bfsBeta > 0,
              "direction-optimizing thresholds must be positive");
    const NodeId n = g.numNodes();
    AddressSpace space;
    TracedCsr csr(g, space, sink);
    TracedArray<std::int64_t> parent(n, space, sink, -1);
    TracedArray<std::uint8_t> front(n, space, sink, 0);
    TracedArray<std::uint8_t> next_front(n, space, sink, 0);
    TracedArray<NodeId> queue(n, space, sink, 0);
    TracedArray<NodeId> next_queue(n, space, sink, 0);
    InstructionMix mix(sink);

    PcRegion region(p.pcWorkloadId);
    const Pc pc_pop = region.allocate();
    const Pc pc_oa0 = region.allocate();
    const Pc pc_oa1 = region.allocate();
    const Pc pc_na = region.allocate();
    const Pc pc_parent_ld = region.allocate();
    const Pc pc_parent_st = region.allocate();
    const Pc pc_front_ld = region.allocate();
    const Pc pc_front_st = region.allocate();
    const Pc pc_push = region.allocate();
    const Pc pc_alu_v = region.allocate();
    const Pc pc_alu_e = region.allocate();
    const Pc pc_br = region.allocate();

    Rng rng(p.seed);
    for (std::uint32_t rep = 0; rep < p.maxRepeats && sink.wantsMore();
         ++rep) {
        for (NodeId v = 0; v < n; ++v) {
            parent.raw(v) = -1;
            front.raw(v) = 0;
            next_front.raw(v) = 0;
        }
        const NodeId source = pickSource(g, rng);
        parent.store(source, source, pc_parent_st);
        front.store(source, 1, pc_front_st);
        queue.store(0, source, pc_push);
        NodeId frontier_size = 1;
        EdgeId frontier_edges = g.degree(source);
        bool top_down = true;
        std::uint64_t ops = 0;

        while (frontier_size > 0 && sink.wantsMore()) {
            NodeId next_size = 0;
            EdgeId next_edges = 0;

            if (top_down) {
                // Expand the queued frontier edge by edge.
                for (NodeId i = 0; i < frontier_size; ++i) {
                    const NodeId u = queue.load(i, pc_pop);
                    mix.alu(pc_alu_v, p.aluPerVertex);
                    const EdgeId off0 = csr.oa.load(u, pc_oa0);
                    const EdgeId off1 = csr.oa.load(u + 1, pc_oa1);
                    for (EdgeId e = off0; e < off1; ++e) {
                        const NodeId v = csr.na.load(e, pc_na);
                        mix.alu(pc_alu_e, p.aluPerEdge);
                        mix.branch(pc_br);
                        if (parent.load(v, pc_parent_ld) < 0) {
                            parent.store(v, static_cast<std::int64_t>(u),
                                         pc_parent_st);
                            next_front.store(v, 1, pc_front_st);
                            next_queue.store(next_size++, v, pc_push);
                            next_edges += g.degree(v);
                        }
                        if ((++ops & 1023) == 0 && !sink.wantsMore())
                            return;
                    }
                }
                for (NodeId i = 0; i < next_size; ++i)
                    queue.raw(i) = next_queue.raw(i);
            } else {
                // Bottom-up: every unvisited vertex probes its
                // neighbours for a frontier member.
                for (NodeId v = 0; v < n; ++v) {
                    mix.alu(pc_alu_v, p.aluPerVertex);
                    mix.branch(pc_br);
                    if ((++ops & 1023) == 0 && !sink.wantsMore())
                        return;
                    if (parent.load(v, pc_parent_ld) >= 0)
                        continue;
                    const EdgeId off0 = csr.oa.load(v, pc_oa0);
                    const EdgeId off1 = csr.oa.load(v + 1, pc_oa1);
                    for (EdgeId e = off0; e < off1; ++e) {
                        const NodeId u = csr.na.load(e, pc_na);
                        mix.alu(pc_alu_e, p.aluPerEdge);
                        mix.branch(pc_br);
                        if ((++ops & 1023) == 0 && !sink.wantsMore())
                            return;
                        if (front.load(u, pc_front_ld)) {
                            parent.store(v, static_cast<std::int64_t>(u),
                                         pc_parent_st);
                            next_front.store(v, 1, pc_front_st);
                            ++next_size;
                            next_edges += g.degree(v);
                            break;
                        }
                    }
                }
            }

            // Commit the next frontier: swap bitmaps (raw; the traced
            // stores above already accounted for the writes) and pick
            // the traversal direction for the next level.
            for (NodeId v = 0; v < n; ++v) {
                front.raw(v) = next_front.raw(v);
                next_front.raw(v) = 0;
            }
            frontier_size = next_size;
            frontier_edges = next_edges;
            const bool go_bottom_up =
                frontier_edges > g.numEdges() / p.bfsAlpha;
            const bool go_top_down = frontier_size < n / p.bfsBeta;
            if (top_down && go_bottom_up)
                top_down = false;
            else if (!top_down && go_top_down)
                top_down = true;
            // Bottom-up levels do not maintain the queue; rebuild it
            // (untraced bookkeeping) if we are returning to top-down.
            if (top_down) {
                NodeId qi = 0;
                for (NodeId v = 0; v < n && qi < frontier_size; ++v)
                    if (front.raw(v))
                        queue.raw(qi++) = v;
            }
        }
    }
}

// ------------------------------------------------------------- PageRank --

void
runPageRank(const CsrGraph &g, InstructionSink &sink,
            const GapKernelParams &p)
{
    const NodeId n = g.numNodes();
    constexpr double kDamping = 0.85;
    AddressSpace space;
    TracedCsr csr(g, space, sink);
    TracedArray<double> scores(n, space, sink, 1.0 / n);
    TracedArray<double> contrib(n, space, sink, 0.0);
    InstructionMix mix(sink);

    PcRegion region(p.pcWorkloadId);
    const Pc pc_score_ld = region.allocate();
    const Pc pc_contrib_st = region.allocate();
    const Pc pc_oa0 = region.allocate();
    const Pc pc_oa1 = region.allocate();
    const Pc pc_na = region.allocate();
    const Pc pc_contrib_ld = region.allocate();
    const Pc pc_score_st = region.allocate();
    const Pc pc_alu_v = region.allocate();
    const Pc pc_alu_e = region.allocate();
    const Pc pc_br = region.allocate();

    const double base_score = (1.0 - kDamping) / n;
    std::uint64_t ops = 0;
    for (std::uint32_t rep = 0; rep < p.maxRepeats && sink.wantsMore();
         ++rep) {
        for (std::uint32_t iter = 0;
             iter < p.pagerankIters && sink.wantsMore(); ++iter) {
            // Phase 1: per-vertex outgoing contribution (sequential).
            for (NodeId u = 0; u < n; ++u) {
                const NodeId deg = g.degree(u);
                mix.alu(pc_alu_v, p.aluPerVertex);
                const double s = scores.load(u, pc_score_ld);
                contrib.store(u, s / std::max<NodeId>(deg, 1),
                              pc_contrib_st);
                if ((++ops & 255) == 0 && !sink.wantsMore())
                    return;
            }
            // Phase 2: pull contributions along in-edges (the graph is
            // symmetric, so CSR doubles as CSC).
            for (NodeId v = 0; v < n; ++v) {
                const EdgeId off0 = csr.oa.load(v, pc_oa0);
                const EdgeId off1 = csr.oa.load(v + 1, pc_oa1);
                double incoming = 0.0;
                for (EdgeId e = off0; e < off1; ++e) {
                    const NodeId u = csr.na.load(e, pc_na);
                    incoming += contrib.load(u, pc_contrib_ld);
                    mix.alu(pc_alu_e, p.aluPerEdge);
                    mix.branch(pc_br);
                    if ((++ops & 255) == 0 && !sink.wantsMore())
                        return;
                }
                scores.store(v, base_score + kDamping * incoming,
                             pc_score_st);
            }
        }
    }
}

// ------------------------------------------------- Connected Components --

void
runCc(const CsrGraph &g, InstructionSink &sink, const GapKernelParams &p)
{
    const NodeId n = g.numNodes();
    AddressSpace space;
    TracedCsr csr(g, space, sink);
    TracedArray<NodeId> comp(n, space, sink, 0);
    InstructionMix mix(sink);

    PcRegion region(p.pcWorkloadId);
    const Pc pc_comp_u = region.allocate();
    const Pc pc_oa0 = region.allocate();
    const Pc pc_oa1 = region.allocate();
    const Pc pc_na = region.allocate();
    const Pc pc_comp_v = region.allocate();
    const Pc pc_comp_st = region.allocate();
    const Pc pc_alu_v = region.allocate();
    const Pc pc_alu_e = region.allocate();
    const Pc pc_br = region.allocate();

    for (std::uint32_t rep = 0; rep < p.maxRepeats && sink.wantsMore();
         ++rep) {
        for (NodeId v = 0; v < n; ++v)
            comp.raw(v) = v;
        bool changed = true;
        std::uint64_t ops = 0;
        while (changed && sink.wantsMore()) {
            changed = false;
            for (NodeId u = 0; u < n; ++u) {
                NodeId cu = comp.load(u, pc_comp_u);
                mix.alu(pc_alu_v, p.aluPerVertex);
                bool u_changed = false;
                const EdgeId off0 = csr.oa.load(u, pc_oa0);
                const EdgeId off1 = csr.oa.load(u + 1, pc_oa1);
                for (EdgeId e = off0; e < off1; ++e) {
                    const NodeId v = csr.na.load(e, pc_na);
                    const NodeId cv = comp.load(v, pc_comp_v);
                    mix.alu(pc_alu_e, p.aluPerEdge);
                    mix.branch(pc_br);
                    if (cv < cu) {
                        cu = cv;
                        u_changed = true;
                    }
                    if ((++ops & 255) == 0 && !sink.wantsMore())
                        return;
                }
                if (u_changed) {
                    comp.store(u, cu, pc_comp_st);
                    changed = true;
                }
            }
        }
    }
}

// ------------------------------------------------------------------- BC --

void
runBc(const CsrGraph &g, InstructionSink &sink, const GapKernelParams &p)
{
    const NodeId n = g.numNodes();
    AddressSpace space;
    TracedCsr csr(g, space, sink);
    TracedArray<std::int32_t> depth(n, space, sink, -1);
    TracedArray<double> sigma(n, space, sink, 0.0);
    TracedArray<double> delta(n, space, sink, 0.0);
    TracedArray<double> centrality(n, space, sink, 0.0);
    TracedArray<NodeId> order(n, space, sink, 0);
    InstructionMix mix(sink);

    PcRegion region(p.pcWorkloadId);
    const Pc pc_pop = region.allocate();
    const Pc pc_oa0 = region.allocate();
    const Pc pc_oa1 = region.allocate();
    const Pc pc_na = region.allocate();
    const Pc pc_depth_ld = region.allocate();
    const Pc pc_depth_st = region.allocate();
    const Pc pc_sigma_ld = region.allocate();
    const Pc pc_sigma_st = region.allocate();
    const Pc pc_delta_ld = region.allocate();
    const Pc pc_delta_st = region.allocate();
    const Pc pc_bc_st = region.allocate();
    const Pc pc_push = region.allocate();
    const Pc pc_alu_v = region.allocate();
    const Pc pc_alu_e = region.allocate();
    const Pc pc_br = region.allocate();

    Rng rng(p.seed);
    for (std::uint32_t rep = 0; rep < p.maxRepeats && sink.wantsMore();
         ++rep) {
        for (NodeId v = 0; v < n; ++v) {
            depth.raw(v) = -1;
            sigma.raw(v) = 0.0;
            delta.raw(v) = 0.0;
        }
        const NodeId source = pickSource(g, rng);
        depth.store(source, 0, pc_depth_st);
        sigma.store(source, 1.0, pc_sigma_st);
        order.store(0, source, pc_push);
        NodeId head = 0, tail = 1;

        // Forward phase: BFS recording visit order and path counts.
        while (head < tail && sink.wantsMore()) {
            const NodeId u = order.load(head++, pc_pop);
            mix.alu(pc_alu_v, p.aluPerVertex);
            const std::int32_t du = depth.load(u, pc_depth_ld);
            const double su = sigma.load(u, pc_sigma_ld);
            const EdgeId off0 = csr.oa.load(u, pc_oa0);
            const EdgeId off1 = csr.oa.load(u + 1, pc_oa1);
            for (EdgeId e = off0; e < off1; ++e) {
                const NodeId v = csr.na.load(e, pc_na);
                mix.alu(pc_alu_e, p.aluPerEdge);
                mix.branch(pc_br);
                const std::int32_t dv = depth.load(v, pc_depth_ld);
                if (dv < 0) {
                    depth.store(v, du + 1, pc_depth_st);
                    sigma.store(v, su, pc_sigma_st);
                    order.store(tail++, v, pc_push);
                } else if (dv == du + 1) {
                    sigma.store(v, sigma.load(v, pc_sigma_ld) + su,
                                pc_sigma_st);
                }
                if (((e - off0) & 1023) == 1023 && !sink.wantsMore())
                    return;
            }
        }

        // Backward phase: dependency accumulation in reverse BFS order.
        for (NodeId i = tail; i-- > 0 && sink.wantsMore();) {
            const NodeId w = order.load(i, pc_pop);
            mix.alu(pc_alu_v, p.aluPerVertex);
            const std::int32_t dw = depth.load(w, pc_depth_ld);
            const double sw = sigma.load(w, pc_sigma_ld);
            const double coeff = (1.0 + delta.load(w, pc_delta_ld)) /
                                 std::max(sw, 1.0);
            const EdgeId off0 = csr.oa.load(w, pc_oa0);
            const EdgeId off1 = csr.oa.load(w + 1, pc_oa1);
            for (EdgeId e = off0; e < off1; ++e) {
                const NodeId v = csr.na.load(e, pc_na);
                mix.alu(pc_alu_e, p.aluPerEdge);
                mix.branch(pc_br);
                if (depth.load(v, pc_depth_ld) == dw - 1) {
                    const double sv = sigma.load(v, pc_sigma_ld);
                    delta.store(v, delta.load(v, pc_delta_ld) + sv * coeff,
                                pc_delta_st);
                }
                if (((e - off0) & 1023) == 1023 && !sink.wantsMore())
                    return;
            }
            centrality.store(w, centrality.load(w, pc_delta_ld) +
                             delta.load(w, pc_delta_ld), pc_bc_st);
        }
    }
}

// ----------------------------------------------------------------- SSSP --

void
runSssp(const CsrGraph &g, InstructionSink &sink, const GapKernelParams &p)
{
    const NodeId n = g.numNodes();
    constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
    AddressSpace space;
    TracedCsr csr(g, space, sink);
    TracedArray<const std::uint32_t> wt(g.weightArray(), space, sink);
    TracedArray<std::uint32_t> dist(n, space, sink, kInf);
    TracedArray<std::uint8_t> pending(n, space, sink, 0);
    TracedArray<NodeId> curr(n, space, sink, 0);
    TracedArray<NodeId> next(n, space, sink, 0);
    InstructionMix mix(sink);

    PcRegion region(p.pcWorkloadId);
    const Pc pc_pop = region.allocate();
    const Pc pc_oa0 = region.allocate();
    const Pc pc_oa1 = region.allocate();
    const Pc pc_na = region.allocate();
    const Pc pc_wt = region.allocate();
    const Pc pc_dist_u = region.allocate();
    const Pc pc_dist_v = region.allocate();
    const Pc pc_dist_st = region.allocate();
    const Pc pc_pend_ld = region.allocate();
    const Pc pc_pend_st = region.allocate();
    const Pc pc_push = region.allocate();
    const Pc pc_alu_v = region.allocate();
    const Pc pc_alu_e = region.allocate();
    const Pc pc_br = region.allocate();

    Rng rng(p.seed);
    for (std::uint32_t rep = 0; rep < p.maxRepeats && sink.wantsMore();
         ++rep) {
        for (NodeId v = 0; v < n; ++v) {
            dist.raw(v) = kInf;
            pending.raw(v) = 0;
        }
        const NodeId source = pickSource(g, rng);
        dist.store(source, 0, pc_dist_st);
        curr.store(0, source, pc_push);
        NodeId curr_size = 1;

        // Frontier-based Bellman-Ford relaxation: each round relaxes
        // the out-edges of every vertex whose distance improved last
        // round (GAP's delta-stepping degenerates to this shape for a
        // single bucket; the memory behaviour is equivalent).
        while (curr_size > 0 && sink.wantsMore()) {
            NodeId next_size = 0;
            for (NodeId i = 0; i < curr_size; ++i) {
                if ((i & 1023) == 1023 && !sink.wantsMore())
                    return;
                const NodeId u = curr.load(i, pc_pop);
                pending.store(u, 0, pc_pend_st);
                mix.alu(pc_alu_v, p.aluPerVertex);
                const std::uint32_t du = dist.load(u, pc_dist_u);
                const EdgeId off0 = csr.oa.load(u, pc_oa0);
                const EdgeId off1 = csr.oa.load(u + 1, pc_oa1);
                for (EdgeId e = off0; e < off1; ++e) {
                    const NodeId v = csr.na.load(e, pc_na);
                    const std::uint32_t w = wt.load(e, pc_wt);
                    mix.alu(pc_alu_e, p.aluPerEdge);
                    mix.branch(pc_br);
                    const std::uint32_t nd = du + w;
                    if (nd < dist.load(v, pc_dist_v)) {
                        dist.store(v, nd, pc_dist_st);
                        if (!pending.load(v, pc_pend_ld) &&
                            next_size < n) {
                            pending.store(v, 1, pc_pend_st);
                            next.store(next_size++, v, pc_push);
                        }
                    }
                    if (((e - off0) & 1023) == 1023 && !sink.wantsMore())
                        return;
                }
            }
            // Swap frontiers (raw copy; the queue arrays alternate).
            for (NodeId i = 0; i < next_size; ++i)
                curr.raw(i) = next.raw(i);
            curr_size = next_size;
        }
    }
}

// ------------------------------------------------------------------- TC --

/** @p sorted_na is the NA with every adjacency list sorted. */
void
runTc(const CsrGraph &g, std::span<const NodeId> sorted_na,
      InstructionSink &sink, const GapKernelParams &p)
{
    const NodeId n = g.numNodes();
    AddressSpace space;
    TracedCsr csr(g, sorted_na, space, sink);
    InstructionMix mix(sink);

    PcRegion region(p.pcWorkloadId);
    const Pc pc_oa0 = region.allocate();
    const Pc pc_oa1 = region.allocate();
    const Pc pc_na_u = region.allocate();
    const Pc pc_na_merge_a = region.allocate();
    const Pc pc_na_merge_b = region.allocate();
    const Pc pc_alu_v = region.allocate();
    const Pc pc_alu_e = region.allocate();
    const Pc pc_br = region.allocate();

    std::uint64_t triangles = 0;
    for (std::uint32_t rep = 0; rep < p.maxRepeats && sink.wantsMore();
         ++rep) {
        for (NodeId u = 0; u < n && sink.wantsMore(); ++u) {
            mix.alu(pc_alu_v, p.aluPerVertex);
            const EdgeId u0 = csr.oa.load(u, pc_oa0);
            const EdgeId u1 = csr.oa.load(u + 1, pc_oa1);
            for (EdgeId e = u0; e < u1; ++e) {
                const NodeId v = csr.na.load(e, pc_na_u);
                mix.branch(pc_br);
                if (v <= u)
                    continue;
                // Merge-intersect adj(u) and adj(v), counting common
                // neighbours w with w > v (each triangle once).
                const EdgeId v0 = csr.oa.load(v, pc_oa0);
                const EdgeId v1 = csr.oa.load(v + 1, pc_oa1);
                EdgeId i = u0, j = v0;
                std::uint32_t steps = 0;
                while (i < u1 && j < v1) {
                    const NodeId a = csr.na.load(i, pc_na_merge_a);
                    const NodeId b = csr.na.load(j, pc_na_merge_b);
                    mix.alu(pc_alu_e, p.aluPerEdge);
                    mix.branch(pc_br);
                    if (a < b) {
                        ++i;
                    } else if (b < a) {
                        ++j;
                    } else {
                        if (a > v)
                            ++triangles;
                        ++i;
                        ++j;
                    }
                    if ((++steps & 1023) == 1023 && !sink.wantsMore())
                        return;
                }
            }
        }
    }
    (void)triangles;
}

} // anonymous namespace

const char *
gapKernelName(GapKernel kernel)
{
    switch (kernel) {
      case GapKernel::Bfs: return "bfs";
      case GapKernel::PageRank: return "pr";
      case GapKernel::Cc: return "cc";
      case GapKernel::Bc: return "bc";
      case GapKernel::Sssp: return "sssp";
      case GapKernel::Tc: return "tc";
    }
    return "unknown";
}

GapWorkload::GapWorkload(GapKernel kernel, std::string graph_tag,
                         std::shared_ptr<const CsrGraph> graph,
                         GapKernelParams params)
    : kern(kernel),
      displayName(std::string(gapKernelName(kernel)) + "." +
                  std::move(graph_tag)),
      g(std::move(graph)), params(std::move(params))
{
    CS_ASSERT(g != nullptr, "GapWorkload needs a graph");
}

const std::vector<NodeId> &
GapWorkload::sortedNeighbors()
{
    // GAP sorts adjacency lists before intersecting; this is setup work
    // outside the region of interest. Sweep workers may run this
    // workload concurrently, hence call_once.
    std::call_once(sortedOnce, [this] {
        const std::vector<EdgeId> &offsets = g->offsetArray();
        sortedNeigh = g->neighborArray();
        for (NodeId v = 0; v < g->numNodes(); ++v) {
            std::sort(sortedNeigh.begin() + offsets[v],
                      sortedNeigh.begin() + offsets[v + 1]);
        }
    });
    return sortedNeigh;
}

InstCount
GapWorkload::warmupHint() const
{
    if (kern != GapKernel::PageRank)
        return 0;
    // Phase 1 costs roughly (aluPerVertex + 3) records per vertex;
    // add slack so the window starts well inside phase 2.
    return static_cast<InstCount>(g->numNodes()) *
           (params.aluPerVertex + 3) + 1'000'000;
}

void
GapWorkload::run(InstructionSink &sink)
{
    switch (kern) {
      case GapKernel::Bfs:
        if (params.directionOptimizingBfs)
            runBfsDirectionOptimizing(*g, sink, params);
        else
            runBfs(*g, sink, params);
        break;
      case GapKernel::PageRank: runPageRank(*g, sink, params); break;
      case GapKernel::Cc: runCc(*g, sink, params); break;
      case GapKernel::Bc: runBc(*g, sink, params); break;
      case GapKernel::Sssp: runSssp(*g, sink, params); break;
      case GapKernel::Tc:
        runTc(*g, sortedNeighbors(), sink, params);
        break;
    }
    sink.onEnd();
}

} // namespace cachescope
