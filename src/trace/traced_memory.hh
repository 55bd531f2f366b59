/**
 * @file
 * Instrumented data structures — the replacement for Pin.
 *
 * The paper traces real binaries with a binary-instrumentation tool.
 * We instead run real algorithms over TracedArray<T> containers: every
 * semantic load/store goes through an accessor that emits a TraceRecord
 * carrying the simulated address and the static call site's synthetic
 * PC. Arrays live in a simulated flat address space handed out by
 * AddressSpace, so cache behaviour (set conflicts, spatial locality,
 * page boundaries) matches what the real data layout would produce.
 */

#ifndef CACHESCOPE_TRACE_TRACED_MEMORY_HH
#define CACHESCOPE_TRACE_TRACED_MEMORY_HH

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "trace/record.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace cachescope {

/**
 * Bump allocator for the simulated physical address space.
 *
 * Allocations are page-aligned so distinct arrays never share a cache
 * block, matching separately malloc'd buffers in a real run.
 */
class AddressSpace
{
  public:
    static constexpr Addr kHeapBase = 0x1000'0000;
    static constexpr Addr kPageBytes = 4096;

    /** @return the base address of a fresh region of @p bytes bytes. */
    Addr
    allocate(std::uint64_t bytes)
    {
        const Addr base = cursor;
        const Addr span = (bytes + kPageBytes - 1) & ~(kPageBytes - 1);
        cursor += span == 0 ? kPageBytes : span;
        return base;
    }

    Addr bytesAllocated() const { return cursor - kHeapBase; }

  private:
    Addr cursor = kHeapBase;
};

/**
 * An array whose element accesses emit trace records.
 *
 * TracedArray<T> owns its elements. TracedArray<const T> is a read-only
 * view over elements owned elsewhere (a shared input graph, say): it
 * takes its own region of the address space and traces its loads
 * exactly as an owned copy would, without paying for the copy. Both
 * forms share load(), raw() and the address arithmetic.
 *
 * Traced accessors take the synthetic PC of the static access site;
 * raw accessors skip tracing for setup/verification code that would not
 * be part of the measured kernel.
 */
template <typename T>
class TracedArray
{
  public:
    using Value = std::remove_const_t<T>;

    /**
     * @param count element count.
     * @param space simulated address space to allocate from.
     * @param sink where access records go.
     * @param init initial element value.
     */
    TracedArray(std::size_t count, AddressSpace &space,
                InstructionSink &sink, const Value &init = Value{})
        requires(!std::is_const_v<T>)
        : owned(count, init), elems(owned),
          base(space.allocate(count * sizeof(T))), out(&sink)
    {}

    /**
     * A read-only view over @p view, which must outlive this array. An
     * empty view still takes a page of @p space, as every allocation
     * does.
     */
    TracedArray(std::span<T> view, AddressSpace &space,
                InstructionSink &sink)
        requires std::is_const_v<T>
        : elems(view), base(space.allocate(view.size() * sizeof(T))),
          out(&sink)
    {}

    /** An owning array's span points into its own vector. */
    TracedArray(const TracedArray &) = delete;
    TracedArray &operator=(const TracedArray &) = delete;

    /** Traced read of element @p i from call site @p pc. */
    Value
    load(std::size_t i, Pc pc) const
    {
        out->onInstruction(TraceRecord::load(pc, addressOf(i), sizeof(T)));
        return elems[i];
    }

    /** Traced write of element @p i from call site @p pc. */
    void
    store(std::size_t i, const Value &value, Pc pc)
        requires(!std::is_const_v<T>)
    {
        out->onInstruction(TraceRecord::store(pc, addressOf(i), sizeof(T)));
        elems[i] = value;
    }

    /** Untraced access for setup and result checking. */
    T &raw(std::size_t i) { return elems[i]; }
    const T &raw(std::size_t i) const { return elems[i]; }

    /** @return simulated address of element @p i. */
    Addr
    addressOf(std::size_t i) const
    {
        return base + static_cast<Addr>(i) * sizeof(T);
    }

    std::size_t size() const { return elems.size(); }
    Addr baseAddress() const { return base; }

  private:
    /** Backing store of an owning array; empty for a view. */
    std::vector<Value> owned;
    std::span<T> elems;
    Addr base;
    InstructionSink *out;
};

/**
 * Helper emitting the non-memory instructions that surround the traced
 * loads/stores, so the stream's instruction mix (and therefore MPKI
 * denominators) resembles the compiled kernel rather than a pure
 * address stream.
 */
class InstructionMix
{
  public:
    explicit InstructionMix(InstructionSink &sink) : out(&sink) {}

    /** Emit @p n ALU instructions from call site @p pc. */
    void
    alu(Pc pc, unsigned n = 1)
    {
        for (unsigned i = 0; i < n; ++i)
            out->onInstruction(TraceRecord::alu(pc));
    }

    /** Emit one branch instruction from call site @p pc. */
    void branch(Pc pc) { out->onInstruction(TraceRecord::branch(pc)); }

  private:
    InstructionSink *out;
};

} // namespace cachescope

#endif // CACHESCOPE_TRACE_TRACED_MEMORY_HH
