/**
 * @file
 * Unit tests for the trace substrate: records, sinks, file round
 * trips, PC regions, traced memory and the PC profiler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "test_helpers.hh"
#include "trace/pc_site.hh"
#include "util/checksum.hh"
#include "trace/profile.hh"
#include "trace/trace_io.hh"
#include "trace/traced_memory.hh"

namespace cachescope {
namespace {

using test::VectorSink;

std::string
tempTracePath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/cachescope_" + tag +
           ".trace";
}

TEST(TraceRecord, Factories)
{
    const TraceRecord l = TraceRecord::load(0x400000, 0x1000, 4);
    EXPECT_EQ(l.kind, InstKind::Load);
    EXPECT_EQ(l.pc, 0x400000u);
    EXPECT_EQ(l.addr, 0x1000u);
    EXPECT_EQ(l.size, 4);
    EXPECT_TRUE(l.isMemory());

    const TraceRecord s = TraceRecord::store(1, 2);
    EXPECT_EQ(s.kind, InstKind::Store);
    EXPECT_TRUE(s.isMemory());

    const TraceRecord a = TraceRecord::alu(9);
    EXPECT_FALSE(a.isMemory());
    EXPECT_EQ(a.addr, kInvalidAddr);

    const TraceRecord b = TraceRecord::branch(9);
    EXPECT_EQ(b.kind, InstKind::Branch);
    EXPECT_FALSE(b.isMemory());
}

TEST(CountingSink, CountsByKind)
{
    CountingSink sink;
    sink.onInstruction(TraceRecord::alu(1));
    sink.onInstruction(TraceRecord::alu(1));
    sink.onInstruction(TraceRecord::load(1, 8));
    sink.onInstruction(TraceRecord::store(1, 8));
    sink.onInstruction(TraceRecord::branch(1));
    EXPECT_EQ(sink.total, 5u);
    EXPECT_EQ(sink.alu, 2u);
    EXPECT_EQ(sink.loads, 1u);
    EXPECT_EQ(sink.stores, 1u);
    EXPECT_EQ(sink.branches, 1u);
}

TEST(TraceIo, RoundTrip)
{
    const std::string path = tempTracePath("roundtrip");
    std::vector<TraceRecord> originals = {
        TraceRecord::load(0x400010, 0xDEAD00, 8),
        TraceRecord::store(0x400014, 0xBEEF40, 4),
        TraceRecord::alu(0x400018),
        TraceRecord::branch(0x40001C),
    };
    {
        TraceWriter writer(path);
        for (const auto &rec : originals)
            writer.onInstruction(rec);
        writer.onEnd();
        EXPECT_EQ(writer.recordsWritten(), originals.size());
    }

    TraceReader reader(path);
    EXPECT_EQ(reader.numRecords(), originals.size());
    EXPECT_EQ(reader.version(), TraceFileHeader::kVersion);
    VectorSink sink;
    std::uint64_t replayed = 0;
    EXPECT_TRUE(reader.replayInto(sink, &replayed).ok());
    EXPECT_EQ(replayed, originals.size());
    ASSERT_EQ(sink.records.size(), originals.size());
    for (std::size_t i = 0; i < originals.size(); ++i)
        EXPECT_EQ(sink.records[i], originals[i]);
    std::remove(path.c_str());
}

TEST(TraceIo, V2ChecksumIsDeterministicAcrossWrites)
{
    // Writing the same records twice must produce bit-identical header
    // checksums (the digest seed is pinned, not e.g. time- or
    // ASLR-dependent), and a re-read must verify cleanly against it.
    const std::vector<TraceRecord> records = {
        TraceRecord::load(0x400010, 0xDEAD00, 8),
        TraceRecord::store(0x400014, 0xBEEF40, 4),
        TraceRecord::alu(0x400018),
        TraceRecord::branch(0x40001C),
    };
    auto write = [&records](const std::string &path) {
        TraceWriter writer(path);
        for (const auto &rec : records)
            writer.onInstruction(rec);
        writer.onEnd();
    };
    const std::string path_a = tempTracePath("det_a");
    const std::string path_b = tempTracePath("det_b");
    write(path_a);
    write(path_b);

    TraceReader reader_a(path_a);
    TraceReader reader_b(path_b);
    EXPECT_EQ(reader_a.version(), TraceFileHeader::kVersion);
    EXPECT_NE(reader_a.headerChecksum(), 0u);
    EXPECT_EQ(reader_a.headerChecksum(), reader_b.headerChecksum());

    // Replaying verifies the stored digest against the record bytes.
    VectorSink sink_a, sink_b;
    EXPECT_TRUE(reader_a.replayInto(sink_a).ok());
    EXPECT_TRUE(reader_b.replayInto(sink_b).ok());
    ASSERT_EQ(sink_a.records.size(), records.size());

    // And a second independent read of the same file sees the same
    // checksum again.
    TraceReader reread(path_a);
    EXPECT_EQ(reread.headerChecksum(), reader_b.headerChecksum());

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(TraceIo, TailLengthsRoundTripAtEveryLaneOffset)
{
    // The v3 checksum interleaves 8 lanes, so the serializer's tail
    // handling depends on recordCount % 8: exercise every residue
    // (counts 0..9) and verify a bit-exact round trip plus a clean
    // checksum verification for each.
    for (std::size_t count = 0; count <= 9; ++count) {
        const std::string path = tempTracePath("tail_small");
        std::vector<TraceRecord> originals;
        for (std::size_t i = 0; i < count; ++i) {
            originals.push_back(TraceRecord::load(
                0x400010 + 4 * static_cast<Pc>(i),
                0x10000 + 64 * static_cast<Addr>(i), 8));
        }
        {
            TraceWriter writer(path);
            for (const auto &rec : originals)
                writer.onInstruction(rec);
            writer.onEnd();
        }
        TraceReader reader(path);
        ASSERT_EQ(reader.numRecords(), count) << "count=" << count;
        VectorSink sink;
        ASSERT_TRUE(reader.replayInto(sink).ok()) << "count=" << count;
        ASSERT_EQ(sink.records.size(), count) << "count=" << count;
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(sink.records[i], originals[i]) << "count=" << count;
        std::remove(path.c_str());
    }
}

TEST(TraceIo, TailStraddlingTheDecodeBatchRoundTrips)
{
    // Counts around kBatchRecords make the final decode batch carry
    // 0..3 records past a full batch, so the checksum tail is fed in
    // two differently-sized update() calls. Every such split must
    // verify against the digest the writer computed in one pass.
    const std::size_t batch = 4096; // mirrors TraceReader::kBatchRecords
    for (std::size_t count = batch - 3; count <= batch + 3; ++count) {
        const std::string path = tempTracePath("tail_batch");
        {
            TraceWriter writer(path);
            for (std::size_t i = 0; i < count; ++i) {
                writer.onInstruction(TraceRecord::load(
                    0x400010, 0x10000 + 64 * static_cast<Addr>(i), 8));
            }
            writer.onEnd();
        }
        TraceReader reader(path);
        ASSERT_EQ(reader.numRecords(), count) << "count=" << count;
        CountingSink sink;
        ASSERT_TRUE(reader.replayInto(sink).ok()) << "count=" << count;
        EXPECT_EQ(sink.total, count) << "count=" << count;
        std::remove(path.c_str());
    }
}

TEST(Checksum64x8, ChunkingDoesNotChangeTheDigest)
{
    // The 8-lane checksum must be a pure function of the byte stream:
    // any split of the input into update() calls — including splits
    // that leave the lane cursor mid-group — yields the writer's
    // one-shot digest.
    std::vector<std::uint8_t> bytes(3 * 8 * 13 + 5);
    std::uint8_t x = 7;
    for (auto &b : bytes) {
        x = static_cast<std::uint8_t>(x * 31 + 11);
        b = x;
    }
    Checksum64x8 oneshot;
    oneshot.update(bytes.data(), bytes.size());
    const std::uint64_t want = oneshot.digest();

    for (std::size_t first : {std::size_t{0}, std::size_t{1},
                              std::size_t{3}, std::size_t{7},
                              std::size_t{8}, std::size_t{9},
                              std::size_t{64}, bytes.size() - 1}) {
        Checksum64x8 split;
        split.update(bytes.data(), first);
        split.update(bytes.data() + first, bytes.size() - first);
        EXPECT_EQ(split.digest(), want) << "first=" << first;

        Checksum64x8 trickle;
        std::size_t off = 0;
        std::size_t step = first == 0 ? 1 : first;
        while (off < bytes.size()) {
            const std::size_t n = std::min(step, bytes.size() - off);
            trickle.update(bytes.data() + off, n);
            off += n;
        }
        EXPECT_EQ(trickle.digest(), want) << "step=" << step;
    }
}

TEST(TraceIo, WriterFinalizesOnDestruction)
{
    const std::string path = tempTracePath("dtor");
    {
        TraceWriter writer(path);
        writer.onInstruction(TraceRecord::alu(1));
        // no explicit onEnd(): destructor must back-patch the header
    }
    TraceReader reader(path);
    EXPECT_EQ(reader.numRecords(), 1u);
    std::remove(path.c_str());
}

// ------------------------------------------ recoverable error paths --

/** Write a 4-record trace and return its path. */
std::string
writeSmallTrace(const char *tag)
{
    const std::string path = tempTracePath(tag);
    TraceWriter writer(path);
    for (int i = 0; i < 4; ++i)
        writer.onInstruction(TraceRecord::load(0x400000 + 4 * i, 64 * i));
    writer.onEnd();
    return path;
}

/** Truncate (or leave) the file at @p bytes. */
void
resizeFile(const std::string &path, std::size_t bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<char> contents(bytes);
    ASSERT_EQ(std::fread(contents.data(), 1, bytes, f), bytes);
    std::fclose(f);
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(contents.data(), 1, bytes, f), bytes);
    std::fclose(f);
}

/** XOR one byte of the file in place. */
void
flipByte(const std::string &path, long offset)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
}

TEST(TraceIoStatus, OpenReportsMissingFile)
{
    auto reader = TraceReader::open("/nonexistent/path/x.trace");
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::IoError);
    EXPECT_NE(reader.status().message().find("cannot open"),
              std::string::npos);
}

TEST(TraceIoStatus, OpenReportsBadMagic)
{
    const std::string path = tempTracePath("status_garbage");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a trace, it is a potato", f);
    std::fclose(f);
    auto reader = TraceReader::open(path);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::Corruption);
    EXPECT_NE(reader.status().message().find("bad magic"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIoStatus, OpenReportsUnsupportedVersion)
{
    // The retired v1 and v2 formats are rejected like any unknown one.
    for (const std::uint32_t version : {1u, 2u, 99u}) {
        SCOPED_TRACE(version);
        const std::string path = tempTracePath("status_badver");
        std::FILE *f = std::fopen(path.c_str(), "wb");
        TraceFileHeader hdr;
        hdr.version = version;
        std::fwrite(&hdr, sizeof(hdr), 1, f);
        std::fclose(f);
        auto reader = TraceReader::open(path);
        ASSERT_FALSE(reader.ok());
        EXPECT_EQ(reader.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(reader.status().message().find(
                      "version " + std::to_string(version)),
                  std::string::npos);
        std::remove(path.c_str());
    }
}

TEST(TraceIoStatus, TruncatedMidRecordIsReported)
{
    const std::string path = writeSmallTrace("status_midrec");
    // Header + 2 full records + 11 stray bytes of the third.
    resizeFile(path, TraceFileHeader::kHeaderBytes + 2 * 24 + 11);
    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.ok());
    VectorSink sink;
    std::uint64_t replayed = 0;
    const Status s = reader.value()->replayInto(sink, &replayed);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Corruption);
    // The diagnostic names the expected and actual record counts.
    EXPECT_NE(s.message().find("expected 4"), std::string::npos);
    EXPECT_NE(s.message().find("2 complete records"), std::string::npos);
    EXPECT_EQ(replayed, 2u); // the complete prefix was delivered
    std::remove(path.c_str());
}

TEST(TraceIoStatus, RecordCountMismatchIsReported)
{
    const std::string path = writeSmallTrace("status_count");
    // Cut cleanly at a record boundary: indistinguishable from EOF
    // without the header cross-check.
    resizeFile(path, TraceFileHeader::kHeaderBytes + 3 * 24);
    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.ok());
    VectorSink sink;
    const Status s = reader.value()->replayInto(sink);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Corruption);
    EXPECT_NE(s.message().find("expected 4"), std::string::npos);
    EXPECT_NE(s.message().find("holds 3"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIoStatus, ChecksumMismatchIsReported)
{
    const std::string path = writeSmallTrace("status_bitrot");
    // Flip a bit inside the second record's address field: the record
    // still parses, so only the checksum can catch it.
    flipByte(path,
             static_cast<long>(TraceFileHeader::kHeaderBytes + 24 + 8));
    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.ok());
    VectorSink sink;
    const Status s = reader.value()->replayInto(sink);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Corruption);
    EXPECT_NE(s.message().find("checksum mismatch"), std::string::npos);
    std::remove(path.c_str());
}

/** RAII: force the reader's pipelined path on for one test. */
struct ForcePipeline
{
    ForcePipeline() { setenv("CACHESCOPE_TRACE_PIPELINE", "1", 1); }
    ~ForcePipeline() { unsetenv("CACHESCOPE_TRACE_PIPELINE"); }
};

TEST(TraceIoPipelined, MatchesSynchronousRead)
{
    // Multiple chunks' worth of records read through the producer
    // thread must replay identically to the synchronous path.
    const std::string path = tempTracePath("pipe_ok");
    const std::uint64_t count = 10'000; // ~3 chunks of 4096
    {
        TraceWriter writer(path);
        for (std::uint64_t i = 0; i < count; ++i)
            writer.onInstruction(
                TraceRecord::load(0x400000 + 4 * i, 64 * (i % 977), 8));
        writer.onEnd();
    }
    VectorSink sync_sink;
    {
        TraceReader reader(path);
        ASSERT_TRUE(reader.replayInto(sync_sink).ok());
    }
    VectorSink pipe_sink;
    {
        ForcePipeline force;
        TraceReader reader(path);
        ASSERT_TRUE(reader.replayInto(pipe_sink).ok());
    }
    ASSERT_EQ(pipe_sink.records.size(), sync_sink.records.size());
    for (std::size_t i = 0; i < sync_sink.records.size(); ++i)
        EXPECT_EQ(pipe_sink.records[i], sync_sink.records[i]);
    std::remove(path.c_str());
}

TEST(TraceIoPipelined, TruncationStillDetected)
{
    const std::string path = tempTracePath("pipe_trunc");
    const std::uint64_t count = 10'000;
    {
        TraceWriter writer(path);
        for (std::uint64_t i = 0; i < count; ++i)
            writer.onInstruction(TraceRecord::alu(0x400000 + 4 * i));
        writer.onEnd();
    }
    resizeFile(path, 24 + 5000 * 24 + 11); // mid-record tear
    ForcePipeline force;
    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.ok());
    VectorSink sink;
    const Status s = reader.value()->replayInto(sink);
    EXPECT_EQ(s.code(), StatusCode::Corruption);
    EXPECT_NE(s.message().find("truncated mid-record"), std::string::npos);
    EXPECT_EQ(sink.records.size(), 5000u);
    std::remove(path.c_str());
}

TEST(TraceIoPipelined, ChecksumMismatchStillDetected)
{
    const std::string path = tempTracePath("pipe_flip");
    const std::uint64_t count = 10'000;
    {
        TraceWriter writer(path);
        for (std::uint64_t i = 0; i < count; ++i)
            writer.onInstruction(TraceRecord::alu(0x400000 + 4 * i));
        writer.onEnd();
    }
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 24 + 7777 * 24 + 2, SEEK_SET);
    std::fputc(0x5a, f);
    std::fclose(f);
    ForcePipeline force;
    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.ok());
    VectorSink sink;
    const Status s = reader.value()->replayInto(sink);
    EXPECT_EQ(s.code(), StatusCode::Corruption);
    EXPECT_NE(s.message().find("checksum mismatch"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceIoPipelined, EarlyDestructionJoinsReader)
{
    // Destroying the reader mid-stream (consumer stopped early) must
    // shut the producer thread down cleanly, not hang or leak.
    const std::string path = tempTracePath("pipe_abort");
    {
        TraceWriter writer(path);
        for (std::uint64_t i = 0; i < 10'000; ++i)
            writer.onInstruction(TraceRecord::alu(0x400000 + 4 * i));
        writer.onEnd();
    }
    ForcePipeline force;
    {
        TraceReader reader(path);
        TraceRecord rec;
        for (int i = 0; i < 100; ++i)
            ASSERT_TRUE(reader.next(rec));
        // reader destroyed with ~9900 records unconsumed
    }
    std::remove(path.c_str());
}

TEST(TraceIoStatus, WriterOpenReportsBadPath)
{
    auto writer = TraceWriter::open("/nonexistent/dir/out.trace");
    ASSERT_FALSE(writer.ok());
    EXPECT_EQ(writer.status().code(), StatusCode::IoError);
}

TEST(TraceIoStatus, WriterFinishReportsSuccess)
{
    const std::string path = tempTracePath("status_finish");
    auto writer = TraceWriter::open(path);
    ASSERT_TRUE(writer.ok());
    writer.value()->onInstruction(TraceRecord::alu(1));
    EXPECT_TRUE(writer.value()->finish().ok());
    EXPECT_EQ(writer.value()->recordsWritten(), 1u);
    std::remove(path.c_str());
}

TEST(TraceIoDeathTest, RejectsGarbageFile)
{
    const std::string path = tempTracePath("garbage");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a trace", f);
    std::fclose(f);
    EXPECT_EXIT(TraceReader reader(path), ::testing::ExitedWithCode(1),
                "bad magic");
    std::remove(path.c_str());
}

TEST(TraceIoDeathTest, RejectsMissingFile)
{
    EXPECT_EXIT(TraceReader reader("/nonexistent/path/x.trace"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(PcRegion, DisjointPerWorkload)
{
    PcRegion r0(0), r1(1);
    EXPECT_NE(r0.regionBase(), r1.regionBase());
    EXPECT_GE(r1.regionBase(), r0.regionBase() + PcRegion::kRegionBytes);
}

TEST(PcRegion, AllocationIsStableAndSpaced)
{
    PcRegion r(3);
    const Pc first = r.allocate();
    const Pc second = r.allocate();
    EXPECT_EQ(second, first + 4);
    EXPECT_EQ(r.pc(0), first);
    EXPECT_EQ(r.pc(1), second);
}

TEST(AddressSpace, PageAlignedDisjointRegions)
{
    AddressSpace space;
    const Addr a = space.allocate(100);
    const Addr b = space.allocate(5000);
    const Addr c = space.allocate(1);
    EXPECT_EQ(a % AddressSpace::kPageBytes, 0u);
    EXPECT_EQ(b % AddressSpace::kPageBytes, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_GE(c, b + 5000);
    EXPECT_GT(space.bytesAllocated(), 0u);
}

TEST(TracedArray, EmitsLoadAndStoreRecords)
{
    AddressSpace space;
    VectorSink sink;
    TracedArray<std::uint32_t> arr(16, space, sink, 7);

    EXPECT_EQ(arr.load(3, /*pc=*/0x400000), 7u);
    arr.store(3, 42, /*pc=*/0x400004);
    EXPECT_EQ(arr.load(3, 0x400000), 42u);

    ASSERT_EQ(sink.records.size(), 3u);
    EXPECT_EQ(sink.records[0].kind, InstKind::Load);
    EXPECT_EQ(sink.records[0].addr, arr.addressOf(3));
    EXPECT_EQ(sink.records[0].size, sizeof(std::uint32_t));
    EXPECT_EQ(sink.records[1].kind, InstKind::Store);
    EXPECT_EQ(sink.records[1].pc, 0x400004u);
}

TEST(TracedArray, RawAccessEmitsNothing)
{
    AddressSpace space;
    VectorSink sink;
    TracedArray<int> arr(4, space, sink, 0);
    arr.raw(2) = 5;
    EXPECT_EQ(arr.raw(2), 5);
    EXPECT_TRUE(sink.records.empty());
}

TEST(TracedArray, AddressesAreContiguous)
{
    AddressSpace space;
    VectorSink sink;
    TracedArray<std::uint64_t> arr(8, space, sink);
    for (std::size_t i = 0; i + 1 < arr.size(); ++i)
        EXPECT_EQ(arr.addressOf(i + 1), arr.addressOf(i) + 8);
}

TEST(TracedArray, ViewTracesLikeAnOwnedCopy)
{
    // A read-only view must take the same address range and emit the
    // same records as an owned copy of the same elements would.
    const std::vector<std::uint32_t> data = {5, 6, 7, 8, 9};
    AddressSpace owned_space, view_space;
    VectorSink owned_sink, view_sink;
    TracedArray<std::uint32_t> copy(data.size(), owned_space, owned_sink);
    for (std::size_t i = 0; i < data.size(); ++i)
        copy.raw(i) = data[i];
    TracedArray<const std::uint32_t> view(data, view_space, view_sink);

    EXPECT_EQ(view.baseAddress(), copy.baseAddress());
    EXPECT_EQ(view_space.bytesAllocated(), owned_space.bytesAllocated());
    EXPECT_EQ(view.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_EQ(view.load(i, 0x400000), copy.load(i, 0x400000));
        EXPECT_EQ(&view.raw(i), &data[i]) << "a view must not copy";
    }
    ASSERT_EQ(view_sink.records.size(), owned_sink.records.size());
    for (std::size_t i = 0; i < view_sink.records.size(); ++i) {
        EXPECT_EQ(view_sink.records[i].addr, owned_sink.records[i].addr);
        EXPECT_EQ(view_sink.records[i].size, owned_sink.records[i].size);
        EXPECT_EQ(view_sink.records[i].kind, InstKind::Load);
    }
}

TEST(TracedArray, EmptyViewStillTakesAPage)
{
    // An edgeless graph's neighbour view: later arrays must land where
    // they would after a one-element array.
    AddressSpace empty_space, one_space;
    VectorSink sink;
    TracedArray<const int> empty(std::span<const int>{}, empty_space,
                                 sink);
    TracedArray<int> one(1, one_space, sink);
    EXPECT_EQ(empty_space.bytesAllocated(), one_space.bytesAllocated());
    EXPECT_EQ(empty_space.allocate(8), one_space.allocate(8));
}

TEST(InstructionMix, EmitsRequestedCounts)
{
    CountingSink sink;
    InstructionMix mix(sink);
    mix.alu(0x400000, 5);
    mix.branch(0x400004);
    EXPECT_EQ(sink.alu, 5u);
    EXPECT_EQ(sink.branches, 1u);
}

// ----------------------------------------------------------- profiler --

TEST(PcProfiler, IgnoresNonMemory)
{
    PcProfiler prof;
    prof.onInstruction(TraceRecord::alu(1));
    prof.onInstruction(TraceRecord::branch(2));
    const auto s = prof.summarize();
    EXPECT_EQ(s.memoryAccesses, 0u);
    EXPECT_EQ(s.distinctMemoryPcs, 0u);
}

TEST(PcProfiler, CountsFanout)
{
    PcProfiler prof(/*block_bits=*/6);
    // PC 100 touches 3 distinct blocks (addresses 0, 64, 128), twice
    // each; PC 200 touches one block 4 times.
    for (int rep = 0; rep < 2; ++rep)
        for (Addr a : {0, 64, 128})
            prof.onInstruction(TraceRecord::load(100, a));
    for (int rep = 0; rep < 4; ++rep)
        prof.onInstruction(TraceRecord::load(200, 0x10000));

    const auto rows = prof.fanouts();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].pc, 100u); // more accesses first
    EXPECT_EQ(rows[0].accesses, 6u);
    EXPECT_EQ(rows[0].distinctBlocks, 3u);
    EXPECT_EQ(rows[1].distinctBlocks, 1u);

    const auto s = prof.summarize();
    EXPECT_EQ(s.memoryAccesses, 10u);
    EXPECT_EQ(s.distinctMemoryPcs, 2u);
    EXPECT_DOUBLE_EQ(s.meanBlocksPerPc, 2.0);
    EXPECT_EQ(s.maxBlocksPerPc, 3u);
}

TEST(PcProfiler, SameBlockDifferentOffsetsCountsOnce)
{
    PcProfiler prof(6);
    prof.onInstruction(TraceRecord::load(1, 0));
    prof.onInstruction(TraceRecord::load(1, 63));
    const auto rows = prof.fanouts();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].distinctBlocks, 1u);
}

TEST(PcProfiler, EntropyZeroForSinglePc)
{
    PcProfiler prof;
    for (int i = 0; i < 8; ++i)
        prof.onInstruction(TraceRecord::load(1, i * 64));
    EXPECT_DOUBLE_EQ(prof.summarize().pcEntropyBits, 0.0);
}

TEST(PcProfiler, EntropyMaxForUniformPcs)
{
    PcProfiler prof;
    for (Pc pc = 0; pc < 8; ++pc)
        for (int i = 0; i < 10; ++i)
            prof.onInstruction(TraceRecord::load(pc * 4 + 0x400000, 0));
    EXPECT_NEAR(prof.summarize().pcEntropyBits, 3.0, 1e-9);
}

TEST(PcProfiler, PcsFor90Pct)
{
    PcProfiler prof;
    // One PC does 90 of 100 accesses; covering 90 % needs only it.
    for (int i = 0; i < 90; ++i)
        prof.onInstruction(TraceRecord::load(1, i * 64));
    for (int i = 0; i < 10; ++i)
        prof.onInstruction(TraceRecord::load(2, i * 64));
    EXPECT_EQ(prof.summarize().pcsFor90PctAccesses, 1u);
}

} // namespace
} // namespace cachescope
