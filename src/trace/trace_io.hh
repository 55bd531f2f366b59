/**
 * @file
 * Binary trace file round-tripping.
 *
 * The on-disk format is a fixed 24-byte little-endian record preceded
 * by a header, so traces captured from one workload run can be replayed
 * later (ChampSim-style) without re-executing the workload.
 *
 * The header carries the record count and a 64-bit digest of the
 * record bytes, computed with the 8-lane interleaved FNV
 * (Checksum64x8), whose independent dependency chains hash several
 * times faster than a byte-serial FNV. The reader verifies both, so
 * truncated or bit-flipped traces are reported as Status errors
 * instead of silently replaying short. Only format v3 is read; the
 * earlier v1 (no digest) and v2 (byte-serial digest) formats are
 * rejected as unsupported versions.
 *
 * Error reporting: the static open() factories return Expected and
 * never terminate the process; the legacy path-taking constructors are
 * convenience wrappers that fatal() on the same errors.
 */

#ifndef CACHESCOPE_TRACE_TRACE_IO_HH
#define CACHESCOPE_TRACE_TRACE_IO_HH

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/record.hh"
#include "util/checksum.hh"
#include "util/status.hh"

namespace cachescope {

/** Trace file header. */
struct TraceFileHeader
{
    static constexpr std::uint32_t kMagic = 0x43535452; // "CSTR"
    static constexpr std::uint32_t kVersion = 3;

    /** Bytes of header preceding the records. */
    static constexpr std::size_t kHeaderBytes = 24;

    /** Bytes per on-disk record (pinned). */
    static constexpr std::size_t kRecordBytes = 24;

    std::uint32_t magic = kMagic;
    std::uint32_t version = kVersion;
    std::uint64_t numRecords = 0;
    /** Checksum64x8 digest over all record bytes, in file order. */
    std::uint64_t checksum = 0;
};

static_assert(sizeof(TraceFileHeader) == TraceFileHeader::kHeaderBytes,
              "the header must pack to 24 B");

/**
 * An InstructionSink that appends every record to a binary trace file.
 * The record count and checksum are back-patched into the header by
 * finish()/onEnd()/destruction.
 *
 * I/O errors (e.g. a full disk) are sticky: the first failure is
 * recorded, further records are dropped, and finish() (or status())
 * reports it. The destructor warns about unretrieved errors.
 */
class TraceWriter : public InstructionSink
{
  public:
    /** Open @p path for writing. */
    static Expected<std::unique_ptr<TraceWriter>>
    open(const std::string &path);

    /** Convenience wrapper around open(); fatal() on failure. */
    explicit TraceWriter(const std::string &path);
    ~TraceWriter() override;

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void onInstruction(const TraceRecord &rec) override;
    void onEnd() override;

    /**
     * Back-patch the header, flush, and close the file.
     * @return the first error hit during writing or finalization.
     */
    Status finish();

    /** Sticky error state (OK while everything has succeeded). */
    const Status &status() const { return status_; }

    std::uint64_t recordsWritten() const { return count; }

  private:
    TraceWriter() = default;
    Status init(const std::string &path);
    void finalize();

    std::FILE *file = nullptr;
    std::string path;
    Checksum64x8 checksum;
    Status status_;
    std::uint64_t count = 0;
    bool finalized = false;
};

/**
 * Reads a binary trace file and replays it into a sink.
 *
 * next() returns false at end of input; status() distinguishes a
 * verified clean end (record count and checksum both match the
 * header) from truncation, corruption, or read errors.
 */
class TraceReader
{
  public:
    /** Open @p path and validate its header. */
    static Expected<std::unique_ptr<TraceReader>>
    open(const std::string &path);

    /** Convenience wrapper around open(); fatal() on failure. */
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** @return the number of records the header promises. */
    std::uint64_t numRecords() const { return header.numRecords; }

    /** @return the on-disk format version (always kVersion). */
    std::uint32_t version() const { return header.version; }

    /** @return the digest the header promises for the record bytes. */
    std::uint64_t headerChecksum() const { return header.checksum; }

    /**
     * Read the next record.
     * @return false at end of input; check status() afterwards to tell
     *         clean EOF from truncation/corruption.
     */
    bool next(TraceRecord &rec);

    /** Non-OK once next() has hit truncation, corruption, or EIO. */
    const Status &status() const { return status_; }

    /** Records successfully returned by next() so far. */
    std::uint64_t recordsRead() const { return recordsRead_; }

    /**
     * Push all (remaining) records into @p sink.
     *
     * On success calls sink.onEnd() and returns OK; on a corrupt or
     * truncated trace returns the error without calling onEnd().
     * @param replayed if non-null, receives the replayed-record count.
     */
    Status replayInto(InstructionSink &sink,
                      std::uint64_t *replayed = nullptr);

  private:
    /** Records fetched per buffered read on the replay hot path. */
    static constexpr std::size_t kBatchRecords = 4096;

    /**
     * Traces at least this many records long are read through a
     * pipelined producer thread that overlaps the fread and the
     * (format-pinned) checksum with the consumer's simulation work.
     * Shorter traces stay synchronous — the thread would cost more
     * than it hides.
     */
    static constexpr std::uint64_t kPipelineMinRecords = 8 * kBatchRecords;

    /** One read-ahead unit handed from producer to consumer. */
    struct Chunk
    {
        std::vector<unsigned char> bytes;
        std::size_t len = 0;    ///< complete-record bytes in `bytes`
        std::size_t stray = 0;  ///< partial trailing bytes (EOF tear)
        bool readError = false; ///< ferror() fired during this read
    };

    TraceReader() = default;
    Status init(const std::string &path);

    /**
     * Pull the next chunk of complete records into the decode buffer.
     * @return true when at least one record is buffered; false at end
     * of input, with `done` set and status_ holding the end-of-stream
     * verdict (clean EOF, truncation, count or checksum mismatch).
     */
    bool refill();

    /** Synchronous read+checksum of the next chunk into buffer_. */
    bool refillSync();

    /** Pipelined variant: swap in the next producer-filled chunk. */
    bool refillPipelined();

    /** Body of the read-ahead thread. */
    void producerLoop();

    /** Issue the end-of-stream verdict into status_; sets `done`. */
    void finishStream(std::size_t stray, bool read_error);

    std::FILE *file = nullptr;
    std::string path;
    TraceFileHeader header;
    Checksum64x8 checksum;
    Status status_;
    std::uint64_t recordsRead_ = 0;
    bool done = false;

    /** Decode cursor over the current chunk's complete-record bytes. */
    const unsigned char *bufData_ = nullptr;
    std::size_t bufPos_ = 0;
    std::size_t bufLen_ = 0;
    /** Trailing partial-record bytes seen at EOF (truncation proof). */
    std::size_t stray_ = 0;

    /** Synchronous-path buffer (small traces). */
    std::vector<unsigned char> buffer_;

    // ---- pipelined read-ahead state (large traces only) ----
    bool pipelined_ = false;
    std::thread producer_;
    std::mutex mu_;
    std::condition_variable cvProducer_;
    std::condition_variable cvConsumer_;
    /** Chunks available to the producer / filled for the consumer. */
    std::deque<Chunk *> freeChunks_;
    std::deque<Chunk *> readyChunks_;
    std::vector<Chunk> chunkPool_;
    Chunk *current_ = nullptr;
    bool producerDone_ = false;
    bool shuttingDown_ = false;
};

} // namespace cachescope

#endif // CACHESCOPE_TRACE_TRACE_IO_HH
