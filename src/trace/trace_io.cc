/**
 * @file
 * Binary trace reader/writer implementation.
 */

#include "trace/trace_io.hh"

#include <cstdlib>
#include <cstring>

#include "util/failpoint.hh"
#include "util/logging.hh"

namespace cachescope {

namespace {

/** Packed on-disk record layout (24 bytes, little-endian host assumed). */
struct DiskRecord
{
    std::uint64_t pc;
    std::uint64_t addr;
    std::uint8_t kind;
    std::uint8_t size;
    std::uint8_t pad[6];
};

static_assert(sizeof(DiskRecord) == TraceFileHeader::kRecordBytes,
              "trace record must pack to 24 B");

} // anonymous namespace

Expected<std::unique_ptr<TraceWriter>>
TraceWriter::open(const std::string &path)
{
    std::unique_ptr<TraceWriter> writer(new TraceWriter());
    CS_TRY(writer->init(path));
    return writer;
}

TraceWriter::TraceWriter(const std::string &path)
{
    if (Status s = init(path); !s.ok())
        fatal("%s", s.message().c_str());
}

Status
TraceWriter::init(const std::string &file_path)
{
    path = file_path;
    if (Status fp = failpoint::hit("trace.open.write"); !fp.ok())
        return fp;
    file = std::fopen(path.c_str(), "wb");
    if (!file) {
        return ioError("cannot open trace file '%s' for writing",
                       path.c_str());
    }
    TraceFileHeader hdr;
    if (!failpoint::hit("trace.write.header").ok() ||
        std::fwrite(&hdr, sizeof(hdr), 1, file) != 1) {
        std::fclose(file);
        file = nullptr;
        return ioError("cannot write trace header to '%s'", path.c_str());
    }
    return Status();
}

TraceWriter::~TraceWriter()
{
    const bool pending = !finalized && file != nullptr;
    finalize();
    if (pending && !status_.ok()) {
        warn("trace writer for '%s' destroyed with unreported error: %s",
             path.c_str(), status_.message().c_str());
    }
}

void
TraceWriter::onInstruction(const TraceRecord &rec)
{
    CS_ASSERT(!finalized, "write after onEnd()");
    if (!status_.ok())
        return; // already failed; drop further records
    if (failpoint::anyArmed()) {
        if (Status fp = failpoint::hit("trace.write.record"); !fp.ok()) {
            status_ = fp;
            return;
        }
    }
    DiskRecord d{};
    d.pc = rec.pc;
    d.addr = rec.addr;
    d.kind = static_cast<std::uint8_t>(rec.kind);
    d.size = rec.size;
    if (std::fwrite(&d, sizeof(d), 1, file) != 1) {
        status_ = ioError("short write to trace file '%s' after %llu "
                          "records (disk full?)",
                          path.c_str(),
                          static_cast<unsigned long long>(count));
        return;
    }
    checksum.update(&d, sizeof(d));
    ++count;
}

void
TraceWriter::onEnd()
{
    finalize();
}

Status
TraceWriter::finish()
{
    finalize();
    return status_;
}

void
TraceWriter::finalize()
{
    if (finalized || !file)
        return;
    finalized = true;
    if (status_.ok()) {
        if (Status fp = failpoint::hit("trace.finalize"); !fp.ok())
            status_ = fp;
    }
    TraceFileHeader hdr;
    hdr.numRecords = count;
    hdr.checksum = checksum.digest();
    // Report the first failure but always release the FILE.
    if (status_.ok() && std::fseek(file, 0, SEEK_SET) != 0)
        status_ = ioError("cannot seek to trace header in '%s'",
                          path.c_str());
    if (status_.ok() && std::fwrite(&hdr, sizeof(hdr), 1, file) != 1)
        status_ = ioError("cannot back-patch trace header in '%s'",
                          path.c_str());
    if (status_.ok() && std::fflush(file) != 0)
        status_ = ioError("cannot flush trace file '%s' (disk full?)",
                          path.c_str());
    if (std::fclose(file) != 0 && status_.ok())
        status_ = ioError("cannot close trace file '%s'", path.c_str());
    file = nullptr;
}

Expected<std::unique_ptr<TraceReader>>
TraceReader::open(const std::string &path)
{
    std::unique_ptr<TraceReader> reader(new TraceReader());
    CS_TRY(reader->init(path));
    return reader;
}

TraceReader::TraceReader(const std::string &path)
{
    if (Status s = init(path); !s.ok())
        fatal("%s", s.message().c_str());
}

Status
TraceReader::init(const std::string &file_path)
{
    path = file_path;
    CS_FAILPOINT("trace.open.read");
    file = std::fopen(path.c_str(), "rb");
    if (!file) {
        return ioError("cannot open trace file '%s' for reading",
                       path.c_str());
    }
    CS_FAILPOINT("trace.read.header");
    // Identify the file before judging its length, so a short
    // non-trace file is reported as not a trace. header.magic starts
    // out valid, so only bytes actually read can fail the check.
    const std::size_t got = std::fread(&header, 1, sizeof(header), file);
    if (header.magic != TraceFileHeader::kMagic) {
        return corruptionError("'%s' is not a CacheScope trace (bad magic)",
                               path.c_str());
    }
    if (got != sizeof(header)) {
        return corruptionError("trace file '%s' is too short for a header",
                               path.c_str());
    }
    if (header.version != TraceFileHeader::kVersion) {
        return invalidArgumentError(
            "trace '%s' has unsupported version %u (this build reads "
            "v%u only)",
            path.c_str(), header.version, TraceFileHeader::kVersion);
    }
    // Large trace on a multicore host: hand fread + digest to a
    // read-ahead thread so they overlap the consumer's simulation
    // work instead of gating it. On a single CPU the thread can't
    // overlap anything and only adds switch overhead, so small traces
    // and unicore hosts take the synchronous path.
    // CACHESCOPE_TRACE_PIPELINE=0/1 overrides the heuristic (tests use
    // it to exercise the pipelined path on unicore CI).
    bool pipeline = header.numRecords >= kPipelineMinRecords &&
                    std::thread::hardware_concurrency() > 1;
    if (const char *env = std::getenv("CACHESCOPE_TRACE_PIPELINE"))
        pipeline = env[0] == '1';
    if (pipeline) {
        pipelined_ = true;
        chunkPool_.resize(3);
        for (Chunk &c : chunkPool_) {
            c.bytes.resize(kBatchRecords * sizeof(DiskRecord));
            freeChunks_.push_back(&c);
        }
        producer_ = std::thread(&TraceReader::producerLoop, this);
    }
    return Status();
}

TraceReader::~TraceReader()
{
    if (producer_.joinable()) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            shuttingDown_ = true;
        }
        cvProducer_.notify_all();
        producer_.join();
    }
    if (file)
        std::fclose(file);
}

void
TraceReader::producerLoop()
{
    for (;;) {
        Chunk *c = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cvProducer_.wait(lk, [&] {
                return shuttingDown_ || !freeChunks_.empty();
            });
            if (shuttingDown_)
                return;
            c = freeChunks_.front();
            freeChunks_.pop_front();
        }
        const std::size_t got =
            std::fread(c->bytes.data(), 1, c->bytes.size(), file);
        c->readError = std::ferror(file) != 0;
        c->stray = c->readError ? 0 : got % sizeof(DiskRecord);
        c->len = c->readError ? 0 : got - c->stray;
        checksum.update(c->bytes.data(), c->len);
        // A short read on a regular file means EOF (or the error
        // above): this chunk is the last.
        const bool last = c->readError || got < c->bytes.size();
        {
            std::lock_guard<std::mutex> lk(mu_);
            readyChunks_.push_back(c);
            if (last)
                producerDone_ = true;
        }
        cvConsumer_.notify_one();
        if (last)
            return;
    }
}

void
TraceReader::finishStream(std::size_t stray, bool read_error)
{
    done = true;
    if (read_error) {
        status_ = ioError("read error in trace '%s' after %llu records",
                          path.c_str(),
                          static_cast<unsigned long long>(recordsRead_));
    } else if (stray != 0) {
        status_ = corruptionError(
            "trace '%s' is truncated mid-record: expected %llu "
            "records, found %llu complete records plus %zu stray "
            "bytes",
            path.c_str(),
            static_cast<unsigned long long>(header.numRecords),
            static_cast<unsigned long long>(recordsRead_), stray);
    } else if (recordsRead_ != header.numRecords) {
        status_ = corruptionError(
            "trace '%s' record count mismatch: header expected %llu "
            "records, file actually holds %llu",
            path.c_str(),
            static_cast<unsigned long long>(header.numRecords),
            static_cast<unsigned long long>(recordsRead_));
    } else if (checksum.digest() != header.checksum) {
        status_ = corruptionError(
            "trace '%s' checksum mismatch: header says %016llx, "
            "records hash to %016llx (bit rot or concurrent write?)",
            path.c_str(),
            static_cast<unsigned long long>(header.checksum),
            static_cast<unsigned long long>(checksum.digest()));
    }
}

bool
TraceReader::refill()
{
    return pipelined_ ? refillPipelined() : refillSync();
}

bool
TraceReader::refillSync()
{
    if (buffer_.empty())
        buffer_.resize(kBatchRecords * sizeof(DiskRecord));
    bufPos_ = 0;
    bufLen_ = 0;
    const std::size_t got =
        std::fread(buffer_.data(), 1, buffer_.size(), file);
    if (std::ferror(file)) {
        finishStream(0, /*read_error=*/true);
        return false;
    }
    // A short read on a regular file means EOF: any non-multiple-of-24
    // remainder is a torn final record. The complete records in front
    // of it are still delivered; the truncation verdict is issued once
    // they are consumed and the next refill comes up empty.
    const std::size_t stray = got % sizeof(DiskRecord);
    if (stray != 0)
        stray_ = stray;
    bufLen_ = got - stray;
    if (bufLen_ != 0) {
        checksum.update(buffer_.data(), bufLen_);
        bufData_ = buffer_.data();
        return true;
    }
    finishStream(stray_, /*read_error=*/false);
    return false;
}

bool
TraceReader::refillPipelined()
{
    bufPos_ = 0;
    bufLen_ = 0;
    Chunk *c = nullptr;
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (current_) {
            freeChunks_.push_back(current_);
            current_ = nullptr;
            cvProducer_.notify_one();
        }
        cvConsumer_.wait(lk, [&] {
            return !readyChunks_.empty() || producerDone_;
        });
        if (readyChunks_.empty()) {
            // Producer exited after an earlier (possibly torn) chunk:
            // nothing more is coming. producerDone_ was observed under
            // the mutex, so the digest is safe to read.
            lk.unlock();
            finishStream(stray_, /*read_error=*/false);
            return false;
        }
        c = readyChunks_.front();
        readyChunks_.pop_front();
    }
    if (c->len == 0) {
        finishStream(c->stray != 0 ? c->stray : stray_, c->readError);
        return false;
    }
    if (c->stray != 0)
        stray_ = c->stray; // torn tail follows these complete records
    current_ = c;
    bufData_ = c->bytes.data();
    bufLen_ = c->len;
    return true;
}

bool
TraceReader::next(TraceRecord &rec)
{
    if (done)
        return false;
    if (failpoint::anyArmed()) {
        if (Status fp = failpoint::hit("trace.read.record"); !fp.ok()) {
            done = true;
            status_ = fp;
            return false;
        }
    }
    if (bufPos_ == bufLen_ && !refill())
        return false;
    DiskRecord d;
    std::memcpy(&d, bufData_ + bufPos_, sizeof(d));
    if (d.kind > static_cast<std::uint8_t>(InstKind::Branch)) {
        done = true;
        status_ = corruptionError(
            "corrupt record %llu in trace '%s' (kind=%u)",
            static_cast<unsigned long long>(recordsRead_), path.c_str(),
            d.kind);
        return false;
    }
    bufPos_ += sizeof(d);
    ++recordsRead_;
    rec.pc = d.pc;
    rec.addr = d.addr;
    rec.kind = static_cast<InstKind>(d.kind);
    rec.size = d.size;
    return true;
}

Status
TraceReader::replayInto(InstructionSink &sink, std::uint64_t *replayed)
{
    TraceRecord rec;
    std::uint64_t n = 0;
    while (next(rec)) {
        sink.onInstruction(rec);
        ++n;
    }
    if (replayed)
        *replayed = n;
    CS_TRY(status_);
    sink.onEnd();
    return Status();
}

} // namespace cachescope
