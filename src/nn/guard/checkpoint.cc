/**
 * @file
 * Implementation of checkpoint serialization.
 */

#include "nn/guard/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>


#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/fileutil.h"
#include "common/logging.h"

namespace cq::nn::guard {

namespace {

constexpr char kMagic[8] = {'C', 'Q', 'C', 'K', 'P', 'T', '0', '1'};

/** Paranoia bounds for reading possibly-corrupt headers: reject
 *  absurd dimension counts / element counts before allocating. */
constexpr std::uint32_t kMaxNdim = 16;
constexpr std::uint64_t kMaxNumel = 1ull << 32;
constexpr std::uint64_t kMaxParams = 1ull << 24;

/** FILE sink that maintains a running CRC of everything written. */
class CrcWriter
{
  public:
    CrcWriter(std::FILE *f, const CheckpointWriteOptions &options)
        : f_(f), options_(options),
          writeSite_(options.failpointPrefix + ".write")
    {
    }

    bool
    write(const void *data, std::size_t len)
    {
        crc_ = crc32(data, len, crc_);
        return rawWrite(data, len);
    }

    template <typename T>
    bool
    writePod(const T &value)
    {
        return write(&value, sizeof(T));
    }

    /** Emit the running CRC itself (not folded into the next CRC). */
    bool
    writeCrc()
    {
        const std::uint32_t c = crc_;
        crc_ = 0;
        return rawWrite(&c, sizeof(c));
    }

    /** CRC over every byte the file received (including the embedded
     *  section CRCs) — what the generation manifest records. */
    std::uint32_t fileCrc() const { return fileCrc_; }

  private:
    bool
    rawWrite(const void *data, std::size_t len)
    {
        if (io::fwriteFp(writeSite_, data, len, f_) != len)
            return false;
        fileCrc_ = crc32(data, len, fileCrc_);
        if (options_.onWrite)
            options_.onWrite(len);
        return true;
    }

    std::FILE *f_;
    const CheckpointWriteOptions &options_;
    std::string writeSite_;
    std::uint32_t crc_ = 0;
    std::uint32_t fileCrc_ = 0;
};

/** FILE source mirroring CrcWriter. */
class CrcReader
{
  public:
    explicit CrcReader(std::FILE *f) : f_(f)
    {
        // Remember the file size so header-claimed payload lengths
        // can be sanity-checked *before* any allocation: a corrupt
        // dim field must fail fast, not zero gigabytes of memory.
        const long cur = std::ftell(f_);
        if (cur >= 0 && std::fseek(f_, 0, SEEK_END) == 0) {
            size_ = std::ftell(f_);
            std::fseek(f_, cur, SEEK_SET);
        }
    }

    /** Bytes between the cursor and end-of-file. */
    std::uint64_t
    remaining() const
    {
        const long pos = std::ftell(f_);
        if (pos < 0 || size_ < pos)
            return 0;
        return static_cast<std::uint64_t>(size_ - pos);
    }

    bool
    read(void *data, std::size_t len)
    {
        if (io::freadFp("ckpt.read.read", data, len, f_) != len)
            return false;
        crc_ = crc32(data, len, crc_);
        return true;
    }

    template <typename T>
    bool
    readPod(T &value)
    {
        return read(&value, sizeof(T));
    }

    /** What comparing the stored CRC against the running one found. */
    enum class CrcCheck
    {
        Ok,
        Truncated, ///< the stored CRC itself could not be read
        Mismatch,
    };

    CrcCheck
    checkCrcDetail()
    {
        std::uint32_t stored;
        if (io::freadFp("ckpt.read.read", &stored, sizeof(stored),
                        f_) != sizeof(stored)) {
            return CrcCheck::Truncated;
        }
        const bool ok = stored == crc_;
        crc_ = 0;
        return ok ? CrcCheck::Ok : CrcCheck::Mismatch;
    }

    /** Read the stored CRC and compare with the running one. */
    bool checkCrc() { return checkCrcDetail() == CrcCheck::Ok; }

  private:
    std::FILE *f_;
    long size_ = 0;
    std::uint32_t crc_ = 0;
};

bool
writeTensor(CrcWriter &w, const Tensor &t)
{
    const std::uint32_t ndim = static_cast<std::uint32_t>(t.ndim());
    if (!w.writePod(ndim))
        return false;
    for (std::size_t d = 0; d < t.ndim(); ++d) {
        const std::uint64_t dim = t.dim(d);
        if (!w.writePod(dim))
            return false;
    }
    if (!w.write(t.data(), t.numel() * sizeof(float)))
        return false;
    return w.writeCrc();
}

/** Why one tensor record failed to load (for the diagnostics). */
enum class TensorReadError
{
    None,
    Truncated,   ///< the file ended inside the record
    BadHeader,   ///< implausible ndim / dims (corrupted header)
    CrcMismatch, ///< payload read fine but its CRC disagrees
};

const char *
tensorReadErrorName(TensorReadError e)
{
    switch (e) {
      case TensorReadError::None:        return "ok";
      case TensorReadError::Truncated:   return "truncated";
      case TensorReadError::BadHeader:   return "bad header";
      case TensorReadError::CrcMismatch: return "CRC mismatch";
    }
    return "?";
}

TensorReadError
readTensor(CrcReader &r, Tensor &out)
{
    std::uint32_t ndim;
    if (!r.readPod(ndim))
        return TensorReadError::Truncated;
    if (ndim > kMaxNdim)
        return TensorReadError::BadHeader;
    Shape shape(ndim);
    std::uint64_t numel = 1;
    for (auto &d : shape) {
        std::uint64_t dim;
        if (!r.readPod(dim))
            return TensorReadError::Truncated;
        d = static_cast<std::size_t>(dim);
        // Guard the product against overflow before multiplying.
        if (dim != 0 && numel > kMaxNumel / dim)
            return TensorReadError::BadHeader;
        numel *= dim;
    }
    // The payload cannot exceed what the file actually holds; a
    // corrupt dim field otherwise triggers a huge allocation before
    // the inevitable CRC failure.
    if (numel * sizeof(float) > r.remaining())
        return TensorReadError::Truncated;
    // Allocation-failure injection point: a reader that cannot obtain
    // the payload buffer must classify the load as corrupt (and fall
    // back to an older generation), never die on bad_alloc.
    if (const auto fpo = CQ_FAILPOINT("ckpt.read.alloc")) {
        if (fpo.kind != fp::ActionKind::Delay)
            return TensorReadError::BadHeader;
    }
    Tensor t(shape);
    if (t.numel() > kMaxNumel)
        return TensorReadError::BadHeader;
    if (!r.read(t.data(), t.numel() * sizeof(float)))
        return TensorReadError::Truncated;
    switch (r.checkCrcDetail()) {
      case CrcReader::CrcCheck::Ok:
        break;
      case CrcReader::CrcCheck::Truncated:
        return TensorReadError::Truncated;
      case CrcReader::CrcCheck::Mismatch:
        return TensorReadError::CrcMismatch;
    }
    out = std::move(t);
    return TensorReadError::None;
}

bool
writeBody(CrcWriter &w, const TrainerSnapshot &snap)
{
    if (!w.write(kMagic, sizeof(kMagic)))
        return false;
    if (!w.writePod(snap.step) || !w.writePod(snap.optimizerStep))
        return false;
    const std::uint8_t has_rng = snap.hasRngState ? 1 : 0;
    if (!w.writePod(has_rng))
        return false;
    for (std::uint64_t s : snap.rngState.s)
        if (!w.writePod(s))
            return false;
    const std::uint8_t has_cached = snap.rngState.hasCached ? 1 : 0;
    if (!w.writePod(has_cached))
        return false;
    std::uint64_t cached_bits;
    std::memcpy(&cached_bits, &snap.rngState.cached,
                sizeof(cached_bits));
    if (!w.writePod(cached_bits))
        return false;
    const std::uint64_t params =
        static_cast<std::uint64_t>(snap.masters.size());
    if (!w.writePod(params))
        return false;
    if (!w.writeCrc())
        return false;

    for (const auto *group : {&snap.masters, &snap.m, &snap.v})
        for (const Tensor &t : *group)
            if (!writeTensor(w, t))
                return false;
    return true;
}

} // namespace

const char *
checkpointLoadResultName(CheckpointLoadResult result)
{
    switch (result) {
      case CheckpointLoadResult::Ok:      return "ok";
      case CheckpointLoadResult::Missing: return "missing";
      case CheckpointLoadResult::Corrupt: return "corrupt";
    }
    return "?";
}

const char *
checkpointWriteResultName(CheckpointWriteResult result)
{
    switch (result) {
      case CheckpointWriteResult::Ok:            return "ok";
      case CheckpointWriteResult::OpenFailed:    return "open failed";
      case CheckpointWriteResult::WriteFailed:   return "write failed";
      case CheckpointWriteResult::FsyncFailed:   return "fsync failed";
      case CheckpointWriteResult::RenameFailed:  return "rename failed";
      case CheckpointWriteResult::DirFsyncFailed:
        return "dir fsync failed";
      case CheckpointWriteResult::DirMissing:
        return "directory missing";
      case CheckpointWriteResult::NoSpace:
        return "no space";
    }
    return "?";
}

CheckpointWriteResult
writeCheckpointEx(const std::string &path, const TrainerSnapshot &snap,
                  const CheckpointWriteOptions &options,
                  std::uint32_t *fileCrcOut)
{
    CQ_ASSERT_MSG(snap.m.size() == snap.masters.size() &&
                      snap.v.size() == snap.masters.size(),
                  "snapshot group sizes differ: masters=%zu m=%zu v=%zu",
                  snap.masters.size(), snap.m.size(), snap.v.size());
    const std::string tmp = path + ".tmp";
    const std::string &fpPrefix = options.failpointPrefix;
    errno = 0;
    std::FILE *f = io::fopenFp(fpPrefix + ".open", tmp, "wb");
    if (f == nullptr) {
        const bool gone = errno == ENOENT;
        warn("checkpoint: cannot open %s for writing%s", tmp.c_str(),
             gone ? " (directory missing)" : "");
        return gone ? CheckpointWriteResult::DirMissing
                    : CheckpointWriteResult::OpenFailed;
    }
    CrcWriter w(f, options);
    bool ok;
    errno = 0;
    try {
        ok = writeBody(w, snap);
    } catch (...) {
        // The onWrite hook threw: clean up the torn temp file, then
        // let the caller (e.g. the async writer) see the exception.
        std::fclose(f);
        std::remove(tmp.c_str());
        throw;
    }
    ok = ok && io::fflushFp(fpPrefix + ".write", f) == 0;
    if (!ok) {
        const bool full = errno == ENOSPC;
        warn("checkpoint: write to %s failed%s", tmp.c_str(),
             full ? " (no space)" : "");
        std::fclose(f);
        std::remove(tmp.c_str());
        return full ? CheckpointWriteResult::NoSpace
                    : CheckpointWriteResult::WriteFailed;
    }
    // Durability order matters: file bytes must be on stable storage
    // *before* the rename makes them the committed snapshot, and the
    // directory entry after it. An fsync failure is a distinct error —
    // the write calls all succeeded, but nothing is guaranteed durable.
    errno = 0;
    if (options.durable &&
        !io::fsyncFdFp(fpPrefix + ".fsync", ::fileno(f))) {
        const bool full = errno == ENOSPC;
        warn("checkpoint: fsync of %s failed", tmp.c_str());
        std::fclose(f);
        std::remove(tmp.c_str());
        return full ? CheckpointWriteResult::NoSpace
                    : CheckpointWriteResult::FsyncFailed;
    }
    errno = 0;
    if (io::fcloseFp(fpPrefix + ".close", f) != 0) {
        const bool full = errno == ENOSPC;
        warn("checkpoint: close of %s failed", tmp.c_str());
        std::remove(tmp.c_str());
        return full ? CheckpointWriteResult::NoSpace
                    : CheckpointWriteResult::WriteFailed;
    }
    errno = 0;
    if (io::renameFp(fpPrefix + ".rename", tmp, path) != 0) {
        const bool gone = errno == ENOENT;
        const bool full = errno == ENOSPC;
        warn("checkpoint: rename %s -> %s failed%s", tmp.c_str(),
             path.c_str(), gone ? " (directory missing)" : "");
        std::remove(tmp.c_str());
        if (gone)
            return CheckpointWriteResult::DirMissing;
        return full ? CheckpointWriteResult::NoSpace
                    : CheckpointWriteResult::RenameFailed;
    }
    if (options.durable &&
        !io::fsyncPathFp(fpPrefix + ".dirfsync", parentDir(path))) {
        warn("checkpoint: directory fsync after committing %s failed",
             path.c_str());
        return CheckpointWriteResult::DirFsyncFailed;
    }
    if (fileCrcOut != nullptr)
        *fileCrcOut = w.fileCrc();
    return CheckpointWriteResult::Ok;
}

CheckpointLoadResult
readCheckpoint(const std::string &path, TrainerSnapshot &out)
{
    errno = 0;
    std::FILE *f = io::fopenFp("ckpt.read.open", path, "rb");
    if (f == nullptr) {
        // ENOENT means no snapshot was ever committed; any other
        // errno (EACCES, EIO, injected failures) means a file that
        // exists but cannot be read — classify it Corrupt so the
        // generation scan falls back to an older entry instead of
        // concluding "cold start".
        return errno == ENOENT || !pathExists(path)
                   ? CheckpointLoadResult::Missing
                   : CheckpointLoadResult::Corrupt;
    }
    CrcReader r(f);
    const auto corrupt = [&] {
        std::fclose(f);
        return CheckpointLoadResult::Corrupt;
    };

    char magic[8];
    if (!r.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        return corrupt();
    }
    if (!r.readPod(out.step) || !r.readPod(out.optimizerStep))
        return corrupt();
    std::uint8_t has_rng;
    if (!r.readPod(has_rng) || has_rng > 1)
        return corrupt();
    out.hasRngState = has_rng == 1;
    for (auto &s : out.rngState.s)
        if (!r.readPod(s))
            return corrupt();
    std::uint8_t has_cached;
    if (!r.readPod(has_cached) || has_cached > 1)
        return corrupt();
    out.rngState.hasCached = has_cached == 1;
    std::uint64_t cached_bits;
    if (!r.readPod(cached_bits))
        return corrupt();
    std::memcpy(&out.rngState.cached, &cached_bits,
                sizeof(cached_bits));
    std::uint64_t params;
    if (!r.readPod(params) || params > kMaxParams)
        return corrupt();
    if (!r.checkCrc())
        return corrupt();
    // Each parameter contributes three tensor records of >= 8 bytes
    // (ndim + CRC) each; a count the file cannot hold is corruption,
    // caught here before sizing the output vectors.
    if (params * 3ull * 8ull > r.remaining())
        return corrupt();

    out.masters.assign(static_cast<std::size_t>(params), Tensor{});
    out.m.assign(static_cast<std::size_t>(params), Tensor{});
    out.v.assign(static_cast<std::size_t>(params), Tensor{});
    struct
    {
        const char *name;
        std::vector<Tensor> *tensors;
    } const groups[] = {{"masters", &out.masters},
                        {"m", &out.m},
                        {"v", &out.v}};
    for (const auto &group : groups) {
        for (std::size_t i = 0; i < group.tensors->size(); ++i) {
            const long offset = std::ftell(f);
            const TensorReadError e =
                readTensor(r, (*group.tensors)[i]);
            if (e != TensorReadError::None) {
                // Name the record so a bad rollback source can be
                // traced to the tensor: group, index, byte offset.
                warn("checkpoint: %s: tensor %s[%zu] at offset %ld: "
                     "%s",
                     path.c_str(), group.name, i, offset,
                     tensorReadErrorName(e));
                return corrupt();
            }
        }
    }

    // Trailing garbage means the file is not the record we wrote.
    char extra;
    if (std::fread(&extra, 1, 1, f) != 0)
        return corrupt();
    std::fclose(f);
    return CheckpointLoadResult::Ok;
}

} // namespace cq::nn::guard
