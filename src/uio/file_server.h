/**
 * @file
 * Backing-storage file server.
 *
 * The paper's V++ workstation was diskless; file storage was provided
 * by a server reached over the network, and cached locally as segments.
 * This FileServer stands in for the remote server plus its disk: block
 * reads and writes cost a request overhead plus disk time. File bytes
 * are stored as a dense table of refcounted chunk buffers in which a
 * null entry reads as zeroes, so a file costs host memory only for
 * chunks actually written (plus one pointer per chunk index).
 */

#ifndef VPP_UIO_FILE_SERVER_H
#define VPP_UIO_FILE_SERVER_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hw/buf.h"
#include "hw/disk.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace vpp::uio {

using FileId = std::uint32_t;

constexpr FileId kInvalidFile = ~FileId{0};

class FileServer
{
  public:
    FileServer(sim::Simulation &s, hw::Disk &disk,
               sim::Duration request_overhead)
        : sim_(&s), disk_(&disk), requestOverhead_(request_overhead)
    {}

    FileId
    createFile(std::string name, std::uint64_t size)
    {
        files_.push_back(File{std::move(name), size, {}});
        return static_cast<FileId>(files_.size()); // ids start at 1
    }

    bool exists(FileId f) const { return f >= 1 && f <= files_.size(); }
    std::uint64_t fileSize(FileId f) const { return fileOrThrow(f).size; }
    const std::string &fileName(FileId f) const
    {
        return fileOrThrow(f).name;
    }

    void
    resizeFile(FileId f, std::uint64_t size)
    {
        fileOrThrow(f).size = size;
    }

    /** Server read: request overhead + disk access. */
    sim::Task<>
    readBlock(FileId f, std::uint64_t offset, std::span<std::byte> out)
    {
        readNow(f, offset, out);
        co_await sim_->delay(requestOverhead_);
        co_await disk_->read(out.size());
    }

    /** Server write: request overhead + disk access. */
    sim::Task<>
    writeBlock(FileId f, std::uint64_t offset,
               std::span<const std::byte> data)
    {
        writeNow(f, offset, data);
        co_await sim_->delay(requestOverhead_);
        co_await disk_->write(data.size());
    }

    /** Functional read with no simulated time (setup, verification). */
    void readNow(FileId f, std::uint64_t offset,
                 std::span<std::byte> out) const;

    /** Functional write with no simulated time (setup, verification). */
    void writeNow(FileId f, std::uint64_t offset,
                  std::span<const std::byte> data);

    /**
     * Refcounted handle to the chunk-aligned range [offset, offset+len)
     * with no simulated time or byte copy when the range is exactly one
     * chunk. A null ref means the range reads as zeroes. Unaligned or
     * multi-chunk ranges fall back to copying into a fresh buffer.
     */
    hw::BufRef shareNow(FileId f, std::uint64_t offset,
                        std::uint64_t len) const;

    /**
     * Publish @p buf as the file bytes at the chunk-aligned range
     * [offset, offset+len) — the zero-copy counterpart of writeNow. A
     * null @p buf stores zeroes (the chunk is dropped, staying sparse).
     * Unaligned or non-chunk-sized ranges fall back to writeNow.
     */
    void adoptNow(FileId f, std::uint64_t offset, std::uint64_t len,
                  hw::BufRef buf);

    hw::Disk &disk() { return *disk_; }

    /** Per-request server overhead charged before the disk access. */
    sim::Duration requestOverhead() const { return requestOverhead_; }

  private:
    // One chunk per page frame, so the paging path (uio/paging.h) can
    // move whole-chunk buffers between frames and files by reference.
    static constexpr std::uint64_t kChunk = 4096;

    struct File
    {
        std::string name;
        std::uint64_t size = 0;
        /// Indexed by offset / kChunk; a null (or missing) entry
        /// reads as zeroes.
        std::vector<hw::BufRef> chunks;

        const hw::BufRef *
        chunkAt(std::uint64_t index) const
        {
            return index < chunks.size() && chunks[index] ? &chunks[index]
                                                         : nullptr;
        }

        hw::BufRef &
        slotAt(std::uint64_t index)
        {
            if (index >= chunks.size())
                chunks.resize(index + 1);
            return chunks[index];
        }
    };

    File &fileOrThrow(FileId f);
    const File &fileOrThrow(FileId f) const;

    sim::Simulation *sim_;
    hw::Disk *disk_;
    sim::Duration requestOverhead_;
    std::vector<File> files_; ///< file id f lives at files_[f - 1]
};

} // namespace vpp::uio

#endif // VPP_UIO_FILE_SERVER_H
