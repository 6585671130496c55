#include "uio/file_server.h"

#include <cstring>
#include <stdexcept>

namespace vpp::uio {

FileServer::File &
FileServer::fileOrThrow(FileId f)
{
    if (!exists(f))
        throw std::out_of_range("no such file: " + std::to_string(f));
    return files_[f - 1];
}

const FileServer::File &
FileServer::fileOrThrow(FileId f) const
{
    if (!exists(f))
        throw std::out_of_range("no such file: " + std::to_string(f));
    return files_[f - 1];
}

void
FileServer::readNow(FileId f, std::uint64_t offset,
                    std::span<std::byte> out) const
{
    const File &file = fileOrThrow(f);
    std::size_t done = 0;
    while (done < out.size()) {
        std::uint64_t pos = offset + done;
        std::uint64_t chunk = pos / kChunk * kChunk;
        std::uint64_t in_chunk = pos - chunk;
        std::size_t n = std::min<std::size_t>(kChunk - in_chunk,
                                              out.size() - done);
        if (const hw::BufRef *buf = file.chunkAt(chunk / kChunk))
            std::memcpy(out.data() + done, buf->data() + in_chunk, n);
        else
            std::memset(out.data() + done, 0, n);
        done += n;
    }
}

void
FileServer::writeNow(FileId f, std::uint64_t offset,
                     std::span<const std::byte> data)
{
    File &file = fileOrThrow(f);
    std::size_t done = 0;
    while (done < data.size()) {
        std::uint64_t pos = offset + done;
        std::uint64_t chunk = pos / kChunk * kChunk;
        std::uint64_t in_chunk = pos - chunk;
        std::size_t n = std::min<std::size_t>(kChunk - in_chunk,
                                              data.size() - done);
        hw::BufRef &buf = file.slotAt(chunk / kChunk);
        if (!buf)
            buf = hw::BufRef::allocate(kChunk);
        std::memcpy(buf.mutate() + in_chunk, data.data() + done, n);
        done += n;
    }
    file.size = std::max(file.size, offset + data.size());
}

hw::BufRef
FileServer::shareNow(FileId f, std::uint64_t offset,
                     std::uint64_t len) const
{
    const File &file = fileOrThrow(f);
    if (offset % kChunk == 0 && len == kChunk) {
        const hw::BufRef *buf = file.chunkAt(offset / kChunk);
        return buf ? *buf : hw::BufRef();
    }
    hw::BufRef buf = hw::BufRef::allocate(static_cast<std::uint32_t>(len));
    readNow(f, offset, {buf.mutate(), len});
    return buf;
}

void
FileServer::adoptNow(FileId f, std::uint64_t offset, std::uint64_t len,
                     hw::BufRef buf)
{
    File &file = fileOrThrow(f);
    if (offset % kChunk != 0 || len != kChunk ||
        (buf && buf.size() != kChunk)) {
        if (buf)
            writeNow(f, offset, {buf.data(), buf.size()});
        else {
            std::vector<std::byte> zeros(len);
            writeNow(f, offset, zeros);
        }
        return;
    }
    if (buf)
        file.slotAt(offset / kChunk) = std::move(buf);
    else if (offset / kChunk < file.chunks.size())
        file.chunks[offset / kChunk].reset();
    file.size = std::max(file.size, offset + len);
}

} // namespace vpp::uio
