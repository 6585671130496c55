/**
 * @file
 * Tests for the file server and the UIO block read/write interface,
 * including the cached-file access-time calibration (Table 1 rows 3-4).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/kernel.h"
#include "hw/disk.h"
#include "managers/default_mgr.h"
#include "managers/spcm.h"
#include "uio/block_io.h"
#include "uio/file_server.h"
#include "uio/paging.h"

namespace vpp::uio {
namespace {

using kernel::runTask;
using sim::usec;

TEST(FileServer, SparseReadWrite)
{
    sim::Simulation s;
    hw::Disk disk(s, sim::msec(16), 2.0);
    FileServer fs(s, disk, usec(200));

    FileId f = fs.createFile("data", 1 << 20);
    EXPECT_TRUE(fs.exists(f));
    EXPECT_EQ(fs.fileSize(f), 1u << 20);
    EXPECT_FALSE(fs.exists(f + 100));

    // Unwritten ranges read as zeroes.
    std::vector<std::byte> buf(100);
    fs.readNow(f, 12345, buf);
    for (auto b : buf)
        EXPECT_EQ(b, std::byte{0});

    // Writes round-trip, including across the 64 KB chunk boundary.
    std::string msg = "spanning the chunk boundary";
    std::uint64_t off = (64 << 10) - 10;
    fs.writeNow(f, off, std::as_bytes(std::span(msg.data(), msg.size())));
    std::vector<std::byte> back(msg.size());
    fs.readNow(f, off, back);
    EXPECT_EQ(std::memcmp(back.data(), msg.data(), msg.size()), 0);
}

TEST(FileServer, WriteExtendsSize)
{
    sim::Simulation s;
    hw::Disk disk(s, sim::msec(16), 2.0);
    FileServer fs(s, disk, usec(200));
    FileId f = fs.createFile("log", 0);
    std::string msg = "hello";
    fs.writeNow(f, 100, std::as_bytes(std::span(msg.data(), msg.size())));
    EXPECT_EQ(fs.fileSize(f), 105u);
}

TEST(FileServer, TimedAccessCostsDisk)
{
    sim::Simulation s;
    hw::Disk disk(s, sim::msec(16), 2.0);
    FileServer fs(s, disk, usec(200));
    FileId f = fs.createFile("data", 64 << 10);
    std::vector<std::byte> buf(4096);
    runTask(s, fs.readBlock(f, 0, buf));
    // request overhead + positioning + transfer
    EXPECT_EQ(s.now(), usec(200) + sim::msec(16) + usec(2048));
    EXPECT_EQ(disk.reads(), 1u);
}

TEST(FileServer, ShareAndAdoptAliasChunks)
{
    sim::Simulation s;
    hw::Disk disk(s, sim::msec(16), 2.0);
    FileServer fs(s, disk, usec(200));
    FileId f = fs.createFile("data", 1 << 20);

    // Unwritten ranges share as null (zero) without materialising.
    EXPECT_FALSE(fs.shareNow(f, 0, 4096));

    std::vector<std::byte> blob(4096, std::byte{0x42});
    fs.writeNow(f, 4096, blob);
    hw::BufRef ref = fs.shareNow(f, 4096, 4096);
    ASSERT_TRUE(ref);
    EXPECT_EQ(ref.data()[0], std::byte{0x42});
    EXPECT_GE(ref.refCount(), 2u); // aliases the stored chunk

    // Rewriting the file clones the chunk: the snapshot is stable.
    std::vector<std::byte> blob2(4096, std::byte{0x7F});
    fs.writeNow(f, 4096, blob2);
    EXPECT_EQ(ref.data()[0], std::byte{0x42});
    EXPECT_EQ(fs.shareNow(f, 4096, 4096).data()[0], std::byte{0x7F});

    // Adopting a buffer publishes it; adopting null stores zeroes.
    fs.adoptNow(f, 8192, 4096, ref);
    std::vector<std::byte> back(4096);
    fs.readNow(f, 8192, back);
    EXPECT_EQ(back[0], std::byte{0x42});
    fs.adoptNow(f, 4096, 4096, hw::BufRef());
    fs.readNow(f, 4096, back);
    EXPECT_EQ(back[0], std::byte{0});
}

TEST(FileServer, DenseChunkTableEdges)
{
    sim::Simulation s;
    hw::Disk disk(s, sim::msec(16), 2.0);
    FileServer fs(s, disk, usec(200));
    FileId f = fs.createFile("data", 4 * 4096);

    // Chunk 2 written, 0-1 unwritten below it, 3 and past the end
    // beyond the table: all read back as zeroes.
    std::vector<std::byte> blob(4096, std::byte{0x5A});
    fs.writeNow(f, 2 * 4096, blob);
    std::vector<std::byte> back(3 * 4096, std::byte{0xFF});
    fs.readNow(f, 0, {back.data(), 2 * 4096});
    fs.readNow(f, 3 * 4096, {back.data() + 2 * 4096, 4096});
    for (auto b : back)
        ASSERT_EQ(b, std::byte{0});
    std::vector<std::byte> far(100, std::byte{0xFF});
    fs.readNow(f, 1 << 20, far); // far past the end of the file
    for (auto b : far)
        ASSERT_EQ(b, std::byte{0});
    EXPECT_FALSE(fs.shareNow(f, 4096, 4096));     // below the written one
    EXPECT_FALSE(fs.shareNow(f, 64 * 4096, 4096)); // past the table
    EXPECT_EQ(fs.shareNow(f, 2 * 4096, 4096).data()[0], std::byte{0x5A});

    // adoptNow(null) drops the chunk: it reads and shares as zero.
    fs.adoptNow(f, 2 * 4096, 4096, hw::BufRef());
    EXPECT_FALSE(fs.shareNow(f, 2 * 4096, 4096));
    std::vector<std::byte> one(4096, std::byte{0xFF});
    fs.readNow(f, 2 * 4096, one);
    EXPECT_EQ(one[0], std::byte{0});
    EXPECT_EQ(one[4095], std::byte{0});
    // Dropping a chunk past the table is a no-op that still extends
    // the file to cover the range, as a stored zero chunk would.
    fs.adoptNow(f, 9 * 4096, 4096, hw::BufRef());
    EXPECT_EQ(fs.fileSize(f), 10u * 4096);

    // writeNow grows the file and the table.
    fs.writeNow(f, 20 * 4096 + 10, {blob.data(), 6});
    EXPECT_EQ(fs.fileSize(f), 20u * 4096 + 16);
    std::vector<std::byte> tail(6);
    fs.readNow(f, 20 * 4096 + 10, tail);
    EXPECT_EQ(tail[5], std::byte{0x5A});

    // An unaligned share copies: later writes do not show through.
    fs.writeNow(f, 0, blob);
    hw::BufRef part = fs.shareNow(f, 100, 4096);
    ASSERT_TRUE(part);
    EXPECT_EQ(part.refCount(), 1u);
    EXPECT_EQ(part.data()[0], std::byte{0x5A});
    EXPECT_EQ(part.data()[4095], std::byte{0}); // spills into chunk 1
    std::vector<std::byte> blob2(4096, std::byte{0x11});
    fs.writeNow(f, 0, blob2);
    EXPECT_EQ(part.data()[0], std::byte{0x5A});
}

TEST(FileServer, UnknownIdsThrowOutOfRange)
{
    sim::Simulation s;
    hw::Disk disk(s, sim::msec(16), 2.0);
    FileServer fs(s, disk, usec(200));
    FileId a = fs.createFile("a", 10);
    FileId b = fs.createFile("b", 20);
    EXPECT_EQ(a, 1u); // ids start at 1; 0 is never a file
    EXPECT_EQ(b, 2u);
    EXPECT_FALSE(fs.exists(0));
    EXPECT_FALSE(fs.exists(3));
    EXPECT_FALSE(fs.exists(kInvalidFile));
    EXPECT_EQ(fs.fileSize(b), 20u);
    EXPECT_EQ(fs.fileName(a), "a");
    std::vector<std::byte> buf(8);
    EXPECT_THROW((void)fs.fileSize(0), std::out_of_range);
    EXPECT_THROW(fs.readNow(0, 0, buf), std::out_of_range);
    EXPECT_THROW((void)fs.fileSize(3), std::out_of_range);
    EXPECT_THROW(fs.writeNow(kInvalidFile, 0, buf), std::out_of_range);
    EXPECT_THROW((void)fs.shareNow(99, 0, 4096), std::out_of_range);
}

TEST(Paging, RoundTripSharesBuffersAndIsolatesWrites)
{
    sim::Simulation s;
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 16 << 20;
    kernel::Kernel kern(s, m);
    hw::Disk disk(s, sim::msec(16), 2.0);
    FileServer fs(s, disk, usec(200));
    FileId f = fs.createFile("rel", 4 * 4096);
    std::vector<std::byte> blob(4 * 4096, std::byte{0x5A});
    fs.writeNow(f, 0, blob);

    kernel::SegmentId seg = kern.createSegmentNow("cache", 4096, 4, 1);
    kern.migratePagesNow(kernel::kPhysSegment, seg, 0, 0, 4, 0, 0);

    std::int64_t live = hw::BufRef::threadLiveBytes();
    pageInNow(kern, fs, f, 0, seg, 0);
    // Page-in shares the file's chunk: no new host bytes.
    EXPECT_EQ(hw::BufRef::threadLiveBytes(), live);
    const kernel::PageEntry *e = kern.segment(seg).findPage(0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(kern.memory().peek(e->frame),
              fs.shareNow(f, 0, 4096).data());

    // A write to the cached page must not leak into the file bytes.
    std::vector<std::byte> dirty(8, std::byte{0x99});
    kern.writePageData(seg, 0, 0, dirty);
    std::vector<std::byte> filebytes(8);
    fs.readNow(f, 0, filebytes);
    EXPECT_EQ(filebytes[0], std::byte{0x5A});

    // Page-out publishes the dirty bytes back, again by reference.
    pageOutNow(kern, fs, f, 0, seg, 0);
    fs.readNow(f, 0, filebytes);
    EXPECT_EQ(filebytes[0], std::byte{0x99});
    EXPECT_EQ(kern.memory().peek(e->frame),
              fs.shareNow(f, 0, 4096).data());

    // A zero page pages out sparse: the file chunk is dropped.
    kern.memory().zero(kern.segment(seg).findPage(1)->frame);
    pageInNow(kern, fs, f, 2 * 4096, seg, 1);
    kern.memory().zero(kern.segment(seg).findPage(1)->frame);
    pageOutNow(kern, fs, f, 2 * 4096, seg, 1);
    EXPECT_FALSE(fs.shareNow(f, 2 * 4096, 4096));
    fs.readNow(f, 2 * 4096, filebytes);
    EXPECT_EQ(filebytes[0], std::byte{0});
}

TEST(Paging, ChargedPathMatchesBlockTiming)
{
    sim::Simulation s;
    hw::MachineConfig m = hw::decstation5000_200();
    m.memoryBytes = 16 << 20;
    kernel::Kernel kern(s, m);
    hw::Disk disk(s, sim::msec(16), 2.0);
    FileServer fs(s, disk, usec(200));
    FileId f = fs.createFile("rel", 4096);
    kernel::SegmentId seg = kern.createSegmentNow("cache", 4096, 1, 1);
    kern.migratePagesNow(kernel::kPhysSegment, seg, 0, 0, 1, 0, 0);

    runTask(s, pageIn(kern, fs, f, 0, seg, 0));
    // Same charge as readBlock: request overhead + seek + transfer.
    sim::Duration t1 = usec(200) + sim::msec(16) + usec(2048);
    EXPECT_EQ(s.now(), t1);

    runTask(s, pageOut(kern, fs, f, 0, seg, 0));
    // chargeCopy(4 KB) + the writeBlock charge on top.
    sim::Duration copy = static_cast<sim::Duration>(
        static_cast<double>(m.cost.copyPerKB) * 4);
    EXPECT_EQ(s.now(), t1 + copy + usec(200) + sim::msec(16) +
                           usec(2048));
}

/** Full V++ stack for block-I/O tests. */
class BlockIoTest : public ::testing::Test
{
  protected:
    BlockIoTest()
        : machine(makeMachine()), kern(s, machine),
          disk(s, machine.diskLatency, machine.diskBandwidthMBps),
          server(s, disk, usec(200)),
          spcm(kern, std::nullopt),
          ucds(kern, &spcm, server, reg), io(kern, reg),
          proc("app", 1)
    {
        ucds.initNow(4096, 512);
    }

    static hw::MachineConfig
    makeMachine()
    {
        hw::MachineConfig m = hw::decstation5000_200();
        m.memoryBytes = 16 << 20;
        return m;
    }

    sim::Simulation s;
    hw::MachineConfig machine;
    kernel::Kernel kern;
    hw::Disk disk;
    FileServer server;
    FileRegistry reg;
    mgr::SystemPageCacheManager spcm;
    mgr::DefaultSegmentManager ucds;
    BlockIo io;
    kernel::Process proc;
};

TEST_F(BlockIoTest, CachedRead4KCosts222us)
{
    FileId f = server.createFile("hot", 64 << 10);
    ucds.preloadFileNow(f);

    std::vector<std::byte> buf(4096);
    sim::SimTime t0 = s.now();
    std::uint64_t n = runTask(s, io.read(proc, f, 0, buf));
    EXPECT_EQ(n, 4096u);
    EXPECT_EQ(s.now() - t0, usec(222)); // Table 1: V++ Read 4KB
}

TEST_F(BlockIoTest, CachedWrite4KCosts203us)
{
    FileId f = server.createFile("hot", 64 << 10);
    ucds.preloadFileNow(f);

    std::vector<std::byte> buf(4096, std::byte{7});
    sim::SimTime t0 = s.now();
    std::uint64_t n = runTask(s, io.write(proc, f, 0, buf));
    EXPECT_EQ(n, 4096u);
    EXPECT_EQ(s.now() - t0, usec(203)); // Table 1: V++ Write 4KB
}

TEST_F(BlockIoTest, ReadRoundTripsData)
{
    FileId f = server.createFile("data", 32 << 10);
    std::vector<std::byte> content(32 << 10);
    for (std::size_t i = 0; i < content.size(); ++i)
        content[i] = static_cast<std::byte>(i * 31 % 251);
    server.writeNow(f, 0, content);
    ucds.preloadFileNow(f);

    // Read spanning several pages at an unaligned offset.
    std::vector<std::byte> buf(10000);
    std::uint64_t n = runTask(s, io.read(proc, f, 3000, buf));
    EXPECT_EQ(n, 10000u);
    EXPECT_EQ(std::memcmp(buf.data(), content.data() + 3000, 10000), 0);
}

TEST_F(BlockIoTest, ShortReadAtEof)
{
    FileId f = server.createFile("tiny", 5000);
    ucds.preloadFileNow(f);
    std::vector<std::byte> buf(4096);
    EXPECT_EQ(runTask(s, io.read(proc, f, 4096, buf)), 5000u - 4096);
    EXPECT_EQ(runTask(s, io.read(proc, f, 5000, buf)), 0u);
    EXPECT_EQ(runTask(s, io.read(proc, f, 9999, buf)), 0u);
}

TEST_F(BlockIoTest, ColdReadFaultsAndFetchesFromServer)
{
    FileId f = server.createFile("cold", 64 << 10);
    std::string msg = "from backing store";
    server.writeNow(f, 8192,
                    std::as_bytes(std::span(msg.data(), msg.size())));
    runTask(s, ucds.openFile(f));

    std::vector<std::byte> buf(msg.size());
    std::uint64_t faults_before = kern.stats().missingFaults;
    runTask(s, io.read(proc, f, 8192, buf));
    EXPECT_EQ(kern.stats().missingFaults, faults_before + 1);
    EXPECT_EQ(std::memcmp(buf.data(), msg.data(), msg.size()), 0);
    EXPECT_EQ(disk.reads(), 1u); // fetched exactly one block
    // Second read hits the cache: no disk.
    runTask(s, io.read(proc, f, 8192, buf));
    EXPECT_EQ(disk.reads(), 1u);
}

TEST_F(BlockIoTest, AppendAllocatesInSixteenKUnits)
{
    FileId f = server.createFile("out", 0);
    runTask(s, ucds.openFile(f));

    // Write 64 KB sequentially in 4 KB chunks: 16 pages needed, but
    // appends are allocated 4 pages at a time -> 4 manager calls.
    std::vector<std::byte> chunk(4096, std::byte{1});
    std::uint64_t calls_before = ucds.calls();
    for (int i = 0; i < 16; ++i)
        runTask(s, io.write(proc, f, i * 4096ull, chunk));
    EXPECT_EQ(ucds.calls() - calls_before, 4u);
    EXPECT_EQ(reg.sizeOf(f), 64u << 10);
}

TEST_F(BlockIoTest, WriteToUncachedFileThrows)
{
    FileId f = server.createFile("nocache", 4096);
    std::vector<std::byte> buf(16);
    EXPECT_THROW(runTask(s, io.write(proc, f, 0, buf)),
                 kernel::KernelError);
}

TEST_F(BlockIoTest, CloseWritesBackDirtyPagesAndFreesFrames)
{
    FileId f = server.createFile("wb", 16 << 10);
    ucds.preloadFileNow(f);
    std::vector<std::byte> data(4096, std::byte{0x5A});
    runTask(s, io.write(proc, f, 4096, data));

    std::uint64_t disk_writes_before = disk.writes();
    std::uint64_t free_before = ucds.freePages();
    runTask(s, ucds.closeFile(f));
    EXPECT_EQ(disk.writes(), disk_writes_before + 1); // one dirty page
    EXPECT_EQ(ucds.freePages(), free_before + 4);     // 16 KB returned
    EXPECT_FALSE(reg.isCached(f));

    // The dirty data reached the server.
    std::vector<std::byte> back(4096);
    server.readNow(f, 4096, back);
    EXPECT_EQ(back[100], std::byte{0x5A});

    std::string why;
    EXPECT_TRUE(kern.checkFrameInvariant(&why)) << why;
}

} // namespace
} // namespace vpp::uio
