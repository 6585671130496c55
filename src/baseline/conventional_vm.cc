#include "baseline/conventional_vm.h"

#include <algorithm>

namespace vpp::baseline {

ConventionalVm::ConventionalVm(sim::Simulation &s,
                               const hw::MachineConfig &machine,
                               uio::FileServer &server,
                               std::uint32_t io_unit)
    : sim_(&s), machine_(machine), server_(&server), ioUnit_(io_unit)
{}

ProcId
ConventionalVm::createProcess(std::string name)
{
    procs_.push_back(std::move(name));
    ProcId id = static_cast<ProcId>(procs_.size() - 1);
    pageTables_[id] = {};
    return id;
}

sim::Duration
ConventionalVm::minimalFaultCost() const
{
    const auto &c = machine_.cost;
    sim::Duration zero = static_cast<sim::Duration>(
        static_cast<double>(c.pageZeroPerKB) * machine_.pageSize /
        1024.0);
    return c.trapEnter + c.bKernelFaultWork + zero + c.bMapInstall +
           c.trapExit;
}

sim::Duration
ConventionalVm::userFaultCost() const
{
    const auto &c = machine_.cost;
    return c.trapEnter + c.bSignalDeliver + c.bMprotect + c.bSigreturn;
}

sim::Task<>
ConventionalVm::touch(ProcId p, std::uint64_t vaddr)
{
    std::uint64_t page = vaddr / machine_.pageSize;
    auto &pt = pageTables_.at(p);
    if (pt.count(page))
        co_return;
    ++stats_.faults;
    ++stats_.zeroFills;
    co_await sim_->delay(minimalFaultCost());
    pt.insert(page);
}

sim::Task<>
ConventionalVm::protectedTouch(ProcId p, std::uint64_t vaddr)
{
    (void)p;
    (void)vaddr;
    ++stats_.userFaults;
    co_await sim_->delay(userFaultCost());
}

void
ConventionalVm::invalidate(ProcId p, std::uint64_t vaddr)
{
    pageTables_.at(p).erase(vaddr / machine_.pageSize);
}

sim::Task<std::uint64_t>
ConventionalVm::read(ProcId p, uio::FileId f, std::uint64_t offset,
                     std::span<std::byte> out)
{
    (void)p;
    const auto &c = machine_.cost;
    std::uint64_t size = server_->fileSize(f);
    if (offset >= size)
        co_return 0;
    std::uint64_t want =
        std::min<std::uint64_t>(out.size(), size - offset);
    File &file = cache_[f];

    std::uint64_t done = 0;
    while (done < want) {
        std::uint64_t pos = offset + done;
        std::uint64_t block = pos / ioUnit_;
        std::uint64_t in_block = pos % ioUnit_;
        std::uint64_t n =
            std::min<std::uint64_t>(ioUnit_ - in_block, want - done);
        ++stats_.readCalls;
        co_await sim_->delay(c.syscall + c.bFileLookup);
        if (!file.resident.count(block)) {
            ++stats_.blockFetches;
            // The block's bytes already live on the server; only the
            // fetch cost is real, so charge it without staging the
            // data through a scratch buffer.
            co_await chargeBlock(false);
            file.resident.insert(block);
        }
        server_->readNow(f, pos, out.subspan(done, n));
        co_await sim_->delay(static_cast<sim::Duration>(
            static_cast<double>(c.copyPerKB) * n / 1024.0));
        done += n;
    }
    co_return done;
}

sim::Task<std::uint64_t>
ConventionalVm::write(ProcId p, uio::FileId f, std::uint64_t offset,
                      std::span<const std::byte> data)
{
    (void)p;
    const auto &c = machine_.cost;
    File &file = cache_[f];
    std::uint64_t done = 0;
    while (done < data.size()) {
        std::uint64_t pos = offset + done;
        std::uint64_t block = pos / ioUnit_;
        std::uint64_t in_block = pos % ioUnit_;
        std::uint64_t n = std::min<std::uint64_t>(ioUnit_ - in_block,
                                                  data.size() - done);
        ++stats_.writeCalls;
        co_await sim_->delay(c.syscall + c.bFileLookup + c.bWriteExtra);
        // Write-allocate into the buffer cache; data goes to the
        // server's bytes now, disk traffic happens at writeback.
        server_->writeNow(f, pos, data.subspan(done, n));
        file.resident.insert(block);
        file.dirty.insert(block);
        co_await sim_->delay(static_cast<sim::Duration>(
            static_cast<double>(c.copyPerKB) * n / 1024.0));
        done += n;
    }
    co_return done;
}

sim::Task<>
ConventionalVm::closeFile(uio::FileId f)
{
    auto it = cache_.find(f);
    if (it == cache_.end())
        co_return;
    for (std::uint64_t block : it->second.dirty) {
        ++stats_.blockWritebacks;
        // The dirty bytes were published to the server at write();
        // writeback charges the disk traffic and, like a real
        // block-granular flush, extends the file to the block edge.
        std::uint64_t end =
            (block + 1) * static_cast<std::uint64_t>(ioUnit_);
        co_await chargeBlock(true);
        server_->resizeFile(f, std::max(server_->fileSize(f), end));
    }
    cache_.erase(it);
}

void
ConventionalVm::preloadFileNow(uio::FileId f)
{
    File &file = cache_[f];
    std::uint64_t blocks =
        (server_->fileSize(f) + ioUnit_ - 1) / ioUnit_;
    for (std::uint64_t b = 0; b < blocks; ++b)
        file.resident.insert(b);
}

} // namespace vpp::baseline
