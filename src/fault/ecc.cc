#include "fault/ecc.h"

#include <algorithm>
#include <bit>
#include <vector>

namespace isrf {

const char *
eccStatusName(EccStatus st)
{
    switch (st) {
      case EccStatus::Clean: return "clean";
      case EccStatus::Corrected: return "corrected";
      case EccStatus::Uncorrectable: return "uncorrectable";
    }
    return "?";
}

void
EccDomain::inject(uint64_t addr, Word mask, bool transient, Word *storage)
{
    if (mask == 0)
        return;
    *storage ^= mask;
    faultsInjected_++;
    bitsFlipped_ += std::popcount(mask);
    Entry &e = entries_[addr];
    e.mask ^= mask;
    e.transient = transient;
    if (e.mask == 0)
        entries_.erase(addr);  // flips cancelled; word is intact again
}

EccStatus
EccDomain::check(uint64_t addr, Word *storage)
{
    auto it = entries_.find(addr);
    if (it == entries_.end())
        return EccStatus::Clean;
    const Entry e = it->second;
    if (std::popcount(e.mask) == 1) {
        *storage ^= e.mask;
        entries_.erase(it);
        corrected_++;
        return EccStatus::Corrected;
    }
    uncorrectable_++;
    if (e.transient) {
        // The cell data was never corrupted; only this observation was.
        *storage ^= e.mask;
        entries_.erase(it);
    }
    return EccStatus::Uncorrectable;
}

void
EccDomain::onWrite(uint64_t addr)
{
    entries_.erase(addr);
}

void
EccDomain::onWriteRange(uint64_t addr, uint64_t n)
{
    if (entries_.empty())
        return;
    for (uint64_t i = 0; i < n && !entries_.empty(); i++)
        entries_.erase(addr + i);
}

uint64_t
EccDomain::scrub(const std::function<Word *(uint64_t)> &at)
{
    std::vector<uint64_t> addrs;
    addrs.reserve(entries_.size());
    for (const auto &kv : entries_)
        addrs.push_back(kv.first);
    uint64_t repaired = 0;
    for (uint64_t addr : addrs) {
        if (check(addr, at(addr)) != EccStatus::Uncorrectable)
            repaired++;
    }
    return repaired;
}

void
EccDomain::clear()
{
    entries_.clear();
    faultsInjected_ = 0;
    bitsFlipped_ = 0;
    corrected_ = 0;
    uncorrectable_ = 0;
}

void
EccDomain::snapshot(SnapshotIo &io)
{
    // The hash map's order is not deterministic: a save sorts the
    // pending faults by address, a load rebuilds the map from them.
    std::vector<std::pair<uint64_t, Entry>> sorted;
    if (io.saving()) {
        sorted.assign(entries_.begin(), entries_.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
    }
    io.seq(sorted, 13, [&](std::pair<uint64_t, Entry> &p) {
        io.u64(p.first);
        io.u32(p.second.mask);
        io.b(p.second.transient);
    });
    if (io.loading() && io.ok()) {
        entries_.clear();
        for (const auto &[addr, e] : sorted)
            entries_[addr] = e;
    }
    io.u64(faultsInjected_);
    io.u64(bitsFlipped_);
    io.u64(corrected_);
    io.u64(uncorrectable_);
}

} // namespace isrf
