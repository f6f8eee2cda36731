#include "fault/fault_injector.h"

#include <algorithm>
#include <bit>

#include "mem/memory_system.h"
#include "net/crossbar.h"
#include "sim/trace.h"
#include "srf/srf.h"
#include "util/log.h"

namespace isrf {

void
FaultInjector::init(const FaultConfig &cfg, uint64_t machineSeed,
                    Srf *srf, MemorySystem *mem, Crossbar *xbar,
                    Tracer *tracer)
{
    trc_ = tracer;
    cfg_ = cfg;
    srf_ = srf;
    mem_ = mem;
    xbar_ = xbar;
    rng_.reseed(cfg.seed ? cfg.seed : machineSeed * 0x9e37u + 0xfau);
    sched_.clear();
    for (const FaultScheduleEntry &e : cfg.schedule)
        sched_.push_back({e, e.start, e.count});
    traceCh_ = trc_ ? trc_->channel("fault") : 0;
}

bool
FaultInjector::exhausted() const
{
    for (const EntryState &st : sched_)
        if (st.remaining > 0)
            return false;
    return true;
}

Word
FaultInjector::randomMask(uint32_t bits)
{
    bits = std::min(bits, 32u);
    Word mask = 0;
    while (static_cast<uint32_t>(std::popcount(mask)) < bits)
        mask |= Word(1) << rng_.below(32);
    return mask;
}

void
FaultInjector::fire(const FaultScheduleEntry &e, Cycle now)
{
    stats_.counter(faultKindName(e.kind)).inc();
    if (trc_ && trc_->on())
        trc_->instant(traceCh_, faultKindName(e.kind), now);

    switch (e.kind) {
      case FaultKind::SrfBit: {
        const SrfGeometry &g = srf_->geometry();
        uint32_t lane = static_cast<uint32_t>(rng_.below(g.lanes));
        uint64_t range = g.laneWords;
        if (e.maxAddr)
            range = std::min<uint64_t>(range, e.maxAddr);
        uint32_t addr = static_cast<uint32_t>(rng_.below(range));
        srf_->injectBitFlips(lane, addr, randomMask(e.bits), e.transient);
        break;
      }
      case FaultKind::DramBit: {
        uint64_t range = mem_->dram().capacityWords();
        if (e.maxAddr)
            range = std::min(range, e.maxAddr);
        uint64_t addr = rng_.below(range);
        mem_->dram().injectBitFlips(addr, randomMask(e.bits), e.transient);
        break;
      }
      case FaultKind::MemDrop:
        mem_->injectDrop(now);
        break;
      case FaultKind::MemDelay:
        mem_->injectDelay(e.delayCycles, now);
        break;
      case FaultKind::XbarStall:
        if (xbar_) {
            xbar_->claimSource(static_cast<uint32_t>(
                rng_.below(srf_->geometry().lanes)));
            stats_.counter("xbar_stall_cycles").inc();
        }
        break;
    }
}

void
FaultInjector::inject(Cycle now)
{
    for (EntryState &st : sched_) {
        while (st.remaining > 0 && st.next <= now) {
            fire(st.entry, now);
            st.remaining--;
            st.next += st.entry.period;
        }
    }
}

void
FaultInjector::snapshot(SnapshotIo &io)
{
    rng_.snapshot(io);
    io.expect(sched_.size(), 16);
    for (EntryState &st : sched_) {
        io.u64(st.next);
        io.u64(st.remaining);
    }
    stats_.snapshot(io);
}

} // namespace isrf
