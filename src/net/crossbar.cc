#include "net/crossbar.h"

#include "util/log.h"

namespace isrf {

void
Crossbar::init(uint32_t ports, uint32_t srcLimit, uint32_t dstLimit,
               NetTopology topology)
{
    if (ports == 0 || srcLimit == 0 || dstLimit == 0)
        fatal("Crossbar: ports/limits must be positive");
    ports_ = ports;
    srcLimit_ = srcLimit;
    dstLimit_ = dstLimit;
    topology_ = topology;
    srcUsed_.assign(ports, 0);
    dstUsed_.assign(ports, 0);
    linkUsed_.assign(2 * static_cast<size_t>(ports), 0);
    dirty_ = false;
}

void
Crossbar::newCycle()
{
    // Budgets are only consumed through tryTransfer()/claimSource();
    // after a cycle with no successful claim every entry is already
    // zero, so the reset can be skipped (hot on quiescent cycles).
    if (!dirty_)
        return;
    for (auto &u : srcUsed_)
        u = 0;
    for (auto &u : dstUsed_)
        u = 0;
    for (auto &u : linkUsed_)
        u = 0;
    dirty_ = false;
}

uint32_t
Crossbar::hopDistance(uint32_t src, uint32_t dst) const
{
    if (topology_ == NetTopology::Crossbar)
        return 1;
    uint32_t cw = (dst + ports_ - src) % ports_;
    uint32_t ccw = (src + ports_ - dst) % ports_;
    return std::min(cw, ccw);
}

uint32_t
Crossbar::extraLatency(uint32_t src, uint32_t dst) const
{
    uint32_t h = hopDistance(src, dst);
    return h > 1 ? h - 1 : 0;
}

void
Crossbar::pathLinks(uint32_t src, uint32_t dst,
                    std::vector<uint32_t> &out) const
{
    out.clear();
    if (src == dst)
        return;
    uint32_t cw = (dst + ports_ - src) % ports_;
    uint32_t ccw = (src + ports_ - dst) % ports_;
    if (cw <= ccw) {
        for (uint32_t i = 0, p = src; i < cw; i++, p = (p + 1) % ports_)
            out.push_back(p);  // link p -> p+1
    } else {
        for (uint32_t i = 0, p = src; i < ccw;
                i++, p = (p + ports_ - 1) % ports_) {
            out.push_back(ports_ + (p + ports_ - 1) % ports_);
        }
    }
}

bool
Crossbar::canTransfer(uint32_t src, uint32_t dst) const
{
    if (src >= ports_ || dst >= ports_)
        panic("Crossbar: port out of range (src=%u dst=%u ports=%u)", src,
              dst, ports_);
    if (srcUsed_[src] >= srcLimit_ || dstUsed_[dst] >= dstLimit_)
        return false;
    if (topology_ == NetTopology::Ring) {
        std::vector<uint32_t> links;
        pathLinks(src, dst, links);
        for (uint32_t l : links)
            if (linkUsed_[l])
                return false;
    }
    return true;
}

bool
Crossbar::tryTransfer(uint32_t src, uint32_t dst)
{
    if (!canTransfer(src, dst))
        return false;
    srcUsed_[src]++;
    dstUsed_[dst]++;
    if (topology_ == NetTopology::Ring) {
        std::vector<uint32_t> links;
        pathLinks(src, dst, links);
        for (uint32_t l : links)
            linkUsed_[l] = 1;
    }
    dirty_ = true;
    return true;
}

bool
Crossbar::claimSource(uint32_t src)
{
    if (src >= ports_)
        panic("Crossbar: source port %u out of range", src);
    if (srcUsed_[src] >= srcLimit_)
        return false;
    srcUsed_[src]++;
    dirty_ = true;
    return true;
}

} // namespace isrf
