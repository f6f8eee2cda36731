/**
 * @file
 * Stream buffers matching SRF access width to cluster access width
 * (§4.3/4.4, Figure 8).
 *
 * Sequential streams use a simple word FIFO per lane: the SRF refills or
 * drains it m words at a time when granted the SRF port, while the
 * cluster reads/writes single words. Indexed streams reuse the same
 * structure on the data side, but completions can arrive out of order
 * (sub-array conflicts, cross-lane contention), so delivery to the
 * cluster is reordered by issue sequence number.
 */
#ifndef ISRF_SRF_STREAM_BUFFER_H
#define ISRF_SRF_STREAM_BUFFER_H

#include <cstdint>

#include "sim/types.h"
#include "util/ring.h"
#include "util/snapshot.h"

namespace isrf {

/**
 * Sequential-stream word FIFO (one lane, one stream). Its capacity is
 * the stream buffer's (Table 3: 8 words), fixed by configure(); a
 * default-constructed buffer holds nothing until configured.
 */
class SeqBuffer
{
  public:
    explicit SeqBuffer(uint32_t capacity = 0) { configure(capacity); }

    void configure(uint32_t capacity) { words_.reset(capacity); }

    size_t size() const { return words_.size(); }
    uint32_t
    freeSpace() const
    {
        return static_cast<uint32_t>(words_.capacity() - words_.size());
    }
    bool empty() const { return words_.empty(); }
    bool full() const { return words_.full(); }

    /** Cluster-side single-word access. */
    bool canPop() const { return !words_.empty(); }
    Word
    pop()
    {
        Word w = words_.front();
        words_.pop();
        return w;
    }
    bool canPush() const { return !full(); }
    void push(Word w) { words_.push(w); }

    /** SRF-side block access. */
    bool canRefill(uint32_t m) const { return freeSpace() >= m; }
    void refill(const Word *data, uint32_t m)
    {
        for (uint32_t i = 0; i < m; i++)
            words_.push(data[i]);
    }
    bool canDrain(uint32_t m) const { return words_.size() >= m; }
    uint32_t
    drain(Word *out, uint32_t m)
    {
        uint32_t n = 0;
        while (n < m && !words_.empty()) {
            out[n++] = words_.front();
            words_.pop();
        }
        return n;
    }
    /** Drain whatever remains (end of stream flush), up to m words. */
    uint32_t
    drainPartial(Word *out, uint32_t m)
    {
        return drain(out, m);
    }

    void clear() { words_.clear(); }

    /** The capacity must match configure()'s; a longer load is
     *  rejected. */
    void
    snapshot(SnapshotIo &io)
    {
        auto cap = static_cast<uint32_t>(words_.capacity());
        io.u32(cap);
        if (io.require(cap == words_.capacity()))
            io.seq(words_, cap);
    }

  private:
    Ring<Word> words_;
};

/** One in-flight indexed record access awaiting data. */
struct IdxPending
{
    uint64_t seqNo;
    uint32_t wordsNeeded;
    uint32_t wordsDone = 0;
    Word data[4] = {0, 0, 0, 0};
    Cycle readyCycle = 0;  ///< max over per-word delivery times
};

/**
 * Indexed-stream data buffer with in-order delivery.
 *
 * Requests are registered at address-issue time; the SRF delivers each
 * word with a completion cycle. The cluster may consume the head record
 * once all its words have arrived and the current cycle has reached the
 * pipeline delivery time. Registered seqNos ascend, and on a read-only
 * slot they are consecutive, so a delivery finds its record by offset
 * from the head.
 */
class IdxDataBuffer
{
  public:
    explicit IdxDataBuffer(uint32_t capacityRecords = 0)
    {
        configure(capacityRecords);
    }

    void configure(uint32_t capacityRecords)
    {
        pending_.reset(capacityRecords);
    }

    bool full() const { return pending_.full(); }
    bool empty() const { return pending_.empty(); }
    size_t size() const { return pending_.size(); }

    /** Register a new request at address-issue time (must not be
     *  full). */
    void
    registerRequest(uint64_t seqNo, uint32_t wordsNeeded)
    {
        IdxPending p;
        p.seqNo = seqNo;
        p.wordsNeeded = wordsNeeded;
        pending_.push(p);
    }

    /** Deliver one word for request seqNo (word wordOffset of record);
     *  a seqNo with no pending record is dropped. */
    void
    deliver(uint64_t seqNo, uint32_t wordOffset, Word w, Cycle readyCycle)
    {
        IdxPending *p = find(seqNo);
        if (!p)
            return;
        if (wordOffset < 4)
            p->data[wordOffset] = w;
        p->wordsDone++;
        if (readyCycle > p->readyCycle)
            p->readyCycle = readyCycle;
    }

    /** True if the oldest record is fully delivered at cycle now. */
    bool
    headReady(Cycle now) const
    {
        return !pending_.empty() &&
            pending_.front().wordsDone >= pending_.front().wordsNeeded &&
            now >= pending_.front().readyCycle;
    }

    /** Pop the head record's words into out (must be headReady). */
    uint32_t
    popHead(Word *out)
    {
        const IdxPending &p = pending_.front();
        uint32_t n = p.wordsNeeded;
        for (uint32_t i = 0; i < n && i < 4; i++)
            out[i] = p.data[i];
        pending_.pop();
        return n;
    }

    void clear() { pending_.clear(); }

    /** The capacity must match configure()'s; a longer load is
     *  rejected. */
    void
    snapshot(SnapshotIo &io)
    {
        auto cap = static_cast<uint32_t>(pending_.capacity());
        io.u32(cap);
        if (!io.require(cap == pending_.capacity()))
            return;
        io.seq(pending_, 40, [&](IdxPending &p) {
            io.u64(p.seqNo);
            io.u32(p.wordsNeeded);
            io.u32(p.wordsDone);
            io.each(p.data);
            io.u64(p.readyCycle);
        }, cap);
    }

  private:
    IdxPending *
    find(uint64_t seqNo)
    {
        if (pending_.empty())
            return nullptr;
        const uint64_t i = seqNo - pending_.front().seqNo;
        if (i < pending_.size() && pending_[i].seqNo == seqNo)
            return &pending_[i];
        // A read-write slot's writes take seqNos too, so a read can sit
        // before its offset from the head.
        for (IdxPending &p : pending_)
            if (p.seqNo == seqNo)
                return &p;
        return nullptr;
    }

    Ring<IdxPending> pending_;
};

} // namespace isrf

#endif // ISRF_SRF_STREAM_BUFFER_H
