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
#include <deque>

#include "sim/types.h"
#include "util/snapshot.h"

namespace isrf {

/** Sequential-stream word FIFO (one lane, one stream). */
class SeqBuffer
{
  public:
    explicit SeqBuffer(uint32_t capacity = 8) : capacity_(capacity) {}

    void configure(uint32_t capacity) { capacity_ = capacity; }

    size_t size() const { return words_.size(); }
    uint32_t freeSpace() const
    {
        return capacity_ - static_cast<uint32_t>(words_.size());
    }
    bool empty() const { return words_.empty(); }
    bool full() const { return words_.size() >= capacity_; }

    /** Cluster-side single-word access. */
    bool canPop() const { return !words_.empty(); }
    Word
    pop()
    {
        Word w = words_.front();
        words_.pop_front();
        return w;
    }
    bool canPush() const { return !full(); }
    void push(Word w) { words_.push_back(w); }

    /** SRF-side block access. */
    bool canRefill(uint32_t m) const { return freeSpace() >= m; }
    void refill(const Word *data, uint32_t m)
    {
        for (uint32_t i = 0; i < m; i++)
            words_.push_back(data[i]);
    }
    bool canDrain(uint32_t m) const { return words_.size() >= m; }
    uint32_t
    drain(Word *out, uint32_t m)
    {
        uint32_t n = 0;
        while (n < m && !words_.empty()) {
            out[n++] = words_.front();
            words_.pop_front();
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

    void
    snapshot(SnapshotIo &io)
    {
        io.u32(capacity_);
        io.seq(words_);
    }

  private:
    uint32_t capacity_;
    std::deque<Word> words_;
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
 * pipeline delivery time.
 */
class IdxDataBuffer
{
  public:
    explicit IdxDataBuffer(uint32_t capacityRecords = 8)
        : capacity_(capacityRecords)
    {
    }

    void configure(uint32_t capacityRecords) { capacity_ = capacityRecords; }

    bool full() const { return pending_.size() >= capacity_; }
    bool empty() const { return pending_.empty(); }
    size_t size() const { return pending_.size(); }

    /** Register a new request at address-issue time. */
    void
    registerRequest(uint64_t seqNo, uint32_t wordsNeeded)
    {
        IdxPending p;
        p.seqNo = seqNo;
        p.wordsNeeded = wordsNeeded;
        pending_.push_back(p);
    }

    /** Deliver one word for request seqNo (word wordOffset of record). */
    void
    deliver(uint64_t seqNo, uint32_t wordOffset, Word w, Cycle readyCycle)
    {
        for (auto &p : pending_) {
            if (p.seqNo != seqNo)
                continue;
            if (wordOffset < 4)
                p.data[wordOffset] = w;
            p.wordsDone++;
            if (readyCycle > p.readyCycle)
                p.readyCycle = readyCycle;
            return;
        }
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
        pending_.pop_front();
        return n;
    }

    void clear() { pending_.clear(); }

    void
    snapshot(SnapshotIo &io)
    {
        io.u32(capacity_);
        io.seq(pending_, 40, [&](IdxPending &p) {
            io.u64(p.seqNo);
            io.u32(p.wordsNeeded);
            io.u32(p.wordsDone);
            io.each(p.data);
            io.u64(p.readyCycle);
        });
    }

  private:
    uint32_t capacity_;
    std::deque<IdxPending> pending_;
};

} // namespace isrf

#endif // ISRF_SRF_STREAM_BUFFER_H
