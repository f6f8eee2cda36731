/**
 * @file
 * Address FIFOs for indexed SRF streams (§4.4, Figure 8(b)).
 *
 * Each (lane, indexed-stream) pair owns one FIFO of record addresses
 * written by the compute cluster. A counter at the head breaks record
 * accesses into single-word indexed accesses, so the cluster pays one
 * address-generation op per record rather than per word.
 */
#ifndef ISRF_SRF_ADDRESS_FIFO_H
#define ISRF_SRF_ADDRESS_FIFO_H

#include <cstdint>
#include <deque>

#include "sim/types.h"
#include "util/snapshot.h"

namespace isrf {

/** One pending record access in an address FIFO. */
struct AddrEntry
{
    uint32_t recordIndex;  ///< record index within the stream
    uint64_t seqNo;        ///< issue order, for in-order data delivery
    Cycle issueCycle = 0;  ///< when the cluster issued this address
    bool isWrite = false;  ///< read-write streams mix both in one FIFO
    /** Words of this record already issued to the SRAM (head counter). */
    uint32_t wordsIssued = 0;
    /** Data words for indexed writes (empty for reads). */
    Word writeData[4] = {0, 0, 0, 0};
};

/**
 * FIFO of record addresses with head word-counter.
 *
 * Head-of-line semantics: only the head entry's next word is a
 * candidate for SRAM access each cycle; a sub-array conflict therefore
 * blocks all younger requests in this FIFO (§5.4 / Figure 17).
 */
class AddressFifo
{
  public:
    explicit AddressFifo(uint32_t capacity = 8, uint32_t recordWords = 1)
        : capacity_(capacity), recordWords_(recordWords)
    {
    }

    void
    configure(uint32_t capacity, uint32_t recordWords)
    {
        capacity_ = capacity;
        recordWords_ = recordWords;
    }

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }
    uint32_t recordWords() const { return recordWords_; }

    /** Push a record address; returns false if full. */
    bool
    push(uint32_t recordIndex, uint64_t seqNo, Cycle issueCycle,
         const Word *writeData = nullptr, uint32_t writeWords = 0)
    {
        if (full())
            return false;
        AddrEntry e;
        e.recordIndex = recordIndex;
        e.seqNo = seqNo;
        e.issueCycle = issueCycle;
        e.isWrite = writeWords > 0;
        for (uint32_t i = 0; i < writeWords && i < 4; i++)
            e.writeData[i] = writeData[i];
        entries_.push_back(e);
        return true;
    }

    /** Head entry (must not be empty). */
    AddrEntry &head() { return entries_.front(); }
    const AddrEntry &head() const { return entries_.front(); }

    /**
     * Word index within the stream of the head's next word access.
     * Records are recordWords_ consecutive words.
     */
    uint32_t
    headWordIndex() const
    {
        return entries_.front().recordIndex * recordWords_ +
            entries_.front().wordsIssued;
    }

    /**
     * Mark one word of the head as issued; pops the entry when the whole
     * record has been issued. @return the completed entry's seqNo and
     * word offset (for data delivery bookkeeping).
     */
    void
    advanceHead()
    {
        entries_.front().wordsIssued++;
        if (entries_.front().wordsIssued >= recordWords_)
            entries_.pop_front();
    }

    void clear() { entries_.clear(); }

    void
    snapshot(SnapshotIo &io)
    {
        io.u32(capacity_);
        io.u32(recordWords_);
        io.seq(entries_, 41, [&](AddrEntry &e) {
            io.u32(e.recordIndex);
            io.u64(e.seqNo);
            io.u64(e.issueCycle);
            io.b(e.isWrite);
            io.u32(e.wordsIssued);
            io.each(e.writeData);
        });
    }

  private:
    uint32_t capacity_;
    uint32_t recordWords_;
    std::deque<AddrEntry> entries_;
};

} // namespace isrf

#endif // ISRF_SRF_ADDRESS_FIFO_H
