/**
 * @file
 * SECDED ECC modeling for word-granular storage arrays (SRF sub-arrays
 * and DRAM).
 *
 * Rather than storing check bits, the domain records the XOR mask of
 * injected bit flips per word address. A read checks the mask exactly
 * as a SECDED decoder would see it: a single flipped bit is corrected
 * (and scrubbed back into storage), two or more flipped bits are
 * detected but uncorrectable. Transient faults model noise on the
 * array's sense/transfer path: the stored data is intact, so the first
 * detection clears the fault and a retry observes clean data.
 */
#ifndef ISRF_FAULT_ECC_H
#define ISRF_FAULT_ECC_H

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "sim/types.h"
#include "util/snapshot.h"

namespace isrf {

/** Marker written in place of a word that exhausted its retries. */
constexpr Word kPoisonWord = 0xDEADFA11u;

/** Outcome of one ECC-checked read. */
enum class EccStatus : uint8_t {
    Clean,          ///< no fault recorded at this address
    Corrected,      ///< single-bit error corrected (and scrubbed)
    Uncorrectable,  ///< multi-bit error detected, data unusable
};

const char *eccStatusName(EccStatus st);

/**
 * The ECC state of one storage array: pending fault masks by word
 * address plus detection/correction counters.
 *
 * The owning array calls check() on every read path and onWrite() on
 * every write path (a write re-encodes the word, clearing any pending
 * fault). All methods are O(1) amortized; empty() lets hot paths skip
 * the hash lookup entirely when no faults are outstanding.
 */
class EccDomain
{
  public:
    bool empty() const { return entries_.empty(); }
    size_t pendingFaults() const { return entries_.size(); }

    /**
     * Flip `mask` bits of *storage at `addr` and record them for the
     * decoder. Re-injecting at the same address accumulates into one
     * mask (flips can cancel, restoring the word).
     */
    void inject(uint64_t addr, Word mask, bool transient, Word *storage);

    /**
     * Decode the word at addr. Corrects single-bit faults in place;
     * clears transient faults (storage is restored to the logical
     * value) while still reporting them Uncorrectable to this read.
     */
    EccStatus check(uint64_t addr, Word *storage);

    /** A write re-encodes the word: drop any pending fault there. */
    void onWrite(uint64_t addr);
    /** Range version of onWrite for block fills. */
    void onWriteRange(uint64_t addr, uint64_t n);

    /**
     * Background scrubber: decode every address with a pending fault.
     * `at` maps an address to its storage word. @return words repaired.
     */
    uint64_t scrub(const std::function<Word *(uint64_t)> &at);

    /** Drop all pending faults and counters (array re-init). */
    void clear();

    uint64_t faultsInjected() const { return faultsInjected_; }
    uint64_t bitsFlipped() const { return bitsFlipped_; }
    uint64_t corrected() const { return corrected_; }
    uint64_t uncorrectable() const { return uncorrectable_; }

    /** Pending fault masks (address-sorted for determinism) and
     *  counters (util/snapshot.h). */
    void snapshot(SnapshotIo &io);

  private:
    struct Entry
    {
        Word mask = 0;
        bool transient = false;
    };

    std::unordered_map<uint64_t, Entry> entries_;
    uint64_t faultsInjected_ = 0;
    uint64_t bitsFlipped_ = 0;
    uint64_t corrected_ = 0;
    uint64_t uncorrectable_ = 0;
};

} // namespace isrf

#endif // ISRF_FAULT_ECC_H
