/**
 * @file
 * The banked, reconfigurable L2 of a virtual core.
 *
 * A virtual core owns a set of 64 KB L2 banks scattered on the
 * fabric. Physical addresses are mapped to banks through a small
 * hash table (paper Sec VI-A: "We use a hash table to map physical
 * address to cache banks"), so that bank membership can change
 * without remapping every block:
 *
 *  - On SHRINK, hash entries pointing at removed banks are re-pointed
 *    to survivors; the removed banks' dirty lines are flushed to
 *    memory (cost: dirty bytes / network width cycles, overlapped
 *    with the table rewrite).
 *  - On EXPAND, a balanced share of hash entries is re-pointed to the
 *    new banks; lines cached in old banks under re-pointed entries
 *    become unreachable and are flushed/invalidated.
 *
 * Hit latency is distance-dependent (Table II): access() charges
 * hitLatency(slice, addr), dist * l2DistFactor + l2BaseLat (2 and 4
 * by default) over the fabric's slice-to-bank distance, plus the
 * memory latency on a miss.
 */

#ifndef CASH_SIM_L2SYSTEM_HH
#define CASH_SIM_L2SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fabric/grid.hh"
#include "fabric/resource.hh"
#include "sim/cache.hh"
#include "sim/params.hh"

namespace cash
{

/**
 * Result of an L2 lookup.
 */
struct L2Access
{
    bool hit = false;
    /** Total L2 latency for this access (hit delay, or the hit delay
     *  plus memory latency on a miss). */
    std::uint32_t latency = 0;
    /** Bank that serviced the access. */
    BankId bank = invalidBank;
};

/**
 * Cost of an L2 reconfiguration.
 */
struct L2ReconfigCost
{
    /** Dirty lines pushed to memory. */
    std::uint64_t dirtyLinesFlushed = 0;
    /** Cycles spent flushing (dirty bytes / flush network width). */
    Cycle flushCycles = 0;
    /** Clean lines dropped because their hash entry moved. */
    std::uint64_t linesInvalidated = 0;
};

/**
 * The banked L2 cache of one virtual core.
 */
class L2System
{
  public:
    /**
     * @param grid fabric geometry (for distances)
     * @param params cache parameters
     * @param banks initial bank set (may be empty: L2-less vcore)
     */
    L2System(const FabricGrid &grid, const CacheParams &params,
             const std::vector<BankId> &banks);

    /**
     * Access an address (after an L1 miss).
     *
     * @param requester the Slice performing the access
     * @param addr byte address
     * @param write mark the line dirty
     * @return hit/miss and total latency (memory latency included on
     *         miss; with no banks, every access costs memLat)
     */
    L2Access access(SliceId requester, Addr addr, bool write);

    /**
     * Change the bank set. Implements the hash-table remap described
     * above and returns the flush/invalidate cost.
     */
    L2ReconfigCost reconfigure(const std::vector<BankId> &new_banks);

    /** Bank owning an address under the current map (numBanks > 0). */
    BankId bankFor(Addr addr) const;

    /** Hit delay from a slice to the owning bank for addr. */
    std::uint32_t hitLatency(SliceId requester, Addr addr) const;

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    std::uint64_t totalSize() const
    {
        return banks_.size() * params_.l2BankSize;
    }

    /** Total dirty lines across all banks (flush-cost worst case). */
    std::uint64_t dirtyLines() const;

    /** Visit every resident line: fn(bank, block_addr, dirty). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::size_t i = 0; i < arrays_.size(); ++i)
            arrays_[i]->forEachLine([&](Addr block, bool dirty) {
                fn(banks_[i], block, dirty);
            });
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    /** Hash an address into a table entry. */
    std::uint32_t hashEntry(Addr addr) const;

    /** Index into banks_ / arrays_ for an address; requires banks. */
    std::size_t bankIndex(Addr addr) const;

    /** Rebuild arrays_ for a new bank list, preserving survivors. */
    void rebuildBanks(const std::vector<BankId> &new_banks,
                      L2ReconfigCost &cost);

    const FabricGrid &grid_;
    CacheParams params_;
    std::vector<BankId> banks_;
    /** One cache array per owned bank, parallel to banks_. */
    std::vector<std::unique_ptr<SetAssocCache>> arrays_;
    /** hash entry -> index into banks_. */
    std::vector<std::uint32_t> hashTable_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace cash

#endif // CASH_SIM_L2SYSTEM_HH
