#include "sim/l2system.hh"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "check/invariant.hh"
#include "common/log.hh"

namespace cash
{

L2System::L2System(const FabricGrid &grid, const CacheParams &params,
                   const std::vector<BankId> &banks)
    : grid_(grid), params_(params)
{
    if (params_.bankHashEntries == 0)
        fatal("L2System requires a non-empty bank hash table");
    L2ReconfigCost ignored;
    rebuildBanks(banks, ignored);
}

std::uint32_t
L2System::hashEntry(Addr addr) const
{
    Addr block = addr >> std::countr_zero(params_.blockSize);
    // Fibonacci hashing spreads consecutive blocks across entries.
    std::uint64_t h = block * 0x9e3779b97f4a7c15ull;
    return static_cast<std::uint32_t>(
        (h >> 40) % params_.bankHashEntries);
}

std::size_t
L2System::bankIndex(Addr addr) const
{
    if (banks_.empty())
        panic("bankIndex with no banks allocated");
    return hashTable_[hashEntry(addr)];
}

BankId
L2System::bankFor(Addr addr) const
{
    if (banks_.empty())
        return invalidBank;
    return banks_[bankIndex(addr)];
}

std::uint32_t
L2System::hitLatency(SliceId requester, Addr addr) const
{
    if (banks_.empty())
        return 0;
    std::uint32_t dist = grid_.sliceToBankDistance(
        requester, banks_[bankIndex(addr)]);
    return dist * params_.l2DistFactor + params_.l2BaseLat;
}

L2Access
L2System::access(SliceId requester, Addr addr, bool write)
{
    ++accesses_;
    L2Access result;
    if (banks_.empty()) {
        // No L2 allocated: straight to memory.
        ++misses_;
        result.hit = false;
        result.latency = params_.memLat;
        return result;
    }

    std::size_t idx = bankIndex(addr);
    result.bank = banks_[idx];
    std::uint32_t hit_lat = hitLatency(requester, addr);
    CacheAccess acc = arrays_[idx]->access(addr, write);
    if (acc.writeback)
        ++writebacks_;
    result.hit = acc.hit;
    result.latency = acc.hit ? hit_lat : hit_lat + params_.memLat;
    if (!acc.hit)
        ++misses_;
    return result;
}

std::uint64_t
L2System::dirtyLines() const
{
    std::uint64_t n = 0;
    for (const auto &array : arrays_)
        n += array->dirtyLines();
    return n;
}

void
L2System::rebuildBanks(const std::vector<BankId> &new_banks,
                       L2ReconfigCost &cost)
{
#if CASH_CHECK_INVARIANTS
    // Every dirty line must either survive in a kept bank or be
    // counted as flushed — snapshot the census to prove it below.
    const std::uint64_t dirty_before = dirtyLines();
    const std::uint64_t flushed_before = cost.dirtyLinesFlushed;
    const Cycle cycles_before = cost.flushCycles;
#endif
    // Map new bank id -> new index; detect duplicates.
    std::unordered_map<BankId, std::uint32_t> new_index;
    for (std::uint32_t i = 0; i < new_banks.size(); ++i) {
        if (!new_index.emplace(new_banks[i], i).second)
            fatal("duplicate bank %u in L2 configuration",
                  new_banks[i]);
    }

    // Build the new array list, moving survivor arrays over.
    std::vector<std::unique_ptr<SetAssocCache>> new_arrays(
        new_banks.size());
    std::vector<bool> old_survives(banks_.size(), false);
    std::vector<std::uint32_t> old_to_new(
        banks_.size(), ~std::uint32_t(0));
    for (std::uint32_t i = 0; i < banks_.size(); ++i) {
        auto it = new_index.find(banks_[i]);
        if (it != new_index.end()) {
            old_survives[i] = true;
            old_to_new[i] = it->second;
            new_arrays[it->second] = std::move(arrays_[i]);
        }
    }
    for (std::uint32_t i = 0; i < new_banks.size(); ++i) {
        if (!new_arrays[i]) {
            new_arrays[i] = std::make_unique<SetAssocCache>(
                params_.l2BankSize, params_.blockSize,
                params_.l2Assoc);
        }
    }

    // Flush every removed bank entirely.
    for (std::uint32_t i = 0; i < banks_.size(); ++i) {
        if (!old_survives[i] && arrays_[i]) {
            cost.dirtyLinesFlushed += arrays_[i]->dirtyLines();
            cost.linesInvalidated += arrays_[i]->validLines()
                - arrays_[i]->dirtyLines();
        }
    }

    // Rewrite the hash table.
    std::vector<std::uint32_t> new_table(
        params_.bankHashEntries, ~std::uint32_t(0));
    std::vector<std::uint32_t> load(new_banks.size(), 0);
    std::vector<std::uint32_t> needy;

    if (!new_banks.empty()) {
        if (hashTable_.empty()) {
            // First configuration: balanced striping.
            for (std::uint32_t e = 0; e < params_.bankHashEntries;
                 ++e) {
                std::uint32_t idx = e
                    % static_cast<std::uint32_t>(new_banks.size());
                new_table[e] = idx;
                ++load[idx];
            }
        } else {
            // Keep survivor-pointing entries; collect the rest.
            for (std::uint32_t e = 0; e < params_.bankHashEntries;
                 ++e) {
                std::uint32_t old_idx = hashTable_[e];
                if (old_idx < old_survives.size()
                    && old_survives[old_idx]) {
                    new_table[e] = old_to_new[old_idx];
                    ++load[new_table[e]];
                } else {
                    needy.push_back(e);
                }
            }

            std::uint32_t target =
                (params_.bankHashEntries
                 + static_cast<std::uint32_t>(new_banks.size()) - 1)
                / static_cast<std::uint32_t>(new_banks.size());

            // Steal entries from overloaded survivors for any new
            // banks that would otherwise sit empty (expansion path).
            bool any_underloaded = std::any_of(
                load.begin(), load.end(),
                [target](std::uint32_t l) { return l < target; });
            if (needy.empty() && any_underloaded) {
                // Choose the stolen entries first, remembering the
                // bank each one leaves...
                std::vector<std::uint32_t> stolen_from(
                    params_.bankHashEntries, ~std::uint32_t(0));
                std::vector<bool> robbed(new_banks.size(), false);
                for (std::uint32_t e = 0;
                     e < params_.bankHashEntries; ++e) {
                    std::uint32_t idx = new_table[e];
                    if (idx != ~std::uint32_t(0) && load[idx] > target) {
                        stolen_from[e] = idx;
                        robbed[idx] = true;
                        --load[idx];
                        new_table[e] = ~std::uint32_t(0);
                        needy.push_back(e);
                    }
                }
                // ...then drop the lines under them, which become
                // unreachable, in one pass over each robbed bank.
                const int shift = std::countr_zero(params_.blockSize);
                for (std::uint32_t b = 0; b < new_banks.size(); ++b) {
                    if (!robbed[b])
                        continue;
                    cost.dirtyLinesFlushed += new_arrays[b]->invalidateIf(
                        [&](Addr block) {
                            return stolen_from[hashEntry(block << shift)]
                                == b;
                        });
                }
            }

            // Round-robin needy entries onto underloaded banks.
            std::uint32_t cursor = 0;
            for (std::uint32_t e : needy) {
                // Find the least-loaded bank (deterministic scan).
                std::uint32_t best = cursor
                    % static_cast<std::uint32_t>(new_banks.size());
                for (std::uint32_t i = 0; i < new_banks.size(); ++i) {
                    if (load[i] < load[best])
                        best = i;
                }
                new_table[e] = best;
                ++load[best];
                ++cursor;
            }
        }
    }

    banks_ = new_banks;
    arrays_ = std::move(new_arrays);
    hashTable_ = std::move(new_table);

    cost.flushCycles += cost.dirtyLinesFlushed * params_.blockSize
        / params_.flushNetBytes;

#if CASH_CHECK_INVARIANTS
    // Mutation test: misreport the flush bill so the dirty-byte
    // accounting invariant has a deliberate bug to catch.
    if (CASH_FAULT_ARMED(Fault::L2FlushUndercount))
        cost.flushCycles = cycles_before
            + (cost.flushCycles - cycles_before) / 2;

    CASH_INVARIANT(arrays_.size() == banks_.size(),
                   "bank/array lists diverged (%zu vs %zu)",
                   banks_.size(), arrays_.size());
    for (std::size_t i = 0; i < arrays_.size(); ++i) {
        CASH_INVARIANT(arrays_[i] != nullptr,
                       "bank %u has no cache array", banks_[i]);
        std::uint64_t lines = params_.l2BankSize / params_.blockSize;
        CASH_INVARIANT(arrays_[i]->validLines() <= lines,
                       "bank %u census exceeds capacity", banks_[i]);
    }
    CASH_INVARIANT(hashTable_.size() == params_.bankHashEntries,
                   "hash table resized to %zu entries",
                   hashTable_.size());
    if (!banks_.empty()) {
        for (std::uint32_t e = 0; e < hashTable_.size(); ++e)
            CASH_INVARIANT(hashTable_[e] < banks_.size(),
                           "hash entry %u points past the bank list",
                           e);
    }
    const std::uint64_t flushed_now =
        cost.dirtyLinesFlushed - flushed_before;
    CASH_INVARIANT(dirty_before == dirtyLines() + flushed_now,
                   "dirty lines not conserved: %llu before, %llu "
                   "after + %llu flushed",
                   static_cast<unsigned long long>(dirty_before),
                   static_cast<unsigned long long>(dirtyLines()),
                   static_cast<unsigned long long>(flushed_now));
    CASH_INVARIANT(cost.flushCycles - cycles_before
                       == flushed_now * params_.blockSize
                              / params_.flushNetBytes,
                   "flush cycles disagree with flushed dirty bytes");
#endif
}

L2ReconfigCost
L2System::reconfigure(const std::vector<BankId> &new_banks)
{
    L2ReconfigCost cost;
    rebuildBanks(new_banks, cost);
    return cost;
}

} // namespace cash
