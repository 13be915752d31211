#include "cloud/arbiter.hh"

#include <algorithm>

#include "check/invariant.hh"

namespace cash::cloud
{

namespace
{

/** Largest power of two <= v (v >= 1). */
std::uint32_t
pow2Floor(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

/** Live fragmentation (mean excess Slice span, hops) above which
 *  an EXPAND triggers compaction first. */
constexpr double kCompactFragThreshold = 1.5;
/** Minimum rounds between compactions (migration stalls are real;
 *  do not thrash). */
constexpr std::uint32_t kCompactInterval = 8;

} // namespace

std::vector<TenantId>
FabricArbiter::grantOrder(std::vector<GrantCandidate> candidates) const
{
    std::sort(candidates.begin(), candidates.end(),
              [](const GrantCandidate &a, const GrantCandidate &b) {
                  if (a.deficit != b.deficit)
                      return a.deficit > b.deficit;
                  if (a.paidRate != b.paidRate)
                      return a.paidRate > b.paidRate;
                  return a.id < b.id;
              });
    std::vector<TenantId> order;
    order.reserve(candidates.size());
    for (const GrantCandidate &c : candidates)
        order.push_back(c.id);
    return order;
}

GrantDecision
FabricArbiter::decide(const VCoreConfig &held,
                      const VCoreConfig &requested,
                      const FabricAllocator &alloc,
                      std::uint64_t round)
{
    GrantDecision d;

    bool expand_slices = requested.slices > held.slices;
    bool expand_banks = requested.banks > held.banks;

    if (!expand_slices && !expand_banks) {
        // SHRINKs always pass: they free capacity.
        d.kind = GrantKind::Full;
        d.granted = requested;
        ++stats_.fullGrants;
        return d;
    }

    // Per-dimension clamp to what the fabric can actually supply:
    // the tenant's own tiles plus the free pool, under the
    // provider's per-tenant cap.
    std::uint32_t avail_slices =
        std::min(held.slices + alloc.freeSlices(), kMaxTenantSlices);
    std::uint32_t avail_banks =
        std::min(held.banks + alloc.freeBanks(), kMaxTenantBanks);

    d.granted.slices = expand_slices
        ? std::min(requested.slices, avail_slices)
        : requested.slices;
    d.granted.banks = expand_banks
        ? pow2Floor(std::max(std::min(requested.banks, avail_banks),
                             held.banks))
        : requested.banks;

    CASH_INVARIANT(d.granted.slices
                       <= held.slices + alloc.freeSlices(),
                   "granted %u slices but only %u are reachable",
                   d.granted.slices,
                   held.slices + alloc.freeSlices());
    CASH_INVARIANT(d.granted.banks <= held.banks + alloc.freeBanks(),
                   "granted %u banks but only %u are reachable",
                   d.granted.banks, held.banks + alloc.freeBanks());

    if (d.granted == held) {
        d.kind = GrantKind::Denied;
        ++stats_.denials;
    } else if (d.granted == requested) {
        d.kind = GrantKind::Full;
        ++stats_.fullGrants;
    } else {
        d.kind = GrantKind::Partial;
        ++stats_.partialGrants;
    }

    // Fragmentation — not capacity — is what compaction repairs:
    // the expansion will be granted either way, but on a
    // fragmented fabric it lands far from the tenant's tiles.
    if (d.kind != GrantKind::Denied
        && alloc.fragmentation() > kCompactFragThreshold
        && (!everCompacted_
            || round >= lastCompactRound_ + kCompactInterval))
        d.compactFirst = true;

    return d;
}

void
FabricArbiter::noteCompacted(std::uint64_t round)
{
    ++stats_.compactions;
    lastCompactRound_ = round;
    everCompacted_ = true;
}

} // namespace cash::cloud
