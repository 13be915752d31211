/**
 * @file
 * Provider admission control.
 *
 * An arriving tenant asks for an entry configuration — the minimum
 * it will accept under fine-grain tenancy, or its full static
 * reservation under the coarse baselines. The controller answers
 * one of three ways:
 *
 *  - Admit: the fabric can host the entry configuration right now.
 *  - Queue: it cannot right now, but could once tenants depart;
 *    the arrival waits (FIFO, bounded queue, bounded patience).
 *  - Reject: the queue is full, or the request exceeds what the
 *    chip could supply even empty (impossible requests never
 *    queue).
 *
 * Capacity is the only hard limit — the CASH fabric never refuses
 * an allocation for *shape* reasons, because Slices are
 * interchangeable and fragmentation is repairable by rescheduling
 * (paper Sec III-A); placement quality is the arbiter's concern,
 * not admission's.
 */

#ifndef CASH_CLOUD_ADMISSION_HH
#define CASH_CLOUD_ADMISSION_HH

#include <cstdint>

#include "core/config_space.hh"
#include "fabric/allocator.hh"

namespace cash::cloud
{

/** What admission decided for one arrival (or queue retry). */
enum class AdmissionVerdict : std::uint8_t
{
    Admit,
    Queue,
    Reject,
};

/** Printable verdict name. */
const char *admissionVerdictName(AdmissionVerdict v);

/** Arrivals the waiting queue holds before rejecting. */
constexpr std::uint32_t kAdmissionQueueLimit = 4;
/** Rounds a queued arrival waits before giving up. */
constexpr std::uint32_t kPatienceRounds = 16;

/**
 * Stateless admission logic (the provider owns the queue itself;
 * the controller only judges one request against fabric state).
 */
class AdmissionController
{
  public:
    /**
     * Judge an entry request.
     *
     * @param entry the configuration the tenant needs to start
     * @param alloc current fabric occupancy
     * @param queue_depth arrivals already waiting
     */
    static AdmissionVerdict judge(const VCoreConfig &entry,
                                  const FabricAllocator &alloc,
                                  std::uint32_t queue_depth);

    /** True if the fabric can host `entry` right now. */
    static bool fits(const VCoreConfig &entry,
                     const FabricAllocator &alloc);

    /** True if an empty chip could never host `entry` (the grid
     *  minus the reserved runtime Slice). */
    static bool impossible(const VCoreConfig &entry,
                           const FabricAllocator &alloc);
};

} // namespace cash::cloud

#endif // CASH_CLOUD_ADMISSION_HH
