#include "cloud/admission.hh"

namespace cash::cloud
{

const char *
admissionVerdictName(AdmissionVerdict v)
{
    switch (v) {
      case AdmissionVerdict::Admit: return "admit";
      case AdmissionVerdict::Queue: return "queue";
      case AdmissionVerdict::Reject: return "reject";
    }
    return "?";
}

bool
AdmissionController::fits(const VCoreConfig &entry,
                          const FabricAllocator &alloc)
{
    return entry.slices <= alloc.freeSlices()
        && entry.banks <= alloc.freeBanks();
}

bool
AdmissionController::impossible(const VCoreConfig &entry,
                                const FabricAllocator &alloc)
{
    // One Slice is permanently reserved for the runtime's home
    // vcore (SSim reserves it at construction), so the best any
    // tenant can hope for is the grid minus one Slice.
    const FabricGrid &grid = alloc.grid();
    return entry.slices + 1 > grid.numSlices()
        || entry.banks > grid.numBanks();
}

AdmissionVerdict
AdmissionController::judge(const VCoreConfig &entry,
                           const FabricAllocator &alloc,
                           std::uint32_t queue_depth)
{
    if (impossible(entry, alloc))
        return AdmissionVerdict::Reject;
    if (fits(entry, alloc))
        return AdmissionVerdict::Admit;
    if (queue_depth >= kAdmissionQueueLimit)
        return AdmissionVerdict::Reject;
    return AdmissionVerdict::Queue;
}

} // namespace cash::cloud
