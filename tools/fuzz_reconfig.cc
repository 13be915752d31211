/**
 * @file
 * Deterministic reconfiguration fuzzer.
 *
 * Replays seed-derived sequences of multi-tenant fabric operations —
 * allocate / resize / release / compact at the allocator layer,
 * create / EXPAND-SHRINK / trace-execution / destroy at the chip
 * layer, tenant arrive / depart / provider-step at the cloud layer,
 * wire-format frames (valid requests, malformed JSON, empty and
 * oversized frames) through the service decode→apply path, and
 * region ops (placement-routed arrivals, cross-shard migrations,
 * aggregated drains) through a two-shard RegionCore — and
 * audits the structural invariants (check/audit.hh) after every
 * single operation. Builds compiled with -DCASH_CHECK_INVARIANTS=ON
 * additionally run every CASH_INVARIANT hook inside the hot layers.
 *
 * Every sequence is a pure function of its seed, and every op list
 * is replayable as a subsequence (ops whose target slot is in the
 * wrong state are skipped), so a failing seed is shrunk to a minimal
 * op-list reproducer by iterated single-op deletion.
 *
 *   fuzz_reconfig --seeds 1000              # fuzz seeds 0..999
 *   fuzz_reconfig --seed 1234 --verbose     # replay one seed
 *   fuzz_reconfig --seeds 32 --mode cloud   # cloud layer only
 *   fuzz_reconfig --seeds 32 --mode service # wire decode→apply only
 *   fuzz_reconfig --seeds 32 --mode region  # two-shard region ops
 *   fuzz_reconfig --seeds 64 --inject alloc-leak   # mutation test:
 *       the named deliberate bug must be caught and shrunk
 *       (requires a CASH_CHECK_INVARIANTS build)
 *   fuzz_reconfig --seed 7 --trace out.json # Chrome-trace timeline
 *       of the replay (open in ui.perfetto.dev); --metrics out.csv
 *       writes the aggregate counters
 *   fuzz_reconfig --help                    # every flag
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/audit.hh"
#include "check/invariant.hh"
#include "cloud/provider.hh"
#include "common/flags.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "service/core.hh"
#include "service/region.hh"
#include "service/protocol.hh"
#include "sim/ssim.hh"
#include "trace/options.hh"
#include "workload/trace_gen.hh"

namespace cash
{
namespace
{

constexpr std::size_t kSlots = 4;

enum class OpKind : std::uint8_t
{
    // Allocator-layer ops.
    Alloc,
    Resize,
    Release,
    Compact,
    // Chip-layer ops.
    Create,
    Command,
    Run,
    Sample,
    Destroy,
    // Cloud-layer ops (CloudProvider).
    CloudArrive,
    CloudDepart,
    CloudStep,
    CloudSetFreq, ///< SET_FREQ on a live tenant's vcore via the gate
    // Service-layer ops: wire frames through decode→apply.
    SvcArrive,
    SvcDepart,
    SvcQuery,
    SvcStep,
    SvcSnapshot,
    SvcDrain,
    SvcJunk,     ///< intact frame, undecodable JSON payload
    SvcBadOp,    ///< well-formed JSON, unknown op name
    SvcEmpty,    ///< zero-length frame (poisons the decoder)
    SvcOversize, ///< frame above the decoder's max (poisons too)
    // Region-layer ops (RegionCore, two shards).
    RgnArrive,
    RgnDepart,
    RgnQuery,
    RgnStep,
    RgnMigrate,
    RgnSnapshot, ///< snapshot or shards, by op.a parity
    RgnDrain,
};

struct Op
{
    OpKind kind;
    std::uint32_t slot = 0;
    std::uint32_t a = 0; ///< slices, or run cycles (x1000)
    std::uint32_t b = 0; ///< banks

    std::string
    str() const
    {
        switch (kind) {
          case OpKind::Alloc:
            return strfmt("alloc   slot=%u slices=%u banks=%u", slot,
                          a, b);
          case OpKind::Resize:
            return strfmt("resize  slot=%u slices=%u banks=%u", slot,
                          a, b);
          case OpKind::Release:
            return strfmt("release slot=%u", slot);
          case OpKind::Compact:
            return "compact";
          case OpKind::Create:
            return strfmt("create  slot=%u slices=%u banks=%u", slot,
                          a, b);
          case OpKind::Command:
            return strfmt("command slot=%u slices=%u banks=%u", slot,
                          a, b);
          case OpKind::Run:
            return strfmt("run     slot=%u kcycles=%u", slot, a);
          case OpKind::Sample:
            return strfmt("sample  slot=%u", slot);
          case OpKind::Destroy:
            return strfmt("destroy slot=%u", slot);
          case OpKind::CloudArrive:
            return strfmt("arrive  slot=%u class=%u residence=%u",
                          slot, a, b);
          case OpKind::CloudDepart:
            return strfmt("depart  slot=%u", slot);
          case OpKind::CloudStep:
            return "step";
          case OpKind::CloudSetFreq:
            return strfmt("setfreq slot=%u pstate=%u", slot,
                          a % kNumPStates);
          case OpKind::SvcArrive:
            return strfmt("svc-arrive   slot=%u class=%u "
                          "residence=%u", slot, a, b);
          case OpKind::SvcDepart:
            return strfmt("svc-depart   slot=%u", slot);
          case OpKind::SvcQuery:
            return strfmt("svc-query    slot=%u", slot);
          case OpKind::SvcStep:
            return strfmt("svc-step     quanta=%u", 1 + a % 4);
          case OpKind::SvcSnapshot:
            return "svc-snapshot";
          case OpKind::SvcDrain:
            return "svc-drain";
          case OpKind::SvcJunk:
            return "svc-junk";
          case OpKind::SvcBadOp:
            return "svc-bad-op";
          case OpKind::SvcEmpty:
            return "svc-empty-frame";
          case OpKind::SvcOversize:
            return "svc-oversize-frame";
          case OpKind::RgnArrive:
            return strfmt("rgn-arrive   slot=%u class=%u "
                          "residence=%u", slot, a, b);
          case OpKind::RgnDepart:
            return strfmt("rgn-depart   slot=%u", slot);
          case OpKind::RgnQuery:
            return strfmt("rgn-query    slot=%u", slot);
          case OpKind::RgnStep:
            return strfmt("rgn-step     quanta=%u", 1 + a % 4);
          case OpKind::RgnMigrate:
            return strfmt("rgn-migrate  slot=%u", slot);
          case OpKind::RgnSnapshot:
            return a % 2 ? "rgn-snapshot" : "rgn-shards";
          case OpKind::RgnDrain:
            return "rgn-drain";
        }
        return "?";
    }
};

/** The failure a replay ended in. */
struct Failure
{
    std::size_t opIndex = 0;
    std::string message;
};

// ---------------------------------------------------------------
// Sequence generation: a pure function of (seed, mode, op count).
// ---------------------------------------------------------------

std::vector<Op>
genAllocOps(std::uint64_t seed, std::uint32_t count)
{
    Rng rng(seed * 2 + 0);
    std::vector<Op> ops;
    ops.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Op op;
        std::uint64_t pick = rng.nextBounded(10);
        if (pick < 4)
            op.kind = OpKind::Alloc;
        else if (pick < 7)
            op.kind = OpKind::Resize;
        else if (pick < 9)
            op.kind = OpKind::Release;
        else
            op.kind = OpKind::Compact;
        op.slot = static_cast<std::uint32_t>(rng.nextBounded(kSlots));
        op.a = 1 + static_cast<std::uint32_t>(rng.nextBounded(8));
        op.b = static_cast<std::uint32_t>(rng.nextBounded(17));
        ops.push_back(op);
    }
    return ops;
}

std::vector<Op>
genSimOps(std::uint64_t seed, std::uint32_t count)
{
    Rng rng(seed * 2 + 1);
    std::vector<Op> ops;
    ops.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Op op;
        std::uint64_t pick = rng.nextBounded(12);
        if (pick < 3)
            op.kind = OpKind::Create;
        else if (pick < 6)
            op.kind = OpKind::Command;
        else if (pick < 9)
            op.kind = OpKind::Run;
        else if (pick < 10)
            op.kind = OpKind::Sample;
        else
            op.kind = OpKind::Destroy;
        op.slot = static_cast<std::uint32_t>(rng.nextBounded(kSlots));
        op.a = 1 + static_cast<std::uint32_t>(rng.nextBounded(8));
        op.b = static_cast<std::uint32_t>(rng.nextBounded(17));
        if (op.kind == OpKind::Run)
            op.a = 2 + static_cast<std::uint32_t>(rng.nextBounded(16));
        ops.push_back(op);
    }
    return ops;
}

std::vector<Op>
genCloudOps(std::uint64_t seed, std::uint32_t count)
{
    Rng rng(seed * 3 + 2);
    std::vector<Op> ops;
    ops.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Op op;
        std::uint64_t pick = rng.nextBounded(12);
        if (pick < 4)
            op.kind = OpKind::CloudArrive;
        else if (pick < 7)
            op.kind = OpKind::CloudStep;
        else if (pick < 10)
            op.kind = OpKind::CloudDepart;
        else
            op.kind = OpKind::CloudSetFreq;
        op.slot = static_cast<std::uint32_t>(rng.nextBounded(kSlots));
        op.a = static_cast<std::uint32_t>(rng.nextBounded(16));
        op.b = 1 + static_cast<std::uint32_t>(rng.nextBounded(12));
        ops.push_back(op);
    }
    return ops;
}

std::vector<Op>
genServiceOps(std::uint64_t seed, std::uint32_t count)
{
    Rng rng(seed * 5 + 3);
    std::vector<Op> ops;
    ops.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Op op;
        std::uint64_t pick = rng.nextBounded(20);
        if (pick < 6)
            op.kind = OpKind::SvcArrive;
        else if (pick < 9)
            op.kind = OpKind::SvcDepart;
        else if (pick < 11)
            op.kind = OpKind::SvcQuery;
        else if (pick < 15)
            op.kind = OpKind::SvcStep;
        else if (pick < 16)
            op.kind = OpKind::SvcSnapshot;
        else if (pick < 17)
            op.kind = OpKind::SvcJunk;
        else if (pick < 18)
            op.kind = OpKind::SvcBadOp;
        else if (pick < 19)
            op.kind = OpKind::SvcEmpty;
        else
            op.kind = OpKind::SvcOversize;
        // One drain per sequence at most, near the end: after a
        // drain every arrive is (correctly) refused, so an early
        // drain would starve the rest of the sequence.
        if (pick == 14 && i + 4 > count)
            op.kind = OpKind::SvcDrain;
        op.slot = static_cast<std::uint32_t>(rng.nextBounded(kSlots));
        op.a = static_cast<std::uint32_t>(rng.nextBounded(16));
        op.b = 1 + static_cast<std::uint32_t>(rng.nextBounded(12));
        ops.push_back(op);
    }
    return ops;
}

std::vector<Op>
genRegionOps(std::uint64_t seed, std::uint32_t count)
{
    Rng rng(seed * 7 + 5);
    std::vector<Op> ops;
    ops.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Op op;
        std::uint64_t pick = rng.nextBounded(22);
        if (pick < 6)
            op.kind = OpKind::RgnArrive;
        else if (pick < 9)
            op.kind = OpKind::RgnDepart;
        else if (pick < 11)
            op.kind = OpKind::RgnQuery;
        else if (pick < 15)
            op.kind = OpKind::RgnStep;
        else if (pick < 18)
            op.kind = OpKind::RgnMigrate;
        else
            op.kind = OpKind::RgnSnapshot;
        // At most one drain per sequence, near the end (arrivals
        // after a drain are correctly refused — see genServiceOps).
        if (pick == 14 && i + 4 > count)
            op.kind = OpKind::RgnDrain;
        op.slot = static_cast<std::uint32_t>(rng.nextBounded(kSlots));
        op.a = static_cast<std::uint32_t>(rng.nextBounded(16));
        op.b = 1 + static_cast<std::uint32_t>(rng.nextBounded(12));
        ops.push_back(op);
    }
    return ops;
}

// ---------------------------------------------------------------
// Replay. Ops whose slot is in the wrong state are no-ops, so any
// subsequence of a valid sequence is itself valid — the property
// the shrinker depends on.
// ---------------------------------------------------------------

std::optional<Failure>
replayAlloc(const std::vector<Op> &ops)
{
    FabricGrid grid;
    FabricAllocator alloc(grid);
    std::vector<std::optional<VCoreId>> slots(kSlots);

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        try {
            switch (op.kind) {
              case OpKind::Alloc: {
                if (slots[op.slot])
                    break;
                auto a = alloc.allocate(op.a, op.b);
                if (a)
                    slots[op.slot] = a->id;
                break;
              }
              case OpKind::Resize:
                if (slots[op.slot])
                    alloc.resize(*slots[op.slot], op.a, op.b);
                break;
              case OpKind::Release:
                if (slots[op.slot]) {
                    alloc.release(*slots[op.slot]);
                    slots[op.slot].reset();
                }
                break;
              case OpKind::Compact:
                alloc.compact();
                break;
              default:
                break;
            }
            auditAllocator(alloc);
        } catch (const InvariantError &e) {
            return Failure{i, e.what()};
        } catch (const FatalError &e) {
            return Failure{i, strfmt("unexpected FatalError: %s",
                                     e.what())};
        }
    }
    return std::nullopt;
}

/** One simulated tenant: a vcore driven by a looping phased trace. */
struct Tenant
{
    VCoreId id = invalidVCore;
    std::unique_ptr<PhasedTraceSource> source;
};

std::unique_ptr<PhasedTraceSource>
makeTenantSource(std::uint64_t seed, std::uint32_t slot)
{
    // Store-heavy, cache-straining mixes so reconfigurations find
    // dirty lines to flush and live registers to push.
    PhaseParams phase;
    phase.name = strfmt("fuzz-%u", slot);
    phase.memFrac = 0.35;
    phase.storeFrac = 0.45;
    phase.workingSet = (64 + 64 * ((seed + slot) % 8)) * kiB;
    phase.lengthInsts = 20'000;
    phase.dataBase = slot * 64 * miB;
    return std::make_unique<PhasedTraceSource>(
        std::vector<PhaseParams>{phase}, seed ^ (0x5151u + slot),
        /*loop=*/true);
}

/** --sampled: replay every op family under sampled simulation
 *  (sim/sampler.hh). The audits must hold exactly as in full mode;
 *  a divergence shrinks with the usual single-op-deletion
 *  contract. Short sampling quanta keep the 50k-cycle fuzz rounds
 *  actually exercising the fast-forward path. */
bool g_sampled = false;

SamplerParams
fuzzSamplerParams()
{
    SamplerParams sp;
    sp.sliceQuantum = 2'000;
    return sp;
}

std::optional<Failure>
replaySim(const std::vector<Op> &ops, std::uint64_t seed)
{
    SSim sim;
    if (g_sampled)
        sim.setSampling(SimMode::Sampled, fuzzSamplerParams());
    std::vector<Tenant> slots(kSlots);

    auto live = [&slots]() {
        std::vector<VCoreId> ids;
        for (const Tenant &t : slots)
            if (t.id != invalidVCore)
                ids.push_back(t.id);
        return ids;
    };

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        Tenant &t = slots[op.slot];
        try {
            switch (op.kind) {
              case OpKind::Create: {
                if (t.id != invalidVCore)
                    break;
                auto id = sim.createVCore(op.a, op.b);
                if (id) {
                    t.id = *id;
                    t.source = makeTenantSource(seed, op.slot);
                    sim.vcore(t.id).bindSource(t.source.get());
                }
                break;
              }
              case OpKind::Command:
                if (t.id != invalidVCore)
                    sim.command(t.id, op.a, op.b);
                break;
              case OpKind::Run:
                if (t.id != invalidVCore) {
                    VirtualCore &vc = sim.vcore(t.id);
                    vc.runUntil(vc.now() + op.a * 1000ull);
                }
                break;
              case OpKind::Sample:
                if (t.id != invalidVCore)
                    sim.readCounters(t.id);
                break;
              case OpKind::Destroy:
                if (t.id != invalidVCore) {
                    sim.destroyVCore(t.id);
                    t.id = invalidVCore;
                    t.source.reset();
                }
                break;
              default:
                break;
            }
            auditSim(sim, live());
        } catch (const InvariantError &e) {
            return Failure{i, e.what()};
        } catch (const FatalError &e) {
            return Failure{i, strfmt("unexpected FatalError: %s",
                                     e.what())};
        }
    }
    return std::nullopt;
}

/**
 * Cloud-layer replay: a FineGrain CloudProvider on a tight chip,
 * with every arrival and departure injected through the provider's
 * deterministic hooks (the stochastic arrival stream is disabled)
 * so each op is a pure function of its fields. auditProvider checks
 * tile conservation, lifecycle algebra, billing-vs-holdings, and
 * arbitration after every op.
 */
std::optional<Failure>
replayCloud(const std::vector<Op> &ops, std::uint64_t seed)
{
    cloud::ProviderParams params;
    params.fabric.sliceCols = 1;
    params.fabric.bankCols = 4;
    params.fabric.rows = 8; // 8 Slices (7 sellable), 32 banks
    params.provisioning = cloud::Provisioning::FineGrain;
    params.arrivalProb = 0.0; // arrivals only through the ops
    params.quantum = 50'000;  // short rounds keep replays cheap
    params.seed = seed;
    // Joint (tiles x frequency) runtimes: every CloudStep can issue
    // SET_FREQ through the command gate, so the energy audit sees
    // voltage-scaled accrual interleaved with reconfiguration.
    params.runtime.dvfs = true;
    if (g_sampled) {
        params.simMode = SimMode::Sampled;
        params.sampler = fuzzSamplerParams();
    }
    cloud::CloudProvider provider(params);
    std::size_t num_classes = provider.params().catalog.size();

    std::vector<std::optional<cloud::TenantId>> slots(kSlots);
    auto slot_live = [&](std::uint32_t s) {
        if (!slots[s])
            return false;
        cloud::TenantState st = provider.tenants()[*slots[s]]->state;
        return st == cloud::TenantState::Active
            || st == cloud::TenantState::Queued;
    };

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        try {
            switch (op.kind) {
              case OpKind::CloudArrive: {
                if (slot_live(op.slot))
                    break;
                cloud::TenantId id = provider.injectArrival(
                    op.a % num_classes, op.b);
                cloud::TenantState st =
                    provider.tenants()[id]->state;
                if (st == cloud::TenantState::Active
                    || st == cloud::TenantState::Queued)
                    slots[op.slot] = id;
                else
                    slots[op.slot].reset();
                break;
              }
              case OpKind::CloudDepart:
                // The tenant may already have departed on its own
                // during a CloudStep; injectDeparture is then a
                // no-op returning false.
                if (slots[op.slot]) {
                    provider.injectDeparture(*slots[op.slot]);
                    slots[op.slot].reset();
                }
                break;
              case OpKind::CloudStep:
                provider.step();
                break;
              case OpKind::CloudSetFreq:
                // External SET_FREQ on a live tenant's vcore,
                // routed through the provider's command gate like
                // any runtime-issued frequency change.
                if (slots[op.slot])
                    provider.injectSetFreq(*slots[op.slot],
                                           op.a % kNumPStates);
                break;
              default:
                break;
            }
            auditProvider(provider);
        } catch (const InvariantError &e) {
            return Failure{i, e.what()};
        } catch (const FatalError &e) {
            return Failure{i, strfmt("unexpected FatalError: %s",
                                     e.what())};
        }
    }
    return std::nullopt;
}

/**
 * Service-layer replay: the daemon's decode→apply path in-process,
 * no sockets. Each op is rendered to an actual wire frame, fed to a
 * FrameDecoder in two split pieces (exercising incremental
 * reassembly), parsed, and applied through ServiceCore against a
 * FineGrain provider — exactly the server's handleFrame → sim-thread
 * sequence. Malformed payloads, empty frames, and oversized frames
 * must come back as error responses (or sticky decoder errors — we
 * then swap in a fresh decoder, as the server does by closing the
 * connection), never as exceptions; auditProvider runs after every
 * op.
 */
std::optional<Failure>
replayService(const std::vector<Op> &ops, std::uint64_t seed)
{
    cloud::ProviderParams params;
    params.fabric.sliceCols = 1;
    params.fabric.bankCols = 4;
    params.fabric.rows = 8;
    params.provisioning = cloud::Provisioning::FineGrain;
    params.arrivalProb = 0.0;
    params.quantum = 50'000;
    params.seed = seed;
    params.runtime.dvfs = true; // see replayCloud
    if (g_sampled) {
        params.simMode = SimMode::Sampled;
        params.sampler = fuzzSamplerParams();
    }
    cloud::CloudProvider provider(params);
    std::size_t num_classes = provider.params().catalog.size();
    service::ServiceCore core(provider, /*audit_each_quantum=*/false);

    constexpr std::size_t kMaxFrame = 1024;
    service::FrameDecoder decoder(kMaxFrame);
    std::vector<std::optional<cloud::TenantId>> slots(kSlots);
    std::uint64_t next_id = 1;

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        try {
            // --- Render the op to one wire frame.
            std::string frame;
            bool expect_decoder_error = false;
            bool expect_parse_error = false;
            switch (op.kind) {
              case OpKind::SvcJunk:
                frame = service::encodeFrame("{\"id\":1,\"op\"");
                expect_parse_error = true;
                break;
              case OpKind::SvcBadOp:
                frame = service::encodeFrame(
                    strfmt("{\"id\":%llu,\"op\":\"warp\"}",
                           static_cast<unsigned long long>(
                               next_id++)));
                break;
              case OpKind::SvcEmpty:
                frame = service::encodeFrame("");
                expect_decoder_error = true;
                break;
              case OpKind::SvcOversize:
                frame = service::encodeFrame(
                    std::string(kMaxFrame + 1, ' '));
                expect_decoder_error = true;
                break;
              default: {
                service::Request req;
                req.id = next_id++;
                switch (op.kind) {
                  case OpKind::SvcArrive:
                    req.op = service::Op::Arrive;
                    req.cls = static_cast<std::uint32_t>(
                        op.a % num_classes);
                    req.residence = op.b;
                    break;
                  case OpKind::SvcDepart:
                    if (!slots[op.slot])
                        continue;
                    req.op = service::Op::Depart;
                    req.tenant = *slots[op.slot];
                    slots[op.slot].reset();
                    break;
                  case OpKind::SvcQuery:
                    if (!slots[op.slot])
                        continue;
                    req.op = service::Op::Query;
                    req.tenant = *slots[op.slot];
                    break;
                  case OpKind::SvcStep:
                    req.op = service::Op::Step;
                    req.quanta = 1 + op.a % 4;
                    break;
                  case OpKind::SvcSnapshot:
                    req.op = service::Op::Snapshot;
                    break;
                  case OpKind::SvcDrain:
                    req.op = service::Op::Drain;
                    break;
                  default:
                    continue; // non-service op in a mixed shrink
                }
                frame = service::encodeFrame(req.toJson().dump());
                break;
              }
            }

            // --- Feed it split in two, decode, apply.
            std::size_t cut = op.a % frame.size();
            decoder.feed(frame.data(), cut);
            decoder.feed(frame.data() + cut, frame.size() - cut);
            bool parsed_one = false;
            while (auto payload = decoder.next()) {
                std::string perr;
                auto doc = service::parseJson(*payload, &perr);
                if (!doc) {
                    if (!expect_parse_error)
                        return Failure{
                            i, strfmt("valid request failed to "
                                      "parse: %s", perr.c_str())};
                    continue;
                }
                std::string code, detail;
                std::uint64_t id = 0;
                auto req = service::parseRequest(*doc, &code,
                                                 &detail, &id);
                if (!req) {
                    if (op.kind != OpKind::SvcBadOp)
                        return Failure{
                            i, strfmt("request rejected: %s (%s)",
                                      code.c_str(),
                                      detail.c_str())};
                    continue;
                }
                service::JsonValue resp = core.apply(*req);
                parsed_one = true;
                // Track tenants handed out by ok arrive responses.
                if (req->op == service::Op::Arrive
                    && resp.getBool("ok").value_or(false)
                    && resp.getString("state").value_or("")
                        != "rejected") {
                    if (auto t = resp.getUint("tenant"))
                        slots[op.slot] =
                            static_cast<cloud::TenantId>(*t);
                }
            }
            if (decoder.error()) {
                if (!expect_decoder_error)
                    return Failure{
                        i, strfmt("decoder poisoned by a valid "
                                  "frame: %s", decoder.error())};
                // The server answers and closes; a new connection
                // gets a fresh decoder.
                decoder = service::FrameDecoder(kMaxFrame);
            } else if (expect_decoder_error) {
                return Failure{i, "hostile frame was accepted"};
            } else if (!parsed_one && !expect_parse_error
                       && op.kind != OpKind::SvcBadOp) {
                return Failure{i, "frame produced no response"};
            }
            auditProvider(provider);
        } catch (const InvariantError &e) {
            return Failure{i, e.what()};
        } catch (const FatalError &e) {
            return Failure{i, strfmt("unexpected FatalError: %s",
                                     e.what())};
        }
    }
    return std::nullopt;
}

/**
 * Region-layer replay: a two-shard RegionCore on tight FineGrain
 * chips, driven through the same Request objects the wire would
 * deliver — placement-routed arrivals, region-id departs/queries,
 * cross-shard migrations (migrate-out → hand-off → migrate-in), the
 * snapshot and shards reads, and the aggregated drain. auditProvider
 * runs on EVERY shard after every op, so a migration that
 * double-bills, leaks a holding, or breaks lifecycle algebra on
 * either side fails the op that caused it.
 */
std::optional<Failure>
replayRegion(const std::vector<Op> &ops, std::uint64_t seed)
{
    cloud::ProviderParams params;
    params.fabric.sliceCols = 1;
    params.fabric.bankCols = 4;
    params.fabric.rows = 8;
    params.provisioning = cloud::Provisioning::FineGrain;
    params.arrivalProb = 0.0;
    params.quantum = 50'000;
    params.seed = seed;
    params.runtime.dvfs = true; // see replayCloud
    if (g_sampled) {
        params.simMode = SimMode::Sampled;
        params.sampler = fuzzSamplerParams();
    }
    constexpr std::uint32_t kShards = 2;
    service::RegionCore region(params, kShards,
                               /*audit_each_quantum=*/false);
    std::size_t num_classes =
        region.provider(0).params().catalog.size();

    // Slots hold REGION tenant ids (shard << 24 | local).
    std::vector<std::optional<std::uint32_t>> slots(kSlots);
    std::uint64_t next_id = 1;

    auto audit_all = [&region] {
        for (std::uint32_t s = 0; s < kShards; ++s)
            auditProvider(region.provider(s));
    };

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        try {
            service::Request req;
            req.id = next_id++;
            switch (op.kind) {
              case OpKind::RgnArrive: {
                if (slots[op.slot])
                    break;
                req.op = service::Op::Arrive;
                req.cls = static_cast<std::uint32_t>(
                    op.a % num_classes);
                req.residence = op.b;
                service::JsonValue resp = region.apply(req);
                if (resp.getBool("ok").value_or(false)
                    && resp.getString("state").value_or("")
                        != "rejected") {
                    if (auto t = resp.getUint("tenant"))
                        slots[op.slot] =
                            static_cast<std::uint32_t>(*t);
                }
                break;
              }
              case OpKind::RgnDepart:
                if (!slots[op.slot])
                    break;
                req.op = service::Op::Depart;
                req.tenant = *slots[op.slot];
                // unknown_tenant is fine: it may have departed on
                // its own during an RgnStep.
                region.apply(req);
                slots[op.slot].reset();
                break;
              case OpKind::RgnQuery:
                if (!slots[op.slot])
                    break;
                req.op = service::Op::Query;
                req.tenant = *slots[op.slot];
                region.apply(req);
                break;
              case OpKind::RgnStep:
                req.op = service::Op::Step;
                req.quanta = 1 + op.a % 4;
                region.apply(req);
                break;
              case OpKind::RgnMigrate: {
                if (!slots[op.slot])
                    break;
                req.op = service::Op::Migrate;
                req.tenant = *slots[op.slot];
                // Auto target: the router picks the other shard.
                service::JsonValue resp = region.apply(req);
                if (resp.getBool("ok").value_or(false)) {
                    auto t = resp.getUint("tenant");
                    if (!t)
                        return Failure{i, "ok migrate response "
                                          "without a tenant id"};
                    std::uint32_t new_id =
                        static_cast<std::uint32_t>(*t);
                    if (cloud::tenantShard(new_id)
                        == cloud::tenantShard(*slots[op.slot]))
                        return Failure{
                            i, "migrate landed on the source shard"};
                    slots[op.slot] = new_id;
                }
                break;
              }
              case OpKind::RgnSnapshot: {
                req.op = op.a % 2 ? service::Op::Snapshot
                                  : service::Op::Shards;
                service::JsonValue resp = region.apply(req);
                if (!resp.getBool("ok").value_or(false))
                    return Failure{i, strfmt("%s answered !ok",
                                             service::opName(req.op))};
                break;
              }
              case OpKind::RgnDrain: {
                req.op = service::Op::Drain;
                service::JsonValue resp = region.apply(req);
                if (!resp.getBool("ok").value_or(false))
                    return Failure{i, "drain answered !ok"};
                for (auto &slot : slots)
                    slot.reset();
                break;
              }
              default:
                break; // non-region op in a mixed shrink
            }
            audit_all();
        } catch (const InvariantError &e) {
            return Failure{i, e.what()};
        } catch (const FatalError &e) {
            return Failure{i, strfmt("unexpected FatalError: %s",
                                     e.what())};
        }
    }
    return std::nullopt;
}

// ---------------------------------------------------------------
// Shrinking: iterated single-op deletion to a fixpoint. Sequences
// are small (tens of ops) and replays are cheap, so the quadratic
// loop minimizes properly where chunk-only ddmin can stall early.
// ---------------------------------------------------------------

template <typename Replay>
std::vector<Op>
shrinkOps(std::vector<Op> ops, const Replay &replay)
{
    bool progress = true;
    while (progress && ops.size() > 1) {
        progress = false;
        for (std::size_t i = 0; i < ops.size();) {
            std::vector<Op> candidate = ops;
            candidate.erase(candidate.begin()
                            + static_cast<std::ptrdiff_t>(i));
            if (replay(candidate)) {
                ops = std::move(candidate);
                progress = true;
            } else {
                ++i;
            }
        }
    }
    return ops;
}

struct Options
{
    std::uint64_t firstSeed = 0;
    std::uint64_t numSeeds = 100;
    std::uint32_t opsPerSeed = 48;
    bool modeAlloc = true;
    bool modeSim = true;
    bool modeCloud = true;
    bool modeService = true;
    bool modeRegion = true;
    bool shrink = true;
    bool verbose = false;
    /** Replay every mode under SimMode::Sampled (sim/sampler.hh).
     *  Op generation and shrinking are untouched — only the replay
     *  simulators flip, so a seed reproduces identically with or
     *  without the flag. */
    bool sampled = false;
    Fault inject = Fault::None;
};

void
reportFailure(const char *mode, std::uint64_t seed,
              const Options &opt, const std::vector<Op> &minimized,
              const Failure &f)
{
    std::fprintf(stderr, "FAIL [%s] seed %llu: %s\n", mode,
                 static_cast<unsigned long long>(seed),
                 f.message.c_str());
    std::fprintf(stderr, "  minimized to %zu op(s):\n",
                 minimized.size());
    for (std::size_t i = 0; i < minimized.size(); ++i)
        std::fprintf(stderr, "    [%2zu] %s\n", i,
                     minimized[i].str().c_str());
    int enabled = (opt.modeAlloc ? 1 : 0) + (opt.modeSim ? 1 : 0)
        + (opt.modeCloud ? 1 : 0) + (opt.modeService ? 1 : 0)
        + (opt.modeRegion ? 1 : 0);
    const char *only = "";
    if (enabled == 1) {
        only = opt.modeAlloc ? " --mode alloc"
            : opt.modeSim    ? " --mode sim"
            : opt.modeCloud  ? " --mode cloud"
            : opt.modeService ? " --mode service"
                              : " --mode region";
    }
    std::fprintf(stderr,
                 "  reproduce: fuzz_reconfig --seed %llu --ops %u"
                 "%s%s%s\n",
                 static_cast<unsigned long long>(seed),
                 opt.opsPerSeed, only,
                 opt.inject != Fault::None
                     ? strfmt(" --inject %s",
                              faultName(opt.inject)).c_str()
                     : "",
                 opt.sampled ? " --sampled" : "");
}

const char *const kUsage =
    "usage: fuzz_reconfig [flags]\n"
    "  --seeds N      fuzz seeds start..start+N-1 (default 100)\n"
    "  --seed S       replay the one seed S, verbosely\n"
    "  --start S      first seed of a --seeds batch (default 0)\n"
    "  --ops N        operations per seed (default 48)\n"
    "  --mode M       op families: alloc, sim, cloud, service,\n"
    "                 region, both (alloc+sim) or all (default)\n"
    "  --inject F     arm a deliberate bug the audits must catch:\n"
    "                 alloc-leak, l2-undercount, rename-drop,\n"
    "                 provider-leak, energy-leak (needs a\n"
    "                 CASH_CHECK_INVARIANTS build)\n"
    "  --sampled      replay under sampled simulation\n"
    "  --no-shrink    report a failing seed's full op list\n"
    "  --verbose      print every seed as it runs\n"
    "  --trace F      write a Chrome trace_event timeline to F\n"
    "  --metrics F    write the metric summary CSV to F\n"
    "Exit status: 0 when every seed passes, 1 when one fails, 2 on\n"
    "a bad flag.\n";

int
run(const Options &opt)
{
    if (opt.inject != Fault::None && !invariantsEnabled) {
        warn("--inject %s has no effect: this binary was built "
             "without CASH_CHECK_INVARIANTS, so the fault points "
             "are compiled out", faultName(opt.inject));
    }
    setInjectedFault(opt.inject);
    g_sampled = opt.sampled;

    std::uint64_t failures = 0;
    for (std::uint64_t seed = opt.firstSeed;
         seed < opt.firstSeed + opt.numSeeds; ++seed) {
        if (opt.verbose)
            std::fprintf(stderr, "seed %llu...\n",
                         static_cast<unsigned long long>(seed));

        if (opt.modeAlloc) {
            std::vector<Op> ops = genAllocOps(seed, opt.opsPerSeed);
            if (auto f = replayAlloc(ops)) {
                ++failures;
                std::vector<Op> min = opt.shrink
                    ? shrinkOps(ops,
                                [](const std::vector<Op> &c) {
                                    return replayAlloc(c)
                                        .has_value();
                                })
                    : ops;
                Failure mf = replayAlloc(min).value_or(*f);
                reportFailure("alloc", seed, opt, min, mf);
            }
        }
        if (opt.modeSim) {
            std::vector<Op> ops = genSimOps(seed, opt.opsPerSeed);
            if (auto f = replaySim(ops, seed)) {
                ++failures;
                std::vector<Op> min = opt.shrink
                    ? shrinkOps(ops,
                                [seed](const std::vector<Op> &c) {
                                    return replaySim(c, seed)
                                        .has_value();
                                })
                    : ops;
                Failure mf = replaySim(min, seed).value_or(*f);
                reportFailure("sim", seed, opt, min, mf);
            }
        }
        if (opt.modeCloud) {
            std::vector<Op> ops = genCloudOps(seed, opt.opsPerSeed);
            if (auto f = replayCloud(ops, seed)) {
                ++failures;
                std::vector<Op> min = opt.shrink
                    ? shrinkOps(ops,
                                [seed](const std::vector<Op> &c) {
                                    return replayCloud(c, seed)
                                        .has_value();
                                })
                    : ops;
                Failure mf = replayCloud(min, seed).value_or(*f);
                reportFailure("cloud", seed, opt, min, mf);
            }
        }
        if (opt.modeService) {
            std::vector<Op> ops =
                genServiceOps(seed, opt.opsPerSeed);
            if (auto f = replayService(ops, seed)) {
                ++failures;
                std::vector<Op> min = opt.shrink
                    ? shrinkOps(ops,
                                [seed](const std::vector<Op> &c) {
                                    return replayService(c, seed)
                                        .has_value();
                                })
                    : ops;
                Failure mf = replayService(min, seed).value_or(*f);
                reportFailure("service", seed, opt, min, mf);
            }
        }
        if (opt.modeRegion) {
            std::vector<Op> ops =
                genRegionOps(seed, opt.opsPerSeed);
            if (auto f = replayRegion(ops, seed)) {
                ++failures;
                std::vector<Op> min = opt.shrink
                    ? shrinkOps(ops,
                                [seed](const std::vector<Op> &c) {
                                    return replayRegion(c, seed)
                                        .has_value();
                                })
                    : ops;
                Failure mf = replayRegion(min, seed).value_or(*f);
                reportFailure("region", seed, opt, min, mf);
            }
        }
    }

    std::printf("fuzz_reconfig: %llu seed(s) x%s%s%s%s%s, %u ops "
                "each, invariants %s, inject=%s: %llu failure(s)\n",
                static_cast<unsigned long long>(opt.numSeeds),
                opt.modeAlloc ? " alloc" : "",
                opt.modeSim ? " sim" : "",
                opt.modeCloud ? " cloud" : "",
                opt.modeService ? " service" : "",
                opt.modeRegion ? " region" : "", opt.opsPerSeed,
                invariantsEnabled ? "on" : "off",
                faultName(opt.inject),
                static_cast<unsigned long long>(failures));
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace cash

int
main(int argc, char **argv)
{
    using namespace cash;

    Options opt;
    try {
        // Owns --trace/--metrics (removed from argv here); writes
        // the exports when main returns.
        trace::TraceOptions topts(argc, argv);
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            auto value = [&] { return flagValue(argc, argv, i); };
            if (!std::strcmp(arg, "--help")) {
                std::fputs(kUsage, stdout);
                return 0;
            } else if (!std::strcmp(arg, "--seeds")) {
                opt.numSeeds = parseFlag<std::uint64_t>(arg, value(), 1);
            } else if (!std::strcmp(arg, "--seed")) {
                opt.firstSeed = parseFlag<std::uint64_t>(arg, value());
                opt.numSeeds = 1;
                opt.verbose = true;
            } else if (!std::strcmp(arg, "--start")) {
                opt.firstSeed = parseFlag<std::uint64_t>(arg, value());
            } else if (!std::strcmp(arg, "--ops")) {
                opt.opsPerSeed = parseFlag<std::uint32_t>(arg, value(), 1);
            } else if (!std::strcmp(arg, "--mode")) {
                std::string mode = value();
                // "both" predates the cloud layer and keeps meaning
                // alloc+sim; "all" is everything.
                opt.modeAlloc = mode == "alloc" || mode == "both"
                    || mode == "all";
                opt.modeSim = mode == "sim" || mode == "both"
                    || mode == "all";
                opt.modeCloud = mode == "cloud" || mode == "all";
                opt.modeService = mode == "service"
                    || mode == "all";
                opt.modeRegion = mode == "region" || mode == "all";
                if (!opt.modeAlloc && !opt.modeSim && !opt.modeCloud
                    && !opt.modeService && !opt.modeRegion)
                    fatal("unknown mode '%s' "
                          "(alloc|sim|cloud|service|region|both|"
                          "all)",
                          mode.c_str());
            } else if (!std::strcmp(arg, "--inject")) {
                opt.inject = faultFromName(value());
            } else if (!std::strcmp(arg, "--sampled")) {
                opt.sampled = true;
            } else if (!std::strcmp(arg, "--no-shrink")) {
                opt.shrink = false;
            } else if (!std::strcmp(arg, "--verbose")) {
                opt.verbose = true;
            } else {
                fatal("unknown flag '%s' (see --help)", arg);
            }
        }
        return run(opt);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fuzz_reconfig: %s\n", e.what());
        return 2;
    }
}
