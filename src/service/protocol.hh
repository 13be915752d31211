/**
 * @file
 * The CASH service wire protocol: length-prefixed JSON frames.
 *
 * One frame = a 4-byte big-endian payload length followed by exactly
 * that many bytes of UTF-8 JSON. Requests and responses are flat
 * JSON objects; every request carries a client-chosen `id` the
 * response echoes, so clients may pipeline (the server may interleave
 * IO-thread error responses — e.g. `queue_full` — between
 * simulation-thread responses to earlier requests).
 *
 * Request grammar (see DESIGN.md §10 for the full contract):
 *
 *   {"id":N,"op":"ping"}
 *   {"id":N,"op":"arrive","cls":C,"residence":R}
 *   {"id":N,"op":"depart","tenant":T}
 *   {"id":N,"op":"query","tenant":T}
 *   {"id":N,"op":"step","quanta":Q}
 *   {"id":N,"op":"snapshot"}
 *   {"id":N,"op":"drain"}
 *   {"id":N,"op":"shards"}
 *   {"id":N,"op":"migrate","tenant":T}          — router picks
 *   {"id":N,"op":"migrate","tenant":T,"to":S}   — explicit shard
 *
 * Region addressing: tenant ids carry the owning shard in their top
 * byte (shard << 24 | local; cloud/placement.hh), and `arrive`
 * responses report the placement in a `shard` field. A one-shard
 * region is wire-identical to the single-chip daemon.
 *
 * Response: {"id":N,"ok":true,...} on success, or
 * {"id":N,"ok":false,"error":"<code>","detail":"..."} where <code>
 * is one of the errors::* constants below.
 *
 * Robustness contract enforced by FrameDecoder: a frame longer than
 * the configured maximum, or an empty frame, poisons the stream (the
 * server answers with a final error and closes the connection) —
 * a decoder error is sticky because a corrupt length prefix makes
 * every later byte boundary meaningless.
 */

#ifndef CASH_SERVICE_PROTOCOL_HH
#define CASH_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/json.hh"

namespace cash::service
{

/** Default cap on one frame's JSON payload, in bytes (the daemon's
 *  cap). */
constexpr std::size_t kDefaultMaxFrame = 256 * 1024;

/** Machine-readable error codes carried in the "error" field. */
namespace errors
{
constexpr const char *BadRequest = "bad_request";
constexpr const char *UnknownOp = "unknown_op";
constexpr const char *UnknownTenant = "unknown_tenant";
constexpr const char *QueueFull = "queue_full";
constexpr const char *Draining = "draining";
constexpr const char *Malformed = "malformed";
constexpr const char *FrameTooLarge = "frame_too_large";
} // namespace errors

/** Everything a client can ask of the daemon. */
enum class Op : std::uint8_t
{
    Ping,     ///< liveness probe; also flushes the pipeline
    Arrive,   ///< inject one tenant arrival (class, residence)
    Depart,   ///< force a tenant to depart / abandon the queue
    Query,    ///< one tenant's state, bill, and SLA tallies
    Step,     ///< advance the provider by N quanta
    Snapshot, ///< provider-wide stats and occupancy
    Drain,    ///< stop admissions, depart everyone, final bills
    Shards,   ///< placement stats + every shard's snapshot part
    Migrate,  ///< move a tenant to another shard (region only)
};

/** Wire name of an op ("ping", "arrive", ...). */
const char *opName(Op op);

/** Parse a wire name; nullopt for unknown names. */
std::optional<Op> opFromName(std::string_view name);

/** One decoded request. */
struct Request
{
    std::uint64_t id = 0;
    Op op = Op::Ping;
    std::uint32_t cls = 0;       ///< arrive: catalog class index
    std::uint32_t residence = 1; ///< arrive: residence in rounds
    std::uint32_t tenant = 0;    ///< depart/query/migrate: tenant id
    std::uint32_t quanta = 1;    ///< step: rounds to advance
    /** migrate: explicit target shard; kAutoShard lets the
     *  placement router pick. */
    std::uint32_t to = kAutoShard;

    static constexpr std::uint32_t kAutoShard = ~0u;

    /** The request as a wire-format JSON object. */
    JsonValue toJson() const;
};

/**
 * Decode one request object. Returns nullopt (and an errors::* code
 * in `err` plus a human-readable `detail`) when the object is not a
 * well-formed request; the caller still answers with the `id` the
 * object carried if its "id" member was readable.
 */
std::optional<Request> parseRequest(const JsonValue &v,
                                    std::string *err,
                                    std::string *detail,
                                    std::uint64_t *id_out);

/** Build the standard failure response. */
JsonValue errorResponse(std::uint64_t id, const char *code,
                        const std::string &detail);

/** Build the standard success response skeleton ({"id","ok":true}). */
JsonValue okResponse(std::uint64_t id);

// ---------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------

/** Wrap a payload in a 4-byte big-endian length prefix. */
std::string encodeFrame(std::string_view payload);

/**
 * Incremental frame decoder: feed() bytes as they arrive, next()
 * complete payloads in order. Oversized (> max_frame) and empty
 * frames put the decoder into a sticky error state: next() then
 * returns nullopt with error() set, and further feed()s are ignored.
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(std::size_t max_frame = kDefaultMaxFrame)
        : maxFrame_(max_frame)
    {}

    /** Append raw bytes from the stream. */
    void feed(const char *data, std::size_t len);

    /** The next complete payload, if one is buffered. */
    std::optional<std::string> next();

    /** Sticky error code (errors::*), or nullptr while healthy. */
    const char *error() const { return error_; }

    /** Bytes buffered but not yet returned (diagnostics). */
    std::size_t pending() const { return buf_.size() - off_; }

  private:
    std::size_t maxFrame_;
    std::string buf_;
    std::size_t off_ = 0; ///< consumed prefix of buf_
    const char *error_ = nullptr;
};

} // namespace cash::service

#endif // CASH_SERVICE_PROTOCOL_HH
