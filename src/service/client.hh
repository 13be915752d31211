/**
 * @file
 * Blocking client for the CASH service protocol.
 *
 * A ServiceClient owns one connection (Unix-domain or loopback TCP)
 * and speaks the length-prefixed JSON protocol of
 * service/protocol.hh. Two usage styles:
 *
 *  - Synchronous: call() sends one request and blocks for its
 *    response — the natural style for scripts and examples.
 *  - Pipelined: send() queues a request on the wire and returns its
 *    id immediately; next() blocks for the next response in stream
 *    order, whatever its id; wait(id) blocks for one specific id,
 *    stashing any responses that arrive first (the server may
 *    interleave IO-thread errors such as `queue_full` between
 *    simulation responses to earlier requests). The load generator
 *    uses send()/next() to keep a window of requests in flight.
 *
 * Errors: connection failures, mid-stream EOF, and protocol
 * violations throw FatalError (the common/log.hh idiom — tests catch
 * it, tools die with the message). Application-level failures are
 * not exceptions: a response with `"ok":false` is returned to the
 * caller, who checks the `error` code.
 */

#ifndef CASH_SERVICE_CLIENT_HH
#define CASH_SERVICE_CLIENT_HH

#include <cstdint>
#include <map>
#include <string>

#include "service/protocol.hh"

namespace cash::service
{

class ServiceClient
{
  public:
    /** Connect to a Unix-domain listener. fatal() on failure. */
    static ServiceClient connectUnix(const std::string &path);

    /** Connect to a loopback TCP listener. fatal() on failure. */
    static ServiceClient connectTcp(std::uint16_t port,
                                    const std::string &host =
                                        "127.0.0.1");

    /** Wrap an already-connected stream socket (takes ownership). */
    explicit ServiceClient(int fd,
                           std::size_t max_frame = kDefaultMaxFrame);
    ~ServiceClient();

    ServiceClient(ServiceClient &&other) noexcept;
    ServiceClient &operator=(ServiceClient &&other) noexcept;
    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** Write one framed request; assigns a fresh id when the
     *  request's id is 0. Returns the id on the wire. */
    std::uint64_t send(Request req);

    /** Block for the next response in stream order (any id). */
    JsonValue next();

    /** Block until the response carrying `id` arrives; responses to
     *  other ids received meanwhile are stashed for later wait()s
     *  (next() does NOT see stashed responses). */
    JsonValue wait(std::uint64_t id);

    /** send() + wait(): one synchronous round trip. */
    JsonValue call(Request req);

    // --- convenience wrappers (synchronous) ---
    JsonValue ping();
    JsonValue arrive(std::uint32_t cls, std::uint32_t residence);
    JsonValue depart(std::uint32_t tenant);
    JsonValue query(std::uint32_t tenant);
    JsonValue step(std::uint32_t quanta);
    JsonValue snapshot();
    JsonValue drain();

    /** Region ops (single-shard servers answer shards() with a
     *  one-entry region and reject migrate()). `to` defaults to
     *  Request::kAutoShard: the placement router picks the emptiest
     *  other shard. */
    JsonValue migrate(std::uint32_t tenant,
                      std::uint32_t to = Request::kAutoShard);
    JsonValue shards();

    /** Half-close: no more requests; the server flushes pending
     *  responses and then closes (next()/wait() keep working). */
    void finishSending();

    void close();
    bool connected() const { return fd_ >= 0; }

    std::uint64_t sent() const { return sent_; }
    std::uint64_t received() const { return received_; }

  private:
    JsonValue readResponse();

    int fd_ = -1;
    std::uint64_t nextId_ = 1;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
    FrameDecoder decoder_;
    std::map<std::uint64_t, JsonValue> stash_;
};

} // namespace cash::service

#endif // CASH_SERVICE_CLIENT_HH
