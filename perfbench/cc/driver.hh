/**
 * @file
 * The benchmark's open-loop load driver: one thread, at most a few
 * connections, requests sent on a schedule regardless of replies.
 *
 * Latency is timed from each request's due time, not from when it
 * was actually written, so a stall in the server (or in the driver)
 * shows up in every request that was due during it. How late the
 * driver itself ran is recorded per request (sent - due), and the
 * share of wall time it spent outside its poll wait is reported as
 * busy time, so a rate the driver could not keep is visible.
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "service/json.hh"
#include "service/protocol.hh"

namespace pb
{

/** Relative weights of each op in a drawn request stream. */
struct Mix
{
    double ping = 0.0;
    double query = 0.0;
    double arrive = 0.0;
    double depart = 0.0;
    double step = 0.0;
};

/**
 * Draw one op from `mix`. A query or depart drawn while the session
 * owns no tenant becomes an arrive; nothing else is substituted, so
 * a mix without steps never yields one.
 */
cash::service::Op drawOp(cash::Rng &rng, const Mix &mix, bool owns);

/** One request the driver should send at `due` (steady µs). */
struct Planned
{
    double due = 0.0;
    std::uint32_t session = 0;
    cash::service::Request req;
};

/** Everything the driver knows about one sent request. */
struct Record
{
    std::uint64_t id = 0;
    cash::service::Op op = cash::service::Op::Ping;
    std::uint32_t session = 0;
    int phase = 0;
    double due = 0.0;
    double sent = 0.0;
    double recv = -1.0; ///< -1 until answered
    int answers = 0;
    bool ok = false;
    std::string error;
    /** Wire payloads, kept only when recording is on. */
    std::string reqPayload;
    std::string respPayload;

    double latencyUs() const { return recv - due; }
    double lateUs() const { return sent - due; }
};

class OpenLoopDriver
{
  public:
    using PlanFn = std::function<std::optional<Planned>(double now)>;
    using ResponseFn =
        std::function<void(Record &, const cash::service::JsonValue &)>;

    /** Takes ownership of connected stream sockets, one per
     *  session. `record_bytes` keeps every request and response
     *  payload for the protocol measurements. */
    OpenLoopDriver(std::vector<int> fds, bool record_bytes);
    ~OpenLoopDriver();
    OpenLoopDriver(const OpenLoopDriver &) = delete;
    OpenLoopDriver &operator=(const OpenLoopDriver &) = delete;

    /**
     * Send every planned request at its due time until `plan`
     * returns nullopt, then wait up to `drain_timeout_us` for the
     * outstanding answers. `plan` is asked for the next request
     * right after the previous one is sent, so it sees every
     * response handled so far. Records are tagged with `phase`.
     * Returns true when every request sent so far is answered.
     */
    bool run(const PlanFn &plan, const ResponseFn &on_response,
             double drain_timeout_us, int phase);

    /** Close every session (records stay readable). */
    void closeSessions();

    std::deque<Record> &records() { return records_; }
    const std::deque<Record> &records() const { return records_; }

    /** Wall and busy (not blocked in poll) time over all runs, µs. */
    double wallUs() const { return wallUs_; }
    double busyUs() const { return wallUs_ - blockedUs_; }

    std::uint64_t outstanding() const { return outstanding_; }
    /** Answers to an id that was already answered or never sent. */
    std::uint64_t duplicates() const { return duplicates_; }
    std::uint64_t strays() const { return strays_; }
    /** A session closed by the peer or failed on read/write. */
    bool broken() const { return broken_; }

  private:
    struct Conn
    {
        int fd = -1;
        std::string out;
        std::size_t outOff = 0;
        cash::service::FrameDecoder decoder;
    };

    void send(const Planned &p);
    void flush(Conn &c);
    void drainReadable(Conn &c, const ResponseFn &on_response);

    std::vector<Conn> conns_;
    bool record_;
    int phase_ = 0;
    /** A deque: appending never moves earlier records, so a long
     *  run does not stall the schedule on reallocation. */
    std::deque<Record> records_;
    std::uint64_t outstanding_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t strays_ = 0;
    bool broken_ = false;
    double wallUs_ = 0.0;
    double blockedUs_ = 0.0;
};

} // namespace pb

#endif // PERFBENCH_DRIVER_HH
