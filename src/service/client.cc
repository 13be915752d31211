#include "service/client.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hh"

namespace cash::service
{

ServiceClient
ServiceClient::connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        fatal("unix socket path too long: %s", path.c_str());
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("socket(AF_UNIX): %s", std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr))
        != 0) {
        int e = errno;
        ::close(fd);
        fatal("cannot connect to unix:%s: %s", path.c_str(),
              std::strerror(e));
    }
    return ServiceClient(fd);
}

ServiceClient
ServiceClient::connectTcp(std::uint16_t port,
                          const std::string &host)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        fatal("not an IPv4 address: %s", host.c_str());
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("socket(AF_INET): %s", std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr))
        != 0) {
        int e = errno;
        ::close(fd);
        fatal("cannot connect to tcp:%s:%u: %s", host.c_str(), port,
              std::strerror(e));
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return ServiceClient(fd);
}

ServiceClient::ServiceClient(int fd, std::size_t max_frame)
    : fd_(fd), decoder_(max_frame)
{}

ServiceClient::~ServiceClient()
{
    close();
}

ServiceClient::ServiceClient(ServiceClient &&other) noexcept
    : fd_(other.fd_),
      nextId_(other.nextId_),
      sent_(other.sent_),
      received_(other.received_),
      decoder_(std::move(other.decoder_)),
      stash_(std::move(other.stash_))
{
    other.fd_ = -1;
}

ServiceClient &
ServiceClient::operator=(ServiceClient &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        nextId_ = other.nextId_;
        sent_ = other.sent_;
        received_ = other.received_;
        decoder_ = std::move(other.decoder_);
        stash_ = std::move(other.stash_);
        other.fd_ = -1;
    }
    return *this;
}

void
ServiceClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
ServiceClient::finishSending()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_WR);
}

std::uint64_t
ServiceClient::send(Request req)
{
    if (fd_ < 0)
        fatal("send() on a closed client");
    if (req.id == 0)
        req.id = nextId_++;
    else
        nextId_ = std::max(nextId_, req.id + 1);
    std::string frame = encodeFrame(req.toJson().dump());
    std::size_t off = 0;
    while (off < frame.size()) {
        ssize_t n = ::send(fd_, frame.data() + off,
                           frame.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("write to service failed: %s",
                  std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    ++sent_;
    return req.id;
}

JsonValue
ServiceClient::readResponse()
{
    while (true) {
        if (auto payload = decoder_.next()) {
            std::string err;
            std::optional<JsonValue> v = parseJson(*payload, &err);
            if (!v)
                fatal("undecodable response from service: %s",
                      err.c_str());
            ++received_;
            return std::move(*v);
        }
        if (const char *err = decoder_.error())
            fatal("response stream poisoned: %s", err);
        if (fd_ < 0)
            fatal("next() on a closed client");
        char buf[4096];
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) {
            decoder_.feed(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            fatal("service closed the connection "
                  "(%zu bytes buffered)",
                  decoder_.pending());
        if (errno == EINTR)
            continue;
        fatal("read from service failed: %s", std::strerror(errno));
    }
}

JsonValue
ServiceClient::next()
{
    return readResponse();
}

JsonValue
ServiceClient::wait(std::uint64_t id)
{
    auto it = stash_.find(id);
    if (it != stash_.end()) {
        JsonValue v = std::move(it->second);
        stash_.erase(it);
        return v;
    }
    while (true) {
        JsonValue v = readResponse();
        std::uint64_t got = v.getUint("id").value_or(0);
        if (got == id)
            return v;
        stash_.emplace(got, std::move(v));
    }
}

JsonValue
ServiceClient::call(Request req)
{
    return wait(send(std::move(req)));
}

JsonValue
ServiceClient::ping()
{
    Request r;
    r.op = Op::Ping;
    return call(r);
}

JsonValue
ServiceClient::arrive(std::uint32_t cls, std::uint32_t residence)
{
    Request r;
    r.op = Op::Arrive;
    r.cls = cls;
    r.residence = residence;
    return call(r);
}

JsonValue
ServiceClient::depart(std::uint32_t tenant)
{
    Request r;
    r.op = Op::Depart;
    r.tenant = tenant;
    return call(r);
}

JsonValue
ServiceClient::query(std::uint32_t tenant)
{
    Request r;
    r.op = Op::Query;
    r.tenant = tenant;
    return call(r);
}

JsonValue
ServiceClient::step(std::uint32_t quanta)
{
    Request r;
    r.op = Op::Step;
    r.quanta = quanta;
    return call(r);
}

JsonValue
ServiceClient::snapshot()
{
    Request r;
    r.op = Op::Snapshot;
    return call(r);
}

JsonValue
ServiceClient::drain()
{
    Request r;
    r.op = Op::Drain;
    return call(r);
}

JsonValue
ServiceClient::migrate(std::uint32_t tenant, std::uint32_t to)
{
    Request r;
    r.op = Op::Migrate;
    r.tenant = tenant;
    r.to = to;
    return call(r);
}

JsonValue
ServiceClient::shards()
{
    Request r;
    r.op = Op::Shards;
    return call(r);
}

} // namespace cash::service
