#include "service/protocol.hh"

#include <cstring>

#include "common/log.hh"

namespace cash::service
{

const char *
opName(Op op)
{
    switch (op) {
      case Op::Ping: return "ping";
      case Op::Arrive: return "arrive";
      case Op::Depart: return "depart";
      case Op::Query: return "query";
      case Op::Step: return "step";
      case Op::Snapshot: return "snapshot";
      case Op::Drain: return "drain";
      case Op::Shards: return "shards";
      case Op::Migrate: return "migrate";
    }
    return "?";
}

std::optional<Op>
opFromName(std::string_view name)
{
    if (name == "ping")
        return Op::Ping;
    if (name == "arrive")
        return Op::Arrive;
    if (name == "depart")
        return Op::Depart;
    if (name == "query")
        return Op::Query;
    if (name == "step")
        return Op::Step;
    if (name == "snapshot")
        return Op::Snapshot;
    if (name == "drain")
        return Op::Drain;
    if (name == "shards")
        return Op::Shards;
    if (name == "migrate")
        return Op::Migrate;
    return std::nullopt;
}

JsonValue
Request::toJson() const
{
    JsonValue v = JsonValue::object();
    v.set("id", JsonValue(id));
    v.set("op", JsonValue(opName(op)));
    switch (op) {
      case Op::Arrive:
        v.set("cls", JsonValue(cls));
        v.set("residence", JsonValue(residence));
        break;
      case Op::Depart:
      case Op::Query:
        v.set("tenant", JsonValue(tenant));
        break;
      case Op::Migrate:
        v.set("tenant", JsonValue(tenant));
        if (to != kAutoShard)
            v.set("to", JsonValue(to));
        break;
      case Op::Step:
        v.set("quanta", JsonValue(quanta));
        break;
      default:
        break;
    }
    return v;
}

namespace
{

bool
failParse(std::string *err, std::string *detail, const char *code,
          std::string why)
{
    if (err)
        *err = code;
    if (detail)
        *detail = std::move(why);
    return false;
}

/** Read a bounded uint32 field, with a default when optional. */
bool
uintField(const JsonValue &v, const char *key, bool required,
          std::uint32_t fallback, std::uint32_t max,
          std::uint32_t &out, std::string *err, std::string *detail)
{
    if (!v.find(key)) {
        if (required)
            return failParse(err, detail, errors::BadRequest,
                             strfmt("missing field '%s'", key));
        out = fallback;
        return true;
    }
    auto u = v.getUint(key);
    if (!u || *u > max)
        return failParse(
            err, detail, errors::BadRequest,
            strfmt("field '%s' must be an integer in [0, %u]", key,
                   max));
    out = static_cast<std::uint32_t>(*u);
    return true;
}

} // namespace

std::optional<Request>
parseRequest(const JsonValue &v, std::string *err,
             std::string *detail, std::uint64_t *id_out)
{
    if (id_out)
        *id_out = 0;
    if (!v.isObject()) {
        failParse(err, detail, errors::BadRequest,
                  "request is not a JSON object");
        return std::nullopt;
    }
    Request req;
    if (auto id = v.getUint("id")) {
        req.id = *id;
        if (id_out)
            *id_out = *id;
    } else if (v.find("id")) {
        failParse(err, detail, errors::BadRequest,
                  "field 'id' must be a non-negative integer");
        return std::nullopt;
    }

    auto op_name = v.getString("op");
    if (!op_name) {
        failParse(err, detail, errors::BadRequest,
                  "missing string field 'op'");
        return std::nullopt;
    }
    auto op = opFromName(*op_name);
    if (!op) {
        failParse(err, detail, errors::UnknownOp,
                  strfmt("unknown op '%s'", op_name->c_str()));
        return std::nullopt;
    }
    req.op = *op;

    bool ok = true;
    switch (req.op) {
      case Op::Arrive:
        // Class indices and residences are small by construction;
        // the bounds reject garbage without constraining real use.
        ok = uintField(v, "cls", true, 0, 1u << 16, req.cls, err,
                       detail)
            && uintField(v, "residence", false, 1, 1u << 20,
                         req.residence, err, detail);
        break;
      case Op::Depart:
      case Op::Query:
        ok = uintField(v, "tenant", true, 0, ~0u - 1, req.tenant,
                       err, detail);
        break;
      case Op::Migrate:
        // The target shard is bounded by the region id encoding
        // (one byte); absent means "router's choice".
        ok = uintField(v, "tenant", true, 0, ~0u - 1, req.tenant,
                       err, detail)
            && uintField(v, "to", false, Request::kAutoShard, 255,
                         req.to, err, detail);
        break;
      case Op::Step:
        ok = uintField(v, "quanta", false, 1, 1u << 16, req.quanta,
                       err, detail);
        if (ok && req.quanta == 0)
            ok = failParse(err, detail, errors::BadRequest,
                           "field 'quanta' must be positive");
        break;
      default:
        break;
    }
    if (!ok)
        return std::nullopt;
    return req;
}

JsonValue
errorResponse(std::uint64_t id, const char *code,
              const std::string &detail)
{
    JsonValue v = JsonValue::object();
    v.set("id", JsonValue(id));
    v.set("ok", JsonValue(false));
    v.set("error", JsonValue(code));
    if (!detail.empty())
        v.set("detail", JsonValue(detail));
    return v;
}

JsonValue
okResponse(std::uint64_t id)
{
    JsonValue v = JsonValue::object();
    v.set("id", JsonValue(id));
    v.set("ok", JsonValue(true));
    return v;
}

std::string
encodeFrame(std::string_view payload)
{
    std::string out;
    out.reserve(4 + payload.size());
    std::uint32_t n = static_cast<std::uint32_t>(payload.size());
    out += static_cast<char>((n >> 24) & 0xFF);
    out += static_cast<char>((n >> 16) & 0xFF);
    out += static_cast<char>((n >> 8) & 0xFF);
    out += static_cast<char>(n & 0xFF);
    out.append(payload.data(), payload.size());
    return out;
}

void
FrameDecoder::feed(const char *data, std::size_t len)
{
    if (error_)
        return;
    // Reclaim the consumed prefix before it dominates the buffer.
    if (off_ > 4096 && off_ > buf_.size() / 2) {
        buf_.erase(0, off_);
        off_ = 0;
    }
    buf_.append(data, len);
}

std::optional<std::string>
FrameDecoder::next()
{
    if (error_)
        return std::nullopt;
    if (buf_.size() - off_ < 4)
        return std::nullopt;
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(buf_.data() + off_);
    std::uint32_t n = (static_cast<std::uint32_t>(p[0]) << 24)
        | (static_cast<std::uint32_t>(p[1]) << 16)
        | (static_cast<std::uint32_t>(p[2]) << 8)
        | static_cast<std::uint32_t>(p[3]);
    if (n == 0) {
        error_ = errors::Malformed;
        return std::nullopt;
    }
    if (n > maxFrame_) {
        error_ = errors::FrameTooLarge;
        return std::nullopt;
    }
    if (buf_.size() - off_ - 4 < n)
        return std::nullopt;
    std::string payload = buf_.substr(off_ + 4, n);
    off_ += 4 + n;
    return payload;
}

} // namespace cash::service
