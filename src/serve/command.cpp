#include "rebudget/serve/command.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "rebudget/util/arg_parse.h"

namespace rebudget::serve {

namespace {

util::SolveStatus
invalid(const std::string &message)
{
    return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                    "%s", message.c_str());
}

/** Parse an id token; @p what names it in the error ("market id"). */
util::Expected<std::uint64_t>
parseId(const char *what, const std::string &token)
{
    const auto id = util::parseUnsigned(token);
    if (!id.ok())
        return invalid(std::string("bad ") + what + ": " +
                       id.status().message());
    return id;
}

} // namespace

util::Expected<Request>
parseCommand(const std::vector<std::string> &tok)
{
    struct Form
    {
        const char *name;
        std::size_t tokens;
        const char *usage;
    };
    static constexpr Form kForms[] = {
        {"create", 3, "create needs <market> <app1,app2,...>"},
        {"demand", 4, "demand needs <market> <tenant> <weight>"},
        {"join", 4, "join needs <market> <tenant> <app>"},
        {"leave", 3, "leave needs <market> <tenant>"},
        {"get", 2, "get needs <market>"},
        {"stats", 1, "stats takes no arguments"},
        {"tick", 1, "tick takes no arguments"},
        {"shutdown", 1, "shutdown takes no arguments"},
    };
    if (tok.empty())
        return invalid("missing command");
    const std::string &cmd = tok[0];
    const Form *form =
        std::find_if(std::begin(kForms), std::end(kForms),
                     [&](const Form &f) { return cmd == f.name; });
    if (form == std::end(kForms))
        return invalid("unknown command: " + cmd);
    if (tok.size() != form->tokens)
        return invalid(form->usage);
    if (cmd == "stats")
        return Request{GetStats{}};
    if (cmd == "tick")
        return Request{TickNow{}};
    if (cmd == "shutdown")
        return Request{Shutdown{}};

    const auto market = parseId("market id", tok[1]);
    if (!market.ok())
        return market.status();
    if (cmd == "get")
        return Request{GetAllocation{market.value()}};
    if (cmd == "create") {
        CreateMarket req;
        req.market = market.value();
        const std::string &list = tok[2];
        std::size_t start = 0;
        for (;;) {
            const std::size_t comma = list.find(',', start);
            const std::size_t end =
                comma == std::string::npos ? list.size() : comma;
            if (end == start)
                return invalid("empty app name in list: " + list);
            const std::uint64_t id = req.tenants.size();
            req.tenants.push_back({id, list.substr(start, end - start)});
            if (comma == std::string::npos)
                return Request{std::move(req)};
            start = comma + 1;
        }
    }

    const auto tenant = parseId("tenant id", tok[2]);
    if (!tenant.ok())
        return tenant.status();
    if (cmd == "leave")
        return Request{LeaveTenant{market.value(), tenant.value()}};
    if (cmd == "join") {
        if (tok[3].empty())
            return invalid("empty app name");
        return Request{JoinTenant{market.value(), tenant.value(), tok[3]}};
    }
    const auto weight = util::parseDouble(tok[3]);
    if (!weight.ok())
        return invalid("bad weight: " + weight.status().message());
    return Request{
        SubmitDemand{market.value(), tenant.value(), weight.value()}};
}

std::string
formatCommand(const Request &req)
{
    auto ids = [](const char *cmd, std::uint64_t market,
                  std::uint64_t tenant) {
        return std::string(cmd) + " " + std::to_string(market) + " " +
               std::to_string(tenant);
    };
    if (const auto *create = std::get_if<CreateMarket>(&req)) {
        std::string out = "create " + std::to_string(create->market) + " ";
        for (std::size_t t = 0; t < create->tenants.size(); ++t)
            out += (t == 0 ? "" : ",") + create->tenants[t].app;
        return out;
    }
    if (const auto *demand = std::get_if<SubmitDemand>(&req)) {
        // Room for the widest finite double at %.6f (DBL_MAX has 309
        // integer digits).
        char weight[400];
        std::snprintf(weight, sizeof(weight), " %.6f", demand->weight);
        return ids("demand", demand->market, demand->tenant) + weight;
    }
    if (const auto *join = std::get_if<JoinTenant>(&req))
        return ids("join", join->market, join->tenant) + " " + join->app;
    if (const auto *leave = std::get_if<LeaveTenant>(&req))
        return ids("leave", leave->market, leave->tenant);
    return "tick";
}

} // namespace rebudget::serve
