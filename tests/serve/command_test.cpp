/**
 * @file
 * serve::parseCommand / serve::formatCommand: each command's canonical
 * line parses to its Request, each trace command formats back to the
 * same bytes, and every malformed form is a named InvalidArgument.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rebudget/serve/command.h"

using namespace rebudget;
using namespace rebudget::serve;

namespace {

util::Expected<Request>
parse(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    for (std::string tok; is >> tok;)
        tokens.push_back(tok);
    return parseCommand(tokens);
}

/** Requests compare by their wire payload (weights bit for bit). */
std::vector<std::uint8_t>
wire(const Request &req)
{
    std::vector<std::uint8_t> out;
    encodeRequestPayload(req, out);
    return out;
}

} // namespace

TEST(Command, EveryCommandRoundTripsThroughItsCanonicalLine)
{
    // A trace command's canonical line is the bytes rebudgetload
    // --emit-trace writes; get, stats and shutdown are parsed only.
    const std::vector<std::pair<std::string, Request>> table = {
        {"create 7 mcf,vpr,hmmer",
         CreateMarket{7, {{0, "mcf"}, {1, "vpr"}, {2, "hmmer"}}}},
        {"demand 7 2 0.250000", SubmitDemand{7, 2, 0.25}},
        {"demand 7 0 4.187500", SubmitDemand{7, 0, 4.1875}},
        {"join 7 9 gcc", JoinTenant{7, 9, "gcc"}},
        {"leave 7 1", LeaveTenant{7, 1}},
        {"get 18446744073709551615", GetAllocation{~0ull}},
        {"stats", GetStats{}},
        {"tick", TickNow{}},
        {"shutdown", Shutdown{}},
    };
    for (const auto &[line, req] : table) {
        if (!std::holds_alternative<GetAllocation>(req) &&
            !std::holds_alternative<GetStats>(req) &&
            !std::holds_alternative<Shutdown>(req))
            EXPECT_EQ(formatCommand(req), line);
        const auto parsed = parse(line);
        ASSERT_TRUE(parsed.ok())
            << line << ": " << parsed.status().toString();
        EXPECT_EQ(wire(parsed.value()), wire(req)) << line;
    }
}

TEST(Command, MalformedCommandsAreNamedErrors)
{
    const std::vector<std::pair<std::vector<std::string>, const char *>>
        cases = {
            {{}, "missing command"},
            {{"bogus"}, "unknown command: bogus"},
            {{"create", "1"}, "create needs"},
            {{"create", "1", "mcf", "vpr"}, "create needs"},
            {{"demand", "1", "0"}, "demand needs"},
            {{"join", "1", "0"}, "join needs"},
            {{"leave", "1", "2", "3"}, "leave needs"},
            {{"get"}, "get needs"},
            {{"stats", "x"}, "stats takes no arguments"},
            {{"tick", "2"}, "tick takes no arguments"},
            {{"shutdown", "now"}, "shutdown takes no arguments"},
            {{"get", "10x"}, "bad market id"},
            {{"get", "-5"}, "bad market id"},
            {{"get", "18446744073709551616"}, "bad market id"},
            {{"get", ""}, "bad market id"},
            {{"leave", "1", "10x"}, "bad tenant id"},
            {{"demand", "1", "-5", "1.0"}, "bad tenant id"},
            {{"join", "1", "99999999999999999999", "mcf"}, "bad tenant id"},
            {{"demand", "1", "0", "inf"}, "bad weight"},
            {{"demand", "1", "0", "nan"}, "bad weight"},
            {{"demand", "1", "0", "2.5x"}, "bad weight"},
            {{"demand", "1", "0", "1e999"}, "bad weight"},
            {{"create", "1", "mcf,,vpr"}, "empty app name in list"},
            {{"create", "1", ",mcf"}, "empty app name in list"},
            {{"create", "1", "mcf,"}, "empty app name in list"},
            {{"join", "1", "0", ""}, "empty app name"},
        };
    for (const auto &[tokens, expect] : cases) {
        const auto req = parseCommand(tokens);
        ASSERT_FALSE(req.ok()) << expect;
        EXPECT_EQ(req.status().code(), util::StatusCode::InvalidArgument);
        EXPECT_NE(req.status().message().find(expect), std::string::npos)
            << req.status().message();
    }
}
