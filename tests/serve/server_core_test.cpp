/**
 * @file
 * serve::ServerCore / serve::Shard: market lifecycle over the request
 * API, epoch-tick solve semantics (stale-snapshot serving, weight ->
 * budget mapping, warm-start counters), typed rejection of every bad
 * request, and the replay-trace determinism contract (bit-identical
 * digest at any job count).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <variant>

#include "rebudget/serve/server_core.h"

using namespace rebudget;
using namespace rebudget::serve;

namespace {

ServeConfig
testConfig(std::size_t shards = 2, unsigned jobs = 1)
{
    ServeConfig config;
    config.shards = shards;
    config.jobs = jobs;
    config.market.maxIterations = 200;
    return config;
}

CreateMarket
fourTenantMarket(std::uint64_t id)
{
    CreateMarket req;
    req.market = id;
    req.tenants.push_back({0, "mcf"});
    req.tenants.push_back({1, "vpr"});
    req.tenants.push_back({2, "hmmer"});
    req.tenants.push_back({3, "milc"});
    return req;
}

::testing::AssertionResult
isAck(const Response &resp)
{
    if (std::holds_alternative<AckReply>(resp))
        return ::testing::AssertionSuccess();
    if (const auto *err = std::get_if<ErrorReply>(&resp))
        return ::testing::AssertionFailure() << err->message;
    return ::testing::AssertionFailure() << "unexpected reply kind";
}

// Returns a copy: the Response argument is usually a temporary, so a
// reference into it would dangle past the full expression.
ErrorReply
asError(const Response &resp)
{
    const auto *err = std::get_if<ErrorReply>(&resp);
    EXPECT_NE(err, nullptr) << "expected an ErrorReply";
    return err ? *err : ErrorReply{};
}

} // namespace

TEST(ServerCore, CreateTickGetRoundTrip)
{
    ServerCore core(testConfig());
    ASSERT_TRUE(isAck(core.apply(fourTenantMarket(7))));
    EXPECT_EQ(core.marketCount(), 1u);

    // Before the first tick there is nothing to serve: typed error.
    const auto &early = asError(core.apply(GetAllocation{7}));
    EXPECT_EQ(early.code, util::StatusCode::FailedPrecondition);

    ASSERT_TRUE(isAck(core.apply(TickNow{})));
    const Response resp = core.apply(GetAllocation{7});
    const auto *alloc = std::get_if<AllocationReply>(&resp);
    ASSERT_NE(alloc, nullptr);
    EXPECT_EQ(alloc->market, 7u);
    EXPECT_EQ(alloc->tick, 1u);
    ASSERT_EQ(alloc->players.size(), 4u);

    // Equal default weights: every budget is 1.0 (budgets sum to n).
    double bsum = 0.0;
    for (const auto &p : alloc->players) {
        EXPECT_NEAR(p.budget, 1.0, 1e-12);
        EXPECT_EQ(p.alloc.size(), alloc->prices.size());
        bsum += p.budget;
    }
    EXPECT_NEAR(bsum, 4.0, 1e-9);
}

TEST(ServerCore, DemandWeightShiftsBudgets)
{
    ServerCore core(testConfig());
    ASSERT_TRUE(isAck(core.apply(fourTenantMarket(1))));
    ASSERT_TRUE(isAck(core.apply(SubmitDemand{1, 0, 3.0})));
    ASSERT_TRUE(isAck(core.apply(TickNow{})));

    const Response resp = core.apply(GetAllocation{1});
    const auto *alloc = std::get_if<AllocationReply>(&resp);
    ASSERT_NE(alloc, nullptr);
    // B_0 = n * w_0 / sum(w) = 4 * 3 / 6 = 2; others 4 * 1 / 6.
    EXPECT_NEAR(alloc->players[0].budget, 2.0, 1e-12);
    EXPECT_NEAR(alloc->players[1].budget, 4.0 / 6.0, 1e-12);
}

TEST(ServerCore, RosterChangeServesStaleSnapshotUntilNextTick)
{
    ServerCore core(testConfig());
    ASSERT_TRUE(isAck(core.apply(fourTenantMarket(3))));
    ASSERT_TRUE(isAck(core.apply(TickNow{})));
    ASSERT_TRUE(isAck(core.apply(JoinTenant{3, 9, "gcc"})));

    // The join takes effect at the NEXT tick; until then GetAllocation
    // serves the allocation solved on the old roster.
    {
        const Response resp = core.apply(GetAllocation{3});
        const auto *alloc = std::get_if<AllocationReply>(&resp);
        ASSERT_NE(alloc, nullptr);
        EXPECT_EQ(alloc->players.size(), 4u);
    }
    ASSERT_TRUE(isAck(core.apply(TickNow{})));
    {
        const Response resp = core.apply(GetAllocation{3});
        const auto *alloc = std::get_if<AllocationReply>(&resp);
        ASSERT_NE(alloc, nullptr);
        ASSERT_EQ(alloc->players.size(), 5u);
        EXPECT_EQ(alloc->players[4].tenant, 9u);
    }

    ASSERT_TRUE(isAck(core.apply(LeaveTenant{3, 0})));
    ASSERT_TRUE(isAck(core.apply(TickNow{})));
    {
        const Response resp = core.apply(GetAllocation{3});
        const auto *alloc = std::get_if<AllocationReply>(&resp);
        ASSERT_NE(alloc, nullptr);
        EXPECT_EQ(alloc->players.size(), 4u);
        for (const auto &p : alloc->players)
            EXPECT_NE(p.tenant, 0u);
    }
}

TEST(ServerCore, TypedRejections)
{
    ServerCore core(testConfig());
    ASSERT_TRUE(isAck(core.apply(fourTenantMarket(5))));

    // Duplicate market.
    EXPECT_EQ(asError(core.apply(fourTenantMarket(5))).code,
              util::StatusCode::FailedPrecondition);
    // Unknown market / tenant.
    EXPECT_EQ(asError(core.apply(SubmitDemand{99, 0, 1.0})).code,
              util::StatusCode::InvalidArgument);
    EXPECT_EQ(asError(core.apply(SubmitDemand{5, 42, 1.0})).code,
              util::StatusCode::InvalidArgument);
    EXPECT_EQ(asError(core.apply(GetAllocation{99})).code,
              util::StatusCode::InvalidArgument);
    EXPECT_EQ(asError(core.apply(LeaveTenant{99, 0})).code,
              util::StatusCode::InvalidArgument);
    // Bad weights: zero, negative, non-finite.
    EXPECT_EQ(asError(core.apply(SubmitDemand{5, 0, 0.0})).code,
              util::StatusCode::InvalidArgument);
    EXPECT_EQ(asError(core.apply(SubmitDemand{5, 0, -1.0})).code,
              util::StatusCode::InvalidArgument);
    EXPECT_EQ(
        asError(core.apply(SubmitDemand{5, 0, std::nan("")})).code,
        util::StatusCode::InvalidArgument);
    // Unknown catalog app.
    CreateMarket bogus;
    bogus.market = 6;
    bogus.tenants.push_back({0, "no-such-app"});
    EXPECT_EQ(asError(core.apply(bogus)).code,
              util::StatusCode::InvalidArgument);
    // Duplicate tenant id within one CreateMarket.
    CreateMarket dup;
    dup.market = 8;
    dup.tenants.push_back({0, "mcf"});
    dup.tenants.push_back({0, "vpr"});
    EXPECT_EQ(asError(core.apply(dup)).code,
              util::StatusCode::InvalidArgument);
    // Duplicate join, empty create.
    EXPECT_EQ(asError(core.apply(JoinTenant{5, 0, "gcc"})).code,
              util::StatusCode::FailedPrecondition);
    EXPECT_EQ(asError(core.apply(CreateMarket{10, {}})).code,
              util::StatusCode::InvalidArgument);

    // A rejected request never disturbs the serving path.
    ASSERT_TRUE(isAck(core.apply(TickNow{})));
    EXPECT_TRUE(std::holds_alternative<AllocationReply>(
        core.apply(GetAllocation{5})));
}

TEST(ServerCore, StatsJsonCarriesSchemaAndShards)
{
    ServerCore core(testConfig(3));
    ASSERT_TRUE(isAck(core.apply(fourTenantMarket(1))));
    ASSERT_TRUE(isAck(core.apply(TickNow{})));

    const Response resp = core.apply(GetStats{});
    const auto *stats = std::get_if<StatsReply>(&resp);
    ASSERT_NE(stats, nullptr);
    EXPECT_NE(stats->json.find("rebudget.serve_stats.v1"),
              std::string::npos);
    EXPECT_NE(stats->json.find("\"shard\": 2"), std::string::npos);
    EXPECT_NE(stats->json.find("steady_tick_allocs"), std::string::npos);
    EXPECT_NE(stats->json.find("warm_started_solves"),
              std::string::npos);
}

TEST(ServerCore, WarmStartChainAcrossTicks)
{
    ServerCore core(testConfig(1));
    ASSERT_TRUE(isAck(core.apply(fourTenantMarket(2))));
    for (int t = 0; t < 6; ++t)
        core.tick();

    const util::SolverStats stats = core.shard(0).solverStats();
    EXPECT_EQ(stats.equilibriumSolves, 6);
    EXPECT_EQ(stats.coldStartedSolves, 1); // only the first epoch
    EXPECT_EQ(stats.warmStartedSolves, 5);

    const ShardCounters counters = core.shard(0).counters();
    EXPECT_EQ(counters.ticksRun, 6);
    // Tick 1 builds the market (roster change); every later tick runs
    // against an intact warm chain.
    EXPECT_EQ(counters.steadyTicks, 5);
}

TEST(ServerCore, MarketsLandOnStableShards)
{
    ServerCore core(testConfig(4));
    for (std::uint64_t id = 0; id < 16; ++id) {
        const std::size_t shard = core.shardOf(id);
        EXPECT_LT(shard, core.shardCount());
        EXPECT_EQ(shard, core.shardOf(id)); // pure function of the id
    }
}

TEST(ServerCore, ReplayTraceDigestIsJobCountInvariant)
{
    const std::string trace = R"(# smoke trace
create 1 mcf,vpr,twolf,art
create 2 soplex,omnetpp,hmmer
create 3 milc,libquantum,lbm,gcc
tick
demand 1 0 2.0
demand 3 2 0.25
tick 2
join 2 9 gcc
leave 1 3
tick 3
)";
    auto digestAt = [&](unsigned jobs) {
        ServeConfig config = testConfig(4, jobs);
        ServerCore core(config);
        std::istringstream in(trace);
        const util::SolveStatus status = runReplayTrace(core, in);
        EXPECT_TRUE(status.ok()) << status.toString();
        EXPECT_EQ(core.epoch(), 6u);
        EXPECT_EQ(core.marketCount(), 3u);
        return core.digest();
    };
    const std::uint64_t d1 = digestAt(1);
    EXPECT_EQ(d1, digestAt(2));
    EXPECT_EQ(d1, digestAt(0)); // 0 = hardware default
    EXPECT_NE(d1, 0u);
}

TEST(ServerCore, ReplayTraceErrorsNameTheLine)
{
    ServerCore core(testConfig());
    {
        std::istringstream in("create 1 mcf\nbogus-command 3\n");
        const util::SolveStatus status = runReplayTrace(core, in);
        ASSERT_FALSE(status.ok());
        EXPECT_NE(status.message().find("line 2"), std::string::npos)
            << status.message();
    }
    {
        std::istringstream in("demand 1 0 not-a-number\n");
        const util::SolveStatus status = runReplayTrace(core, in);
        ASSERT_FALSE(status.ok());
        EXPECT_NE(status.message().find("line 1"), std::string::npos);
    }
    {
        // Server-side rejection (market 99 does not exist) also fails
        // the replay with the line number attached.
        std::istringstream in("demand 99 0 1.0\n");
        const util::SolveStatus status = runReplayTrace(core, in);
        ASSERT_FALSE(status.ok());
        EXPECT_NE(status.message().find("line 1"), std::string::npos);
    }
}

TEST(ServerCore, ReplayTraceRefusesReadAndAdminCommands)
{
    ServerCore core(testConfig());
    for (const char *line : {"get 1\n", "stats\n", "shutdown\n"}) {
        std::istringstream in(line);
        const util::SolveStatus status = runReplayTrace(core, in);
        EXPECT_NE(status.message().find("line 1: not a replay command"),
                  std::string::npos)
            << status.toString();
    }
}

TEST(ServerCore, SixtyFourConcurrentMarketsStayWarm)
{
    // The acceptance floor: >= 64 concurrent markets, warm-start reuse
    // across ticks on every one of them.
    ServeConfig config = testConfig(8, 0);
    ServerCore core(config);
    const char *apps[4] = {"mcf", "hmmer", "milc", "gcc"};
    for (std::uint64_t id = 0; id < 64; ++id) {
        CreateMarket req;
        req.market = id;
        for (std::uint64_t t = 0; t < 4; ++t)
            req.tenants.push_back({t, apps[(id + t) % 4]});
        ASSERT_TRUE(isAck(core.apply(req))) << "market " << id;
    }
    EXPECT_EQ(core.marketCount(), 64u);
    for (int t = 0; t < 4; ++t)
        core.tick();

    std::int64_t solves = 0;
    std::int64_t cold = 0;
    for (std::size_t s = 0; s < core.shardCount(); ++s) {
        solves += core.shard(s).solverStats().equilibriumSolves;
        cold += core.shard(s).solverStats().coldStartedSolves;
    }
    EXPECT_EQ(solves, 64 * 4);
    EXPECT_EQ(cold, 64); // exactly one cold solve per market, ever
}

namespace {

/** The admission caps (serve/shard.h): players per market, markets
 * per shard. */
constexpr std::uint64_t kCap = 1024;

CreateMarket
marketOf(std::uint64_t id, std::uint64_t tenants)
{
    CreateMarket req;
    req.market = id;
    for (std::uint64_t t = 0; t < tenants; ++t)
        req.tenants.push_back({t, "mcf"});
    return req;
}

} // namespace

TEST(ServerCore, AdmissionCapsRejectTheRequestOverThem)
{
    ServerCore core(testConfig(1, 1));
    // One founding tenant over the player cap.
    ErrorReply err = asError(core.apply(marketOf(0, kCap + 1)));
    EXPECT_EQ(err.code, util::StatusCode::InvalidArgument);
    EXPECT_NE(err.message.find("cap is 1024"), std::string::npos);

    // A join into a full market; a leave makes room again.
    ASSERT_TRUE(isAck(core.apply(marketOf(0, kCap))));
    err = asError(core.apply(JoinTenant{0, kCap, "gcc"}));
    EXPECT_EQ(err.code, util::StatusCode::FailedPrecondition);
    EXPECT_NE(err.message.find("player cap (1024)"), std::string::npos);
    ASSERT_TRUE(isAck(core.apply(LeaveTenant{0, 1})));
    EXPECT_TRUE(isAck(core.apply(JoinTenant{0, kCap, "gcc"})));

    // The market after the per-shard cap (one shard holds them all).
    for (std::uint64_t id = 1; id < kCap; ++id)
        ASSERT_TRUE(isAck(core.apply(marketOf(id, 1)))) << id;
    err = asError(core.apply(marketOf(kCap, 1)));
    EXPECT_EQ(err.code, util::StatusCode::FailedPrecondition);
    EXPECT_NE(err.message.find("market cap (1024)"), std::string::npos);
    EXPECT_EQ(core.marketCount(), kCap);
}

TEST(ServerCore, RestoreRejectsAMarketOverACap)
{
    ServerCore core(testConfig(1, 1));
    Shard &shard = core.mutableShard(0);
    MarketState st;
    for (std::uint64_t t = 0; t <= kCap; ++t)
        st.tenants.push_back(TenantState{t, "mcf", 1.0});
    util::SolveStatus status = shard.restoreMarket(st);
    EXPECT_NE(status.message().find("cap is 1024"), std::string::npos)
        << status.toString();

    st.tenants.resize(1);
    for (st.id = 0; st.id < kCap; ++st.id)
        ASSERT_TRUE(shard.restoreMarket(st).ok()) << st.id;
    status = shard.restoreMarket(st);
    EXPECT_NE(status.message().find("market cap (1024)"), std::string::npos)
        << status.toString();
    EXPECT_EQ(core.marketCount(), kCap);
}

TEST(ServerCore, RestoreRejectsARepeatedIdInTheSolvedRoster)
{
    ServerCore source(testConfig(1, 1));
    ASSERT_TRUE(isAck(source.apply(marketOf(0, 3))));
    source.tick();
    std::vector<MarketState> states;
    source.shard(0).exportState(states);
    ASSERT_EQ(states.size(), 1u);
    MarketState st = states[0];
    ASSERT_TRUE(st.published);
    ASSERT_EQ(st.allocTenants.size(), 3u);
    st.allocTenants[2] = st.allocTenants[0];

    ServerCore core(testConfig(1, 1));
    const util::SolveStatus status = core.mutableShard(0).restoreMarket(st);
    EXPECT_EQ(status.code(), util::StatusCode::InvalidArgument);
    EXPECT_NE(status.message().find(
                  "duplicate tenant 0 in market 0's solved roster"),
              std::string::npos)
        << status.toString();
    EXPECT_EQ(core.marketCount(), 0u);
}
