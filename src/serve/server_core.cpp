#include "rebudget/serve/server_core.h"

#include <sstream>
#include <utility>

#include "rebudget/serve/command.h"
#include "rebudget/util/arg_parse.h"
#include "rebudget/util/rng.h"

namespace rebudget::serve {

ServerCore::ServerCore(const ServeConfig &config)
    : config_(config), pool_(config.jobs)
{
    if (config_.shards == 0)
        config_.shards = 1;
    shards_.reserve(config_.shards);
    queues_.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
        shards_.push_back(std::make_unique<Shard>(s, config_));
        queues_.push_back(std::make_unique<ShardQueue>());
    }
}

std::size_t
ServerCore::shardOf(std::uint64_t market) const
{
    return static_cast<std::size_t>(util::mix64(market) %
                                    shards_.size());
}

Response
ServerCore::apply(const Request &req)
{
    if (std::holds_alternative<GetStats>(req))
        return StatsReply{statsJson()};
    if (std::holds_alternative<Shutdown>(req))
        return AckReply{}; // the transport layer stops the loop
    if (std::holds_alternative<TickNow>(req)) {
        tick();
        return AckReply{};
    }
    std::uint64_t market = 0;
    bool mutating = true;
    if (const auto *create = std::get_if<CreateMarket>(&req))
        market = create->market;
    else if (const auto *demand = std::get_if<SubmitDemand>(&req))
        market = demand->market;
    else if (const auto *join = std::get_if<JoinTenant>(&req))
        market = join->market;
    else if (const auto *leave = std::get_if<LeaveTenant>(&req))
        market = leave->market;
    else if (const auto *get = std::get_if<GetAllocation>(&req)) {
        market = get->market;
        mutating = false;
    }
    const std::size_t s = shardOf(market);
    if (mutating)
        journalRequest(s, req);
    Response resp = shards_[s]->apply(req);
    if (mutating && journal_)
        journal_->opApplied(s);
    return resp;
}

void
ServerCore::journalRequest(std::size_t shard, const Request &req)
{
    if (!journal_)
        return;
    std::vector<std::uint8_t> payload;
    encodeRequestPayload(req, payload);
    journal_->journalOp(shard, payload.data(), payload.size());
}

bool
ServerCore::readAllocation(const GetAllocation &req,
                           AllocationReply &out, ErrorReply &err) const
{
    return shards_[shardOf(req.market)]->readAllocation(req, out, err);
}

void
ServerCore::tick()
{
    epoch_ += 1;
    const std::uint64_t epoch = epoch_;
    pool_.parallelFor(shards_.size(), [&](std::size_t s) {
        shards_[s]->tick(epoch);
    });
}

void
ServerCore::tickAsync(std::function<void()> done)
{
    epoch_ += 1;
    const std::uint64_t epoch = epoch_;
    auto remaining =
        std::make_shared<std::atomic<std::size_t>>(shards_.size());
    auto finish = std::make_shared<std::function<void()>>(std::move(done));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        pool_.submit([this, s, epoch, remaining, finish] {
            shards_[s]->tick(epoch);
            if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1 &&
                *finish)
                (*finish)();
        });
    }
}

void
ServerCore::setReplySink(ReplySink sink)
{
    sink_ = std::move(sink);
}

void
ServerCore::submitFrame(std::uint64_t market,
                        std::vector<std::uint8_t> &&payload,
                        std::uint64_t conn, std::uint64_t seq)
{
    const std::size_t s = shardOf(market);
    ShardQueue &q = *queues_[s];
    pendingOps_.fetch_add(1, std::memory_order_relaxed);
    bool schedule = false;
    {
        const std::lock_guard<std::mutex> lock(q.mutex);
        q.ops.push_back(PendingFrame{std::move(payload), conn, seq});
        if (!q.drainScheduled) {
            q.drainScheduled = true;
            schedule = true;
        }
    }
    if (schedule)
        pool_.submit([this, s] { drainQueue(s); });
}

void
ServerCore::drainQueue(std::size_t shard)
{
    ShardQueue &q = *queues_[shard];
    std::vector<PendingFrame> batch;
    std::vector<std::uint8_t> frame;
    for (;;) {
        {
            const std::lock_guard<std::mutex> lock(q.mutex);
            if (q.ops.empty()) {
                // Clearing the flag under the queue mutex closes the
                // lost-wakeup window: an enqueuer either saw the flag
                // set (and this loop will see its frame) or will see
                // it clear and schedule a fresh drain.
                q.drainScheduled = false;
                return;
            }
            batch.swap(q.ops);
        }
        for (PendingFrame &op : batch) {
            const auto decoded =
                decodeRequest(op.payload.data(), op.payload.size());
            Response resp;
            if (decoded.ok()) {
                // Write-ahead: the raw payload IS the journal record
                // (byte-identical to the wire), persisted before the
                // shard mutates.  Mutating opcodes only; reads and
                // admin ops replay as no-ops anyway.
                const bool mutating =
                    !op.payload.empty() &&
                    op.payload[0] >=
                        static_cast<std::uint8_t>(Opcode::CreateMarket) &&
                    op.payload[0] <=
                        static_cast<std::uint8_t>(Opcode::LeaveTenant);
                if (mutating && journal_)
                    journal_->journalOp(shard, op.payload.data(),
                                        op.payload.size());
                resp = shards_[shard]->apply(decoded.value());
                if (mutating && journal_)
                    journal_->opApplied(shard);
            } else {
                ErrorReply e;
                e.code = decoded.status().code();
                e.message = decoded.status().message();
                resp = std::move(e);
            }
            frame.clear();
            encodeResponse(resp, frame);
            // Decrement BEFORE the sink runs: a transport that sees
            // this op's reply must also see pendingOps() without it
            // (it gates "all writes drained" barriers on that).
            pendingOps_.fetch_sub(1, std::memory_order_release);
            if (sink_)
                sink_(op.conn, op.seq, std::move(frame));
            frame = {};
        }
        batch.clear();
    }
}

std::size_t
ServerCore::pendingOps() const
{
    return pendingOps_.load(std::memory_order_acquire);
}

std::size_t
ServerCore::marketCount() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_)
        total += shard->marketCount();
    return total;
}

std::string
ServerCore::statsJson() const
{
    std::string out = "{\n";
    out += "  \"schema\": \"rebudget.serve_stats.v1\",\n";
    out += "  \"epoch\": " + std::to_string(epoch_) + ",\n";
    out += "  \"markets\": " + std::to_string(marketCount()) + ",\n";
    out += "  \"recovery\": {\n";
    out += std::string("    \"attempted\": ") +
           (recovery_.attempted ? "true" : "false") + ",\n";
    auto rfield = [&](const char *key, std::uint64_t v, bool last) {
        out += std::string("    \"") + key +
               "\": " + std::to_string(v) + (last ? "\n" : ",\n");
    };
    rfield("snapshots_loaded", recovery_.snapshotsLoaded, false);
    rfield("snapshots_corrupt", recovery_.snapshotsCorrupt, false);
    rfield("markets_restored", recovery_.marketsRestored, false);
    rfield("markets_skipped", recovery_.marketsSkipped, false);
    rfield("ops_replayed", recovery_.opsReplayed, false);
    rfield("ops_skipped", recovery_.opsSkipped, false);
    rfield("journal_torn_tails", recovery_.journalTornTails, true);
    out += "  },\n";
    out += "  \"shards\": [\n";
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const ShardCounters c = shards_[s]->counters();
        auto field = [&](const char *key, std::int64_t v) {
            out += std::string("      \"") + key +
                   "\": " + std::to_string(v) + ",\n";
        };
        out += "    {\n";
        out += "      \"shard\": " + std::to_string(s) + ",\n";
        out += "      \"markets\": " +
               std::to_string(shards_[s]->marketCount()) + ",\n";
        field("markets_created", c.marketsCreated);
        field("requests_applied", c.requestsApplied);
        field("requests_rejected", c.requestsRejected);
        field("ticks_run", c.ticksRun);
        field("steady_ticks", c.steadyTicks);
        field("steady_tick_allocs", c.steadyTickAllocs);
        field("warmup_tick_allocs", c.warmupTickAllocs);
        out += "      \"solver\": " +
               shards_[s]->solverStats().toJson(6) + "\n";
        out += s + 1 < shards_.size() ? "    },\n" : "    }\n";
    }
    out += "  ]\n";
    out += "}";
    return out;
}

std::uint64_t
ServerCore::digest() const
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    for (const auto &shard : shards_)
        h = shard->digest(h);
    return h;
}

namespace {

/** Split a line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok)
        tokens.push_back(tok);
    return tokens;
}

util::SolveStatus
lineError(std::size_t lineno, const std::string &message)
{
    return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                    "replay line %zu: %s", lineno,
                                    message.c_str());
}

} // namespace

util::SolveStatus
runReplayTrace(ServerCore &core, std::istream &in)
{
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        lineno += 1;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const std::vector<std::string> tok = tokenize(line);
        if (tok.empty())
            continue;
        if (tok[0] == "tick" && tok.size() > 1) {
            if (tok.size() > 2)
                return lineError(lineno, "tick takes at most one count");
            const auto count = util::parseUnsigned(tok[1], 1u << 20);
            if (!count.ok()) {
                return lineError(lineno, "bad tick count: " +
                                             count.status().message());
            }
            for (std::uint64_t t = 0; t < count.value(); ++t)
                core.tick();
            continue;
        }
        const auto req = parseCommand(tok);
        if (!req.ok())
            return lineError(lineno, req.status().message());
        const Request &r = req.value();
        if (std::holds_alternative<GetAllocation>(r) ||
            std::holds_alternative<GetStats>(r) ||
            std::holds_alternative<Shutdown>(r))
            return lineError(lineno, "not a replay command: " + tok[0]);
        const Response resp = core.apply(r);
        if (const auto *err = std::get_if<ErrorReply>(&resp))
            return lineError(lineno, "request rejected: " + err->message);
    }
    return {};
}

} // namespace rebudget::serve
