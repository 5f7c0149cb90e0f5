#ifndef REBUDGET_SERVE_COMMAND_H_
#define REBUDGET_SERVE_COMMAND_H_

/**
 * @file
 * The text command grammar of rebudgetd's tools: one command per line
 * (or per argv tail), whitespace-separated tokens.
 *
 *   create <market> <app1,app2,...>   founding tenants get ids 0..n-1
 *   demand <market> <tenant> <weight>
 *   join <market> <tenant> <app>
 *   leave <market> <tenant>
 *   get <market>
 *   stats
 *   tick
 *   shutdown
 *
 * Ids go through util::parseUnsigned and weights through
 * util::parseDouble, so "10x", "-5", an id past 2^64-1 and a
 * non-finite weight are named errors, never a silent truncation.
 * rebudgetctl sends one parsed command over the wire; `rebudgetd
 * --replay` (runReplayTrace in server_core.h) applies the mutating
 * ones from a trace file, which rebudgetload --emit-trace writes with
 * formatCommand.
 */

#include <string>
#include <vector>

#include "rebudget/serve/protocol.h"
#include "rebudget/util/status.h"

namespace rebudget::serve {

/**
 * Parse one tokenized command into a Request.  Wrong arity, malformed
 * numbers, empty app names and unknown commands come back as
 * InvalidArgument naming the defect.
 */
util::Expected<Request> parseCommand(const std::vector<std::string> &tokens);

/**
 * Write @p req in the grammar above, without a trailing newline.
 * @p req is one of the commands a replay trace holds: create, demand,
 * join, leave or tick (any other request formats as "tick").
 * Weights print as %.6f.  A CreateMarket's tenant ids are implied by
 * position, so only a request whose founding ids are 0..n-1 survives
 * formatCommand -> parseCommand unchanged.
 */
std::string formatCommand(const Request &req);

} // namespace rebudget::serve

#endif // REBUDGET_SERVE_COMMAND_H_
