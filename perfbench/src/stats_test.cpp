/**
 * Unit test of the benchmark's own arithmetic (pb_stats.h).  Plain
 * asserts, no framework: `pb_stats_test` exits 0 when every check
 * holds and prints the first failing one otherwise.  run.py runs it
 * before every measurement.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "pb_stats.h"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

template <typename F>
bool
throws(F &&f)
{
    try {
        f();
    } catch (const std::invalid_argument &) {
        return true;
    }
    return false;
}

void
testPercentileRule()
{
    // Nearest rank: p50 of 1..10 is the 5th value, p99 of 1..100 the
    // 99th, p100 the maximum.
    std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
    check(pb::percentile(ten, 0.5) == 5.0, "p50 of 1..10 is 5");
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    check(pb::percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
    check(pb::percentile(hundred, 1.0) == 100.0, "p100 is the max");

    // Ten samples beyond p99 need 1000 samples; 999 leave only nine.
    check(pb::samplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond");
    check(pb::reportable(1000, 0.99), "p99 reportable at 1000");
    check(!pb::reportable(999, 0.99), "p99 not reportable at 999");
    check(pb::reportable(20, 0.5), "p50 reportable at 20");
    check(!pb::reportable(19, 0.5), "p50 not reportable at 19");
    check(throws([] { pb::rankIndex(0, 0.5); }), "no samples throws");
}

void
testSelfTime()
{
    const pb::Interval span{0, 100};
    check(pb::selfTime(span, {}) == 100, "leaf span: all self");
    check(pb::selfTime(span, {{10, 30}, {50, 60}}) == 70,
          "disjoint children subtract");
    check(pb::selfTime(span, {{10, 30}, {20, 40}}) == 70,
          "overlapping children count once");
    check(pb::selfTime(span, {{-20, 10}, {90, 150}}) == 80,
          "children clipped to the span");
    check(pb::selfTime(span, {{0, 100}, {30, 40}}) == 0,
          "fully covered span has no self time");
    check(pb::coveredLength({{5, 5}, {7, 6}}, span) == 0,
          "empty children cover nothing");
}

void
testDueLatency()
{
    // Due at 100, sent late at 150, answered at 180: 80 ns, not 30.
    check(pb::dueLatency(100, 150, 180) == 80, "latency from due time");
    check(pb::dueLatency(100, 100, 100) == 0, "zero latency allowed");
    check(throws([] { pb::dueLatency(100, 90, 180); }),
          "send before due throws");
    check(throws([] { pb::dueLatency(100, 150, 140); }),
          "reply before send throws");
}

void
testFailedFrac()
{
    check(pb::failedFrac(0, 1) == 0.0, "no failures");
    check(pb::failedFrac(3, 12) == 0.25, "3 of 12");
    check(pb::failedFrac(5, 5) == 1.0, "all failed");
    check(throws([] { pb::failedFrac(0, 0); }), "empty base throws");
    check(throws([] { pb::failedFrac(2, 1); }),
          "more failed than attempted throws");
}

} // namespace

int
main()
{
    testPercentileRule();
    testSelfTime();
    testDueLatency();
    testFailedFrac();
    if (failures != 0) {
        std::fprintf(stderr, "pb_stats_test: %d check(s) failed\n",
                     failures);
        return EXIT_FAILURE;
    }
    std::printf("pb_stats_test: all checks passed\n");
    return EXIT_SUCCESS;
}
