#pragma once

/**
 * @file
 * The benchmark's three workloads (oltp_ingest, olap_suite,
 * htap_mixed), their answer checks and the traced per-layer probes.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory the traced run writes its span file into. */
    std::string outDir = ".";
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct Outcome
{
    std::uint64_t attempted = 0;
    /** Operations that failed or returned a wrong answer. */
    std::uint64_t failed = 0;
    /** End-to-end metrics untraced, per-layer metrics traced. */
    std::vector<Metric> metrics;
};

/** Names accepted by --workload. */
const std::vector<std::string> &workloadNames();

/** Print the resolved configuration of @p opt's workload. */
void printConfig(const Options &opt);

/**
 * Run one workload for opt.seconds. A FatalError inside a round is
 * counted: every operation of that round fails.
 */
Outcome runWorkload(const Options &opt);

} // namespace perfbench
