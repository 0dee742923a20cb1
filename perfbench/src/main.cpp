/**
 * @file
 * perfbench: host wall-clock benchmark of the PUSHtap reproduction.
 *
 *   perfbench --workload <oltp_ingest|olap_suite|htap_mixed>
 *             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
 *
 * Prints the resolved configuration, a few human-readable lines and,
 * as the last line, one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. Untraced runs report the end-to-end metrics,
 * traced runs the per-layer ones (and write their spans to
 * --out-dir). Exits 1 when any answer was wrong or any operation
 * failed, 2 on bad arguments or a refused environment.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/worker_pool.hpp"
#include "workloads.hpp"

namespace {

/**
 * Environment switches that silently change the measured program:
 * the optimizer and result-cache overrides, optimizer stats carried
 * over from an earlier run, and the scalar-kernel fallback.
 */
constexpr const char *kRefusedEnv[] = {
    "PUSHTAP_OLAP_OPTIMIZE",
    "PUSHTAP_OLAP_RESULT_CACHE",
    "PUSHTAP_OLAP_STATS_FILE",
    "PUSHTAP_FORCE_SCALAR_KERNELS",
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<oltp_ingest|olap_suite|htap_mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
                 why);
    return 2;
}

bool
parseUnsigned(const std::string &s, unsigned long long &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != s.npos ||
        s.size() > 18)
        return false;
    out = std::stoull(s);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        unsigned long long n = 0;
        if (a == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            if (!parseUnsigned(v, n))
                return usage("--seed takes a whole number");
            opt.seed = n;
            have_seed = true;
        } else if (a == "--seconds") {
            if (!parseUnsigned(v, n) || n == 0 || n > 600)
                return usage("--seconds takes a whole number 1..600");
            opt.seconds = static_cast<double>(n);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--out-dir") {
            opt.outDir = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload || !have_seed)
        return usage("--workload and --seed are required");
    bool known = false;
    for (const auto &w : perfbench::workloadNames())
        known = known || w == opt.workload;
    if (!known)
        return usage(("unknown workload " + opt.workload).c_str());

    for (const char *name : kRefusedEnv)
        if (std::getenv(name)) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; it "
                         "changes the measured program\n",
                         name);
            return 2;
        }

    perfbench::printConfig(opt);
#ifdef __VERSION__
    const char *compiler = __VERSION__;
#else
    const char *compiler = "unknown";
#endif
    std::printf("build: type=%s compiler=\"%s\" nproc=%u\n",
                PERFBENCH_BUILD_TYPE, compiler,
                pushtap::WorkerPool::hardwareWorkers());
    std::fflush(stdout);

    const auto out = perfbench::runWorkload(opt);

    const bool correct = out.failed == 0 && out.attempted > 0;
    std::string metrics;
    for (const auto &m : out.metrics) {
        std::printf("%s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name.c_str(),
                      m.value, m.unit.c_str());
        metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    return correct ? 0 : 1;
}
