/**
 * @file
 * perfbench harness entry point.
 *
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                     [--out-dir DIR]
 *
 * Runs one workload (cortical-1k, classifier-b8, board-ring-ckpt) and
 * prints one JSON document on stdout: the metrics by name and unit,
 * the check's attempted/failed counts, the self-test outcome, the
 * program-side half of the host fingerprint and the run's record.
 * perfbench/run.py builds this binary and wraps its output.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "build_info.hh"
#include "common.hh"
#include "util/simd.hh"

using nscs::JsonValue;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "perfbench_harness: " << msg << "\n"
              << "usage: perfbench_harness --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::stoull(v);
        else if (a == "--seconds")
            opt.seconds = std::stod(v);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--out-dir")
            opt.outDir = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (opt.seconds <= 0.0)
        usage("--seconds must be positive");

    pb::Result r;
    if (opt.workload == "cortical-1k")
        r = pb::runCortical(opt);
    else if (opt.workload == "classifier-b8")
        r = pb::runClassifier(opt);
    else if (opt.workload == "board-ring-ckpt")
        r = pb::runRing(opt);
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!opt.trace)
        r.set("peak_rss_mb", r.peakRssMb, "MiB");

    JsonValue metrics = JsonValue::object();
    for (const auto &[name, m] : r.metrics) {
        JsonValue e = JsonValue::object();
        e.set("value", JsonValue::number(m.value));
        e.set("unit", JsonValue::string(m.unit));
        metrics.set(name, std::move(e));
    }
    JsonValue host = JsonValue::object();
    host.set("simd", JsonValue::string(
        nscs::simd::levelName(nscs::simd::activeLevel())));
    host.set("compiler", JsonValue::string(PERFBENCH_COMPILER));
    host.set("flags", JsonValue::string(PERFBENCH_FLAGS));
    host.set("threads", JsonValue::integer(r.threads));

    JsonValue doc = JsonValue::object();
    doc.set("workload", JsonValue::string(opt.workload));
    doc.set("seed", JsonValue::integer(static_cast<int64_t>(opt.seed)));
    doc.set("seconds", JsonValue::number(opt.seconds));
    doc.set("trace", JsonValue::boolean(opt.trace));
    doc.set("attempted", JsonValue::integer(static_cast<int64_t>(r.attempted)));
    doc.set("failed", JsonValue::integer(static_cast<int64_t>(r.failed)));
    doc.set("self_test_ok", JsonValue::boolean(r.selfTestOk));
    doc.set("host", std::move(host));
    doc.set("metrics", std::move(metrics));
    doc.set("record", std::move(r.record));
    std::cout << doc.dump() << "\n";
    return 0;
}
