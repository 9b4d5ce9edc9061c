/**
 * @file
 * nscs_bench_diff — compare a BENCH_core.json produced by the current
 * build against a committed baseline and flag throughput regressions,
 * optionally appending the current run to a per-commit history series.
 *
 * Usage:
 *   nscs_bench_diff BASELINE.json CURRENT.json [--tolerance F]
 *                   [--series FILE] [--commit ID]
 *
 * --series FILE appends one entry per invocation to FILE (created on
 * first use): {"commit": ID, "workloads": [{name, fastTicksPerSec,
 * speedup}, ...]} drawn from CURRENT.json.  The series is the
 * per-commit artifact trajectory the ROADMAP calls for — pairwise
 * diffs answer "did this commit regress?", the series answers "how
 * has throughput moved over the project's life?".  Entries are
 * appended even when the diff flags regressions (the history must
 * record bad commits too); the exit status is unaffected by series
 * I/O problems (a warning is printed), since CI artifact bookkeeping
 * must not mask a real regression verdict.
 *
 * For every workload present in both files (matched by name, across
 * the "workloads", "classifierWorkloads" and "boardWorkloads"
 * arrays) the tool prints baseline vs current fast-path ticks/s and
 * speedup, and flags a REGRESSION when the current fast-over-scalar
 * *speedup* falls below (1 - tolerance) x the baseline speedup.
 * Workload-set differences are reported, never silently skipped: a
 * baseline workload missing from the current run prints a REMOVED
 * row (flagged — lost coverage is a regression), and a current
 * workload absent from the baseline prints an informational ADDED
 * row (a fresh workload has no reference to regress against).  The speedup ratio is
 * machine-independent (both paths ran on the same host in the same
 * process), so a committed baseline from one machine remains a valid
 * reference on a differently-sized CI runner; absolute ticks/s are
 * printed for context only.  Workloads without a speedup field fall
 * back to the ticks/s ratio.  The default tolerance is 0.30: CI
 * shared-runner timings are noisy, so only gross regressions flag.
 *
 * Exit status: 0 when clean, 1 when any regression flagged, 2 on
 * usage/parse errors.  The CI perf-smoke step runs this non-gating;
 * the exit status and table are the per-commit record of the bench
 * trajectory (see ROADMAP).
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/table.hh"

using namespace nscs;

namespace {

struct Row
{
    std::string name;
    double baseTps = 0.0;
    double curTps = 0.0;
    double baseSpeedup = 0.0;
    double curSpeedup = 0.0;
};

JsonValue
loadDoc(const char *path)
{
    std::string text;
    if (!readFile(path, text)) {
        std::cerr << "cannot read '" << path << "'\n";
        std::exit(2);
    }
    JsonParseResult r = parseJson(text);
    if (!r.ok) {
        std::cerr << path << ": parse error: " << r.error << "\n";
        std::exit(2);
    }
    return r.value;
}

/** Collect (name -> row side) from one array of workload objects. */
void
collect(const JsonValue &doc, const char *key, bool current,
        std::vector<Row> &rows)
{
    if (!doc.has(key))
        return;
    const JsonValue &arr = doc.at(key);
    for (size_t i = 0; i < arr.size(); ++i) {
        const JsonValue &w = arr.at(i);
        if (!w.has("name") || !w.has("fastTicksPerSec"))
            continue;
        std::string name = w.at("name").asString();
        Row *row = nullptr;
        for (Row &r : rows)
            if (r.name == name)
                row = &r;
        if (!row) {
            // A current-only workload still gets a row: it reports
            // as ADDED rather than vanishing from the diff.
            rows.push_back(Row{name, 0, 0, 0, 0});
            row = &rows.back();
        }
        double tps = w.at("fastTicksPerSec").asDouble();
        double sp = w.has("speedup") ? w.at("speedup").asDouble() : 0.0;
        if (current) {
            row->curTps = tps;
            row->curSpeedup = sp;
        } else {
            row->baseTps = tps;
            row->baseSpeedup = sp;
        }
    }
}

/**
 * Append the current run's workload rows to the history series at
 * @p path.  Returns false (with a warning) on I/O or parse trouble;
 * the caller's verdict must not change either way.
 */
bool
appendSeries(const char *path, const std::string &commit,
             const JsonValue &cur)
{
    JsonValue entries = JsonValue::array();
    std::string text;
    if (readFile(path, text)) {
        JsonParseResult r = parseJson(text);
        if (!r.ok || !r.value.has("entries")) {
            std::cerr << "warning: series '" << path
                      << "' is unreadable or has no 'entries'; "
                         "not appending\n";
            return false;
        }
        const JsonValue &old = r.value.at("entries");
        for (size_t i = 0; i < old.size(); ++i)
            entries.append(old.at(i));
    }

    JsonValue entry = JsonValue::object();
    entry.set("commit", JsonValue::string(commit));
    JsonValue workloads = JsonValue::array();
    for (const char *key :
         {"workloads", "classifierWorkloads", "boardWorkloads"}) {
        if (!cur.has(key))
            continue;
        const JsonValue &arr = cur.at(key);
        for (size_t i = 0; i < arr.size(); ++i) {
            const JsonValue &w = arr.at(i);
            if (!w.has("name") || !w.has("fastTicksPerSec"))
                continue;
            JsonValue row = JsonValue::object();
            row.set("name", JsonValue::string(
                w.at("name").asString()));
            row.set("fastTicksPerSec", JsonValue::number(
                w.at("fastTicksPerSec").asDouble()));
            if (w.has("speedup"))
                row.set("speedup", JsonValue::number(
                    w.at("speedup").asDouble()));
            workloads.append(std::move(row));
        }
    }
    entry.set("workloads", std::move(workloads));
    entries.append(std::move(entry));
    JsonValue doc = JsonValue::object();
    doc.set("entries", std::move(entries));

    if (!writeFile(path, doc.dump(2))) {
        std::cerr << "warning: cannot write series '" << path
                  << "'\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: nscs_bench_diff BASELINE.json CURRENT.json"
                     " [--tolerance F]\n"
                     "                       [--series FILE] "
                     "[--commit ID]\n";
        return 2;
    }
    double tolerance = 0.30;
    const char *series_path = nullptr;
    std::string commit = "unknown";
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
            const char *arg = argv[++i];
            char *end = nullptr;
            tolerance = std::strtod(arg, &end);
            if (end == arg || *end != '\0' || tolerance < 0.0 ||
                tolerance >= 1.0) {
                std::cerr << "bad --tolerance '" << arg
                          << "' (want a fraction in [0, 1))\n";
                return 2;
            }
        } else if (std::strcmp(argv[i], "--series") == 0 &&
                   i + 1 < argc) {
            series_path = argv[++i];
        } else if (std::strcmp(argv[i], "--commit") == 0 &&
                   i + 1 < argc) {
            commit = argv[++i];
        } else {
            std::cerr << "unknown option '" << argv[i] << "'\n";
            return 2;
        }
    }

    JsonValue base = loadDoc(argv[1]);
    JsonValue cur = loadDoc(argv[2]);

    if (series_path != nullptr)
        appendSeries(series_path, commit, cur);

    std::vector<Row> rows;
    for (const char *key :
         {"workloads", "classifierWorkloads", "boardWorkloads"}) {
        collect(base, key, false, rows);
        collect(cur, key, true, rows);
    }
    if (rows.empty()) {
        std::cerr << "no comparable workloads found\n";
        return 2;
    }

    TextTable t({"workload", "base ticks/s", "cur ticks/s", "ratio",
                 "base x", "cur x", "verdict"});
    int regressions = 0;
    int added = 0, removed = 0;
    for (const Row &r : rows) {
        if (r.curTps == 0.0) {
            // Workload removed from the current run: lost coverage
            // counts as a regression.
            t.addRow({r.name, fmtF(r.baseTps, 0), "-", "-",
                      fmtF(r.baseSpeedup, 2), "-", "REMOVED"});
            ++regressions;
            ++removed;
            continue;
        }
        if (r.baseTps == 0.0 && r.baseSpeedup == 0.0) {
            // Workload added since the baseline: nothing to regress
            // against, report it so the set change is visible.
            t.addRow({r.name, "-", fmtF(r.curTps, 0), "-", "-",
                      fmtF(r.curSpeedup, 2), "ADDED"});
            ++added;
            continue;
        }
        // Speedup (fast path over scalar, same host and process) is
        // the machine-independent signal; ticks/s only when absent.
        double ratio;
        if (r.baseSpeedup > 0 && r.curSpeedup > 0)
            ratio = r.curSpeedup / r.baseSpeedup;
        else
            ratio = r.baseTps > 0 ? r.curTps / r.baseTps : 1.0;
        bool bad = ratio < 1.0 - tolerance;
        if (bad)
            ++regressions;
        t.addRow({r.name, fmtF(r.baseTps, 0), fmtF(r.curTps, 0),
                  fmtF(ratio, 2), fmtF(r.baseSpeedup, 2),
                  fmtF(r.curSpeedup, 2),
                  bad ? "REGRESSION" : "ok"});
    }
    std::cout << t.str();
    if (added || removed)
        std::cout << "workload set changed: " << added
                  << " added, " << removed
                  << " removed vs baseline\n";
    if (regressions) {
        std::cout << regressions << " workload(s) regressed beyond "
                  << fmtF(tolerance * 100, 0) << "% tolerance\n";
        return 1;
    }
    std::cout << "no regressions beyond "
              << fmtF(tolerance * 100, 0) << "% tolerance\n";
    return 0;
}
