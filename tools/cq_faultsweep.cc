/**
 * @file
 * Exhaustive failpoint sweep: fire every declared failpoint (and
 * sampled pairs) inside short train / serve / dist / bench runs and
 * assert the four robustness invariants:
 *
 *   1. no crash    - the child process exits normally (no signal)
 *   2. no hang     - the child finishes inside a hard deadline (the
 *                    parent kills and flags it otherwise; the legs
 *                    also carry a CancelToken deadline as a second
 *                    fence)
 *   3. typed path  - the failure surfaced through the scenario's
 *                    typed handling (training completed, the store
 *                    still verifies, the report dead-lettered, ...)
 *   4. no committed step lost - whenever any checkpoint generation
 *                    exists on disk after the storm, loadLatest()
 *                    classifies Ok
 *
 * plus the coverage audit: any site that was evaluated but is absent
 * from the declared table (common/failpoint.h declaredSites()) fails
 * the sweep, so an unregistered failure path cannot silently join
 * the codebase (--mode selftest proves the audit fires).
 *
 * Modes (--mode):
 *   sweep        one trial per declared site but train.step, which
 *                only kill-resume arms (default action "fail,once=1",
 *                override with --action)
 *   pairs        sampled two-site trials within a scenario family
 *   enospc       byte-offset scan: disk turns (and stays) full at
 *                every --enospc-stride'th byte of the checkpoint
 *                body / manifest write streams
 *   obs-identity instrumented run with every obs.* sink failpoint
 *                firing must train bitwise identically (master
 *                weight bytes) to a dark run
 *   kill-resume  kill–restart crash consistency: one reference leg,
 *                then per planned kill (sim::planKillPoints, failpoint
 *                `kill` specs at the train.step boundary and inside
 *                body and manifest writes; mid-write kill legs commit
 *                synchronously) a kill leg that must die by SIGKILL
 *                and a resume leg whose masters must equal the
 *                reference byte for byte
 *   selftest     an unregistered failure path must be caught
 *   list         print the declared site table
 *   all          sweep + pairs + enospc + obs-identity + kill-resume
 *                + selftest
 *
 * Every trial runs in a forked child through runInChild()
 * (common/child_process.h: a genuinely dying child never takes the
 * sweep down, and one outliving --timeout-ms is killed and counted
 * hung); the parent classifies how it ended. Exits 0 iff no trial
 * crashed, hung, or violated an invariant AND at least --min-covered
 * sites actually fired. Without --dir the sweep works in a fresh
 * /tmp directory, removed after a clean run and kept (path printed)
 * after a failure.
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/argparse.h"
#include "common/cancel.h"
#include "common/child_process.h"
#include "common/failpoint.h"
#include "common/fileutil.h"
#include "common/rng.h"
#include "dist/dist_harness.h"
#include "harness/export.h"
#include "nn/guard/ckpt_store.h"
#include "nn/guard/crash_harness.h"
#include "obs/http_export.h"
#include "obs/obs_server.h"
#include "serve/job_runner.h"
#include "serve/report.h"
#include "sim/faults/kill_schedule.h"

using namespace cq;

namespace {

constexpr const char *kProg = "cq_faultsweep";

/** Child exit codes (anything else, or a signal, is a fatal crash). */
enum ChildExit : int
{
    kHandled = 0,
    /** The scenario never reached the armed site (coverage gap, not
     *  a failure): e.g. a byte offset past the end of the stream. */
    kNotCovered = 40,
    /** A site was evaluated that is not in the declared table. */
    kUndeclaredSite = 42,
    /** A robustness invariant did not hold. */
    kInvariantViolation = 43,
};

/** One armed site for a trial. */
struct Arm
{
    std::string site;
    std::string action;
};

struct Options
{
    std::string mode = "all";
    std::string filter;
    std::string action = "fail,once=1";
    std::string dir;
    std::uint64_t pairs = 12;
    std::uint64_t enospcStride = 997;
    std::uint64_t timeoutMs = 120000;
    std::uint64_t seed = 1;
    std::uint64_t minCovered = 0;
    bool verbose = false;
};

/** How one trial ended. */
enum TrialResult : unsigned
{
    Handled,
    NotCovered,
    Undeclared,
    Invariant,
    Crashed,
    Hung,
    kTrialResults
};

const char *const kTrialResultNames[kTrialResults] = {
    "handled", "not-covered", "UNDECLARED-SITE", "INVARIANT-VIOLATION",
    "CRASHED", "HUNG"};

struct Tally
{
    unsigned count[kTrialResults] = {};
    std::set<std::string> coveredSites;

    bool
    clean() const
    {
        return count[Undeclared] + count[Invariant] + count[Crashed] +
                   count[Hung] ==
               0;
    }
};

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/**
 * Scenario family of a site. Sites of one family fire inside the same
 * short run, which is also the sampling domain for --mode pairs.
 * train.step only takes the `kill` action, so only kill-resume arms
 * it; sweep and pairs skip its "kill" family.
 */
std::string
familyOf(const std::string &site)
{
    if (site == "train.step")
        return "kill";
    if (startsWith(site, "obs."))
        return "obs";
    if (startsWith(site, "dist.manifest."))
        return "dist";
    if (startsWith(site, "serve.report."))
        return "serve";
    if (startsWith(site, "bench.json."))
        return "bench";
    // ckpt.* and fs.* all fire inside the checkpointed resume leg.
    return "ckpt";
}

// --------------------------------------------------------- scenarios
// Each runs in the forked child: arm the sites, set trace mode, run
// the short leg, then check the family's invariants. Return a
// ChildExit (fired/coverage accounting happens in the caller).

void
armAll(const std::vector<Arm> &arms)
{
    for (const Arm &a : arms) {
        std::string err;
        if (!fp::Registry::instance().configureOne(a.site, a.action,
                                                   &err)) {
            std::fprintf(stderr, "%s: bad action '%s': %s\n", kProg,
                         a.action.c_str(), err.c_str());
            std::exit(2);
        }
    }
}

/** Invariant 4: if any generation file survives under @p dir, the
 *  store must still produce a verifying-Ok load. */
bool
storeStillLoads(const std::string &dir)
{
    fp::Registry::instance().disarmAll(); // verify with clean I/O
    std::vector<std::string> names;
    if (!listDirEx(dir, names))
        return true; // store never materialized
    bool anyGen = false;
    for (const std::string &n : names)
        anyGen = anyGen ||
                 nn::guard::CheckpointStore::parseGenerationFileName(
                     n) != 0;
    if (!anyGen)
        return true;
    nn::guard::CheckpointStoreConfig cfg;
    cfg.dir = dir;
    nn::guard::CheckpointStore store(cfg);
    nn::guard::TrainerSnapshot snap;
    return store.loadLatest(snap).result ==
           nn::guard::CheckpointLoadResult::Ok;
}

/**
 * The checkpoint-family leg: a clean leg populates the store, then
 * the armed sites fire inside a resumed leg (covers the write ladder,
 * the manifest rewrite, the read/verify path and the fs helpers).
 */
int
runCkptScenario(const std::string &dir, const std::vector<Arm> &arms,
                CancelToken &cancel)
{
    nn::guard::CrashHarnessConfig cfg;
    cfg.seed = 21;
    cfg.steps = 8;
    cfg.batchSize = 16;
    cfg.dir = dir + "/store";
    cfg.ckptEvery = 2;
    cfg.ckptKeep = 2;
    cfg.asyncCheckpoint = false; // deterministic fire points
    cfg.cancel = &cancel;
    nn::guard::runCrashHarness(cfg);

    armAll(arms);
    cfg.resume = true;
    cfg.steps = 16;
    const auto r = nn::guard::runCrashHarness(cfg);
    if (r.cancelled)
        return kInvariantViolation; // deadline hit: the leg wedged
    // Training must survive any single persistence failure.
    if (r.stepsRun == 0)
        return kInvariantViolation;
    return storeStillLoads(cfg.dir) ? kHandled : kInvariantViolation;
}

/**
 * One leg with every observability output on while a live ObsServer
 * is scraped from a sidecar thread, so the obs.http.* sites evaluate
 * too. Observability is output-only: the leg must train exactly as
 * @p cfg would dark.
 */
nn::guard::CrashHarnessResult
runLitLeg(nn::guard::CrashHarnessConfig cfg, const std::string &dir)
{
    obs::ObsServer server;
    obs::ObsServerConfig scfg; // port 0 = ephemeral
    const bool serverUp = server.start(scfg);
    std::atomic<bool> stopScrape{false};
    std::thread scraper([&] {
        while (serverUp && !stopScrape.load()) {
            int status = 0;
            std::string body;
            // An armed obs.http.* site turns these into dropped
            // connections; the scraper must simply shrug.
            obs::httpGet(server.port(), "/metrics", status, body,
                         500);
            ::usleep(2000);
        }
    });

    cfg.telemetryOut = dir + "/telemetry.jsonl";
    cfg.traceOut = dir + "/trace.json";
    cfg.metricsOut = dir + "/metrics.prom";
    cfg.metricsEvery = 2;
    const auto r = nn::guard::runCrashHarness(cfg);

    // One guaranteed scrape after the leg, so obs.http.accept /
    // obs.http.write are evaluated even on a machine where the leg
    // outruns the sidecar's first connect.
    if (serverUp) {
        int status = 0;
        std::string body;
        obs::httpGet(server.port(), "/healthz", status, body, 500);
    }
    stopScrape.store(true);
    scraper.join();
    server.stop();
    return r;
}

/** The lit leg with @p arms firing; an obs failure must never stop
 *  training. */
int
runObsScenario(const std::string &dir, const std::vector<Arm> &arms,
               CancelToken &cancel)
{
    armAll(arms);
    nn::guard::CrashHarnessConfig cfg;
    cfg.seed = 23;
    cfg.steps = 8;
    cfg.batchSize = 16;
    cfg.cancel = &cancel;
    const auto r = runLitLeg(cfg, dir);
    return (!r.cancelled && r.stepsRun == cfg.steps)
               ? kHandled
               : kInvariantViolation;
}

/** Two-chip leg with shard checkpointing (dist.manifest sites). */
int
runDistScenario(const std::string &dir, const std::vector<Arm> &arms,
                CancelToken &cancel)
{
    armAll(arms);
    dist::DistHarnessConfig cfg;
    cfg.seed = 11;
    cfg.chips = 2;
    cfg.steps = 6;
    cfg.globalBatch = 16;
    cfg.ckptRoot = dir + "/dist";
    cfg.ckptEvery = 2;
    cfg.evalSize = 32;
    cfg.cancel = &cancel;
    const auto r = dist::runDistHarness(cfg);
    return r.train.stepsCompleted == cfg.steps &&
                   r.train.survivors > 0
               ? kHandled
               : kInvariantViolation;
}

/** One standalone job, then persist its report: a failing report file
 *  must end typed (retried or dead-lettered), never lost silently. */
int
runServeScenario(const std::string &dir, const std::vector<Arm> &arms,
                 CancelToken &)
{
    serve::JobSpec spec;
    spec.id = "sweep-job";
    spec.seed = 5;
    spec.steps = 4;
    const serve::JobReport rep = serve::runJobStandalone(spec);

    armAll(arms);
    const std::string path = dir + "/report.json";
    const auto res = serve::writeReportsJson(path, {rep});
    fp::Registry::instance().disarmAll();
    if (res == serve::ReportWriteResult::DeadLettered)
        return kHandled; // typed: content preserved on stderr
    // Claimed written: the file must really be there and parseable
    // as non-empty JSON.
    return fileSize(path) > 2 ? kHandled : kInvariantViolation;
}

/** Export a BENCH_*.json; a failed write must surface through the
 *  error string, never as a silent half-file. */
int
runBenchScenario(const std::string &dir, const std::vector<Arm> &arms,
                 CancelToken &)
{
    bench::RunRecord rec;
    rec.name = "faultsweep_probe";
    rec.area = "faultsweep";
    rec.result.set("probe", 1.0);
    bench::WorkloadContext ctx;
    const bench::Provenance prov = bench::Provenance::capture(ctx);

    armAll(arms);
    std::string err;
    const auto written = bench::writeBenchJsonFiles(
        {rec}, prov, dir + "/bench", err);
    fp::Registry::instance().disarmAll();
    if (!err.empty())
        return kHandled; // typed failure
    if (written.size() != 1 || fileSize(written[0]) <= 2)
        return kInvariantViolation; // silent loss
    return kHandled;
}

/**
 * Child body for one trial: returns a ChildExit. @p family picks the
 * scenario; arms fire inside it.
 */
int
childTrial(const std::string &family, const std::string &dir,
           const std::vector<Arm> &arms, std::uint64_t timeoutMs)
{
    fp::Registry::instance().reset();
    fp::Registry::instance().setTrace(true);
    CancelToken cancel;
    cancel.setDeadlineInMs(timeoutMs);

    int rc;
    if (family == "obs")
        rc = runObsScenario(dir, arms, cancel);
    else if (family == "dist")
        rc = runDistScenario(dir, arms, cancel);
    else if (family == "serve")
        rc = runServeScenario(dir, arms, cancel);
    else if (family == "bench")
        rc = runBenchScenario(dir, arms, cancel);
    else
        rc = runCkptScenario(dir, arms, cancel);

    // Coverage audit: everything evaluated must be declared.
    for (const std::string &s :
         fp::Registry::instance().hitSites()) {
        if (!fp::Registry::isDeclared(s)) {
            std::fprintf(stderr,
                         "%s: site '%s' was evaluated but is not in "
                         "the declared table (common/failpoint.cc)\n",
                         kProg, s.c_str());
            return kUndeclaredSite;
        }
    }
    // Did the armed sites actually fire?
    if (rc == kHandled) {
        std::uint64_t fires = 0;
        for (const Arm &a : arms)
            fires += fp::Registry::instance().site(a.site).fires();
        if (fires == 0)
            return kNotCovered;
    }
    return rc;
}

// ----------------------------------------------------------- parent

/** Classify how a trial child ended: a signal is a crash, a
 *  timeout a hang (invariant 2), an exit code a ChildExit. */
TrialResult
classify(const ChildResult &child)
{
    if (child.kind != ChildResult::Kind::Exited)
        return child.kind == ChildResult::Kind::TimedOut ? Hung : Crashed;
    switch (child.code) {
      case kHandled:            return Handled;
      case kNotCovered:         return NotCovered;
      case kUndeclaredSite:     return Undeclared;
      case kInvariantViolation: return Invariant;
      default:                  return Crashed;
    }
}

/** Remove @p path recursively; exit 2 with a diagnostic if that
 *  fails. */
void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    if (ec) {
        std::fprintf(stderr, "%s: cannot remove %s: %s\n", kProg,
                     path.c_str(), ec.message().c_str());
        std::exit(2);
    }
}

std::string
trialDir(const Options &opt, unsigned index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/trial-%04u", index);
    const std::string d = opt.dir + buf;
    // A --dir reused across runs must not hand a trial the previous
    // run's stores: a resume would restore their generations.
    removeTree(d);
    ensureDir(d);
    return d;
}

unsigned g_trialIndex = 0;

TrialResult
runTrial(const Options &opt, const std::string &family,
         const std::vector<Arm> &arms)
{
    const std::string dir = trialDir(opt, g_trialIndex++);
    const TrialResult res = classify(runInChild(
        [&] { return childTrial(family, dir, arms, opt.timeoutMs); },
        opt.timeoutMs));
    std::string label;
    for (const Arm &a : arms) {
        if (!label.empty())
            label += " + ";
        label += a.site + '=' + a.action;
    }
    if (opt.verbose || res != Handled)
        std::printf("%-11s %-7s %s\n", kTrialResultNames[res],
                    family.c_str(), label.c_str());
    return res;
}

void
tallyUp(Tally &t, TrialResult res, const std::vector<Arm> &arms)
{
    ++t.count[res];
    if (res == Handled)
        for (const Arm &a : arms)
            t.coveredSites.insert(a.site);
}

void
modeSweep(const Options &opt, Tally &tally)
{
    for (const std::string &site : fp::Registry::declaredSites()) {
        if (!opt.filter.empty() && !startsWith(site, opt.filter.c_str()))
            continue;
        if (familyOf(site) == "kill")
            continue;
        const std::vector<Arm> arms = {{site, opt.action}};
        tallyUp(tally, runTrial(opt, familyOf(site), arms), arms);
    }
}

void
modePairs(const Options &opt, Tally &tally)
{
    // Sample pairs within one scenario family: two faults that can
    // genuinely interact inside one run.
    std::map<std::string, std::vector<std::string>> families;
    for (const std::string &site : fp::Registry::declaredSites())
        if (familyOf(site) != "kill")
            families[familyOf(site)].push_back(site);
    Rng rng(opt.seed);
    for (std::uint64_t i = 0; i < opt.pairs; ++i) {
        const auto &[family, sites] =
            *std::next(families.begin(), rng.below(families.size()));
        if (sites.size() < 2)
            continue;
        const std::uint64_t a = rng.below(sites.size());
        std::uint64_t b = rng.below(sites.size() - 1);
        if (b >= a)
            ++b;
        const std::vector<Arm> arms = {{sites[a], opt.action},
                                       {sites[b], opt.action}};
        tallyUp(tally, runTrial(opt, family, arms), arms);
    }
}

void
modeEnospc(const Options &opt, Tally &tally)
{
    // Disk turns full at byte K of the write stream and STAYS full
    // (the short-write splits exactly at K). Scan K across the body
    // and manifest streams until an offset past end-of-stream reports
    // not-covered. Invariant 4 must hold at every offset.
    for (const char *site : {"ckpt.body.write", "ckpt.manifest.write"}) {
        for (std::uint64_t k = 0;; k += opt.enospcStride) {
            const std::vector<Arm> arms = {
                {site, "short,after_bytes=" + std::to_string(k)}};
            const TrialResult res = runTrial(opt, "ckpt", arms);
            tallyUp(tally, res, arms);
            if (res == NotCovered)
                break; // past the total bytes this scenario writes
            if (res != Handled)
                break; // already recorded; no point scanning on
        }
    }
}

/** A whole file's bytes; empty when it is missing. */
std::vector<char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
modeObsIdentity(const Options &opt, Tally &tally)
{
    // Invariant: observability is output-only. A run whose every obs
    // sink failpoint fires (persistently!) — while a live ObsServer
    // is being scraped — must train bitwise identically to a dark
    // run.
    const auto leg = [&](bool lit) {
        const std::string dir = trialDir(opt, g_trialIndex++);
        nn::guard::CrashHarnessConfig cfg;
        cfg.seed = 29;
        cfg.steps = 10;
        cfg.batchSize = 16;
        cfg.mastersOut = dir + "/masters.bin";
        const ChildResult run = runInChild(
            [&] {
                fp::Registry::instance().reset();
                if (lit) {
                    fp::Registry::instance().setTrace(true);
                    for (const std::string &s :
                         fp::Registry::declaredSites())
                        if (startsWith(s, "obs."))
                            armAll({{s, "fail"}});
                }
                const auto r = lit ? runLitLeg(cfg, dir)
                                   : nn::guard::runCrashHarness(cfg);
                return r.stepsRun == cfg.steps ? kHandled
                                               : kInvariantViolation;
            },
            opt.timeoutMs);
        return run.exitedWith(kHandled) ? readFile(cfg.mastersOut)
                                        : std::vector<char>();
    };

    const std::vector<char> dark = leg(false), lit = leg(true);
    const bool identical = !dark.empty() && dark == lit;
    std::printf("obs-identity: lit run's masters %s the dark run's\n",
                identical ? "identical to" : "DIVERGED from");
    ++tally.count[identical ? Handled : Invariant];
    for (const std::string &s : fp::Registry::declaredSites())
        if (identical && startsWith(s, "obs."))
            tally.coveredSites.insert(s);
}

void
modeKillResume(const Options &opt, Tally &tally)
{
    // A SIGKILLed training run resumed from its store must finish
    // with masters bitwise identical to an uninterrupted run: 20
    // planned kills into 60-step runs checkpointing every 5 steps,
    // keep 3, committed on the async writer thread (synchronously in
    // mid-write kill legs, nn::guard::killLegFor).
    constexpr std::size_t kKills = 20;
    const std::string base = trialDir(opt, g_trialIndex++);
    nn::guard::CrashHarnessConfig ref;
    ref.seed = opt.seed + 100; // model/data seed, distinct from plan's
    ref.steps = 60;
    ref.ckptEvery = 5;
    ref.ckptKeep = 3;
    ref.asyncCheckpoint = true;
    ref.dir = base + "/ref";
    ref.mastersOut = base + "/ref-masters.bin";

    // One leg in a child with @p spec armed on top of CQ_FAILPOINTS
    // (e.g. "ckpt.body.write=delay,us=200" for a slow disk).
    const auto leg = [&](const nn::guard::CrashHarnessConfig &cfg,
                         const std::string &spec) {
        return runInChild(
            [&] {
                if (!fp::Registry::instance().configure(spec))
                    return kInvariantViolation;
                nn::guard::runCrashHarness(cfg);
                return kHandled;
            },
            opt.timeoutMs);
    };

    const std::vector<char> refBytes =
        leg(ref, "").exitedWith(kHandled) ? readFile(ref.mastersOut)
                                          : std::vector<char>();
    if (refBytes.empty()) {
        std::printf("kill-resume: reference leg FAILED\n");
        ++tally.count[Invariant];
        return;
    }
    sim::KillScheduleConfig scfg = nn::guard::killScheduleFor(ref);
    scfg.seed = opt.seed;
    scfg.kills = kKills;
    const std::vector<std::string> plan = sim::planKillPoints(scfg);

    unsigned identical = 0, bodyKills = 0, manifestKills = 0;
    for (std::size_t t = 0; t < plan.size(); ++t) {
        const std::string &spec = plan[t];
        const std::string site = spec.substr(0, spec.find('='));
        const nn::guard::CrashHarnessConfig kill = nn::guard::killLegFor(
            ref, spec, base + "/trial-" + std::to_string(t));
        const ChildResult killRun = leg(kill, spec);

        nn::guard::CrashHarnessConfig res = ref;
        res.dir = kill.dir;
        res.resume = true;
        res.mastersOut = kill.dir + "/masters.bin";
        const ChildResult resRun = leg(res, "");

        TrialResult r = Invariant;
        const char *verdict = "bitwise-identical";
        if (killRun.kind == ChildResult::Kind::TimedOut ||
            resRun.kind == ChildResult::Kind::TimedOut) {
            r = Hung;
            verdict = "HUNG";
        } else if (!killRun.killedBy(SIGKILL)) {
            verdict = "SURVIVED-KILL";
        } else if (!resRun.exitedWith(kHandled)) {
            verdict = "RESUME-FAILED";
        } else if (readFile(res.mastersOut) != refBytes) {
            verdict = "MISMATCH";
        } else {
            r = Handled;
            ++identical;
            tally.coveredSites.insert(site);
            bodyKills += site == "ckpt.body.write";
            manifestKills += site == "ckpt.manifest.write";
        }
        ++tally.count[r];
        if (opt.verbose || r != Handled)
            std::printf("kill-resume %2zu  %-42s %s\n", t,
                        spec.c_str(), verdict);
    }
    const bool bothStreams = bodyKills > 0 && manifestKills > 0;
    std::printf("kill-resume: %u/%zu resumed runs bitwise identical; "
                "mid-write kills landed: %u body, %u manifest%s\n",
                identical, plan.size(), bodyKills, manifestKills,
                bothStreams ? "" : " (NEED >= 1 EACH)");
    if (!bothStreams)
        ++tally.count[Invariant];
}

void
modeSelftest(const Options &opt, Tally &tally)
{
    // Deliberately evaluate a site that is NOT in the declared table;
    // the sweep's coverage audit must catch it. If this trial comes
    // back "handled", the audit is broken.
    const TrialResult res = classify(runInChild(
        [] {
            fp::Registry::instance().reset();
            fp::Registry::instance().setTrace(true);
            // A hypothetical unregistered failure path in new code:
            CQ_FAILPOINT("selftest.unregistered_path");
            for (const std::string &s :
                 fp::Registry::instance().hitSites())
                if (!fp::Registry::isDeclared(s))
                    return kUndeclaredSite;
            return kHandled;
        },
        opt.timeoutMs));
    const bool caught = res == Undeclared;
    std::printf("selftest: unregistered failure path %s\n",
                caught ? "caught by the audit" : "NOT CAUGHT");
    ++tally.count[caught ? Handled : Invariant];
}

void
printUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: cq_faultsweep [--mode all|sweep|pairs|enospc|"
        "obs-identity|kill-resume|selftest|list]\n"
        "                     [--filter PREFIX] [--action ACT]\n"
        "                     [--pairs N] [--enospc-stride N]\n"
        "                     [--timeout-ms T] [--seed S]\n"
        "                     [--min-covered N] [--dir D] "
        "[--verbose]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            return args::nextValue(kProg, argc, argv, i);
        };
        if (arg == "--mode")
            opt.mode = next();
        else if (arg == "--filter")
            opt.filter = next();
        else if (arg == "--action")
            opt.action = next();
        else if (arg == "--dir")
            opt.dir = next();
        else if (arg == "--pairs")
            opt.pairs = args::parseU64(kProg, arg, next(), 0, 10000);
        else if (arg == "--enospc-stride")
            opt.enospcStride =
                args::parseU64(kProg, arg, next(), 1, 1u << 30);
        else if (arg == "--timeout-ms")
            opt.timeoutMs =
                args::parseU64(kProg, arg, next(), 100, 3600000);
        else if (arg == "--seed")
            opt.seed = args::parseU64(kProg, arg, next(), 0,
                                      UINT64_MAX);
        else if (arg == "--min-covered")
            opt.minCovered =
                args::parseU64(kProg, arg, next(), 0, 10000);
        else if (arg == "--verbose")
            opt.verbose = true;
        else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", kProg,
                         arg.c_str());
            printUsage(stderr);
            return 2;
        }
    }

    static const char *const kModes[] = {
        "all",          "sweep",       "pairs",    "enospc",
        "obs-identity", "kill-resume", "selftest", "list"};
    if (std::find(std::begin(kModes), std::end(kModes), opt.mode) ==
        std::end(kModes)) {
        std::fprintf(stderr, "%s: unknown mode '%s'\n", kProg,
                     opt.mode.c_str());
        printUsage(stderr);
        return 2;
    }
    if (opt.mode == "list") {
        for (const std::string &s : fp::Registry::declaredSites())
            std::printf("%-24s (%s)\n", s.c_str(),
                        familyOf(s).c_str());
        std::printf("%zu declared sites\n",
                    fp::Registry::declaredSites().size());
        return 0;
    }

    const bool ownDir = opt.dir.empty();
    if (ownDir) {
        char tmpl[] = "/tmp/cq_faultsweep.XXXXXX";
        const char *d = ::mkdtemp(tmpl);
        if (d == nullptr) {
            std::fprintf(stderr, "%s: mkdtemp failed\n", kProg);
            return 2;
        }
        opt.dir = d;
    } else {
        ensureDir(opt.dir);
    }

    Tally tally;
    const auto runs = [&](const char *mode) {
        return opt.mode == "all" || opt.mode == mode;
    };
    if (runs("sweep"))
        modeSweep(opt, tally);
    if (runs("pairs"))
        modePairs(opt, tally);
    if (runs("enospc"))
        modeEnospc(opt, tally);
    if (runs("obs-identity"))
        modeObsIdentity(opt, tally);
    if (runs("kill-resume"))
        modeKillResume(opt, tally);
    if (runs("selftest"))
        modeSelftest(opt, tally);

    std::printf("\nfaultsweep summary: %u handled, %u not-covered, "
                "%u undeclared, %u invariant, %u crashed, %u hung; "
                "%zu/%zu declared sites covered\n",
                tally.count[Handled], tally.count[NotCovered],
                tally.count[Undeclared], tally.count[Invariant],
                tally.count[Crashed], tally.count[Hung],
                tally.coveredSites.size(),
                fp::Registry::declaredSites().size());
    const bool covered = tally.coveredSites.size() >= opt.minCovered;
    if (!covered) {
        std::fprintf(stderr,
                     "%s: only %zu sites covered (< --min-covered "
                     "%llu)\n",
                     kProg, tally.coveredSites.size(),
                     static_cast<unsigned long long>(opt.minCovered));
    }
    if (!tally.clean() || !covered) {
        std::fprintf(stderr, "%s: trial directories kept in %s\n",
                     kProg, opt.dir.c_str());
        return 1;
    }
    if (ownDir)
        removeTree(opt.dir);
    return 0;
}
