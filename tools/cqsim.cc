/**
 * @file
 * cqsim: the command-line front end of the Cambricon-Q simulator.
 *
 * Lowers one of the Table VI workloads (or a custom GEMM) to an
 * instruction stream for the selected target and simulates one
 * training minibatch, printing time, energy, phase/unit breakdowns
 * and (optionally) the per-instruction trace or disassembly.
 *
 * A third mode actually trains: --train spiral runs the quantized
 * spiral-MLP workload under the crash-consistent generation store,
 * with elastic resume (--resume) and clean SIGTERM/SIGINT shutdown
 * (final synchronous checkpoint, then exit 0). Adding --chips N
 * (N >= 2) switches the same task to the N-chip data-parallel
 * trainer (src/dist): LDQ-quantized ring all-reduce over the modeled
 * interconnect, with optional planned faults --chip-fail C@S
 * (chip C crashes at step S) and --straggler C@S (chip C turns
 * persistent straggler from step S); survivors rebalance and finish.
 *
 * Usage:
 *   cqsim --network resnet18 [--target cq|cq-nondp|cq-t|cq-v|tpu]
 *         [--bits 4|8|12|16] [--optimizer sgd|adagrad|rmsprop|adam]
 *         [--batch N] [--stats] [--disasm N] [--trace]
 *   cqsim --gemm m,n,k [--target ...] [--bits ...]
 *   cqsim --train spiral [--steps N] [--seed S] [--ckpt-dir D]
 *         [--ckpt-every N] [--ckpt-keep K] [--resume D]
 *         [--sync-ckpt] [--masters-out F]
 *
 * Observability (all modes): --trace-out F writes a Chrome
 * trace-event JSON (host spans in --train mode, per-unit simulated
 * timelines in --network/--gemm mode); --metrics-out F writes a
 * Prometheus text snapshot. --train additionally takes
 * --telemetry-out F (one JSONL record per step), --metrics-every N
 * (periodic metrics rewrite) and the in-situ correction knobs
 * --ecc, --abft and --fault-rate FLIPS_PER_MBIT.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "arch/accelerator.h"
#include "arch/trace_export.h"
#include "baseline/tpu_sim.h"
#include "common/argparse.h"
#include "common/failpoint.h"
#include "common/signal_flag.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"
#include "common/json.h"
#include "dist/dist_harness.h"
#include "nn/guard/crash_harness.h"
#include "obs/jsonw.h"
#include "obs/metrics.h"
#include "obs/obs_server.h"
#include "obs/trace.h"
#include "serve/report.h"
#include "serve/scheduler.h"

using namespace cq;

namespace {

constexpr const char *kProg = "cqsim";

void
printUsage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: cqsim --network "
        "<alexnet|resnet18|googlenet|squeezenet|transformer|lstm|tiny>\n"
        "             [--target cq|cq-nondp|cq-t|cq-v|tpu] [--bits B]\n"
        "             [--optimizer sgd|adagrad|rmsprop|adam] "
        "[--batch N]\n"
        "             [--stats] [--disasm N] [--trace]\n"
        "       cqsim --gemm m,n,k [options]\n"
        "       cqsim --train spiral [--steps N] [--seed S]\n"
        "             [--ckpt-dir D] [--ckpt-every N] [--ckpt-keep "
        "K]\n"
        "             [--resume D] [--sync-ckpt] [--masters-out F]\n"
        "             [--ecc] [--abft] [--fault-rate R]\n"
        "             [--telemetry-out F] [--metrics-every N]\n"
        "             [--chips N] [--chip-fail C@S] "
        "[--straggler C@S]\n"
        "       cqsim --serve jobs.json [--serve-workers N]\n"
        "             [--serve-queue-cap N] [--serve-report F]\n"
        "observability (all modes):\n"
        "             [--trace-out F] [--metrics-out F]\n"
        "             [--obs-port P]       live scrape endpoint on "
        "127.0.0.1:P (0 = ephemeral);\n"
        "                                  serves /metrics "
        "/metrics.json /healthz /jobs /trace\n"
        "             [--job-trace-dir D]  (--serve) per-job Perfetto "
        "traces in D\n"
        "fault injection (all modes):\n"
        "             [--failpoints SPEC]   "
        "e.g. \"ckpt.body.write=enospc,once=1\"\n"
        "             (also via CQ_FAILPOINTS; see "
        "common/failpoint.h)\n");
}

void
usage()
{
    printUsage(stderr);
    std::exit(2);
}

/** Strict parses shared with the other tools (common/argparse.h). */
std::uint64_t
parseU64(const std::string &flag, const std::string &text,
         std::uint64_t lo, std::uint64_t hi)
{
    return args::parseU64(kProg, flag, text, lo, hi);
}

/** The --train mode: real quantized training with the generation
 *  store, elastic resume and clean signal shutdown. */
struct TrainArgs
{
    std::string task;
    std::uint64_t steps = 60;
    std::uint64_t seed = 17;
    std::string ckptDir;
    std::uint64_t ckptEvery = 5;
    std::uint64_t ckptKeep = 3;
    std::string resumeDir;
    bool syncCkpt = false;
    std::string mastersOut;
    bool ecc = false;
    bool abft = false;
    double faultRate = 0.0;
    std::string telemetryOut;
    std::uint64_t metricsEvery = 0;

    // Distributed leg (--chips >= 2 routes to src/dist).
    std::uint64_t chips = 1;
    std::string chipFail;  // "C@S": chip C crashes at step S
    std::string straggler; // "C@S": chip C straggles from step S
};

/** The live observability plane (--obs-port). */
struct ObsPlaneArgs
{
    /** -1 = off; 0 = ephemeral (the bound port is printed). */
    int port = -1;
    /** --serve only: per-job trace file directory. */
    std::string jobTraceDir;

    bool enabled() const { return port >= 0; }
};

/**
 * Pre-create the stable metric families, so a scrape that arrives
 * before the first training step already sees every series a
 * dashboard would alert on (Prometheus treats a missing series as
 * "no data", not zero).
 */
void
touchScrapeFamilies()
{
    auto &reg = obs::MetricRegistry::instance();
    reg.counter("trainer.steps");
    reg.gauge("trainer.loss");
    reg.histogram("trainer.step_time_us");
    reg.histogram("dist.allreduce_latency_us");
    reg.counter("serve.submitted");
    reg.counter("serve.accepted");
    reg.counter("serve.completed");
}

/** Start the scrape server; prints the bound port (tests and the CI
 *  observability job parse the "obs:" line). */
bool
startObsServer(obs::ObsServer &server, obs::ObsServerConfig cfg,
               int port)
{
    touchScrapeFamilies();
    cfg.port = port;
    if (!server.start(std::move(cfg))) {
        std::fprintf(stderr, "cqsim: --obs-port %d unavailable\n",
                     port);
        return false;
    }
    std::printf("obs:       serving on port %d (/metrics "
                "/metrics.json /healthz /jobs /trace)\n",
                server.port());
    std::fflush(stdout);
    return true;
}

/** /healthz component reading the trainer.* registry families. */
std::string
trainerHealthJson()
{
    auto &reg = obs::MetricRegistry::instance();
    std::string out = "{\"steps\":";
    out += std::to_string(static_cast<std::uint64_t>(
        reg.counter("trainer.steps").value()));
    out += ",\"loss\":";
    obs::appendJsonNumber(out, reg.gauge("trainer.loss").value());
    out += '}';
    return out;
}

/** Parse a "C@S" planned-fault spec (chip index @ global step). */
bool
parseChipAtStep(const std::string &flag, const std::string &text,
                std::size_t chips, std::size_t &chip,
                std::uint64_t &step)
{
    unsigned long long c = 0, s = 0;
    char tail = '\0';
    if (std::sscanf(text.c_str(), "%llu@%llu%c", &c, &s, &tail) != 2 ||
        s == 0) {
        std::fprintf(stderr,
                     "cqsim: bad %s spec '%s' (want CHIP@STEP with "
                     "STEP >= 1)\n",
                     flag.c_str(), text.c_str());
        return false;
    }
    if (c >= chips) {
        std::fprintf(stderr,
                     "cqsim: %s chip %llu out of range (have %zu "
                     "chips)\n",
                     flag.c_str(), c, chips);
        return false;
    }
    chip = static_cast<std::size_t>(c);
    step = s;
    return true;
}

/** The --train ... --chips N leg: N-chip data-parallel training with
 *  LDQ-quantized ring all-reduce and optional planned chip faults. */
int
runTrainDist(const TrainArgs &a, const std::string &traceOut,
             const std::string &metricsOut, const ObsPlaneArgs &obsArgs)
{
    dist::DistHarnessConfig cfg;
    cfg.seed = a.seed;
    cfg.chips = static_cast<std::size_t>(a.chips);
    cfg.steps = a.steps;
    cfg.link.corruptFlipsPerMbit = a.faultRate;
    cfg.ckptRoot = a.ckptDir.empty() ? a.resumeDir : a.ckptDir;
    cfg.ckptEvery = a.ckptDir.empty() ? 0 : a.ckptEvery;
    cfg.resume = !a.resumeDir.empty();
    cfg.resumeRoot = a.resumeDir;

    cfg.faults.resize(cfg.chips);
    if (!a.chipFail.empty()) {
        std::size_t chip = 0;
        std::uint64_t step = 0;
        if (!parseChipAtStep("--chip-fail", a.chipFail, cfg.chips,
                             chip, step))
            return 2;
        cfg.faults[chip].crashAtStep = step;
    }
    if (!a.straggler.empty()) {
        std::size_t chip = 0;
        std::uint64_t step = 0;
        if (!parseChipAtStep("--straggler", a.straggler, cfg.chips,
                             chip, step))
            return 2;
        cfg.faults[chip].stragglerFromStep = step;
    }

    // Tracing feeds both --trace-out and the live /trace endpoint;
    // per-chip contexts land the spans on pid-3 "chip-N" tracks.
    if (!traceOut.empty() || obsArgs.enabled())
        obs::TraceSession::instance().setEnabled(true);
    obs::ObsServer obsServer;
    if (obsArgs.enabled()) {
        obs::ObsServerConfig ocfg;
        const std::size_t chipsTotal =
            static_cast<std::size_t>(a.chips);
        ocfg.health.emplace_back("trainer", trainerHealthJson);
        ocfg.health.emplace_back("dist", [chipsTotal] {
            auto &reg = obs::MetricRegistry::instance();
            std::string out = "{\"chips_alive\":";
            out += std::to_string(static_cast<std::uint64_t>(
                reg.gauge("dist.chips_alive").value()));
            out += ",\"chips_total\":";
            out += std::to_string(chipsTotal);
            out += ",\"step\":";
            out += std::to_string(static_cast<std::uint64_t>(
                reg.gauge("dist.step").value()));
            out += '}';
            return out;
        });
        if (!startObsServer(obsServer, std::move(ocfg), obsArgs.port))
            return 2;
    }

    std::printf("dist:      spiral MLP on %llu chips, steps %llu, "
                "seed %llu\n",
                static_cast<unsigned long long>(a.chips),
                static_cast<unsigned long long>(a.steps),
                static_cast<unsigned long long>(a.seed));
    if (!cfg.ckptRoot.empty()) {
        if (cfg.ckptEvery > 0)
            std::printf("ckpt:      root %s, wave every %llu steps\n",
                        cfg.ckptRoot.c_str(),
                        static_cast<unsigned long long>(
                            cfg.ckptEvery));
        else
            std::printf("ckpt:      root %s, final wave only\n",
                        cfg.ckptRoot.c_str());
    }

    const dist::DistHarnessResult r = dist::runDistHarness(cfg);
    const dist::DistTrainerResult &t = r.train;

    if (cfg.resume) {
        if (t.resumed)
            std::printf("resume:    global step %llu restored onto "
                        "%llu chips\n",
                        static_cast<unsigned long long>(t.resumedStep),
                        static_cast<unsigned long long>(a.chips));
        else
            std::printf("resume:    cold start (no usable shard "
                        "snapshot in %s)\n",
                        a.resumeDir.c_str());
    }
    for (const dist::ChipFailureEvent &ev : t.failures)
        std::printf("failure:   chip %zu %s at step %llu (survivors "
                    "rebalanced)\n",
                    ev.chip, dist::chipFailureName(ev.kind),
                    static_cast<unsigned long long>(ev.step));
    std::printf("result:    %llu/%llu steps committed, %zu/%llu "
                "chips survived, final loss %.6f, masters crc %08x "
                "(%s)\n",
                static_cast<unsigned long long>(t.stepsCompleted),
                static_cast<unsigned long long>(a.steps),
                t.survivors,
                static_cast<unsigned long long>(a.chips), t.finalLoss,
                t.mastersCrc,
                t.replicasIdentical ? "replicas identical"
                                    : "REPLICA DIVERGENCE");
    std::printf("wire:      %llu bytes on wire (fp32 would be %llu, "
                "%.2fx), %llu retransmits, %.1f ms simulated\n",
                static_cast<unsigned long long>(t.bytesOnWire),
                static_cast<unsigned long long>(t.fp32Bytes),
                t.bytesOnWire > 0
                    ? static_cast<double>(t.fp32Bytes) /
                          static_cast<double>(t.bytesOnWire)
                    : 0.0,
                static_cast<unsigned long long>(t.retransmits),
                t.simUs / 1000.0);
    std::printf("accuracy:  %.4f on the held-out spiral set\n",
                r.accuracy);

    obsServer.stop();
    if (!traceOut.empty()) {
        if (obs::TraceSession::instance().writeChromeTrace(traceOut))
            std::printf("trace:     %s (chrome://tracing, per-chip "
                        "tracks)\n",
                        traceOut.c_str());
    }
    if (!metricsOut.empty())
        obs::MetricRegistry::instance().writeProm(metricsOut, {});

    if (!t.replicasIdentical)
        return 1;
    return t.survivors > 0 ? 0 : 1;
}

int
runTrain(const TrainArgs &a, const std::string &traceOut,
         const std::string &metricsOut, const ObsPlaneArgs &obsArgs)
{
    if (a.task != "spiral") {
        std::fprintf(stderr,
                     "cqsim: unknown --train task '%s' (supported: "
                     "spiral)\n",
                     a.task.c_str());
        return 2;
    }
    if (a.chips >= 2)
        return runTrainDist(a, traceOut, metricsOut, obsArgs);
    if (!a.chipFail.empty() || !a.straggler.empty()) {
        std::fprintf(stderr, "cqsim: --chip-fail/--straggler need "
                             "--chips >= 2\n");
        return 2;
    }
    // A live scrape port counts as an output: the run is observable
    // even if nothing lands on disk.
    if (a.ckptDir.empty() && a.resumeDir.empty() &&
        a.mastersOut.empty() && traceOut.empty() &&
        metricsOut.empty() && a.telemetryOut.empty() &&
        !obsArgs.enabled()) {
        std::fprintf(stderr,
                     "cqsim: --train needs --ckpt-dir, --resume, "
                     "--masters-out, --obs-port or an observability "
                     "output (nothing would be persisted)\n");
        return 2;
    }

    nn::guard::CrashHarnessConfig cfg;
    cfg.seed = a.seed;
    cfg.steps = a.steps;
    cfg.dir = a.ckptDir.empty() ? a.resumeDir : a.ckptDir;
    cfg.ckptEvery = a.ckptEvery;
    cfg.ckptKeep = static_cast<std::size_t>(a.ckptKeep);
    cfg.asyncCheckpoint = !a.syncCkpt;
    cfg.resume = !a.resumeDir.empty();
    cfg.resumeDir = a.resumeDir;
    cfg.handleSignals = true;
    cfg.mastersOut = a.mastersOut;
    cfg.ecc = a.ecc;
    cfg.abft = a.abft;
    cfg.faultFlipsPerMbit = a.faultRate;
    cfg.traceOut = traceOut;
    cfg.metricsOut = metricsOut;
    cfg.telemetryOut = a.telemetryOut;
    cfg.metricsEvery = a.metricsEvery;

    installShutdownSignalHandler();

    if (obsArgs.enabled())
        obs::TraceSession::instance().setEnabled(true);
    obs::ObsServer obsServer;
    if (obsArgs.enabled()) {
        obs::ObsServerConfig ocfg;
        // Train-mode /metrics exposes the typed registry families
        // only: the trainer's StatGroups are not thread-safe to
        // snapshot mid-run, so they stay in the end-of-run dumps.
        ocfg.health.emplace_back("trainer", trainerHealthJson);
        if (!startObsServer(obsServer, std::move(ocfg), obsArgs.port))
            return 2;
    }

    std::printf("train:     spiral MLP, steps %llu, seed %llu\n",
                static_cast<unsigned long long>(a.steps),
                static_cast<unsigned long long>(a.seed));
    if (!cfg.dir.empty())
        std::printf("ckpt:      dir %s, every %llu, keep %llu, %s\n",
                    cfg.dir.c_str(),
                    static_cast<unsigned long long>(a.ckptEvery),
                    static_cast<unsigned long long>(a.ckptKeep),
                    cfg.asyncCheckpoint ? "async" : "sync");
    if (!traceOut.empty() || !metricsOut.empty() ||
        !a.telemetryOut.empty())
        std::printf("obs:       trace %s, metrics %s, telemetry %s\n",
                    traceOut.empty() ? "-" : traceOut.c_str(),
                    metricsOut.empty() ? "-" : metricsOut.c_str(),
                    a.telemetryOut.empty() ? "-"
                                           : a.telemetryOut.c_str());

    const auto r = nn::guard::runCrashHarness(cfg);

    if (cfg.resume) {
        if (r.resumed)
            std::printf("resume:    generation %llu at step %llu "
                        "(%llu corrupt generations skipped)\n",
                        static_cast<unsigned long long>(
                            r.resumedGeneration),
                        static_cast<unsigned long long>(
                            r.resumedStep),
                        static_cast<unsigned long long>(
                            r.skippedCorrupt));
        else
            std::printf("resume:    cold start (no usable "
                        "generation in %s)\n",
                        a.resumeDir.c_str());
    }
    std::printf("result:    %llu steps run, final loss %.6f, "
                "masters crc %08x\n",
                static_cast<unsigned long long>(r.stepsRun),
                r.finalLoss, r.mastersCrc);
    if (r.stopRequested)
        std::printf("shutdown:  signal handled; final checkpoint "
                    "committed before exit\n");
    return 0;
}

/** The --serve mode: run a job file through the multi-tenant
 *  scheduler (src/serve/). SIGTERM/SIGINT drains gracefully — running
 *  jobs stop at their next checkpoint-clean step boundary — and a
 *  second signal exits immediately (common/signal_flag.cc). */
struct ServeArgs
{
    std::string jobsPath;
    std::uint64_t workers = 0;  // 0 = job-file / default
    std::uint64_t queueCap = 0; // 0 = job-file / default
    std::string reportOut;
};

bool
parseServeJob(const json::Value &v, serve::JobSpec &spec,
              std::string &err)
{
    if (!v.isObject()) {
        err = "job entry is not an object";
        return false;
    }
    spec.id = v.stringOr("id", "");
    spec.tenant = v.stringOr("tenant", "default");
    const std::string kind = v.stringOr("kind", "train");
    if (kind == "train")
        spec.kind = serve::JobKind::Train;
    else if (kind == "sweep")
        spec.kind = serve::JobKind::Sweep;
    else if (kind == "sim")
        spec.kind = serve::JobKind::Sim;
    else if (kind == "train_dist")
        spec.kind = serve::JobKind::TrainDist;
    else {
        err = "unknown kind '" + kind + "'";
        return false;
    }
    const std::string prio = v.stringOr("priority", "normal");
    if (prio == "low")
        spec.priority = serve::Priority::Low;
    else if (prio == "normal")
        spec.priority = serve::Priority::Normal;
    else if (prio == "high")
        spec.priority = serve::Priority::High;
    else {
        err = "unknown priority '" + prio + "'";
        return false;
    }
    spec.seed = static_cast<std::uint64_t>(v.numberOr("seed", 17));
    spec.steps = static_cast<std::uint64_t>(v.numberOr("steps", 40));
    spec.faultRate = v.numberOr("faultRate", 0.0);
    spec.ckptDir = v.stringOr("ckptDir", "");
    spec.deadlineMs =
        static_cast<std::uint32_t>(v.numberOr("deadlineMs", 0));
    spec.maxRetries =
        static_cast<std::uint32_t>(v.numberOr("maxRetries", 2));
    spec.chips = static_cast<std::size_t>(v.numberOr("chips", 4));
    spec.chipFailStep =
        static_cast<std::uint64_t>(v.numberOr("chipFailStep", 0));
    spec.stragglerStep =
        static_cast<std::uint64_t>(v.numberOr("stragglerStep", 0));
    return true;
}

int
runServe(const ServeArgs &a, const std::string &metricsOut,
         const ObsPlaneArgs &obsArgs)
{
    const json::ParseResult parsed = json::parseFile(a.jobsPath);
    if (!parsed.ok) {
        std::fprintf(stderr, "cqsim: %s: %s (at byte %zu)\n",
                     a.jobsPath.c_str(), parsed.error.c_str(),
                     parsed.errorAt);
        return 2;
    }
    const json::Value &root = parsed.value;
    const json::Array *jobs = nullptr;
    serve::SchedulerConfig cfg;
    if (root.isArray()) {
        jobs = &root.asArray();
    } else if (root.isObject()) {
        cfg.workers = static_cast<unsigned>(root.numberOr(
            "workers", static_cast<double>(cfg.workers)));
        cfg.queue.capacity = static_cast<std::size_t>(root.numberOr(
            "queueCapacity",
            static_cast<double>(cfg.queue.capacity)));
        cfg.threadsPerJob = static_cast<unsigned>(root.numberOr(
            "threadsPerJob", static_cast<double>(cfg.threadsPerJob)));
        cfg.shrinkWatermark =
            root.numberOr("shrinkWatermark", cfg.shrinkWatermark);
        cfg.backoffBaseMs = static_cast<std::uint32_t>(root.numberOr(
            "backoffBaseMs", static_cast<double>(cfg.backoffBaseMs)));
        const json::Value *arr = root.find("jobs");
        if (arr != nullptr && arr->isArray())
            jobs = &arr->asArray();
    }
    if (jobs == nullptr) {
        std::fprintf(stderr,
                     "cqsim: %s: expected a job array or an object "
                     "with a \"jobs\" array\n",
                     a.jobsPath.c_str());
        return 2;
    }
    if (a.workers > 0)
        cfg.workers = static_cast<unsigned>(a.workers);
    if (a.queueCap > 0)
        cfg.queue.capacity = static_cast<std::size_t>(a.queueCap);
    cfg.perJobTraceDir = obsArgs.jobTraceDir;
    if (!obsArgs.jobTraceDir.empty() || obsArgs.enabled())
        obs::TraceSession::instance().setEnabled(true);

    installShutdownSignalHandler();
    serve::Scheduler sched(cfg);

    obs::ObsServer obsServer;
    if (obsArgs.enabled()) {
        obs::ObsServerConfig ocfg;
        // Scheduler::statGroup() snapshots under the scheduler lock
        // and returns by value, so bridging it into a live scrape is
        // safe from the server thread.
        ocfg.bridged = [&sched] {
            std::vector<StatGroup> v;
            v.push_back(sched.statGroup());
            return v;
        };
        ocfg.jobsJson = [&sched] { return sched.jobsJson(); };
        ocfg.health.emplace_back("serve", [&sched] {
            const serve::SchedulerStats s = sched.stats();
            std::string out = "{\"queued\":";
            out += std::to_string(sched.queueDepth());
            out += ",\"running\":";
            out += std::to_string(sched.runningCount());
            out += ",\"accepted\":";
            out += std::to_string(s.accepted);
            out += ",\"terminal\":";
            out += std::to_string(s.terminal());
            out += ",\"draining\":";
            out += sched.draining() ? "true" : "false";
            out += "}";
            return out;
        });
        if (!startObsServer(obsServer, std::move(ocfg), obsArgs.port))
            return 2;
    }
    std::printf("serve:     %zu jobs, %u workers, queue capacity "
                "%zu\n",
                jobs->size(), sched.config().workers,
                sched.config().queue.capacity);

    for (const json::Value &v : *jobs) {
        serve::JobSpec spec;
        std::string err;
        if (!parseServeJob(v, spec, err)) {
            std::fprintf(stderr, "cqsim: %s: %s\n", a.jobsPath.c_str(),
                         err.c_str());
            return 2;
        }
        const serve::SubmitOutcome out = sched.submit(spec);
        std::printf("submit:    %-20s %-19s backpressure %s%s%s\n",
                    spec.id.c_str(),
                    serve::admissionVerdictName(out.verdict),
                    serve::backpressureName(out.backpressure),
                    out.shedJobId.empty() ? "" : ", shed ",
                    out.shedJobId.c_str());
        if (out.verdict == serve::AdmissionVerdict::RejectedInvalid)
            std::printf("           (%s)\n", out.reason.c_str());
    }

    // Drain on the first SIGTERM/SIGINT; the handler escalates a
    // second signal to an immediate exit on its own.
    while (!sched.waitIdle(50)) {
        if (shutdownRequested() && !sched.draining()) {
            std::printf("serve:     shutdown signal - draining "
                        "(running jobs stop at their next "
                        "checkpoint)\n");
            sched.requestDrain();
        }
    }

    obsServer.stop();

    for (const serve::JobReport &r : sched.reports()) {
        std::printf("job:       %-20s %-10s attempts %u, crc %08x, "
                    "queue %.1f ms, run %.1f ms%s%s\n",
                    r.id.c_str(), serve::jobStateName(r.state),
                    r.attempts, r.resultCrc, r.queueMs, r.runMs,
                    r.detail.empty() ? "" : " - ",
                    r.detail.c_str());
    }
    const serve::SchedulerStats s = sched.stats();
    std::printf("summary:   %llu submitted, %llu accepted, %llu "
                "completed, %llu failed, %llu cancelled, %llu "
                "timed-out, %llu shed, %llu rejected, %llu retries\n",
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.failed),
                static_cast<unsigned long long>(s.cancelled),
                static_cast<unsigned long long>(s.timedOut),
                static_cast<unsigned long long>(s.shed),
                static_cast<unsigned long long>(
                    s.rejectedFull + s.rejectedShutdown +
                    s.rejectedInvalid),
                static_cast<unsigned long long>(s.retries));

    if (!a.reportOut.empty()) {
        // Bounded retry with a stderr dead-letter on exhaustion: the
        // reports are the run's ground truth, so a full disk must not
        // lose them silently (serve/report.h).
        const auto wres =
            serve::writeReportsJson(a.reportOut, sched.reports());
        if (wres == serve::ReportWriteResult::DeadLettered)
            std::fprintf(stderr,
                         "cqsim: report %s dead-lettered to stderr\n",
                         a.reportOut.c_str());
    }
    if (!metricsOut.empty()) {
        const StatGroup g = sched.statGroup();
        // writeProm checks every stage and reports through
        // obs.write_errors; a failed metrics dump warns but does not
        // turn a successful serve run into a failure.
        obs::MetricRegistry::instance().writeProm(metricsOut, {&g});
    }
    return s.failed == 0 ? 0 : 1;
}

compiler::WorkloadIR
pickWorkload(const std::string &name, std::size_t batch)
{
    const std::size_t b = batch;
    if (name == "alexnet")
        return compiler::buildAlexNet(b ? b : 32);
    if (name == "resnet18")
        return compiler::buildResNet18(b ? b : 32);
    if (name == "googlenet")
        return compiler::buildGoogLeNet(b ? b : 32);
    if (name == "squeezenet")
        return compiler::buildSqueezeNet(b ? b : 32);
    if (name == "transformer")
        return compiler::buildTransformerBase(b ? b : 260);
    if (name == "lstm")
        return compiler::buildPtbLstm(b ? b : 1000);
    if (name == "tiny")
        return compiler::buildTinyCnn(b ? b : 4);
    std::fprintf(stderr, "unknown network '%s'\n", name.c_str());
    usage();
    __builtin_unreachable();
}

compiler::WorkloadIR
gemmWorkload(const std::string &spec)
{
    std::uint64_t m = 0, n = 0, k = 0;
    if (std::sscanf(spec.c_str(), "%llu,%llu,%llu",
                    reinterpret_cast<unsigned long long *>(&m),
                    reinterpret_cast<unsigned long long *>(&n),
                    reinterpret_cast<unsigned long long *>(&k)) != 3 ||
        m == 0 || n == 0 || k == 0) {
        std::fprintf(stderr, "bad --gemm spec '%s' (want m,n,k)\n",
                     spec.c_str());
        usage();
    }
    compiler::NetworkBuilder b("gemm-" + spec, m);
    b.inputFlat(k);
    b.fc("gemm", n, false, m);
    return b.build();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string network, gemm, target = "cq", optimizer = "rmsprop";
    int bits = 8;
    std::size_t batch = 0, disasm = 0;
    bool stats = false, trace = false;
    std::string traceOut, metricsOut;
    ObsPlaneArgs obsArgs;
    TrainArgs train;
    ServeArgs serveArgs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            return args::nextValue(kProg, argc, argv, i);
        };
        if (arg == "--network")
            network = next();
        else if (arg == "--gemm")
            gemm = next();
        else if (arg == "--target")
            target = next();
        else if (arg == "--bits")
            bits = static_cast<int>(parseU64(arg, next(), 1, 64));
        else if (arg == "--optimizer")
            optimizer = next();
        else if (arg == "--batch")
            batch = static_cast<std::size_t>(
                parseU64(arg, next(), 1, 1u << 20));
        else if (arg == "--disasm")
            disasm = static_cast<std::size_t>(
                parseU64(arg, next(), 1, 1u << 24));
        else if (arg == "--stats")
            stats = true;
        else if (arg == "--trace")
            trace = true;
        else if (arg == "--train")
            train.task = next();
        else if (arg == "--serve")
            serveArgs.jobsPath = next();
        else if (arg == "--serve-workers")
            serveArgs.workers = parseU64(arg, next(), 1, 256);
        else if (arg == "--serve-queue-cap")
            serveArgs.queueCap = parseU64(arg, next(), 1, 1u << 20);
        else if (arg == "--serve-report")
            serveArgs.reportOut = next();
        else if (arg == "--steps")
            train.steps = parseU64(arg, next(), 1, 1000000);
        else if (arg == "--seed")
            train.seed = parseU64(arg, next(), 0, UINT64_MAX);
        else if (arg == "--ckpt-dir")
            train.ckptDir = next();
        else if (arg == "--ckpt-every")
            train.ckptEvery = parseU64(arg, next(), 1, 1000000);
        else if (arg == "--ckpt-keep")
            train.ckptKeep = parseU64(arg, next(), 1, 1000);
        else if (arg == "--resume")
            train.resumeDir = next();
        else if (arg == "--sync-ckpt")
            train.syncCkpt = true;
        else if (arg == "--masters-out")
            train.mastersOut = next();
        else if (arg == "--ecc")
            train.ecc = true;
        else if (arg == "--abft")
            train.abft = true;
        else if (arg == "--fault-rate")
            train.faultRate = args::parseNonNegF64(kProg, arg, next());
        else if (arg == "--failpoints") {
            std::string fpErr;
            if (!fp::Registry::instance().configure(next(), &fpErr)) {
                std::fprintf(stderr, "cqsim: bad --failpoints: %s\n",
                             fpErr.c_str());
                return 2;
            }
        } else if (arg == "--trace-out")
            traceOut = next();
        else if (arg == "--metrics-out")
            metricsOut = next();
        else if (arg == "--telemetry-out")
            train.telemetryOut = next();
        else if (arg == "--metrics-every")
            train.metricsEvery = parseU64(arg, next(), 1, 1000000);
        else if (arg == "--chips")
            train.chips = parseU64(arg, next(), 1, 32);
        else if (arg == "--chip-fail")
            train.chipFail = next();
        else if (arg == "--straggler")
            train.straggler = next();
        else if (arg == "--obs-port")
            obsArgs.port =
                static_cast<int>(parseU64(arg, next(), 0, 65535));
        else if (arg == "--job-trace-dir")
            obsArgs.jobTraceDir = next();
        else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else {
            std::fprintf(stderr,
                         "cqsim: unknown flag '%s' (see --help)\n",
                         arg.c_str());
            return 2;
        }
    }
    const int modes = (network.empty() ? 0 : 1) +
                      (gemm.empty() ? 0 : 1) +
                      (train.task.empty() ? 0 : 1) +
                      (serveArgs.jobsPath.empty() ? 0 : 1);
    if (modes != 1) {
        std::fprintf(stderr,
                     "cqsim: pick exactly one of --network / --gemm "
                     "/ --train / --serve\n");
        return 2;
    }
    if (!train.task.empty())
        return runTrain(train, traceOut, metricsOut, obsArgs);
    if (!serveArgs.jobsPath.empty())
        return runServe(serveArgs, metricsOut, obsArgs);

    const compiler::WorkloadIR ir =
        gemm.empty() ? pickWorkload(network, batch)
                     : gemmWorkload(gemm);

    arch::CambriconQConfig cfg;
    compiler::CodegenOptions opts;
    if (target == "cq") {
        cfg = arch::CambriconQConfig::edge();
    } else if (target == "cq-nondp") {
        cfg = arch::CambriconQConfig::edgeNoNdp();
    } else if (target == "cq-t") {
        cfg = arch::CambriconQConfig::throughputT();
    } else if (target == "cq-v") {
        cfg = arch::CambriconQConfig::throughputV();
    } else if (target == "tpu") {
        cfg = baseline::tpuConfig();
        opts.target = compiler::CodegenOptions::Target::Tpu;
    } else {
        std::fprintf(stderr, "unknown target '%s'\n", target.c_str());
        usage();
    }
    if (bits != 4 && bits != 8 && bits != 12 && bits != 16) {
        std::fprintf(stderr, "unsupported --bits %d\n", bits);
        usage();
    }
    opts.bits = bits;
    if (optimizer == "sgd")
        opts.optimizer = nn::OptimizerKind::SGD;
    else if (optimizer == "adagrad")
        opts.optimizer = nn::OptimizerKind::AdaGrad;
    else if (optimizer == "rmsprop")
        opts.optimizer = nn::OptimizerKind::RMSProp;
    else if (optimizer == "adam")
        opts.optimizer = nn::OptimizerKind::Adam;
    else
        usage();

    const arch::Program prog =
        compiler::generateProgram(ir, cfg, opts);
    const auto traffic = compiler::summarizeTraffic(prog);

    std::printf("workload:  %s (batch %zu, %.2f GMACs, %.1f M "
                "weights)\n",
                ir.name.c_str(), ir.batch, ir.totalMacs / 1e9,
                ir.totalWeights / 1e6);
    std::printf("target:    %s @ INT%d, optimizer %s\n",
                cfg.name.c_str(), bits, optimizer.c_str());
    std::printf("program:   %zu instructions, %.3f GB loads, %.3f GB "
                "stores\n",
                prog.size(), traffic.loadBytes / 1e9,
                traffic.storeBytes / 1e9);

    if (disasm > 0) {
        std::printf("\ndisassembly (first %zu):\n",
                    std::min(disasm, prog.size()));
        for (std::size_t i = 0; i < std::min(disasm, prog.size());
             ++i) {
            const arch::Instr &ins = prog[i];
            std::printf("  %6zu: %s ; %s\n", i, ins.toString().c_str(),
                        ins.task == arch::kNoTask
                            ? "-"
                            : ir.tasks[ins.task].layer().c_str());
        }
    }

    arch::Accelerator acc(cfg);
    // --trace-out needs the per-instruction trace even when the
    // textual --trace dump was not requested.
    const auto report = acc.run(prog, trace || !traceOut.empty());

    std::printf("\nresult:    %.3f ms, %.2f mJ (%.2f W average)\n",
                report.timeMs(cfg.freqGhz), report.energyMj(),
                report.energyMj() / report.timeMs(cfg.freqGhz));
    std::printf("phases:   ");
    for (std::size_t p = 0; p < arch::kNumPhases; ++p)
        std::printf(" %s=%.1f%%",
                    arch::phaseName(static_cast<arch::Phase>(p)),
                    100.0 * report.phaseFraction(
                                static_cast<arch::Phase>(p)));
    std::printf("\nunits:    ");
    for (std::size_t u = 0; u < arch::kNumUnits; ++u)
        std::printf(" %s=%.1f%%",
                    arch::unitName(static_cast<arch::Unit>(u)),
                    100.0 * report.unitBusy[u] /
                        static_cast<double>(report.totalTicks));
    std::printf("\nenergy:    ACC %.1f mJ | BUF %.1f mJ | DDR-dyn "
                "%.1f mJ | DDR-standby %.1f mJ | static %.1f mJ\n",
                report.energy.accPj * 1e-9,
                report.energy.bufPj * 1e-9,
                report.energy.ddrDynamicPj * 1e-9,
                report.energy.ddrStandbyPj * 1e-9,
                report.energy.chipStaticPj * 1e-9);

    if (stats) {
        std::printf("\n%s",
                    report.activity.dump("activity counters:").c_str());
    }
    if (trace) {
        std::printf("\ntrace: %zu entries (instr unit phase start "
                    "end); first 20:\n",
                    report.trace.size());
        for (std::size_t i = 0;
             i < std::min<std::size_t>(20, report.trace.size()); ++i) {
            const auto &e = report.trace[i];
            std::printf("  %6u %-9s %-2s %10llu %10llu\n", e.instr,
                        arch::unitName(e.unit),
                        arch::phaseName(e.phase),
                        static_cast<unsigned long long>(e.start),
                        static_cast<unsigned long long>(e.end));
        }
    }
    if (!traceOut.empty()) {
        auto &session = obs::TraceSession::instance();
        session.setEnabled(true);
        const std::size_t spans = arch::exportPerfTraceToSession(
            report, cfg.freqGhz, session);
        session.writeChromeTrace(traceOut);
        std::printf("trace-out: %zu simulated spans -> %s\n", spans,
                    traceOut.c_str());
    }
    if (!metricsOut.empty()) {
        obs::MetricRegistry::instance().writeProm(metricsOut,
                                                  {&report.activity});
        std::printf("metrics:   activity counters -> %s\n",
                    metricsOut.c_str());
    }
    return 0;
}
